import sys
import tracemalloc
from array import array

import pytest

import hookbound.bounds
import hookbound.celltyping
import hookbound.partitions
from hookbound.partitions import Partition

# the array code of each lane width a typing's columns take
LANE_CODES = {array(code).itemsize: code for code in ("h", "i", "q")}


def clear_count_tables():
    """Empty the row store and the P and Q triangles of the count table."""
    hookbound.partitions._count.cache_clear()
    del hookbound.partitions._p_rows[1:]
    del hookbound.partitions._q_rows[1:]


@pytest.fixture
def cold_table():
    """A count table emptied before and after the test; the test may clear it again."""
    clear_count_tables()
    yield clear_count_tables
    clear_count_tables()


@pytest.fixture
def cold_degrees():
    """The bounds' degree memo emptied before and after the test."""
    hookbound.bounds._degree.cache_clear()
    yield hookbound.bounds._degree.cache_clear
    hookbound.bounds._degree.cache_clear()


@pytest.fixture(autouse=True, scope="session")
def typing_hooks_match_the_grid():
    """Every cell typing the suite builds has the hooks of ``Partition.hook_grid()``.

    The check is skipped while tracemalloc traces, where a test bounds the
    memory that the typing itself takes.
    """
    built = hookbound.celltyping._hook_column

    def checked(parts, widths, cols, size, order):
        hooks = built(parts, widths, cols, size, order)
        if not tracemalloc.is_tracing():
            column = array(LANE_CODES[size], hooks)
            if order != sys.byteorder:
                column.byteswap()
            assert column.tolist() == list(Partition(tuple(parts)).hook_grid().values())
        return hooks

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hookbound.celltyping, "_hook_column", checked)
        yield
