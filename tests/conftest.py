import pytest

import hookbound.bounds
import hookbound.partitions


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
