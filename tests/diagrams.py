"""Shapes and cell lists that only the tests build."""
from hookbound.errors import HookBoundError
from hookbound.partitions import Partition, sample_partition


def cells_of(p: Partition) -> list[tuple[int, int]]:
    """The cells ``(row, col)`` of ``p`` in row-major order."""
    return [(i, j) for i, row in enumerate(p.parts, start=1) for j in range(1, row + 1)]


def staircase_with_tail(delta: int, c: int, tail_n: int, seed: int) -> Partition:
    """Strict staircase (c+delta-1, ..., c) over an exact-uniform sampled tail.

    The tail is a uniform partition of ``tail_n`` with parts <= min(delta, c-1)
    and at most ``tail_n`` rows, so the assembled diagram keeps diagonal
    ``delta`` and strictly decreasing first rows.
    """
    if c < delta + 1:
        raise HookBoundError("c must be at least delta+1 for a strict staircase")
    parts = list(range(c + delta - 1, c - 1, -1))
    if tail_n > 0:
        cap = min(delta, c - 1)
        tail = sample_partition(tail_n, cap, tail_n, seed)
        parts.extend(tail.parts)
    return Partition(tuple(parts))
