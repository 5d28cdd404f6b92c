"""A fixed calibration kernel: the yardstick the benchmark's times are divided by.

The host this benchmark runs on is shared, and its speed drifts by tens of
per cent from one minute to the next.  Each operation's CPU time is
therefore divided by the CPU time of this kernel, run right before and right
after it in the same process, so that a slower host slows both sides and the
ratio stays put.  CPU time rather than wall time leaves out the time the
process waits for a processor.

The kernel mixes the two kinds of work the library does: interpreter work
(tuples, small objects, dictionaries, rationals), as in building hook grids
and dispatching bounds, and big-integer work (factorials, products, exact
division), as in computing degrees.  It shares no code with ``hookbound``
and must not change while measurements are compared: a change to it
rescales every ratio.  Its memory stays far below any workload's peak.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction


# Median CPU seconds of ``calibrate()`` on the sizing machine (2-core Xeon VM,
# CPython 3.11.7).  Multiplying a ratio by it gives seconds at that machine's
# speed; it is a fixed constant, so it never moves a comparison.
CALIB_REF_S = 0.14


class _Cell:
    __slots__ = ("row", "col")

    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col


def _interpreter_work() -> int:
    total = 0
    for _ in range(30):
        grid = {}
        for i in range(60):
            for j in range(60 - i):
                grid[(i, j)] = _Cell(i, j)
        for (i, j), cell in grid.items():
            total += (cell.row + 1) * (60 - i - j) - cell.col
    x = Fraction(0)
    for k in range(1, 4000):
        x += Fraction(k % 7 + 1, k)
    return total + x.numerator % 1009


def _bigint_work() -> int:
    total = 0
    for n in (6000, 7000, 8000) * 4:
        num = math.factorial(n) * math.prod(range(n, n + 600))
        q, r = divmod(num, math.factorial(n // 2) ** 2)
        total += q.bit_length() + r.bit_length()
    return total


def calibrate() -> float:
    """CPU seconds of one run of the kernel (about 0.15 s on the sizing machine)."""
    start = time.process_time()
    _interpreter_work()
    _bigint_work()
    return time.process_time() - start
