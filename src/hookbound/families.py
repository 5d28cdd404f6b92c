"""Canonical partition families used by sweeps and the certification harness.

The balanced family is the unique partition of n into ceil(sqrt(n)) parts
differing by at most one.  The staircase family stacks the largest strict
staircase with all rows past the diagonal (the shape the typing bounds
want), pays the remainder out as a flat tail below it, and is the
deterministic hypothesis-satisfying input for a given n.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .celltyping import _width_cap
from .errors import EmptySampleSpaceError, HookBoundError
from .partitions import Partition, sample_partition


def balanced(n: int) -> Partition:
    """Nearly square partition of n: ceil(sqrt(n)) parts differing by <= 1."""
    if n < 0:
        raise HookBoundError("n must be non-negative")
    if n == 0:
        return Partition(())
    k = math.isqrt(n)
    if k * k < n:
        k += 1
    q, r = divmod(n, k)
    return Partition((q + 1,) * r + (q,) * (k - r))


def staircase_core_size(delta: int) -> int:
    """Cells of the minimal strict staircase (2*delta, ..., delta + 1)."""
    return delta * (delta + 1) + delta * (delta - 1) // 2


def largest_staircase_delta(n: int) -> int:
    """Largest delta whose minimal strict staircase (c = delta+1) fits in n.

    The core holds (3 delta^2 + delta)/2 cells, which is at most n exactly
    when delta <= (sqrt(24n + 1) - 1)/6.  As floor(floor(x)/6) = floor(x/6)
    for real x, the largest such delta is exactly
    ``(isqrt(24n + 1) - 1) // 6``; below n = 2 no core fits.
    """
    if n < 2:
        return 0
    return (math.isqrt(24 * n + 1) - 1) // 6


def staircase(n: int, alpha: Fraction) -> Partition:
    """Deterministic staircase-with-flat-tail partition of exactly n cells.

    Chooses the largest feasible delta, the minimal c = delta+1, and pays the
    remainder out as full-width-delta tail rows.  Raises when n is too small
    to hold any strict staircase or when the result violates the width
    constraints lambda_1, lambda'_1 <= n/alpha.
    """
    alpha = Fraction(alpha)
    delta = largest_staircase_delta(n)
    if delta < 1:
        raise HookBoundError(f"no strict staircase fits inside n={n}")
    core = staircase_core_size(delta)
    parts = list(range(2 * delta, delta, -1))
    rest = n - core
    while rest > 0:
        row = min(delta, rest)
        # a final 1..delta-wide row keeps the tail weakly decreasing
        if parts[-1] < row:
            row = parts[-1]
        parts.append(row)
        rest -= row
    lam = Partition(tuple(parts))
    cap = _width_cap(n, alpha)
    if lam.part(1) > cap or len(lam) > cap:
        raise HookBoundError(
            f"staircase family for n={n} violates the width constraint at alpha={alpha}"
        )
    return lam


def constrained_sample(n: int, alpha: Fraction, seed: int) -> Partition:
    """Uniform partition of n with lambda_1, lambda'_1 <= n/alpha (exact bound)."""
    alpha = Fraction(alpha)
    cap = _width_cap(n, alpha)
    try:
        return sample_partition(n, cap, cap, seed)
    except EmptySampleSpaceError:
        raise EmptySampleSpaceError(
            f"no partition of {n} with both widths <= n/alpha = {cap}"
        ) from None
