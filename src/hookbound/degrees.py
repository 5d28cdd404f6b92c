"""Exact character degrees and the independent oracles that validate them.

``degree`` is the production path: the hook-length formula
``f = n!/prod h`` evaluated by prime exponents, with no big division.
``hook_counts`` reads the multiset of hook lengths off the parts and the
column lengths (the hook of cell ``(i, j)`` is
``(lambda_i - j) + (lambda'_j - i) + 1``).  The exponent of each
``k <= n`` in ``n!/prod h`` is ``1 - counts[k]``; walking ``k`` downward,
a smallest-prime-factor sieve pushes the exponent of every composite ``k``
onto its factors, which leaves an exponent on each prime ``q <= n``.  The
degree is the product tree of the ``q**e_q`` (Borwein, "On the complexity
of calculating factorials", J. Algorithms 1985).  A negative prime
exponent would mean the hook product does not divide ``n!``.

``count_syt_bruteforce`` grows every standard filling with no
memoization and no hooks, so the two share nothing; the identity suites
(``sum_squares_identity``, the conjugation symmetry, the tableau remark)
cross-check the whole pipeline against classical facts.

Standard tableaux are represented as tuples of row tuples, e.g.
``((1, 2, 4), (3, 5))``: a bijective filling with 1..n increasing along
rows and down columns.
"""
from __future__ import annotations

import math
from math import factorial
from typing import Iterator

from .errors import GuardExceededError
from .partitions import Partition, enumerate_partitions

SYT_COUNT_GUARD = 12
REMARK_GUARD = 10
SUM_SQUARES_GUARD = 12

Tableau = tuple[tuple[int, ...], ...]


def hook_counts(p: Partition) -> list[int]:
    """``counts[h]`` is the number of cells with hook length ``h``, for 0 <= h <= n."""
    parts = p.parts
    counts = [0] * (sum(parts) + 1)
    cols = p.conjugate().parts
    for i, row in enumerate(parts, start=1):
        arm = row - i + 1
        for j, col in enumerate(cols[:row], start=1):
            counts[arm + col - j] += 1
    return counts


def hook_product(p: Partition) -> int:
    """Product of the hook lengths of all cells."""
    return math.prod(h**c for h, c in enumerate(hook_counts(p)) if c)


def _smallest_prime_factors(n: int) -> list[int]:
    """``spf[k]`` is the smallest prime factor of k, for 2 <= k <= n.

    Every ``q`` from ``isqrt(n)`` down to 2 stamps its multiples from ``q*q``
    on, so the last stamp on a composite is its smallest prime factor.
    """
    spf = list(range(n + 1))
    for q in range(math.isqrt(n), 1, -1):
        spf[q * q :: q] = [q] * len(range(q * q, n + 1, q))
    return spf


def _product_tree(factors: list[int]) -> int:
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


def degree(p: Partition) -> int:
    """n! divided by the product of all hook lengths, by prime exponents.

    Equals the number of standard tableaux of the shape.  The empty
    partition has degree 1 by convention.
    """
    counts = hook_counts(p)
    n = len(counts) - 1
    expo = [1 - c for c in counts]
    spf = _smallest_prime_factors(n)
    for k in range(n, 3, -1):
        q = spf[k]
        if q != k and expo[k]:
            expo[q] += expo[k]
            expo[k // q] += expo[k]
    powers = []
    for q in range(2, n + 1):
        if spf[q] == q and expo[q]:
            if expo[q] < 0:
                raise ArithmeticError(f"hook product does not divide n! for {p}")
            powers.append(q ** expo[q])
    return _product_tree(powers)


def log_degree(p: Partition) -> float:
    """Natural log of the exact degree.

    ``math.log`` on a big integer uses the top bits plus the bit count, so
    the relative error is at the 1e-16 level, far inside the 1e-12 contract.
    """
    return math.log(degree(p))


def standard_tableaux(p: Partition) -> Iterator[Tableau]:
    """Yield every standard tableau of the shape, by exhaustive growth."""
    parts = p.parts
    if not parts:
        yield ()
        return
    n = p.n
    rows: list[list[int]] = [[] for _ in parts]

    def rec(v: int) -> Iterator[Tableau]:
        if v > n:
            yield tuple(tuple(r) for r in rows)
            return
        for i in range(len(parts)):
            if len(rows[i]) < parts[i] and (i == 0 or len(rows[i - 1]) > len(rows[i])):
                rows[i].append(v)
                yield from rec(v + 1)
                rows[i].pop()

    yield from rec(1)


def is_standard_tableau(p: Partition, t: Tableau) -> bool:
    if tuple(len(r) for r in t) != p.parts:
        return False
    entries = [v for row in t for v in row]
    if sorted(entries) != list(range(1, p.n + 1)):
        return False
    for row in t:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    for up, down in zip(t, t[1:]):
        if any(a >= b for a, b in zip(up, down)):
            return False
    return True


def count_syt_bruteforce(p: Partition) -> int:
    """Count standard tableaux by exhaustive growth; hard guard at n <= 12."""
    if p.n > SYT_COUNT_GUARD:
        raise GuardExceededError("count_syt_bruteforce", p.n, SYT_COUNT_GUARD)
    parts = p.parts
    if not parts:
        return 1
    n = p.n
    fills = [0] * len(parts)

    def rec(v: int) -> int:
        if v > n:
            return 1
        total = 0
        for i in range(len(parts)):
            if fills[i] < parts[i] and (i == 0 or fills[i - 1] > fills[i]):
                fills[i] += 1
                total += rec(v + 1)
                fills[i] -= 1
        return total

    return rec(1)


def verify_remark_N_ge_h(p: Partition) -> bool:
    """Check n+1-t_ij >= h_ij over every standard tableau and every cell."""
    if p.n > REMARK_GUARD:
        raise GuardExceededError("verify_remark_N_ge_h", p.n, REMARK_GUARD)
    n = p.n
    hooks = p.hook_grid()
    for tab in standard_tableaux(p):
        for i, row in enumerate(tab, start=1):
            for j, t in enumerate(row, start=1):
                if n + 1 - t < hooks[(i, j)]:
                    return False
    return True


def sum_squares_identity(n: int) -> bool:
    """Classical identity: the degrees squared over all shapes of n sum to n!."""
    if n > SUM_SQUARES_GUARD:
        raise GuardExceededError("sum_squares_identity", n, SUM_SQUARES_GUARD)
    total = sum(degree(p) ** 2 for p in enumerate_partitions(n))
    return total == factorial(n)


def robbins_log_bounds(n: int) -> tuple[float, float]:
    """Two-sided Stirling bounds on ln(n!) with the 1/(12n) correction terms."""
    if n < 1:
        raise ValueError("n must be positive")
    base = 0.5 * math.log(2 * math.pi * n) + n * (math.log(n) - 1)
    return base + 1.0 / (12 * n + 1), base + 1.0 / (12 * n)


def robbins_bounds(n: int) -> tuple[float, float]:
    """The bounds of ``robbins_log_bounds`` exponentiated (overflows past n~170)."""
    lo, hi = robbins_log_bounds(n)
    return math.exp(lo), math.exp(hi)


def weak_stirling_log_lower(n: int) -> float:
    """ln of the weak factorial lower bound n^n e^{-n}."""
    if n < 1:
        raise ValueError("n must be positive")
    return n * (math.log(n) - 1)
