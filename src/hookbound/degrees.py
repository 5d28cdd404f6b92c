"""Exact character degrees and the independent oracles that validate them.

``degree`` is the production path: the hook-length formula
``f = n!/prod h`` evaluated by prime exponents, with no big division.

``hook_counts`` gives the multiset of hook lengths as a list indexed by
length, read from the parts alone: with beta numbers
``l_i = lambda_i + k - i``, row ``i`` holds the hooks ``{1..l_i}`` less
``{l_i - l_j : j > i}`` (James and Kerber, *The Representation Theory of
the Symmetric Group*, 2.7), so ``counts[h]`` is ``#{i : l_i >= h}`` less
the number of pairs of beta numbers ``h`` apart.  That histogram is the
product of two bead strings, one slot per position (Kronecker
substitution; Schoenhage 1982).  A block of equal parts is a run of
consecutive beta numbers, and a run of beads times ``X - 1`` (``X`` the
slot base) has two terms, so the product is a sum of two shifted copies of
one bead string per block, divided once by ``X - 1``.  The cost is one
big-integer shift per block end: a few on a long hook, a column or a
rectangle, where a full product would cost about ``M(top)`` for the
largest hook ``top = lambda_1 + k - 1``, and two per row on a staircase,
whose parts are distinct.

For each prime ``q <= top`` the exponent of ``q`` in ``n!/prod h`` is
``sum_j (n // q**j - sum(counts[q**j::q**j]))``: Legendre's formula for
``n!`` less the hooks divisible by each power of ``q``, one slice sum per
power.  A prime ``q > top`` divides no hook, and ``top >= 2*sqrt(n) - 1``
makes ``q*q > n``, so its exponent is ``n // q``; the primes that share
one ``v = n // q`` enter as one ``prod(q) ** v``, at most ``n/top`` powers
in all.  The primes come from one bytearray sieve per process, re-run to
twice its reach when a larger ``n`` arrives.  The degree is the product
tree of these powers (Borwein, "On the complexity of calculating
factorials", J. Algorithms 1985).  A negative prime exponent would mean the
hook product does not divide ``n!``; a hook count past ``top``, on which
both steps rely there being none, raises ``ArithmeticError`` as well.

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
import sys
from bisect import bisect_right
from itertools import compress
from math import factorial
from operator import add, mul, ne
from typing import Iterator

from .errors import GuardExceededError
from .partitions import Partition, enumerate_partitions

SYT_COUNT_GUARD = 12
REMARK_GUARD = 10
SUM_SQUARES_GUARD = 12

Tableau = tuple[tuple[int, ...], ...]


def hook_counts(p: Partition) -> list[int]:
    """``counts[h]`` is the number of cells with hook length ``h``, for 0 <= h <= n.

    ``counts[h] = #{i : l_i >= h} - #{i < j : l_i - l_j = h}`` for the beta
    numbers ``l_i = lambda_i + k - i`` of the ``k`` parts.  In base
    ``X = 2**shift``, ``fwd`` holds ``X**l_i`` and ``rev`` holds
    ``X**(top - l_i)``, and slot ``top + d`` of ``fwd * rev`` counts the
    pairs ``d`` apart, the diagonal ``d = 0`` included.  Each block of equal
    parts is a run ``low..high-1`` of beta numbers, and ``fwd * (X - 1)`` is
    ``sum X**high - X**low`` over the runs, so ``fwd * rev`` is two shifted
    copies of ``rev`` per block, summed and divided by ``X - 1``.
    ``(X*fwd - k) / (X - 1)`` holds ``#{i : l_i >= h}`` in slot ``h``.  A
    slot of ``width`` bytes holds ``k``, so no slot carries into the next
    and the counts are the slots of one difference, read in native byte
    order and turned around on a big-endian machine.
    """
    parts = p.parts
    k = len(parts)
    top = _largest_hook(parts)
    width, code = (1, "B") if k < 1 << 8 else (2, "H") if k < 1 << 16 else (4, "I")
    shift = 8 * width
    slot = (1 << shift) - 1
    betas = list(map(add, parts, range(k - 1, -1, -1)))
    beads = bytearray((top + 1) * width)
    for b in betas:
        beads[b * width] = 1
    fwd = int.from_bytes(beads, "little")
    rev = int.from_bytes(beads, "big") >> shift - 8
    # a block's first row ends its run at l_i + 1, its last row starts it at l_i
    offsets = [shift * b for b in betas]
    highs = compress(offsets, map(ne, parts, (0,) + parts[:-1]))
    lows = compress(offsets, map(ne, parts, parts[1:] + (0,)))
    ends = (sum(map(rev.__lshift__, highs)) << shift) - sum(map(rev.__lshift__, lows))
    pairs = ends // slot
    slots = ((fwd << shift) - k) // slot - (pairs >> shift * top)
    view = memoryview(slots.to_bytes((top + 1) * width, sys.byteorder)).cast(code)
    counts = view.tolist() if sys.byteorder == "little" else view[::-1].tolist()
    counts += [0] * (sum(parts) - top)
    return counts


def _largest_hook(parts: tuple[int, ...]) -> int:
    """The hook of the corner cell (1, 1), ``lambda_1 + k - 1``; 0 for no parts."""
    return parts[0] + len(parts) - 1 if parts else 0


def hook_product(p: Partition) -> int:
    """Product of the hook lengths of all cells."""
    return math.prod(h**c for h, c in enumerate(hook_counts(p)) if c)


def _primes_upto(n: int) -> list[int]:
    """The primes ``q <= n``, by a bytearray sieve of Eratosthenes."""
    is_prime = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for q in range(2, math.isqrt(n) + 1):
        if is_prime[q]:
            is_prime[q * q :: q] = bytes(len(range(q * q, n + 1, q)))
    return list(compress(range(n + 1), is_prime))


# (reach, the primes <= reach): rebound whole, never mutated, so threads may share it
_sieved: tuple[int, list[int]] = (1, [])


def _prime_list(n: int) -> list[int]:
    """The ascending primes through at least ``n``, sieved once per process.

    A larger ``n`` re-sieves to at least twice the old reach; callers cut
    the list at ``n`` with ``bisect``.
    """
    global _sieved
    reach, primes = _sieved
    if n > reach:
        reach = max(n, 2 * reach)
        primes = _primes_upto(reach)
        _sieved = (reach, primes)
    return primes


def _product_tree(factors: list[int]) -> int:
    while len(factors) > 1:
        pairs = iter(factors)
        paired = list(map(mul, pairs, pairs))
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
    top = _largest_hook(p.parts)
    # No hook exceeds the corner hook top, so the slice sums below read only
    # up to it and the primes above it divide no hook.  The n - top counts
    # past top are all zero when the zeros of the whole list outnumber those
    # up to top by n - top.
    head = counts[: top + 1]
    if counts.count(0) - head.count(0) != n - top:
        raise ArithmeticError(f"hook counts of {p} reach past its largest hook {top}")
    counts = head
    primes = _prime_list(n)
    mid = bisect_right(primes, top)
    end = bisect_right(primes, n, mid)
    powers = []
    for q in primes[:mid]:
        e = 0
        qj = q
        while qj <= n:
            e += n // qj - sum(counts[qj::qj])
            qj *= q
        if e:
            if e < 0:
                raise ArithmeticError(f"hook product does not divide n! for {p}")
            powers.append(q**e)
    # A prime q > top divides no hook, and top >= 2*sqrt(n) - 1 makes q*q > n,
    # so the exponent of q is n // q: one power per run of equal n // q.
    i = mid
    while i < end:
        v = n // primes[i]
        j = bisect_right(primes, n // v, i, end)
        powers.append(math.prod(primes[i:j]) ** v)
        i = j
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
