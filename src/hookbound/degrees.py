"""Exact character degrees and the independent oracles that validate them.

``degree`` is the exact path: the hook-length formula ``f = n!/prod h``
evaluated by prime exponents, with no big division.  The bounds read
``degree_ball`` instead, a certified ball built from the same exponents.

``_hook_counts`` gives the multiset of hook lengths as a list indexed by
length, read from the parts alone, up to the largest hook
``top = lambda_1 + k - 1``.  With beta numbers ``l_i = lambda_i + k - i``,
row ``i`` holds the hooks ``{1..l_i}`` less
``{l_i - l_j : j > i}`` (James and Kerber, *The Representation Theory of
the Symmetric Group*, 2.7), so ``counts[h]`` is ``#{i : l_i >= h}`` less
the number of pairs of beta numbers ``h`` apart.  That histogram is the
product of two bead strings, one slot per position (Kronecker
substitution; Schoenhage 1982).  A block of equal parts is a run of
consecutive beta numbers, and a run of beads times ``X - 1`` (``X`` the
slot base) has two terms, so the product is a sum of two shifted copies of
one bead string per block, divided once by ``X - 1``.  The cost is one
big-integer shift per block end: a few on a long hook, a column or a
rectangle, where a full product would cost about ``M(top)``, and two per
row on a staircase, whose parts are distinct.

``_exponents(m, counts, primes)`` is the one exponent routine: the
exponent of each given prime ``q`` in ``m!/prod h**counts[h]`` is
``sum_j (m // q**j - sum(counts[q**j::q**j]))``, Legendre's formula for
``m!`` less the counts of the multiples of each power of ``q``, one slice
sum per power.  It has three callers.  ``_prime_powers`` reads ``n`` and
the hook counts, for each prime ``q <= top`` (no hook is larger).
``factorial_ball`` reads ``m`` and no counts.  ``bounds.strip_bound``
reads ``m = 0`` and counts of either sign, to decide its t-factorial check
with no product built.  A prime ``q > top`` divides no
hook, and ``top >= 2*sqrt(n) - 1`` makes ``q*q > n``, so its exponent is
``n // q``; the primes that share one ``v = n // q`` enter as one
``prod(q) ** v``, at most ``n/top`` powers in all.  The primes come from
one list per process, sieved over the odd numbers only.  A larger ``n``
extends it to at least twice its reach, over the new segment alone and
with the primes it already holds (a segmented sieve; Bays and Hudson,
BIT 17, 1977), so each prime is sieved once; only a reach at least the
square of the old one sieves afresh.  The list stops at
``SIEVE_CAP = 2**26``; a larger ``n`` raises ``GuardExceededError``
before anything is sieved.  ``_exact``, the one exact build, multiplies
these powers:
by one running product while ``n * n.bit_length() <= 2 * _EXACT_BITS``,
where the degree has at most ``_EXACT_BITS`` bits (``f**2 <= n! <
2**(n * n.bit_length())``) and a tree saves nothing below the Karatsuba
cutoff, and by the product tree past that (Borwein, "On the complexity of
calculating factorials", J. Algorithms 1985).  A negative prime exponent
would mean the hook product does not divide ``n!`` and raises
``ArithmeticError``; so does a count list of other than ``top + 1``
entries, a hook past ``top``, since both steps rely on there being none.

``degree_ball`` reads the same prime powers (``_prime_powers``, the
exponent stage of ``degree``) into a certified ball ``DegreeBall``: a
lower value ``m * 2**s`` and a radius ``rad`` with
``m * 2**s <= f <= (m + rad) * 2**s``, after the model of Johansson's Arb
(IEEE Trans. Computers 2017).  The bounds read only a bracket of
``log2 f`` and ``math.log(f)``, and the ball gives both; ``exact()``
builds ``f`` from the same powers on demand.  ``factorial_ball`` builds
the same ball for ``m!`` from Legendre's formula, for the cell typing's
aggregate product.

Radius.  With ``eps = 2**(1 - P)`` (``P = _BALL_BITS``), every value the
product stage holds is an integer ``c``, a scale ``t`` and a count ``k``
with ``c * 2**t <= x < c * 2**t * (1 + eps)**k`` for the true ``x``
(``c * 2**t == x`` when ``k == 0``).  Exact products keep this with the
counts added, a square doubles the count, and a truncation keeps it with
one more.  ``_truncate`` is the one place that truncates: once
``c >= 2**(2P)`` it drops the low ``b`` bits so that
``c' = c >> b`` has ``P`` bits, and ``c < (c' + 1) * 2**b <= c' * 2**b *
(1 + eps)`` as ``c' >= 2**(P - 1)``.  So ``f < m * 2**s * (1 + eps)**k``
at the end, and ``(1 + eps)**k <= exp(k*eps) <= 1 + 2*k*eps`` for
``k*eps <= 1`` (``exp(x) - 1 - 2x`` is convex and not positive at 0 and
1); ``m * 2*k*eps = m*k / 2**(P - 2)``, so ``rad = (m*k >> (P - 2)) + 1``
covers it; with ``k == 0`` the ball is exact and ``rad = 0``.  A count
past ``2**(P - 1)`` would break ``k*eps <= 1``, and that ball is built
exact instead.  The powers above ``top`` enter by partial products: with
the runs of primes in falling ``v`` and ``r`` the product of the primes
through a run, ``prod(run**v)`` is ``prod(r**(v - v_next))``, mostly
single products.  A degree with at most ``_EXACT_BITS`` bits is built
by ``_exact`` instead: at that size its running product costs less than
the truncated loop.

Log.  For an ``int``, CPython's ``math.log`` converts its argument to
the correctly rounded double, or, past the largest double, to the
correctly rounded 53-bit mantissa and its exponent (``_PyLong_Frexp``), so
it reads only ``f`` rounded to 53 bits, ties to even.  That rounding is
monotone, so when both ends of the ball round to the same value, so does
``f``, and ``math.log`` of that value rebuilt as an integer equals
``math.log(f)`` bit for bit; a ball that holds a rounding midpoint builds
``f``.  So ``log_degree`` is ``degree_ball(p).log()``, and builds ``f``
only on such a midpoint.  Two degrees are compared by
``certificates.powers_ge``, which brackets both balls and reads equal
prime powers (a shape and its conjugate or itself) as equal degrees, so
only an overlap of different degrees builds them.

``standard_tableaux`` grows every standard filling with no memoization
and no hooks, and ``count_syt_bruteforce`` counts them, so the count and
``degree`` share nothing; the identity suites
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
from itertools import compress, islice
from math import factorial
from operator import add, mul, ne
from typing import Iterator, Sequence

from .errors import GuardExceededError
from .partitions import Partition, enumerate_partitions

SYT_COUNT_GUARD = 12
REMARK_GUARD = 10
SUM_SQUARES_GUARD = 12

Tableau = tuple[tuple[int, ...], ...]


def _hook_counts(parts: tuple[int, ...]) -> list[int]:
    """The hook counts ``counts[h]`` for 0 <= h <= top, the largest hook ``top``.

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
    return view.tolist() if sys.byteorder == "little" else view[::-1].tolist()


def _largest_hook(parts: tuple[int, ...]) -> int:
    """The hook of the corner cell (1, 1), ``lambda_1 + k - 1``; 0 for no parts."""
    return parts[0] + len(parts) - 1 if parts else 0


def hook_product(p: Partition) -> int:
    """Product of the hook lengths of all cells."""
    return math.prod(h**c for h, c in enumerate(_hook_counts(p.parts)) if c)


def _primes_upto(n: int) -> list[int]:
    """The primes ``q <= n``: 2, then the odd ones, struck by the primes through ``isqrt(n)``."""
    return [2, *_primes_between(2, n, _primes_upto(math.isqrt(n)))] if n > 1 else []


def _primes_between(low: int, high: int, primes: list[int]) -> Iterator[int]:
    """The primes ``low < q <= high``, for ``low >= 2`` and ``primes`` through ``isqrt(high)``.

    A segmented sieve of Eratosthenes (Bays and Hudson, BIT 17, 1977) over
    the odd numbers only: slot ``i`` stands for ``first + 2*i``, ``first``
    the least odd number past ``low``, and each odd prime ``q`` strikes
    every ``q``-th slot from its least odd multiple past both ``q*q`` and
    ``low``.
    """
    first = low + 1 | 1
    odd = bytearray([1]) * max((high - first) // 2 + 1, 0)
    for q in islice(primes, 1, bisect_right(primes, math.isqrt(high))):
        start = -(-max(q * q, first) // q) * q
        i = (start + q * (start % 2 == 0) - first) // 2
        odd[i::q] = bytes(len(range(i, len(odd), q)))
    return compress(range(first, high + 1, 2), odd)


# (reach, the primes <= reach): rebound whole, never mutated, so threads may share it
_sieved: tuple[int, list[int]] = (1, [])
# the largest n sieved for (its time and memory: README, "Size cap")
SIEVE_CAP = 2**26


def _prime_list(n: int) -> list[int]:
    """The ascending primes through at least ``n``, each sieved once per process.

    A larger ``n`` extends the list to at least twice the old reach, but
    never past ``SIEVE_CAP``: over the new segment alone, with the primes
    already held.  It sieves afresh when the new reach is at least the
    square of the old one, so that the primes through its square root are
    held, and the segment starts past 2.  An ``n`` past the cap raises
    ``GuardExceededError`` before anything is sieved.  Callers cut the list
    at ``n`` with ``bisect``.
    """
    global _sieved
    if n > SIEVE_CAP:
        raise GuardExceededError("prime sieve", n, SIEVE_CAP)
    reach, primes = _sieved
    if n > reach:
        new = min(max(n, 2 * reach), SIEVE_CAP)
        if math.isqrt(new) >= reach:
            primes = _primes_upto(new)
        else:
            primes = [*primes, *_primes_between(reach, new, primes)]
        _sieved = (new, primes)
    return primes


def _product_tree(factors: list[int]) -> int:
    while len(factors) > 1:
        pairs = iter(factors)
        paired = list(map(mul, pairs, pairs))
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


def _exponents(m: int, counts: Sequence[int], primes: list[int]) -> list[int]:
    """The exponent of each of ``primes`` in ``m! / prod h**counts[h]``.

    ``sum_j (m // q**j - sum(counts[q**j::q**j]))`` over the powers of
    ``q`` up to ``m`` or the last count: Legendre's formula for ``m!``
    less the counts of the multiples of each power.
    """
    exponents = []
    for q in primes:
        e, qj = 0, q
        while qj <= m or qj < len(counts):
            e += m // qj - sum(counts[qj::qj])
            qj *= q
        exponents.append(e)
    return exponents


def _prime_powers(p: Partition) -> tuple[int, list[int], list[int]]:
    """The exponent stage of ``degree``: ``n!/prod h`` as powers of primes.

    Returns ``(n, exponents, primes)``: ``exponents[i]`` is the exponent of
    ``primes[i]`` for each prime up to the largest hook ``top``; a prime
    ``q`` above ``top`` has exponent ``n // q`` (``_runs``).
    """
    n = p.n
    primes = _prime_list(n)  # first, so that a shape past the cap allocates nothing
    top = _largest_hook(p.parts)
    counts = _hook_counts(p.parts)
    # No hook exceeds the corner hook top, so the slice sums read only up to
    # it and the primes above it divide no hook.
    if len(counts) != top + 1:
        raise ArithmeticError(f"hook counts of {p} reach past its largest hook {top}")
    exponents = _exponents(n, counts, primes[: bisect_right(primes, top)])
    if min(exponents, default=0) < 0:
        raise ArithmeticError(f"hook product does not divide n! for {p}")
    return n, exponents, primes


def _runs(n: int, mid: int, primes: list[int]) -> list[tuple[int, int, int]]:
    """``(i, j, v)`` for each run ``primes[i:j]`` of primes above ``top`` that share ``v``.

    ``mid`` is the number of primes up to ``top``.  A prime ``q > top``
    divides no hook, and ``top >= 2*sqrt(n) - 1`` makes ``q*q > n``, so the
    exponent of ``q`` is ``v = n // q``: one power per run, in falling ``v``.
    """
    end = bisect_right(primes, n, mid)
    runs = []
    i = mid
    while i < end:
        v = n // primes[i]
        j = bisect_right(primes, n // v, i, end)
        runs.append((i, j, v))
        i = j
    return runs


# P: the bits a degree ball keeps once its running product outgrows 2**(2*P)
_BALL_BITS = 128
# a degree with at most this many bits gets an exact ball: its running
# product is then cheaper than the truncated loop
_EXACT_BITS = 8192


def _exact(n: int, exponents: list[int], primes: list[int]) -> int:
    """The degree, built exactly from the prime powers of ``_prime_powers``."""
    powers = [q**e for q, e in zip(primes, exponents) if e]
    powers += [math.prod(primes[i:j]) ** v for i, j, v in _runs(n, len(exponents), primes)]
    if n * n.bit_length() <= 2 * _EXACT_BITS:
        # at most _EXACT_BITS bits: below the Karatsuba cutoff the tree saves nothing
        return math.prod(powers)
    return _product_tree(powers)


def degree(p: Partition) -> int:
    """n! divided by the product of all hook lengths, by prime exponents.

    Equals the number of standard tableaux of the shape.  The empty
    partition has degree 1 by convention.
    """
    return _exact(*_prime_powers(p))


def _truncate(m: int, s: int, k: int) -> tuple[int, int, int]:
    """The ball ``(m, s, k)`` with ``m`` cut to ``P`` bits once it reaches ``2**(2*P)``.

    A cut drops the low bits into the scale ``s`` and adds one to the count
    ``k``; a smaller ``m`` passes unchanged.
    """
    b = m.bit_length() - _BALL_BITS
    if b > _BALL_BITS:
        return m >> b, s + b, k + 1
    return m, s, k


def _pow_ball(x: int, t: int, k: int, e: int) -> tuple[int, int, int]:
    """``(x * 2**t)**e`` as a ball ``(m, s, j)``, for ``e >= 1``.

    The base is a ball with count ``k``; squaring doubles a count and
    multiplying by the base adds ``k``, and each truncation adds one.
    """
    m, s, j = x, t, k
    for bit in bin(e)[3:]:
        m *= m
        s += s
        j += j
        if bit == "1":
            m *= x
            s += t
            j += k
        m, s, j = _truncate(m, s, j)
    return m, s, j


class DegreeBall:
    """A certified ball around a degree ``f``: ``m * 2**s <= f <= (m + rad) * 2**s``.

    Built by ``degree_ball``; see the module docstring for the radius.  A
    ball with ``rad == 0`` is exact (``s`` is then 0).  The ball keeps ``n``
    and the exponents of ``_prime_powers``, from which ``exact()`` builds
    ``f`` once, on demand; equal ``n`` and exponents mean equal degrees.
    """

    __slots__ = ("m", "s", "rad", "_key", "_exact")

    def __init__(self, m: int, s: int, rad: int, n: int, exponents: list[int]) -> None:
        self.m, self.s, self.rad = m, s, rad
        self._key = n, exponents
        self._exact = m if rad == 0 else None

    def exact(self) -> int:
        """The exact degree, built from the prime powers on first use."""
        if self._exact is None:
            n, exponents = self._key
            self._exact = _exact(n, exponents, _prime_list(n))
        return self._exact

    def log(self) -> float:
        """``math.log(f)``, bit for bit: the log of ``f`` rounded to 53 bits.

        Both ends of the ball round to the same 53-bit value unless the
        ball holds a rounding midpoint; only then is ``f`` built.
        """
        if self._exact is not None:
            return math.log(self._exact)
        top, shift = _round53(self.m, self.s)
        if (top, shift) != _round53(self.m + self.rad, self.s):
            return math.log(self.exact())
        return math.log(top << shift)


def _round53(m: int, s: int) -> tuple[int, int]:
    """``m * 2**s`` rounded to 53 bits, ties to even, as ``(top, shift)``.

    ``top << shift`` is the correctly rounded double of ``m * 2**s`` as an
    integer; ``top`` has at most 53 bits.
    """
    drop = m.bit_length() - 53
    if drop <= 0:
        return m, s
    top = m >> drop
    rest = m - (top << drop)
    half = 1 << drop - 1
    if rest > half or (rest == half and top & 1):
        top += 1
        if top >> 53:
            return top >> 1, drop + s + 1
    return top, drop + s


def _ball_product(n: int, exponents: list[int], primes: list[int]) -> tuple[int, int, int]:
    """The degree from its prime powers as ``(m, s, k)``, a ball with count ``k``.

    ``m * 2**s <= f < m * 2**s * (1 + eps)**k``, with equality when
    ``k == 0``.  The running product stays exact while it is below
    ``2**(2*P)``; past that ``_truncate`` cuts it to ``P`` bits.
    """
    bits = _BALL_BITS
    acc, s, k = 1, 0, 0
    for q, e in zip(primes, exponents):
        if e * q.bit_length() <= 2 * bits:
            acc *= q**e
        else:
            x, t, c = _pow_ball(q, 0, 0, e)
            acc *= x
            s += t
            k += c
        acc, s, k = _truncate(acc, s, k)
    # The runs of primes above top come in falling v; with r the running
    # product of the primes so far, prod(run**v) = prod(r**(v - v_next)).
    r, rs, rk = 1, 0, 0
    runs = _runs(n, len(exponents), primes)
    chunk = max(4 * bits // n.bit_length(), 1)
    for g, (i, j, v) in enumerate(runs):
        for a in range(i, j, chunk):
            r, rs, rk = _truncate(r * math.prod(primes[a : min(a + chunk, j)]), rs, rk)
        d = v - (runs[g + 1][2] if g + 1 < len(runs) else 0)
        x, t, c = (r, rs, rk) if d == 1 else _pow_ball(r, rs, rk, d)
        acc, s, k = _truncate(acc * x, s + t, k + c)
    return acc, s, k


def degree_ball(p: Partition) -> DegreeBall:
    """The degree of ``p`` as a certified ball, from the prime powers of ``degree``.

    A shape with ``n * n.bit_length() <= 2 * _EXACT_BITS`` gets an exact
    ball: ``f**2 <= n!`` (the squares of the degrees sum to ``n!``) and
    ``n! < 2**(n * n.bit_length())``, so ``f`` has at most ``_EXACT_BITS``
    bits.  So does a truncated product that never outgrew its cap: its
    count ``k`` and its scale are 0, and so is its radius.
    """
    return _ball(*_prime_powers(p))


def factorial_ball(m: int) -> DegreeBall:
    """``m!`` as a certified ball, for ``m >= 0``, by Legendre's formula.

    The exponent of a prime ``q <= isqrt(m)`` is ``sum_j m // q**j``; a
    prime above ``isqrt(m)`` has ``q*q > m``, so its exponent is ``m // q``,
    which ``_runs`` reads as it reads the primes above a diagram's largest
    hook.  ``m * m.bit_length() <= 2 * _EXACT_BITS`` bounds ``m!`` below
    ``2**(2 * _EXACT_BITS)``, and such a ball is exact.
    """
    primes = _prime_list(m)
    return _ball(m, _exponents(m, (), primes[: bisect_right(primes, math.isqrt(m))]), primes)


def _ball(n: int, exponents: list[int], primes: list[int]) -> DegreeBall:
    """The ball of the prime powers ``exponents`` and ``_runs(n, ...)``: exact when small."""
    if n * n.bit_length() > 2 * _EXACT_BITS:
        m, s, k = _ball_product(n, exponents, primes)
        bits = _BALL_BITS
        if not k >> bits - 1:  # else 2*k*eps would pass 1: give up the ball
            return DegreeBall(m, s, (m * k >> bits - 2) + 1 if k else 0, n, exponents)
    return DegreeBall(_exact(n, exponents, primes), 0, 0, n, exponents)


def log_degree(p: Partition) -> float:
    """Natural log of the degree, ``math.log(degree(p))`` bit for bit.

    Read from ``degree_ball``, whose ``log`` builds the exact degree only
    when the ball holds a rounding midpoint.
    """
    return degree_ball(p).log()


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
            yield tuple([tuple(r) for r in rows])
            return
        for i in range(len(parts)):
            if len(rows[i]) < parts[i] and (i == 0 or len(rows[i - 1]) > len(rows[i])):
                rows[i].append(v)
                yield from rec(v + 1)
                rows[i].pop()

    yield from rec(1)


def count_syt_bruteforce(p: Partition) -> int:
    """Count the tableaux ``standard_tableaux`` grows; hard guard at n <= 12."""
    if p.n > SYT_COUNT_GUARD:
        raise GuardExceededError("count_syt_bruteforce", p.n, SYT_COUNT_GUARD)
    return sum(1 for _ in standard_tableaux(p))


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
