import math
import random
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial
from operator import sub

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hookbound.degrees
from hookbound.degrees import (
    _exponents,
    _hook_counts,
    _largest_hook,
    _prime_list,
    _primes_between,
    _primes_upto,
    _truncate,
    count_syt_bruteforce,
    degree,
    degree_ball,
    factorial_ball,
    hook_product,
    log_degree,
    standard_tableaux,
    sum_squares_identity,
    verify_remark_N_ge_h,
)
from hookbound.errors import GuardExceededError
from hookbound.families import balanced, staircase
from hookbound.partitions import Partition, enumerate_partitions


@pytest.fixture
def tree_calls(monkeypatch):
    """The lengths of the factor lists given to the product tree of ``degrees``."""
    calls = []
    tree = hookbound.degrees._product_tree

    def counted(factors):
        calls.append(len(factors))
        return tree(factors)

    monkeypatch.setattr(hookbound.degrees, "_product_tree", counted)
    return calls


class TestDegree:
    def test_known_values(self):
        assert degree(Partition((2, 1))) == 2
        assert degree(Partition((3, 3))) == 5
        assert degree(Partition((3, 3, 3))) == 42
        assert degree(Partition((5,))) == 1
        assert degree(Partition(())) == 1

    def test_single_column(self):
        assert degree(Partition((1,) * 6)) == 1

    def test_hook_product_example(self):
        assert hook_product(Partition((3, 3))) == 144

    def test_conjugation_symmetry_up_to_12(self):
        for n in range(13):
            for p in enumerate_partitions(n):
                assert degree(p) == degree(p.conjugate())

    def test_matches_bruteforce_up_to_8(self):
        for n in range(9):
            for p in enumerate_partitions(n):
                assert degree(p) == count_syt_bruteforce(p)

    def test_product_tree_only_past_the_exact_size(self, tree_calls):
        # a sweep-sized degree is one running product; a certify-sized one is
        # built by the product tree
        degree(staircase(1200, Fraction(11, 10)))
        assert tree_calls == []
        degree(balanced(2000))
        assert len(tree_calls) == 1

    def test_containment_monotone_small(self):
        shapes = [p for n in range(9) for p in enumerate_partitions(n)]
        for lam in shapes:
            d_lam = degree(lam)
            for mu in shapes:
                if lam.contains(mu):
                    assert degree(mu) <= d_lam


class TestPrimeExponentPath:
    def test_hook_counts_match_hook_grid_up_to_12(self):
        for n in range(13):
            for p in enumerate_partitions(n):
                counts = padded_counts(p)
                assert len(counts) == n + 1
                grid = Counter(p.hook_grid().values())
                assert {h: c for h, c in enumerate(counts) if c} == dict(grid)
                assert_unpadded(p)

    @pytest.mark.parametrize(
        "shape",
        [
            Partition((9,)),
            Partition((1,) * 9),
            Partition((7, 1, 1, 1, 1)),
            Partition((800,) * 20),
            balanced(2000),
            staircase(6000, Fraction(11, 10)),
            Partition((3000,) + (1,) * 3000),
            Partition((1,) * 5000),
            Partition((3000, 2999)),
        ],
        ids=[
            "row",
            "column",
            "hook",
            "rectangle",
            "balanced",
            "staircase",
            "long-hook",
            "long-column",
            "two-row",
        ],
    )
    def test_matches_factorial_over_hook_product(self, shape):
        hooks = math.prod(shape.hook_grid().values())
        ref, rem = divmod(factorial(shape.n), hooks)
        assert rem == 0
        assert degree(shape) == ref

    def test_sieve_against_trial_division(self):
        for n in range(200):
            expected = [q for q in range(2, n + 1) if all(q % d for d in range(2, q))]
            assert _primes_upto(n) == expected, n

    def test_negative_prime_exponent_raises(self, monkeypatch):
        shape = Partition((3, 3))

        def one_hook_too_many(parts):
            counts = _hook_counts(parts) + [0, 0]
            counts[6] += 1  # f = 720/144 = 5 holds no factor 2 or 3 to spare
            return counts

        monkeypatch.setattr(hookbound.degrees, "_hook_counts", one_hook_too_many)
        with pytest.raises(ArithmeticError):
            degree(shape)

    def test_count_past_largest_hook_raises(self, monkeypatch):
        # a count at h = 5 on (3, 3), past its largest hook 4, that no slice
        # sum reads: only the length check sees it
        def one_hook_past_top(parts):
            return _hook_counts(parts) + [1]

        monkeypatch.setattr(hookbound.degrees, "_hook_counts", one_hook_past_top)
        with pytest.raises(ArithmeticError, match="past its largest hook 4"):
            degree(Partition((3, 3)))


def determinantal_degree(parts):
    """``n! * prod_{i<j} (l_i - l_j) / prod_i l_i!`` with ``l_i = lambda_i + k - i``.

    Every factor is tallied by value, so the products cancel before any big
    integer is formed; ``l_i!`` contributes ``m`` once per ``l_i >= m``.
    """
    k = len(parts)
    ell = [x + k - 1 - i for i, x in enumerate(parts)]
    tally = Counter(range(1, sum(parts) + 1))
    for i, li in enumerate(ell):
        tally.update(map(sub, repeat(li), ell[i + 1 :]))
    beads = Counter(ell)
    top_down = range(ell[0] if ell else 0, 0, -1)
    tally.subtract(dict(zip(top_down, accumulate(beads[m] for m in top_down))))
    num = math.prod(m**e for m, e in tally.items() if e > 0)
    den = math.prod(m**-e for m, e in tally.items() if e < 0)
    f, rem = divmod(num, den)
    assert rem == 0
    return f


@st.composite
def shapes(draw, max_n=300):
    """Partitions of n <= max_n from random compositions: fat, thin and in between."""
    budget = draw(st.integers(0, max_n))
    parts = []
    while budget:
        parts.append(draw(st.integers(1, budget)))
        budget -= parts[-1]
    return Partition(tuple(sorted(parts, reverse=True)))


def assert_unpadded(p):
    """The counts stop at the largest hook."""
    assert len(_hook_counts(p.parts)) == _largest_hook(p.parts) + 1


def padded_counts(p):
    """The hook counts of ``p`` padded with zeros to ``n + 1`` entries."""
    counts = _hook_counts(p.parts)
    return counts + [0] * (p.n + 1 - len(counts))


def grid_counts(p):
    grid = Counter(p.hook_grid().values())
    return [grid[h] for h in range(p.n + 1)]


def _valuation(x: Fraction, q: int) -> int:
    """The exponent of the prime ``q`` in the rational ``x != 0``, by trial division."""
    e = 0
    num, den = x.numerator, x.denominator
    while num % q == 0:
        num, e = num // q, e + 1
    while den % q == 0:
        den, e = den // q, e - 1
    return e


class TestExponents:
    @given(st.integers(0, 40), st.lists(st.integers(-3, 3), max_size=30))
    def test_factorisation_of_the_quotient(self, m, counts):
        # m! / prod h**counts[h], counts of either sign; counts[0] is no factor
        quotient = Fraction(factorial(m))
        for h, c in enumerate(counts[1:], 1):
            quotient /= Fraction(h) ** c
        primes = _plain_sieve(max(m, len(counts) - 1))
        exponents = _exponents(m, counts, primes)
        assert exponents == [_valuation(quotient, q) for q in primes]
        assert math.prod(Fraction(q) ** e for q, e in zip(primes, exponents)) == quotient

    def test_the_callers_read_it(self, monkeypatch):
        calls = []

        def recorded(m, counts, primes):
            calls.append((m, list(counts), list(primes)))
            return _exponents(m, counts, primes)

        monkeypatch.setattr(hookbound.degrees, "_exponents", recorded)
        p = Partition((5, 3, 3, 1))  # largest hook 8
        assert degree(p) == degree_ball(p).exact() == count_syt_bruteforce(p)
        assert calls == [(12, _hook_counts(p.parts), [2, 3, 5, 7])] * 2
        calls.clear()
        assert factorial_ball(50).exact() == factorial(50)
        assert calls == [(50, [], [2, 3, 5, 7])]


class TestSlotWidth:
    @pytest.mark.parametrize(
        "shape, rows",
        [
            (balanced(65025), 255),
            (balanced(65536), 256),
            (Partition((1,) * 65535), 65535),
            (Partition((1,) * 65536), 65536),
            (Partition((1,) * 65537), 65537),
        ],
        ids=["square-255", "square-256", "column-65535", "column-65536", "column-65537"],
    )
    def test_boundaries(self, shape, rows):
        # A slot holds counts up to k, the number of rows: one byte below 256
        # rows, two below 65536, then four.  The 256 x 256 square has 256
        # cells of hook 256.  A column's counts are at most 1, but its pairs
        # one apart number k - 1, which needs the four-byte slots at 65537 rows.
        assert len(shape) == rows
        assert padded_counts(shape) == grid_counts(shape)
        assert_unpadded(shape)


class TestDeterminantalFormula:
    @settings(max_examples=150, deadline=None)
    @given(shapes())
    def test_degree_matches_formula(self, p):
        assert degree(p) == determinantal_degree(p.parts)

    def test_extra_hook_within_largest_gives_negative_exponent(self, monkeypatch):
        shape = Partition((3, 3))

        def one_hook_too_many(parts):
            counts = _hook_counts(parts)
            counts[4] += 1  # the corner hook again: two more factors of 2, and f = 5 has none
            return counts

        monkeypatch.setattr(hookbound.degrees, "_hook_counts", one_hook_too_many)
        with pytest.raises(ArithmeticError, match="does not divide"):
            degree(shape)


class TestTruncate:
    @pytest.mark.parametrize("bits", [8, 128])
    def test_cuts_once_the_mantissa_reaches_twice_its_bits(self, monkeypatch, bits):
        # below 2**(2P) the ball passes unchanged; at 2**(2P) it keeps P bits
        # and counts one more cut
        monkeypatch.setattr(hookbound.degrees, "_BALL_BITS", bits)
        below = (1 << 2 * bits) - 1
        assert _truncate(below, 3, 5) == (below, 3, 5)
        assert _truncate(below + 1, 3, 5) == (1 << bits - 1, 4 + bits, 6)
        assert _truncate(below << 7, 0, 0) == (below >> bits, bits + 7, 1)


class TestPrimeList:
    def test_matches_sieve_after_growing_then_shrinking_n(self, monkeypatch):
        monkeypatch.setattr(hookbound.degrees, "_sieved", (1, []))
        for n in [10, 15, 1000, 1500, 1999, 300, 2]:
            degree(balanced(n))
            primes = _prime_list(n)
            assert primes[: bisect_right(primes, n)] == _primes_upto(n), n
        # 1500 re-sieved to 2000, twice the reach of 1000; nothing since has
        assert _prime_list(2000) is _prime_list(2) == _primes_upto(2000)


def _plain_sieve(n):
    """The primes through n by a plain bytearray sieve over every number."""
    is_prime = bytearray([1]) * (n + 1)
    is_prime[: min(2, n + 1)] = bytes(min(2, n + 1))
    for q in range(2, math.isqrt(n) + 1):
        if is_prime[q]:
            is_prime[q * q :: q] = bytes(len(range(q * q, n + 1, q)))
    return [q for q in range(n + 1) if is_prime[q]]


class TestOddSieve:
    def test_matches_the_plain_sieve(self):
        for n in range(401):
            assert _primes_upto(n) == _plain_sieve(n), n

    def test_segments_match_the_plain_sieve(self):
        reference = _plain_sieve(700)
        for low in range(2, 120):
            for high in range(low, 700, 7):
                base = _plain_sieve(max(math.isqrt(high), 2))
                expected = [q for q in reference if low < q <= high]
                assert list(_primes_between(low, high, base)) == expected, (low, high)

    def test_growing_reaches_match_the_plain_sieve(self, monkeypatch):
        # each n past the reach either extends the held list over the new
        # segment or, when the new reach is at least the old one squared,
        # sieves afresh; a list once handed out is never changed
        fresh = []
        real = hookbound.degrees._primes_upto

        def spy(n):
            fresh.append(n)
            return real(n)

        monkeypatch.setattr(hookbound.degrees, "_primes_upto", spy)
        branches = set()
        for seed in range(30):
            rng = random.Random(seed)
            monkeypatch.setattr(hookbound.degrees, "_sieved", (1, []))
            # log-uniform draws, mostly growing, so that both small and large jumps occur
            ns = sorted(int(math.exp(rng.uniform(0, math.log(20000)))) for _ in range(8))
            for n in ns + [rng.randrange(ns[-1] + 1)]:
                before, held = hookbound.degrees._sieved
                kept = list(held)
                fresh.clear()
                primes = _prime_list(n)
                reach = hookbound.degrees._sieved[0]
                assert held == kept
                assert primes == _plain_sieve(reach), (n, reach)
                if reach == before:
                    assert primes is held and not fresh
                    continue
                assert reach == max(n, 2 * before)
                afresh = reach in fresh
                assert afresh == (math.isqrt(reach) >= before)
                branches.add(afresh)
        assert branches == {True, False}

    def test_both_branches_run(self, monkeypatch):
        monkeypatch.setattr(hookbound.degrees, "_sieved", (1, []))
        sieved = []
        real = hookbound.degrees._primes_between
        monkeypatch.setattr(
            hookbound.degrees, "_primes_between",
            lambda low, high, primes: sieved.append((low, high)) or real(low, high, primes),
        )
        _prime_list(19881)  # afresh: segments (2, 19881] and below it, by recursion
        assert sieved[-1] == (2, 19881)
        sieved.clear()
        _prime_list(39762)  # extended over the new segment alone
        assert sieved == [(19881, 39762)]
        assert _prime_list(79524) == _plain_sieve(79524)
        assert sieved[-1] == (39762, 79524)


class TestSieveCap:
    @pytest.fixture
    def cap(self, monkeypatch):
        monkeypatch.setattr(hookbound.degrees, "_sieved", (1, []))
        monkeypatch.setattr(hookbound.degrees, "SIEVE_CAP", 100)
        return 100

    def test_at_the_cap(self, cap):
        assert _prime_list(60) == _primes_upto(60)
        # the doubling to 120 stops at the cap
        assert _prime_list(70) == _primes_upto(cap)
        assert hookbound.degrees._sieved[0] == cap
        assert degree(Partition((cap,))) == 1
        assert degree_ball(Partition((50, 50))).exact() == degree(Partition((50, 50)))
        assert factorial_ball(cap).exact() == factorial(cap)

    def test_past_the_cap(self, cap, monkeypatch):
        message = f"prime sieve: n={cap + 1} exceeds guard n<={cap}"
        with pytest.raises(GuardExceededError, match=message):
            _prime_list(cap + 1)
        assert hookbound.degrees._sieved == (1, [])
        # the check reads n, not the reach of an earlier sieve
        monkeypatch.setattr(hookbound.degrees, "_sieved", (2 * cap, _primes_upto(2 * cap)))
        with pytest.raises(GuardExceededError, match=message):
            _prime_list(cap + 1)

    def test_shapes_past_the_cap_build_no_bead_string(self, cap, monkeypatch):
        def no_counts(parts):
            raise AssertionError("hook counts built past the sieve cap")

        monkeypatch.setattr(hookbound.degrees, "_hook_counts", no_counts)
        for call in (degree, degree_ball, log_degree):
            with pytest.raises(GuardExceededError):
                call(Partition((cap + 1,)))
        with pytest.raises(GuardExceededError):
            factorial_ball(cap + 1)


class TestLogDegree:
    def test_examples(self):
        assert abs(log_degree(Partition((2, 1))) - math.log(2)) < 1e-12
        assert log_degree(Partition((7,))) == 0.0
        assert abs(log_degree(Partition((3, 3))) - math.log(5)) < 1e-12

    def test_against_mpmath_reference(self):
        mpmath.mp.dps = 60
        for n in range(1, 13):
            for p in enumerate_partitions(n):
                d = degree(p)
                ref = float(mpmath.log(mpmath.mpf(d)))
                got = log_degree(p)
                if ref == 0.0:
                    assert got == 0.0
                else:
                    assert abs(got - ref) < 1e-12 * abs(ref) + 1e-300

    def test_equals_log_of_degree(self):
        # bit for bit, not within a tolerance
        for n in range(21):
            for p in enumerate_partitions(n):
                assert log_degree(p) == math.log(degree(p)), p
        p = staircase(12000, Fraction(11, 10))
        assert log_degree(p) == math.log(degree(p))

    def test_builds_no_exact_degree(self, tree_calls):
        log_degree(balanced(40000))
        assert tree_calls == []

    def test_huge_degree(self):
        p = Partition((60,) * 40)
        got = log_degree(p)
        mpmath.mp.dps = 60
        ref = float(mpmath.log(mpmath.mpf(degree(p))))
        assert abs(got - ref) < 1e-12 * ref


def is_standard_tableau(p, t):
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


class TestBruteForce:
    def test_known(self):
        assert count_syt_bruteforce(Partition((2, 2))) == 2
        assert count_syt_bruteforce(Partition((1, 1, 1))) == 1
        assert count_syt_bruteforce(Partition((3, 2))) == 5

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            count_syt_bruteforce(Partition((13,)))

    def test_tableaux_are_standard_and_counted(self):
        p = Partition((3, 2, 1))
        tabs = list(standard_tableaux(p))
        assert len(tabs) == degree(p) == 16
        assert len(set(tabs)) == len(tabs)
        for t in tabs:
            assert is_standard_tableau(p, t)

    def test_counting_keeps_no_tableaux(self):
        # a tableau built as tuple(generator) is resized, and the resized
        # tuples pile up in the interpreter's free lists: about 600 KiB over
        # the shapes of n <= 10, which the benchmark runner counts first
        tracemalloc.start()
        try:
            for n in range(11):
                for p in enumerate_partitions(n):
                    count_syt_bruteforce(p)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 100_000

    def test_empty_shape(self):
        assert list(standard_tableaux(Partition(()))) == [()]
        assert count_syt_bruteforce(Partition(())) == 1


class TestRemark:
    def test_small_shapes(self):
        assert verify_remark_N_ge_h(Partition((2, 1)))
        assert verify_remark_N_ge_h(Partition((4,)))

    def test_all_shapes_up_to_7(self):
        for n in range(1, 8):
            for p in enumerate_partitions(n):
                assert verify_remark_N_ge_h(p)

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            verify_remark_N_ge_h(Partition((11,)))


class TestSumSquares:
    def test_small(self):
        assert sum_squares_identity(1)
        assert sum_squares_identity(3)
        assert sum_squares_identity(4)

    def test_up_to_11(self):
        for n in range(1, 12):
            assert sum_squares_identity(n)

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            sum_squares_identity(13)
