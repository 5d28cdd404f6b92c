import hashlib
import math
import random
from fractions import Fraction

import pytest

import hookbound.bounds
import hookbound.degrees
from hookbound.bounds import theorem_classify
from hookbound.certificates import (
    _log2_power,
    exact_power_ge,
    log2_bracket,
    power_compare_bits,
    powers_ge,
)
from hookbound.degrees import (
    DegreeBall,
    _ball_product,
    _pow_ball,
    _prime_powers,
    _round53,
    degree,
    degree_ball,
    factorial_ball,
)
from hookbound.families import balanced, staircase
from hookbound.partitions import Partition, enumerate_partitions

ALPHA = Fraction(11, 10)
BETA = Fraction(21, 20)

# the shapes the certify benchmark bounds (before its seed jitter), their
# Durfee squares, and the two M3 rectangles
BENCHMARK_SHAPES = (
    [balanced(n) for n in (20000, 30000, 40000)]
    + [Partition((d,) * d) for d in (142, 174, 200)]
    + [staircase(n, ALPHA) for n in range(2000, 12001, 1000)]
    + [Partition((w,) * 20) for w in (600, 803)]
)


def at_least(a: DegreeBall, b: DegreeBall) -> bool:
    """``f >= g`` for the degrees of two balls, decided as the containment checks decide it."""
    return powers_ge(((a, 1),), ((b, 1),), None)


# (P, exact bits): the defaults, then truncated products on small shapes
PRECISIONS = [(128, 8192), (64, 0), (54, 0), (16, 0), (8, 0)]


@pytest.fixture
def precision(request, monkeypatch):
    bits, exact_bits = request.param
    monkeypatch.setattr(hookbound.degrees, "_BALL_BITS", bits)
    monkeypatch.setattr(hookbound.degrees, "_EXACT_BITS", exact_bits)
    return bits


def assert_ball_of(ball: DegreeBall, f: int) -> None:
    """The ball holds f, and every reading of it equals the exact one."""
    assert ball.m << ball.s <= f <= (ball.m + ball.rad) << ball.s
    lo, hi = _log2_power(ball, 1)
    assert lo <= math.log2(f) <= hi
    assert ball.log() == math.log(f)
    # the bit estimate reads the upper end: an upper bound, exact on an exact ball
    bits = power_compare_bits(((ball, 1),), ())
    assert bits >= f.bit_length() and (bits == f.bit_length() or ball.rad > 0)
    assert ball.exact() == f


@pytest.mark.parametrize("precision", PRECISIONS, indirect=True, ids=str)
def test_every_partition_up_to_20(precision):
    truncated = 0
    for n in range(21):
        for p in enumerate_partitions(n):
            ball = degree_ball(p)
            truncated += ball.rad > 0
            assert_ball_of(ball, degree(p))
    # past 2**(2*P) the product is truncated (f < 2**28 here)
    assert (truncated > 0) == (precision == 8)


@pytest.mark.parametrize("precision", PRECISIONS[:3], indirect=True, ids=str)
def test_sweep_sized_shapes(precision):
    for n in range(40, 1300, 61):
        for p in (balanced(n), staircase(n, ALPHA)):
            assert_ball_of(degree_ball(p), degree(p))


@pytest.mark.parametrize("precision", PRECISIONS, indirect=True, ids=str)
def test_factorial_ball_holds_the_factorial(precision):
    # Legendre's exponents up to isqrt(m), then the runs of the primes
    # above it; exact at the default precision while m * m.bit_length()
    # <= 16384 (through m = 1489)
    for m in (*range(40), 97, 1000, 1489, 1490, 5000):
        ball = factorial_ball(m)
        if precision == 128:
            assert (ball.rad > 0) == (m > 1489)
        assert_ball_of(ball, math.factorial(m))


@pytest.mark.parametrize("shape", BENCHMARK_SHAPES, ids=lambda p: f"n{p.n}-k{len(p)}")
def test_benchmark_shapes(shape):
    ball = degree_ball(shape)
    # every benchmark shape is past the exact size, so its ball is truncated,
    # and no reading of it needs the exact degree
    assert ball.rad > 0 and ball.s > 0
    f_log = ball.log()
    power_compare_bits(((ball, 1),), ())
    assert ball._exact is None
    f = degree(shape)
    assert f_log == math.log(f)
    assert_ball_of(ball, f)


def below_count(lower: int, value: int, k: int, bits: int) -> bool:
    """``value < lower * (1 + 2**(1 - bits))**k``, in integers."""
    return value << (bits - 1) * k < lower * ((1 << bits - 1) + 1) ** k


@pytest.mark.parametrize("precision", [(4, 0), (8, 0)], indirect=True, ids=str)
def test_pow_ball_counts_every_truncation(precision):
    # each squaring doubles the count and each truncation adds one; with a
    # 4- or 8-bit mantissa the loss of every step shows
    rng = random.Random(precision)
    for _ in range(400):
        x, t, e = rng.randrange(1, 1 << 2 * precision), rng.randrange(20), rng.randrange(1, 400)
        m, s, j = _pow_ball(x, t, 0, e)
        exact = (x << t) ** e
        if j == 0:
            assert m << s == exact
        else:
            assert m << s <= exact and below_count(m << s, exact, j, precision)


@pytest.mark.parametrize("precision", [(4, 0), (8, 0)], indirect=True, ids=str)
def test_radius_covers_the_count(precision):
    # f < m * 2**s * (1 + eps)**k, and the radius covers (1 + eps)**k - 1
    for n in range(30, 400, 7):
        for p in (balanced(n), staircase(n, Fraction(3, 2))):
            m, s, k = _ball_product(*_prime_powers(p))
            f = degree(p)
            if k == 0:
                assert m << s == f
            else:
                assert m << s <= f and below_count(m << s, f, k, precision)
            ball = degree_ball(p)
            if ball.rad and ball.m == m:
                assert not below_count(m, m + ball.rad, k, precision)


def test_radius_is_far_inside_the_rounding_of_a_double():
    ball = degree_ball(balanced(40000))
    assert ball.rad.bit_length() + 100 < ball.m.bit_length()


class TestRound53:
    """``math.log`` of an int reads only its correctly rounded double."""

    @staticmethod
    def assert_log_matches(x: int) -> None:
        top, shift = _round53(x, 0)
        assert top.bit_length() <= 53
        assert math.log(top << shift) == math.log(x)

    def test_random_ints(self):
        rng = random.Random(15)
        for _ in range(20000):
            bits = rng.choice([rng.randrange(1, 120), rng.randrange(1000, 1050),
                               rng.randrange(1, 4000)])
            self.assert_log_matches(rng.getrandbits(bits) | 1 << bits - 1)

    def test_midpoints_and_their_neighbours(self):
        rng = random.Random(16)
        for _ in range(5000):
            drop = rng.randrange(1, 3000)
            top = rng.getrandbits(53) | 1 << 52
            mid = (2 * top + 1) << drop - 1
            for x in (mid - 1, mid, mid + 1, top << drop):
                self.assert_log_matches(x)

    @pytest.mark.parametrize(
        "x",
        [
            2**53 - 1, 2**53, 2**53 + 1, 2**54 - 1, 2**54 + 2, 2**54 + 6,
            2**1024 - 2**970 - 1,  # rounds down to the largest double
            2**1024 - 2**970,  # a tie: rounds to even, past the largest double
            2**1024 - 1, 2**1024, 2**1024 + 2**971,
        ],
    )
    def test_edges(self, x):
        self.assert_log_matches(x)

    def test_shifted_value(self):
        x = (2**60 + 2**7) * 3
        top, shift = _round53(x, 0)
        assert _round53(x, 1000) == (top, shift + 1000)


class TestNearPowersOfTwo:
    """Degrees near 2**53 and 2**1024: hook shapes, f = binomial(n - 1, k)."""

    @staticmethod
    def hooks_near(bits: int) -> list[Partition]:
        # for each N, the two k on either side of binomial(N, k) reaching 2**bits
        out = []
        for big in range(bits + 6, bits + 16):
            k = next(k for k in range(big) if math.comb(big, k).bit_length() > bits)
            out += [Partition((big + 1 - j,) + (1,) * j) for j in (k - 1, k)]
        return out

    @pytest.mark.parametrize("precision", PRECISIONS, indirect=True, ids=str)
    @pytest.mark.parametrize("bits", [53, 1024])
    def test_hooks(self, precision, bits):
        shapes = self.hooks_near(bits)
        assert {degree(p).bit_length() for p in shapes} >= {bits, bits + 1}
        for p in shapes:
            assert_ball_of(degree_ball(p), degree(p))


class TestFallbacks:
    """The exact degree is built only on a near-tie or a rounding midpoint."""

    def test_near_tie_builds_the_degree(self):
        ball = degree_ball(staircase(3000, ALPHA))
        f = degree(staircase(3000, ALPHA))
        assert ball._exact is None
        assert not exact_power_ge(ball, Fraction(f + 1), Fraction(1))
        assert ball._exact == f
        assert exact_power_ge(ball, Fraction(f), Fraction(1))

    def test_separated_sides_build_nothing(self):
        ball = degree_ball(staircase(3000, ALPHA))
        assert exact_power_ge(ball, Fraction(2), Fraction(3000))
        assert not exact_power_ge(ball, Fraction(2), Fraction(30000))
        # the strip's f * n**m >= alpha**n, with no bit budget
        assert powers_ge(((ball, 1), (3000, 1000)), ((Fraction(2), 3000),), None)
        assert not powers_ge(((ball, 1), (30000, 0)), ((Fraction(2), 30000),), None)
        assert ball._exact is None

    @pytest.mark.parametrize("precision", [(26, 0)], indirect=True, ids=str)
    def test_midpoint_builds_the_degree(self, precision):
        # a 26-bit ball is far wider than a double's rounding step, so both
        # its ends never round alike
        p = balanced(200)
        ball = degree_ball(p)
        assert ball.rad > 0 and ball._exact is None
        assert ball.log() == math.log(degree(p))
        assert ball._exact == degree(p)

    @pytest.mark.parametrize("precision", [(8, 0)], indirect=True, ids=str)
    def test_power_of_two_straddle_bit_estimate_builds_nothing(self, precision):
        straddles = 0
        for n in range(20, 60):
            for p in (balanced(n), staircase(n, Fraction(3, 2))):
                ball = degree_ball(p)
                straddle = (ball.m + ball.rad).bit_length() != ball.m.bit_length()
                bits = power_compare_bits(((ball, 1),), ())
                assert (ball._exact is not None) == (ball.rad == 0)
                assert degree(p).bit_length() in ((bits - 1, bits) if straddle else (bits,))
                straddles += straddle
        assert straddles > 0

    @pytest.mark.parametrize("precision", [(8, 0)], indirect=True, ids=str)
    def test_overlapping_balls_compare_exactly(self, precision):
        shapes = [p for n in (30, 31) for p in enumerate_partitions(n) if len(p) <= 12]
        balls = [degree_ball(p) for p in shapes[::7]]
        degrees = [degree(p) for p in shapes[::7]]
        for a, fa in zip(balls, degrees):
            for b, fb in zip(balls, degrees):
                assert at_least(a, b) == (fa >= fb)
        built = sum(ball._exact is not None for ball in balls if ball.rad)
        assert built > 0

    def test_equal_shapes_compare_equal_without_a_build(self, monkeypatch):
        lam = staircase(3000, ALPHA)
        a, b, c = degree_ball(lam), degree_ball(lam), degree_ball(lam.conjugate())
        smaller = degree_ball(staircase(2999, ALPHA))
        exact = hookbound.degrees._exact
        built = []

        def counted(*args):
            built.append(args[0])
            return exact(*args)

        monkeypatch.setattr(hookbound.degrees, "_exact", counted)
        assert a is not b
        assert at_least(a, b) and at_least(b, a) and at_least(a, c) and at_least(c, a)
        assert not at_least(smaller, a)
        assert at_least(a, smaller)
        assert (a._exact, b._exact, c._exact) == (None, None, None)
        # a square input of the certify workload: its Durfee square is itself
        hookbound.bounds._degree.cache_clear()
        cert = theorem_classify(balanced(40000), 2, Fraction(3, 2))
        assert cert.aux["class"] == "M2" and cert.passed
        assert built == []

    def test_square_through_the_m2_route(self, monkeypatch):
        # the square is its own Durfee square: the containment check compares
        # one ball with itself; the digest is that of the exact-degree dispatch
        exact = DegreeBall.exact
        built = []

        def counted(ball):
            built.append(ball)
            return exact(ball)

        monkeypatch.setattr(DegreeBall, "exact", counted)
        cert = theorem_classify(Partition((40,) * 40), ALPHA, BETA)
        assert cert.aux["class"] == "M2"
        assert cert.aux["sub_certificate"].bound_name == "overexponential"
        assert cert.aux["sub_certificate"].verdict == "PASS" and cert.passed
        assert built == []
        digest = hashlib.sha256(cert.to_json().encode()).hexdigest()
        assert digest == "c5ef77e6a13b9d4276fdede0ddaa3d27c0c0575aafde818c04f36ebc320ec480"


@pytest.mark.parametrize("scale", [0, 1, 7, 53, 1000])
@pytest.mark.parametrize("x", [1, 3, 2**52 + 1, 2**53 - 1, 3**200])
def test_scaled_bracket_is_the_bracket_of_the_shifted_integer(x, scale):
    assert log2_bracket(x, scale) == log2_bracket(x << scale)
