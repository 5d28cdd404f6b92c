import math
from collections import Counter
from fractions import Fraction
from math import factorial

import mpmath
import pytest

import hookbound.degrees
from hookbound.degrees import (
    count_syt_bruteforce,
    degree,
    hook_counts,
    hook_product,
    is_standard_tableau,
    log_degree,
    robbins_bounds,
    robbins_log_bounds,
    standard_tableaux,
    sum_squares_identity,
    verify_remark_N_ge_h,
    weak_stirling_log_lower,
)
from hookbound.errors import GuardExceededError
from hookbound.families import balanced, staircase
from hookbound.partitions import Partition, enumerate_partitions


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
                counts = hook_counts(p)
                assert len(counts) == n + 1
                grid = Counter(p.hook_grid().values())
                assert {h: c for h, c in enumerate(counts) if c} == dict(grid)

    @pytest.mark.parametrize(
        "shape",
        [
            Partition((9,)),
            Partition((1,) * 9),
            Partition((7, 1, 1, 1, 1)),
            Partition((800,) * 20),
            balanced(2000),
            staircase(6000, Fraction(11, 10)),
        ],
        ids=["row", "column", "hook", "rectangle", "balanced", "staircase"],
    )
    def test_matches_factorial_over_hook_product(self, shape):
        hooks = math.prod(shape.hook_grid().values())
        ref, rem = divmod(factorial(shape.n), hooks)
        assert rem == 0
        assert degree(shape) == ref

    def test_negative_prime_exponent_raises(self, monkeypatch):
        shape = Partition((3, 3))

        def one_hook_too_many(p):
            counts = hook_counts(p)
            counts[6] += 1  # f = 720/144 = 5 holds no factor 2 or 3 to spare
            return counts

        monkeypatch.setattr(hookbound.degrees, "hook_counts", one_hook_too_many)
        with pytest.raises(ArithmeticError):
            degree(shape)


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

    def test_huge_degree(self):
        p = Partition((60,) * 40)
        got = log_degree(p)
        mpmath.mp.dps = 60
        ref = float(mpmath.log(mpmath.mpf(degree(p))))
        assert abs(got - ref) < 1e-12 * ref


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


class TestRobbins:
    def test_brackets_exact_factorial(self):
        for n in (1, 2, 5, 10, 25, 60):
            lo, hi = robbins_log_bounds(n)
            exact = math.log(factorial(n))
            assert lo <= exact <= hi

    def test_linear_form_n10(self):
        lo, hi = robbins_bounds(10)
        assert lo <= 3628800 <= hi

    def test_weak_form_n50(self):
        assert weak_stirling_log_lower(50) <= math.log(factorial(50))

    def test_weak_form_is_weaker(self):
        for n in (1, 3, 10, 40):
            assert weak_stirling_log_lower(n) <= robbins_log_bounds(n)[0]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            robbins_log_bounds(0)
