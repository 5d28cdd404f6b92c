import math
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hookbound.bounds
from hookbound.bounds import (
    _check_t_factorials,
    overexponential_bound,
    rectangle_bound,
    strip_bound,
    theorem_classify,
)
from hookbound.certificates import FAIL, MODE_EXACT, PASS, powers_ge
from hookbound.degrees import DegreeBall, count_syt_bruteforce, degree
from hookbound.errors import ConsistencyError, HypothesisError
from hookbound.families import balanced, staircase
from hookbound.partitions import Partition, enumerate_partitions

from diagrams import cells_of

LAM = Partition.parse("9,6,4,2,2,1")
ALPHA2 = Fraction(2)
MESSAGE = "product of B and C hooks exceeds the t-factorial product"


def strip_ge(f, alpha: Fraction, n: int, m: int) -> bool:
    """The strip bound's comparison ``f * n**m >= alpha**n``, with no bit budget."""
    return powers_ge(((f, 1), (n, m)), ((alpha, n),), None)


class TestStripConstruction:
    def test_worked_example_t_sequence(self):
        sc = strip_bound(LAM, 4, 3, ALPHA2)
        assert sc.aux["t"] == [6, 5, 3, 6, 3, 1, 0]
        assert sum(sc.aux["t"]) == 24

    def test_worked_example_cell_split(self):
        sc = strip_bound(LAM, 4, 3, ALPHA2)
        assert sc.parameters["m"] == 18
        assert sc.aux["sizes"] == {"A": 17, "B": 3, "C": 4}
        assert sum(sc.aux["sizes"].values()) == LAM.n

    def test_square_small_case_fails_honestly(self):
        # m = (2*0+2-1)*2/2 = 1, so the bound is 2^4/4 = 4 > f = 2: FAIL at n=4
        sc = strip_bound(Partition((2, 2)), 2, 0, ALPHA2)
        assert sc.parameters["m"] == 1
        assert sc.mode == MODE_EXACT
        assert sc.verdict == FAIL
        assert sc.margin == pytest.approx(math.log(2) - math.log(4))

    def test_hypothesis_gates(self):
        with pytest.raises(HypothesisError):
            strip_bound(LAM, 1, 1, ALPHA2)  # lambda_2 = 6 > 1
        with pytest.raises(HypothesisError):
            strip_bound(Partition((4,)), 1, 0, ALPHA2)  # lambda_1 = n > n/2
        with pytest.raises(HypothesisError):
            strip_bound(LAM, 4, 3, Fraction(1))  # alpha must exceed 1
        with pytest.raises(HypothesisError):
            strip_bound(Partition(()), 1, 1, ALPHA2)

    def test_conjugation_coherence(self):
        # k < l swaps to the conjugate; verdict and m agree with the swapped call
        lam = Partition((5, 5, 4, 2, 2, 1, 1))  # n=20, lam_1=5<=10, lam'_1=7<=10
        a = strip_bound(lam, 2, 4, ALPHA2)
        b = strip_bound(lam.conjugate(), 4, 2, ALPHA2)
        assert a.aux["conjugated"] and not b.aux["conjugated"]
        assert a.parameters["m"] == b.parameters["m"]
        assert a.verdict == b.verdict
        assert a.aux["t"] == b.aux["t"]

    def test_bound_log_formula(self):
        sc = strip_bound(LAM, 4, 3, ALPHA2)
        n = LAM.n
        m = sc.parameters["m"]
        assert sc.rhs_log == pytest.approx(n * math.log(2) - m * math.log(n))

    def test_h32_sweep_alpha2_passes(self):
        # every lambda |- n in [10, 18] inside H(3,2) with both widths <= n/2
        checked = 0
        for n in range(10, 19):
            for lam in enumerate_partitions(n, max_part=n // 2, max_parts=n // 2):
                if lam.part(4) > 2:
                    continue
                sc = strip_bound(lam, 3, 2, ALPHA2)
                assert sc.verdict == PASS, (lam, sc.margin)
                checked += 1
        assert checked > 50


def _per_cell_strip(lam, k, l):
    """The per-cell construction the row segments replaced: t, A, B, C, hooks_bc."""
    if k >= l:
        work, wk, wl = lam, k, l
    else:
        work, wk, wl = lam.conjugate(), l, k
    conj = work.conjugate()
    t = tuple(conj.part(s) for s in range(1, wl + 1)) + tuple(
        max(work.part(s) - wl, 0) for s in range(1, wk + 1)
    )
    mu = Partition(tuple(p for p in range(wl + wk - 1, wl - 1, -1) if p > 0))
    hooks = work.hook_grid()
    cells_a, cells_b, cells_c, hooks_bc = [], [], [], []
    for cell in cells_of(work):
        i, j = cell
        if j <= mu.part(i):
            cells_a.append(cell)
        elif i >= wk + 1:
            cells_b.append(cell)
            assert hooks[cell] <= t[j - 1] - (i - wk)
            hooks_bc.append(hooks[cell])
        else:
            cells_c.append(cell)
            assert hooks[cell] <= t[wl + i - 1] - (j - mu.part(i)) + 1
            hooks_bc.append(hooks[cell])
    return t, tuple(cells_a), tuple(cells_b), tuple(cells_c), hooks_bc


def _counts(hooks: list[int], t: list[int]) -> list[int]:
    """The hook counts ``_check_t_factorials`` reads: indexed by length, past every ``t_i``."""
    bc = Counter(hooks)
    return [bc[h] for h in range(max(hooks + t, default=0) + 1)]


class TestStripRowSegments:
    def test_matches_per_cell_construction(self, monkeypatch):
        calls = []

        def recorded(counts, t):
            calls.append((list(counts), list(t)))
            return _check_t_factorials(counts, t)

        def no_fallback(m):
            raise AssertionError("a sound strip's hooks are not dominated")

        monkeypatch.setattr(hookbound.bounds, "_check_t_factorials", recorded)
        monkeypatch.setattr(hookbound.bounds, "factorial_ball", no_fallback)
        seen = {"conjugated": 0, "B": 0, "C": 0, "B and C": 0}
        for n in range(1, 15):
            for lam in enumerate_partitions(n):
                for k in range(5):
                    for l in range(5):
                        calls.clear()
                        try:
                            sc = strip_bound(lam, k, l, ALPHA2)
                        except HypothesisError:
                            continue
                        t, a, b, c, hooks_bc = _per_cell_strip(lam, k, l)
                        assert sc.aux["t"] == list(t)
                        sizes = sc.aux["sizes"]
                        assert sizes == {"A": len(a), "B": len(b), "C": len(c)}
                        assert sc.aux["conjugated"] == (k < l)
                        # one check: the B and C hooks counted up to the
                        # corner hook of the working diagram, against t
                        [(counts, t_checked)] = calls
                        work = lam.conjugate() if k < l else lam
                        assert len(counts) == work.part(1) + work.conjugate().part(1)
                        assert max(t) < len(counts)
                        bc = Counter(hooks_bc)
                        assert counts == [bc[h] for h in range(len(counts))]
                        assert t_checked == list(t)
                        seen["conjugated"] += sc.aux["conjugated"]
                        seen["B"] += bool(b)
                        seen["C"] += bool(c)
                        seen["B and C"] += bool(b and c)
        assert min(seen.values()) > 0, seen

    def test_m1_dispatch_never_builds_hook_grid(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("hook_grid called")

        monkeypatch.setattr(Partition, "hook_grid", forbidden)
        for lam, alpha, beta in [
            (balanced(400), Fraction(2), Fraction(3, 2)),
            (Partition((40000, 40000)), Fraction(2), Fraction(3, 2)),
            (staircase(600, Fraction(11, 10)), Fraction(11, 10), Fraction(21, 20)),
        ]:
            cert = theorem_classify(lam, alpha, beta)
            assert cert.aux["class"] == "M1"
            assert cert.aux["sub_certificate"].bound_name == "strip"
        sc = strip_bound(LAM, 4, 3, ALPHA2)
        assert sc.aux["sizes"]["B"] == 3 and sc.aux["sizes"]["C"] == 4


class TestTFactorialCheck:
    """``_check_t_factorials`` on each of its routes, and through ``strip_bound``."""

    @pytest.fixture
    def compares(self, monkeypatch):
        calls = []

        def recorded(lhs, rhs, *budget):
            calls.append((list(lhs), list(rhs), *budget))
            return powers_ge(lhs, rhs, *budget)

        monkeypatch.setattr(hookbound.bounds, "powers_ge", recorded)
        return calls

    @pytest.mark.parametrize(
        "hooks, t",
        [([1, 2, 3], [3]), ([2, 3], [3, 2]), ([1, 1, 2, 4], [4, 1]), ([2, 2, 2], [1, 4]), ([], [0])],
    )
    def test_no_negative_gap_compares_nothing(self, compares, hooks, t):
        _check_t_factorials(_counts(hooks, t), t)
        assert compares == []

    def test_negative_gap_that_holds(self, compares):
        # the hooks {4} against t = [3]: one hook at least 4 and no factor of
        # 3!, a gap of -1, but 4 <= 6
        _check_t_factorials(_counts([4], [3]), [3])
        [(lhs, rhs, budget)] = compares
        assert [(ball.exact(), e) for ball, e in lhs] == [(6, 1)]
        assert rhs == [(4, 1)] and budget is None

    def test_dominated_only_by_a_factor_past_every_hook(self, compares):
        # the hooks {4, 4, 3} against t = [5]: matched to the factors 5, 4, 3
        # of 5!, the 5 past every hook
        _check_t_factorials(_counts([4, 4, 3], [5]), [5])
        assert compares == []

    def test_product_past_the_factorials_raises(self, compares):
        # the hooks {7} against t = [3]: 7 > 3! = 6
        with pytest.raises(ConsistencyError, match=MESSAGE):
            _check_t_factorials(_counts([7], [3]), [3])
        assert len(compares) == 1

    @given(
        st.lists(st.integers(1, 15), max_size=8),
        st.lists(st.integers(0, 10), max_size=4),
    )
    def test_decides_exactly(self, hooks, t):
        holds = math.prod(hooks) <= math.prod(map(factorial, t))
        try:
            _check_t_factorials(_counts(hooks, t), t)
        except ConsistencyError as err:
            assert not holds and str(err) == MESSAGE
        else:
            assert holds

    def test_strip_bound_with_a_corrupted_t(self, monkeypatch):
        # LAM's B and C hooks multiply to 18; t cut to (3, 2) leaves 3! * 2! = 12
        seen = []

        def corrupted(counts, t):
            seen.append(t)
            return _check_t_factorials(counts, [3, 2] + [0] * (len(t) - 2))

        monkeypatch.setattr(hookbound.bounds, "_check_t_factorials", corrupted)
        with pytest.raises(ConsistencyError, match=MESSAGE):
            strip_bound(LAM, 4, 3, ALPHA2)
        assert seen == [[6, 5, 3, 6, 3, 1, 0]]

    def test_strip_bound_compares_only_the_degree(self, compares):
        # a sound construction's hooks are dominated: the one comparison is
        # the bound's own, f * n**m >= alpha**n
        for lam, k, l in [(LAM, 4, 3), (Partition((5, 5, 4, 2, 2, 1, 1)), 2, 4)]:
            compares.clear()
            strip_bound(lam, k, l, ALPHA2)
            [(lhs, rhs)] = compares
            assert type(lhs[0][0]) is DegreeBall

    def test_m1_at_a_million_cells(self):
        # two rows of 500,000: the strip check counts the hooks and compares
        # nothing, so the dispatch decides exactly in well under a second
        cert = theorem_classify(Partition((500000, 500000)), Fraction(2), Fraction(3, 2))
        assert cert.aux["class"] == "M1"
        assert (cert.mode, cert.verdict) == (MODE_EXACT, PASS)


class TestStripExactFilter:
    def test_balanced_sweep_matches_direct_comparison(self):
        # the strip of every M1 row of the alpha = 2 balanced sweep
        for n in range(43, 404):
            lam = balanced(n)
            sc = strip_bound(lam, 36, 36, ALPHA2)
            assert sc.parameters["m"] == 1926 and sc.mode == MODE_EXACT
            direct = degree(lam) * n**1926 >= 2**n
            assert sc.verdict == (PASS if direct else FAIL), n

    @pytest.mark.parametrize("alpha", [Fraction(2), Fraction(3, 2), Fraction(11, 10)])
    @pytest.mark.parametrize("n, m", [(64, 10), (60, 2), (3000, 20), (5000, 1)])
    def test_near_ties(self, alpha, n, m):
        # the least f with f * q**n * n**m >= p**n and its neighbours (an exact
        # tie at alpha = 2, n = 64, m = 10); the brackets overlap there, so
        # only the powers can decide
        p, q = alpha.numerator, alpha.denominator
        least = -(-(p**n) // (q**n * n**m))
        for f in (least - 1, least, least + 1):
            if f >= 1:
                assert strip_ge(f, alpha, n, m) == (f * q**n * n**m >= p**n)

    def test_separated_sides_build_no_powers(self):
        products = []

        class Spy(int):
            # the exact products raise every term, f included, to its power
            def __pow__(self, k):
                products.append(k)
                return int(self) ** k

        for n in range(43, 404):
            assert strip_ge(Spy(degree(balanced(n))), ALPHA2, n, 1926)
            assert strip_ge(Spy(1), ALPHA2, n, 1926)
            assert not strip_ge(Spy(1), ALPHA2, n, 0)
        assert products == []
        assert strip_ge(Spy(16), ALPHA2, 64, 10) and len(products) == 1

    @given(
        st.integers(min_value=1, max_value=2**400),
        st.fractions(min_value=Fraction(21, 20), max_value=9, max_denominator=30),
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=0, max_value=60),
    )
    def test_matches_direct_comparison(self, f, alpha, n, m):
        p, q = alpha.numerator, alpha.denominator
        assert strip_ge(f, alpha, n, m) == (f * q**n * n**m >= p**n)


class TestRectangle:
    def test_2x2_exact_values(self):
        cert = rectangle_bound(2, 2)
        assert cert.verdict == PASS and cert.mode == MODE_EXACT
        # n!/(b!)^a 4^-n = 24/(4*256) = 3/128
        assert cert.aux["factorial_form_rhs_log"] == pytest.approx(math.log(3 / 128))
        assert cert.aux["factorial_form_holds"] is True
        assert cert.aux["weak_form_holds"] is True

    def test_single_row(self):
        cert = rectangle_bound(1, 5)
        assert cert.verdict == PASS
        assert degree(Partition((5,))) == 1

    def test_3x3_against_brute_force(self):
        f = degree(Partition((3, 3, 3)))
        assert f == count_syt_bruteforce(Partition((3, 3, 3))) == 42
        cert = rectangle_bound(3, 3)
        assert cert.verdict == PASS
        assert f * factorial(3) ** 3 * 4**9 >= factorial(9)

    def test_swap_coherence(self):
        a = rectangle_bound(2, 5)
        b = rectangle_bound(5, 2)
        assert b.aux["swapped"] and not a.aux["swapped"]
        assert a.verdict == b.verdict
        assert a.lhs_log == b.lhs_log

    def test_full_grid_exact(self):
        for a in range(1, 9):
            for b in range(a, 65):
                if a * b > 64:
                    break
                cert = rectangle_bound(a, b)
                assert cert.mode == MODE_EXACT
                assert cert.aux["factorial_form_holds"] is True, (a, b)
                assert cert.verdict == PASS, (a, b)

    def test_rejects_nonpositive(self):
        with pytest.raises(HypothesisError):
            rectangle_bound(0, 3)

    def test_factorial_form_matches_direct_comparison(self):
        # the form is decided as (b!)**a * 4**n >= prod(h), with no n!
        for a in range(1, 13):
            for b in range(1, 13):
                n = a * b
                lo, hi = sorted((a, b))
                f = degree(Partition((hi,) * lo))
                direct = f * factorial(hi) ** lo * 4**n >= factorial(n)
                assert rectangle_bound(a, b).aux["factorial_form_holds"] is direct, (a, b)

    @pytest.mark.parametrize("a, b", [(1, 1), (1, 7), (4, 4), (5, 9), (9, 5), (12, 29)])
    def test_factorial_form_compares_the_hook_multiset(self, monkeypatch, a, b):
        calls = []

        def recorded(lhs, rhs, *args):
            calls.append((list(lhs), list(rhs)))
            return powers_ge(lhs, rhs, *args)

        monkeypatch.setattr(hookbound.bounds, "powers_ge", recorded)
        rectangle_bound(a, b)
        lo, hi = sorted((a, b))
        hooks = Partition((hi,) * lo).hook_grid().values()
        lhs, rhs = calls[0]
        assert lhs == [(factorial(hi), lo), (4, a * b)]
        assert dict(rhs) == dict(Counter(hooks)) and len(rhs) == lo + hi - 1

    @pytest.mark.parametrize("a, b", [(20, 40), (20, 803)])
    def test_reads_the_degree_ball(self, monkeypatch, cold_degrees, a, b):
        # both forms agree with the exact comparisons, and the brackets
        # decide each one on its own, so no bit budget, not even 0, makes
        # the ball build its exact value
        assert not hasattr(hookbound.bounds, "degree")
        builds = []
        exact = DegreeBall.exact

        def counted(ball):
            builds.append(ball)
            return exact(ball)

        n, f = a * b, degree(Partition((b,) * a))
        monkeypatch.setattr(DegreeBall, "exact", counted)
        for budget in (None, "0"):
            if budget is not None:
                monkeypatch.setenv("HOOKBOUND_EXACT_BITS", budget)
            cold_degrees()
            cert = rectangle_bound(a, b)
            assert cert.mode == MODE_EXACT and cert.lhs_log == math.log(f)
            assert cert.aux["weak_form_holds"] == (f * 4**n >= a**n)
            assert cert.aux["factorial_form_holds"] == (
                f * factorial(b) ** a * 4**n >= factorial(n)
            )
            assert builds == [], budget


class TestOverexponential:
    def test_gamma_one_edge(self):
        cert = overexponential_bound(Partition((3, 3, 3)), Fraction(1), Fraction(1))
        assert cert.verdict == PASS
        assert cert.parameters["delta"] == 3
        assert cert.aux["containment_exact"] is True

    def test_hypothesis_gate(self):
        # delta = 1, n = 3: 1/3 < 1/2
        with pytest.raises(HypothesisError):
            overexponential_bound(Partition((2, 1)), Fraction(1, 2), Fraction(2))

    def test_six_by_six_margin(self):
        lam = Partition((6,) * 6)
        cert = overexponential_bound(lam, Fraction(1), Fraction(3, 2))
        f_mu = degree(lam)
        expected = math.log(f_mu) - 36 * math.log(1.5)
        assert cert.margin == pytest.approx(expected, rel=1e-9)
        assert cert.verdict == (PASS if f_mu * 2**36 >= 3**36 else FAIL)

    def test_square_smaller_than_diagram(self):
        lam = Partition((5, 5, 5, 2, 1))  # delta = 3, n = 18
        cert = overexponential_bound(lam, Fraction(1, 2), Fraction(1))
        assert cert.parameters["k_n"] == 9
        assert cert.aux["input_log_degree"] >= cert.lhs_log

    def test_legitimate_fail_at_small_n(self):
        # the square route may fail when gamma^n already beats f(delta^delta)
        lam = Partition((3, 3, 3))
        cert = overexponential_bound(lam, Fraction(1), Fraction(3))
        assert cert.verdict == FAIL
        assert cert.margin < 0

    def test_beta_log_reported(self):
        cert = overexponential_bound(Partition((4, 4, 4, 4)), Fraction(1), Fraction(2))
        assert cert.aux["beta_log"] == pytest.approx(math.log(2))

    @pytest.mark.parametrize("eps, gamma", [(1, 2), (1.0, 2.0), (0.5, 1.5)])
    def test_int_and_float_arguments_match_fractions(self, eps, gamma):
        # each value is taken as the Fraction of its value
        lam = Partition((4, 4, 4, 4))
        cert = overexponential_bound(lam, eps, gamma)
        exact = overexponential_bound(lam, Fraction(eps), Fraction(gamma))
        assert cert.to_json() == exact.to_json()
        assert cert.mode == MODE_EXACT and cert.aux["gamma_exact"] is True

    def test_gate_is_exact(self):
        # delta^2/n = 9/18 exactly: eps = 1/2 passes, the next rational above fails
        lam = Partition((5, 5, 5, 2, 1))
        overexponential_bound(lam, Fraction(1, 2), Fraction(1))
        with pytest.raises(HypothesisError):
            overexponential_bound(lam, Fraction(1, 2) + Fraction(1, 10**12), Fraction(1))
