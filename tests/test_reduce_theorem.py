import hashlib
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hookbound.bounds
import hookbound.celltyping
from hookbound.bounds import (
    CLASS_M1,
    CLASS_M2,
    CLASS_M3,
    _class_rule,
    _degree,
    _tilde,
    general_bound,
    reduce_diagram,
    rho,
    strip_bound,
    theorem_classify,
)
from hookbound.celltyping import check_typing_hypotheses, check_widths
from hookbound.certificates import MODE_EXACT, PASS, certificate_from_json, revalidate
import hookbound.degrees
from hookbound.degrees import DegreeBall, degree, degree_ball, log_degree
from hookbound.errors import HypothesisError
from hookbound.families import balanced
from hookbound.families import staircase as family_staircase
from hookbound.partitions import Partition
from hookbound.sweep import build_growth_report

ALPHA = Fraction(11, 10)
BETA = Fraction(21, 20)


def staircase(c, delta):
    return Partition(tuple(range(c + delta - 1, c - 1, -1)))


class TestTilde:
    def test_rule_trace_small(self):
        # delta = 20 is the least side that clears delta >= 18*alpha: the
        # staircase (40,...,21) over five rows of 20
        tr = reduce_diagram(Partition(tuple(range(40, 20, -1)) + (20,) * 5), ALPHA)
        # row rule: 40 - 0 -> 40 kept; 39 - 1 -> 38 trimmed; 29 - 11 < 20 -> delta
        assert tr.lam_tilde.parts[:2] == (40, 38) and tr.lam_tilde.part(12) == 20
        assert tr.input.contains(tr.lam_tilde)
        assert tr.s == 10 and tr.t == 5
        assert tr.n1 == tr.lam_tilde.n

    def test_erasure_budget(self):
        tr = reduce_diagram(staircase(21, 20), ALPHA)
        n, d = tr.input.n, tr.delta
        assert tr.n1 >= n - d * d + d

    def test_full_rows_keep_everything(self):
        tr = reduce_diagram(staircase(40, 20), ALPHA)
        assert tr.s == 20 == tr.delta
        assert tr.mu == tr.lam_tilde
        assert tr.n2 == tr.n1

    def test_610_staircase_values(self):
        tr = reduce_diagram(staircase(21, 20), ALPHA)
        assert tr.delta == 20
        assert tr.s == 10 and tr.t == 0
        assert not tr.conjugated
        assert tr.n1 == 510
        assert tr.n2 == 510 - (20 - 10 - 1) * (20 - 10) // 2 == 465
        assert tr.delta_mu == 15

    def test_padding_parity_case(self):
        # c = 22 gives s = 11, so delta(mu) sits exactly on the square corner
        tr = reduce_diagram(staircase(22, 20), ALPHA)
        assert tr.s == 11
        assert tr.delta_mu == 16
        assert tr.mu.part(tr.delta_mu) == 16  # equality: row delta(mu) is a corner

    def test_diagonal_halving(self):
        for c in (21, 22, 25, 30, 40):
            tr = reduce_diagram(staircase(c, 20), ALPHA)
            assert tr.delta_mu >= tr.delta // 2 + 1

    def test_containment(self):
        for c in (21, 23, 40):
            tr = reduce_diagram(staircase(c, 20), ALPHA)
            assert tr.input.contains(tr.mu) or tr.input.conjugate().contains(tr.mu)

    def test_conjugate_swap(self):
        lam = staircase(21, 20).conjugate()
        tr = reduce_diagram(lam, ALPHA)
        assert tr.conjugated
        assert tr.s == 10 and tr.t == 0
        assert lam.conjugate().contains(tr.mu)

    def test_square_gate(self):
        with pytest.raises(HypothesisError) as err:
            reduce_diagram(Partition((20,) * 20), ALPHA)
        assert "delta^2" in err.value.condition

    def test_small_diagonal_gate(self):
        with pytest.raises(HypothesisError):
            reduce_diagram(staircase(21, 10), ALPHA)  # delta = 10 < 18*alpha

    def test_n2_formula_with_tail(self):
        lam = Partition(tuple(range(40, 20, -1)) + (15, 9, 3, 3))
        tr = reduce_diagram(lam, ALPHA)
        expected = tr.n1 - (tr.delta - tr.s - 1) * (tr.delta - tr.s) // 2
        if tr.s == tr.delta:
            expected = tr.n1
        assert tr.n2 == expected


def tilde_by_levels(lam: Partition, delta: int) -> Partition:
    """The staircased diagram as the rules read: one tail row per level below the square."""
    conj = lam.conjugate()
    rows = [max(lam.part(i) - (i - 1), delta) for i in range(1, delta + 1)]
    cols = [max(conj.part(j) - (j - 1), delta) for j in range(1, delta + 1)]
    parts = list(rows)
    level = delta + 1
    while True:
        width = sum(1 for c in cols if c >= level)
        if width == 0:
            break
        parts.append(width)
        level += 1
    return Partition(tuple(parts))


def last_above(p: Partition, delta: int) -> int:
    """The last of the first delta rows longer than delta, 0 if none."""
    return max((i for i in range(1, delta + 1) if p.part(i) > delta), default=0)


@st.composite
def reducible(draw):
    """A diagram with delta >= 18*alpha, its first row at the width cap or not, maybe conjugated."""
    alpha = draw(st.sampled_from([Fraction(11, 10), Fraction(3, 2), Fraction(2), Fraction(3)]))
    delta = math.ceil(18 * alpha) + draw(st.integers(0, 8))
    spread = draw(st.sampled_from([1, 4, 20]))
    extra = draw(st.lists(st.integers(0, spread * delta), min_size=delta, max_size=delta))
    top = sorted((delta + e for e in extra), reverse=True)
    tail = sorted(draw(st.lists(st.integers(1, delta), max_size=spread * delta)), reverse=True)
    if draw(st.booleans()):
        # lambda_1 near n/alpha, where the reduced diagram may fail the width gate
        rest = sum(top[1:]) + sum(tail)
        top[0] = max(top[1], math.floor(rest / (alpha - 1)) - draw(st.integers(0, 2 * delta)))
    lam = Partition(tuple(top) + tuple(tail))
    return (lam.conjugate() if draw(st.booleans()) else lam), alpha


WIDE = Partition((1560,) + (40,) * 39)


@pytest.fixture
def gate_calls(monkeypatch):
    """The diagrams given to the typing gate, through every module binding of it."""
    calls = []
    gate = hookbound.celltyping.check_typing_hypotheses

    def counted(lam, alpha):
        calls.append(lam)
        return gate(lam, alpha)

    for name, module in list(sys.modules.items()):
        if name.startswith("hookbound") and getattr(module, "check_typing_hypotheses", None) is gate:
            monkeypatch.setattr(module, "check_typing_hypotheses", counted)
    return calls


class TestOneTypingGate:
    """``reduce_diagram`` leaves the typing gate of mu to ``strict_bound``."""

    @pytest.mark.parametrize(
        "lam",
        [staircase(21, 20), family_staircase(3000, ALPHA), Partition((600,) * 20)],
        ids=["staircase-610", "staircase-3000", "rectangle-600"],
    )
    def test_general_bound_gates_mu_once(self, gate_calls, lam):
        mu = reduce_diagram(lam, ALPHA).mu
        assert gate_calls == []
        general_bound(lam, ALPHA)
        assert gate_calls == [mu]

    def test_wide_witness(self):
        # mu loses 741 cells but keeps the first row, so it is past the cap 2379 // 2
        tr = reduce_diagram(WIDE, Fraction(2))
        assert tr.lam_tilde == Partition((1560,) + (40,) * 39)
        assert (tr.s, tr.t, tr.conjugated) == (1, 0, False)
        assert tr.mu == Partition((1560, 40) + tuple(range(39, 1, -1)))
        assert (tr.n1, tr.n2, tr.delta, tr.delta_mu, tr.rho_mu) == (3120, 2379, 40, 21, 441)
        message = "hypothesis violated: lambda_1 <= n/alpha (lambda_1=1560, n=2379)"
        with pytest.raises(HypothesisError) as err:
            general_bound(WIDE, Fraction(2))
        assert str(err.value) == message
        for lam in (WIDE, WIDE.conjugate()):
            cert = theorem_classify(lam, Fraction(2), Fraction(3, 2))
            assert (cert.aux["class"], cert.verdict) == (CLASS_M2, PASS)

    @settings(max_examples=150, deadline=None)
    @given(reducible())
    @example((WIDE, Fraction(2)))
    @example((WIDE.conjugate(), Fraction(2)))
    @example((staircase(40, 20).conjugate(), ALPHA))  # t = delta: every column staircased long
    def test_reduction_matches_the_level_rules(self, case):
        lam, alpha = case
        try:
            tr = reduce_diagram(lam, alpha)
        except HypothesisError:
            return
        delta = tr.delta
        tilde = tilde_by_levels(lam, delta)
        assert _tilde(lam, lam.conjugate(), delta) == tilde
        s, t = last_above(tilde, delta), last_above(tilde.conjugate(), delta)
        swapped = s < t
        if swapped:
            tilde, s, t = tilde.conjugate(), t, s
        assert (tr.lam_tilde, tr.s, tr.t, tr.conjugated) == (tilde, s, t, swapped)
        try:
            check_typing_hypotheses(tr.mu, alpha)
        except HypothesisError as gate:
            with pytest.raises(HypothesisError) as err:
                general_bound(lam, alpha)
            assert str(err.value) == str(gate)


class TestGeneralBound:
    def test_staircase_pass(self):
        cert = general_bound(staircase(21, 20), ALPHA)
        assert cert.verdict == PASS
        n, d = 610, 20
        assert cert.exponent == Fraction(n) - (Fraction(5, 2) * d * d + ALPHA * rho(d, ALPHA))

    def test_parity_case_pass(self):
        assert general_bound(staircase(22, 20), ALPHA).verdict == PASS

    def test_gate_propagates(self):
        with pytest.raises(HypothesisError):
            general_bound(Partition((2, 1)), Fraction(3, 2))

    def test_margin_never_below_lifted_strict(self):
        # the chained exponent on mu dominates the claimed general exponent
        for c in (21, 22, 30, 40):
            cert = general_bound(staircase(c, 20), ALPHA)
            mu_cert = cert.aux["mu_certificate"]
            assert cert.margin >= cert.aux["lifted_margin"] - 1e-9
            assert mu_cert.exponent >= cert.exponent

    def test_nested_mu_certificate_revalidates(self):
        cert = general_bound(staircase(21, 20), ALPHA)
        assert revalidate(cert.aux["mu_certificate"])
        nested = certificate_from_json(cert.aux["mu_certificate"].to_json_dict())
        assert nested.bound_name == "strict" and nested.verdict == PASS

    def test_bite_scale_pass(self):
        # exponent goes positive only past n ~ 5400 for alpha = 11/10, delta = 20
        lam = staircase(261, 20)  # n = 5410
        cert = general_bound(lam, ALPHA)
        assert cert.verdict == PASS
        assert cert.exponent > 0


def _class(lam, alpha, beta):
    """The class ``theorem_classify`` gives ``lam``, by its rule alone."""
    return _class_rule(lam.diagonal(), lam.n, alpha, beta)[0]


class TestClassify:
    def test_m1_small_diagonal(self):
        lam = Partition((10,) * 10)
        assert _class(lam, Fraction(2), Fraction(3, 2)) == CLASS_M1

    def test_m2_m3_threshold(self):
        m2 = Partition((500,) * 20)  # gamma*n = 4881 <= 5401
        m3 = Partition((600,) * 20)  # gamma*n = 5857 > 5401
        assert _class(m2, ALPHA, BETA) == CLASS_M2
        assert _class(m3, ALPHA, BETA) == CLASS_M3

    def test_tie_goes_to_m2(self):
        # at (4, 2) gamma = 1/2 exactly and T = 13/2 delta^2, so n = 13 delta^2 is a tie
        alpha, beta = Fraction(4), Fraction(2)
        assert _class_rule(72, 13 * 72 * 72, alpha, beta)[0] == CLASS_M2
        assert _class_rule(72, 13 * 72 * 72 + 1, alpha, beta)[0] == CLASS_M3

    def test_beta_range_gate(self):
        lam = Partition((10,) * 10)
        with pytest.raises(HypothesisError):
            theorem_classify(lam, Fraction(2), Fraction(2))

    def test_near_tie_is_m3(self):
        # gamma*n - T = +6.9e-9 while T = 8424: a float rule with a 1e-9
        # relative slack calls this M2, and its square bound then fails
        lam = Partition((400,) * 36)
        alpha, beta = Fraction(2), Fraction(810074, 536305)
        assert _class(lam, alpha, beta) == CLASS_M3
        cert = theorem_classify(lam, alpha, beta)
        assert cert.aux["class"] == CLASS_M3
        sub = cert.aux["sub_certificate"]
        assert sub.bound_name == "general"
        assert sub.verdict == PASS
        assert cert.verdict == PASS

    @pytest.mark.parametrize("width, cls", [(936, CLASS_M2), (937, CLASS_M3)])
    def test_exact_tie_shapes(self, width, cls):
        lam = Partition((width,) * 72)  # n = 13 * 72^2 at width 936
        alpha, beta = Fraction(4), Fraction(2)
        assert _class(lam, alpha, beta) == cls
        assert theorem_classify(lam, alpha, beta).aux["class"] == cls

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (Fraction(2), Fraction(3, 2)),
            (Fraction(3), Fraction(2)),
            (Fraction(4), Fraction(2)),
            (Fraction(3, 2), Fraction(5, 4)),
            (Fraction(5, 3), Fraction(4, 3)),
        ],
    )
    def test_class_rule_matches_cleared_powers(self, alpha, beta):
        # gamma*n <= T as alpha^(5q delta^2 + 2p rho) >= (alpha/beta)^(2qn),
        # on the integers around the float boundary n = T/gamma
        p, q = alpha.numerator, alpha.denominator
        gamma = 1 - math.log(beta) / math.log(alpha)
        seen = set()
        for delta in (math.ceil(18 * alpha), math.ceil(18 * alpha) + 1):
            r = rho(delta, alpha)
            mid = round((Fraction(5, 2) * delta**2 + alpha * r) / Fraction(gamma))
            for n in range(mid - 3, mid + 4):
                m2 = alpha ** (5 * q * delta**2 + 2 * p * r) >= (alpha / beta) ** (2 * q * n)
                cls = _class_rule(delta, n, alpha, beta)[0]
                assert cls == (CLASS_M2 if m2 else CLASS_M3), (delta, n)
                seen.add(cls)
        assert seen == {CLASS_M2, CLASS_M3}


class TestTheorem:
    def test_staircase_610(self):
        cert = theorem_classify(staircase(21, 20), ALPHA, BETA)
        assert cert.verdict == PASS
        assert cert.aux["class"] == CLASS_M2
        assert cert.to_json_dict()["class"] == CLASS_M2
        assert revalidate(cert.to_json())

    def test_single_row_gate(self):
        with pytest.raises(HypothesisError):
            theorem_classify(Partition((9,)), Fraction(2), Fraction(3, 2))

    def test_beta_range_gate(self):
        with pytest.raises(HypothesisError):
            theorem_classify(Partition((10,) * 10), Fraction(2), Fraction(2))
        with pytest.raises(HypothesisError):
            theorem_classify(Partition((10,) * 10), Fraction(2), Fraction(1))

    def test_balanced_is_m1_and_passes(self):
        lam = Partition((10,) * 10)
        cert = theorem_classify(lam, Fraction(2), Fraction(3, 2))
        assert cert.aux["class"] == CLASS_M1
        assert cert.verdict == PASS
        sub = cert.aux["sub_certificate"].to_json_dict()
        assert sub["bound_name"] == "strip"
        # M1 dispatches with k = l = ceil(18*alpha)
        assert sub["parameters"]["k"] == "36" and sub["parameters"]["l"] == "36"
        assert sub["parameters"]["m"] == str((2 * 36 + 36 - 1) * 36 // 2)

    def test_m2_dispatch_uses_square_route(self):
        cert = theorem_classify(Partition((500,) * 20), ALPHA, BETA)
        assert cert.aux["class"] == CLASS_M2
        sub = cert.aux["sub_certificate"]
        assert sub.bound_name == "overexponential"
        assert sub.verdict == PASS
        assert cert.verdict == PASS

    def test_m3_dispatch_uses_reduction(self):
        cert = theorem_classify(Partition((600,) * 20), ALPHA, BETA)
        assert cert.aux["class"] == CLASS_M3
        sub = cert.aux["sub_certificate"]
        assert sub.bound_name == "general"
        assert sub.verdict == PASS
        assert cert.verdict == PASS

    def test_final_verdict_is_exact_degree_vs_beta_power(self):
        lam = staircase(21, 20)
        cert = theorem_classify(lam, ALPHA, BETA)
        f = degree(lam)
        assert (f * BETA.denominator**610 >= BETA.numerator**610) == cert.passed
        assert cert.lhs_log == pytest.approx(log_degree(lam))
        assert cert.rhs_log == pytest.approx(610 * math.log(21 / 20))

    def test_gamma_is_maximal_exponent_fraction(self):
        cert = theorem_classify(staircase(21, 20), ALPHA, BETA)
        expected = (math.log(11 / 10) - math.log(21 / 20)) / math.log(11 / 10)
        assert cert.aux["gamma"] == pytest.approx(expected)


@pytest.fixture
def ball_calls(monkeypatch, cold_degrees):
    """The shapes whose degree ball the bounds evaluate, and every exact degree asked for.

    ``"ball"`` lists the misses of the bounds' memo; ``"exact"`` lists the
    shapes given to ``degree`` and the balls asked for their exact value,
    which a near-tie does.
    """
    calls = {"ball": [], "exact": []}

    def counted_ball(p):
        calls["ball"].append(p)
        return degree_ball(p)

    def counted_degree(p):
        calls["exact"].append(p)
        return degree(p)

    exact = DegreeBall.exact

    def counted_exact(ball):
        calls["exact"].append(ball)
        return exact(ball)

    monkeypatch.setattr(hookbound.bounds, "degree_ball", counted_ball)
    monkeypatch.setattr(hookbound.degrees, "degree", counted_degree)
    monkeypatch.setattr(DegreeBall, "exact", counted_exact)
    return calls


class TestDegreeReuse:
    """Each bound evaluates the degree ball of each shape it touches once.

    None of these dispatches needs an exact degree: the balls decide every
    comparison.
    """

    @pytest.mark.parametrize(
        "lam, alpha, beta, cls, evaluations",
        [
            (Partition((10,) * 10), Fraction(2), Fraction(3, 2), CLASS_M1, 1),
            (Partition((500,) * 20), ALPHA, BETA, CLASS_M2, 2),
            (Partition((600,) * 20), ALPHA, BETA, CLASS_M3, 2),
        ],
        ids=["M1", "M2", "M3"],
    )
    def test_theorem_classify(self, ball_calls, lam, alpha, beta, cls, evaluations):
        cert = theorem_classify(lam, alpha, beta)
        assert cert.aux["class"] == cls
        assert len(ball_calls["ball"]) == evaluations
        assert ball_calls["exact"] == []

    def test_general_bound(self, ball_calls):
        general_bound(staircase(21, 20), ALPHA)
        assert len(ball_calls["ball"]) == 2
        assert ball_calls["exact"] == []

    def test_bounds_do_not_import_log_degree(self):
        assert not hasattr(hookbound.bounds, "log_degree")


class TestPublicComposition:
    """The dispatch builds its certificate through the public bounds.

    A wrapper put in place of a public bound in ``hookbound.bounds`` sees
    every call the dispatch makes to it; the benchmark's per-layer timings
    rely on that.
    """

    @pytest.fixture
    def bound_calls(self, monkeypatch):
        calls = []

        def recorder(name):
            original = getattr(hookbound.bounds, name)

            def recorded(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return recorded

        for name in ("strip_bound", "general_bound", "strict_bound"):
            monkeypatch.setattr(hookbound.bounds, name, recorder(name))
        return calls

    def test_m1_calls_strip_bound(self, bound_calls):
        cert = theorem_classify(Partition((10,) * 10), Fraction(2), Fraction(3, 2))
        assert cert.aux["class"] == CLASS_M1
        assert bound_calls == ["strip_bound"]

    def test_m3_calls_general_then_strict_bound(self, bound_calls):
        cert = theorem_classify(Partition((600,) * 20), ALPHA, BETA)
        assert cert.aux["class"] == CLASS_M3
        assert bound_calls == ["general_bound", "strict_bound"]


class TestDispatchCaches:
    def test_square_degree_matches_degree(self):
        _degree.cache_clear()
        for d in range(1, 61):
            ball, f = _degree(Partition((d,) * d)), degree(Partition((d,) * d))
            assert (ball.exact().bit_length(), ball.log()) == (f.bit_length(), math.log(f))
            assert ball.exact() == f

    def test_square_cache_is_bounded(self):
        maxsize = _degree.cache_info().maxsize
        assert maxsize is not None and maxsize <= 256

    def test_sweep_evaluates_each_square_once(self, ball_calls):
        # one ball per row, plus one per distinct Durfee side of the M2 rows
        report = build_growth_report("staircase", ALPHA, BETA, 403, 1203)
        m2_sides = {r.partition.diagonal() for r in report.rows if r.cls == CLASS_M2}
        assert {r.cls for r in report.rows} == {CLASS_M1, CLASS_M2}
        assert len(report.rows) == 801 and len(m2_sides) > 1
        assert len(ball_calls["ball"]) == len(report.rows) + len(m2_sides)
        assert ball_calls["exact"] == []


class TestIntegerGates:
    @pytest.mark.parametrize(
        "parts, alpha",
        [
            ((4, 2, 1, 1), Fraction(2)),  # lambda_1 * alpha == n == rows * alpha
            ((10, 1), Fraction(11, 10)),  # lambda_1 * alpha == n
            ((2,) + (1,) * 9, Fraction(11, 10)),  # rows * alpha == n
            ((6, 1, 1, 1), Fraction(3, 2)),  # lambda_1 * alpha == n
        ],
    )
    def test_width_gates_pass_at_equality(self, parts, alpha):
        lam = Partition(parts)
        assert max(lam.part(1), len(lam)) * alpha == lam.n
        check_widths(lam, alpha)
        assert theorem_classify(lam, alpha, (1 + alpha) / 2).aux["class"] == CLASS_M1

    @pytest.mark.parametrize(
        "parts, alpha, message",
        [
            ((5, 2, 1), Fraction(2), "lambda_1 <= n/alpha (lambda_1=5, n=8)"),
            ((11, 1), Fraction(11, 10), "lambda_1 <= n/alpha (lambda_1=11, n=12)"),
            ((7, 1, 1), Fraction(3, 2), "lambda_1 <= n/alpha (lambda_1=7, n=9)"),
            ((2,) + (1,) * 10, Fraction(11, 10), "lambda'_1 <= n/alpha (lambda'_1=11, n=12)"),
            ((3, 1, 1, 1, 1), Fraction(2), "lambda'_1 <= n/alpha (lambda'_1=5, n=7)"),
        ],
    )
    def test_one_cell_over_raises(self, parts, alpha, message):
        # the message of the old Fraction gates ``width * alpha > n``
        lam = Partition(parts)
        with pytest.raises(HypothesisError) as err:
            check_widths(lam, alpha)
        assert str(err.value) == "hypothesis violated: " + message
        with pytest.raises(HypothesisError) as err:
            theorem_classify(lam, alpha, (1 + alpha) / 2)
        assert str(err.value) == "hypothesis violated: " + message

    def test_empty_partition_fails_the_width_gate(self):
        empty = Partition(())
        for gate in (
            lambda: check_widths(empty, ALPHA),
            lambda: strip_bound(empty, 1, 1, ALPHA),
            lambda: theorem_classify(empty, ALPHA, (1 + ALPHA) / 2),
        ):
            with pytest.raises(HypothesisError) as err:
                gate()
            assert str(err.value) == "hypothesis violated: n >= 1 (empty partition)"

    def test_m1_gate_at_three_halves(self):
        alpha, beta = Fraction(3, 2), Fraction(5, 4)
        assert _class_rule(26, 26 * 26, alpha, beta)[0] == CLASS_M1
        assert _class_rule(27, 27 * 27, alpha, beta)[0] != CLASS_M1

    @pytest.mark.parametrize(
        "alpha",
        [Fraction(3, 2), Fraction(11, 10), Fraction(2), Fraction(7, 3), Fraction(101, 100)],
    )
    def test_class_rule_matches_fraction_rules(self, alpha):
        # the old M1 test, threshold and rho, all in Fraction arithmetic
        beta = (1 + alpha) / 2
        for delta in range(1, 3 * 18 * math.ceil(alpha)):
            frac = alpha - math.floor(alpha)
            old_rho = (
                delta * delta if frac == 0 else math.floor(Fraction(delta * delta) / frac) + 1
            )
            cls, rho_val, threshold = _class_rule(delta, 4 * delta * delta, alpha, beta)
            assert (cls == CLASS_M1) == (Fraction(delta) < 18 * alpha)
            assert rho_val == old_rho == rho(delta, alpha)
            assert threshold == float(Fraction(5, 2) * delta**2 + alpha * old_rho)

    def test_classify_and_dispatch_share_the_rule(self):
        for n in range(600, 621):
            lam = family_staircase(n, ALPHA)
            cert = theorem_classify(lam, ALPHA, BETA)
            assert _class(lam, ALPHA, BETA) == cert.aux["class"]


def _digest(certs) -> str:
    return hashlib.sha256("\n".join(c.to_json() for c in certs).encode()).hexdigest()


class TestPinnedCertificateJson:
    """Digests of whole certificates, nested sub-certificates included."""

    def test_staircase_m1_to_m2(self):
        certs = [
            theorem_classify(family_staircase(n, ALPHA), ALPHA, BETA) for n in range(600, 621)
        ]
        assert {c.aux["class"] for c in certs} == {CLASS_M1, CLASS_M2}
        assert _digest(certs) == "26c6a20b0a8b20b15b02f7df8e5e46b8d2db1201b7cadd478a89d3859f088c0d"

    def test_balanced_m1_to_m2(self):
        alpha, beta = Fraction(2), Fraction(3, 2)
        certs = [theorem_classify(balanced(n), alpha, beta) for n in range(1285, 1301)]
        assert {c.aux["class"] for c in certs} == {CLASS_M1, CLASS_M2}
        assert _digest(certs) == "2c66a568adf6b5e153b03f26db418ec27cc2eed29c9c47b78414b9a7b3e9761a"

    @pytest.mark.parametrize(
        "width, digest",
        [
            (600, "050d2506b607355c73baa5308ac45afe1d8a1d3dc444dc7df5070eca26cf3ac4"),
            (800, "566eddc42467d71041d2b9d120fbec39df46d6855c358f7c3c12d90ebefe79d2"),
        ],
        ids=["600", "800"],
    )
    def test_rectangle_m3(self, width, digest):
        cert = theorem_classify(Partition((width,) * 20), ALPHA, BETA)
        assert cert.aux["class"] == CLASS_M3
        # the brackets decide the general bound and its strict bound on mu
        sub = cert.aux["sub_certificate"]
        assert sub.mode == sub.aux["mu_certificate"].mode == MODE_EXACT
        assert _digest([cert]) == digest

    def test_general_staircase(self):
        cert = general_bound(family_staircase(2000, ALPHA), ALPHA)
        assert cert.mode == MODE_EXACT
        assert _digest([cert]) == "a03167cdc51dc32ca888014a8ac2d6106d81d0b2d85fc0ee431c8956b9a6baed"
