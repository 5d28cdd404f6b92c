import math
from fractions import Fraction

import pytest

import hookbound.bounds
from hookbound.bounds import (
    CLASS_M1,
    CLASS_M2,
    CLASS_M3,
    classify,
    general_bound,
    reduce_diagram,
    rho,
    theorem_classify,
)
from hookbound.certificates import PASS, certificate_from_json, revalidate
from hookbound.degrees import degree, log_degree
from hookbound.errors import HypothesisError
from hookbound.partitions import Partition

ALPHA = Fraction(11, 10)
BETA = Fraction(21, 20)


def staircase(c, delta):
    return Partition(tuple(range(c + delta - 1, c - 1, -1)))


class TestTilde:
    def test_rule_trace_small(self):
        tr = reduce_diagram(Partition((5, 5, 3, 2, 1)), ALPHA, trace_only=True)
        # row rule: 5 >= 3 -> 5; 5 >= 4 -> 4; 3 < 5 -> delta = 3
        assert tr.lam_tilde.parts[:3] == (5, 4, 3)
        assert tr.input.contains(tr.lam_tilde)
        assert tr.s == 2 and tr.t == 1
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
        from hookbound.partitions import parse_rational

        for c in (21, 22, 30, 40):
            cert = general_bound(staircase(c, 20), ALPHA)
            mu_cert = cert.aux["mu_certificate"]
            assert cert.margin >= cert.aux["lifted_margin"] - 1e-9
            assert parse_rational(mu_cert["exponent"]) >= cert.exponent

    def test_nested_mu_certificate_revalidates(self):
        cert = general_bound(staircase(21, 20), ALPHA)
        assert revalidate(cert.aux["mu_certificate"])
        nested = certificate_from_json(cert.aux["mu_certificate"])
        assert nested.bound_name == "strict" and nested.verdict == PASS

    def test_bite_scale_pass(self):
        # exponent goes positive only past n ~ 5400 for alpha = 11/10, delta = 20
        lam = staircase(261, 20)  # n = 5410
        cert = general_bound(lam, ALPHA)
        assert cert.verdict == PASS
        assert cert.exponent > 0


class TestClassify:
    def test_m1_small_diagonal(self):
        lam = Partition((10,) * 10)
        assert classify(lam, Fraction(2), 0.4) == CLASS_M1

    def test_m2_m3_threshold(self):
        gamma = (math.log(1.1) - math.log(1.05)) / math.log(1.1)
        m2 = Partition((500,) * 20)  # gamma*n = 4881 <= 5401
        m3 = Partition((600,) * 20)  # gamma*n = 5857 > 5401
        assert classify(m2, ALPHA, gamma) == CLASS_M2
        assert classify(m3, ALPHA, gamma) == CLASS_M3

    def test_tie_goes_to_m2(self):
        lam = Partition((500,) * 20)
        threshold = float(Fraction(5, 2) * 400 + ALPHA * rho(20, ALPHA))
        assert classify(lam, ALPHA, threshold / lam.n) == CLASS_M2


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
        sub = cert.aux["sub_certificate"]
        assert sub["bound_name"] == "strip"
        # M1 dispatches with k = l = ceil(18*alpha)
        assert sub["parameters"]["k"] == "36" and sub["parameters"]["l"] == "36"
        assert sub["parameters"]["m"] == str((2 * 36 + 36 - 1) * 36 // 2)

    def test_m2_dispatch_uses_square_route(self):
        cert = theorem_classify(Partition((500,) * 20), ALPHA, BETA)
        assert cert.aux["class"] == CLASS_M2
        sub = cert.aux["sub_certificate"]
        assert sub["bound_name"] == "overexponential"
        assert sub["verdict"] == PASS
        assert cert.verdict == PASS

    def test_m3_dispatch_uses_reduction(self):
        cert = theorem_classify(Partition((600,) * 20), ALPHA, BETA)
        assert cert.aux["class"] == CLASS_M3
        sub = cert.aux["sub_certificate"]
        assert sub["bound_name"] == "general"
        assert sub["verdict"] == PASS
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


class TestDegreeReuse:
    """Each bound evaluates the degree of each shape it touches once."""

    @pytest.fixture
    def degree_calls(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return degree(p)

        monkeypatch.setattr(hookbound.bounds, "degree", counted)
        return calls

    @pytest.mark.parametrize(
        "lam, alpha, beta, cls, limit",
        [
            (Partition((10,) * 10), Fraction(2), Fraction(3, 2), CLASS_M1, 2),
            (Partition((500,) * 20), ALPHA, BETA, CLASS_M2, 3),
            (Partition((600,) * 20), ALPHA, BETA, CLASS_M3, 4),
        ],
        ids=["M1", "M2", "M3"],
    )
    def test_theorem_classify(self, degree_calls, lam, alpha, beta, cls, limit):
        cert = theorem_classify(lam, alpha, beta)
        assert cert.aux["class"] == cls
        assert len(degree_calls) <= limit

    def test_general_bound(self, degree_calls):
        general_bound(staircase(21, 20), ALPHA)
        assert len(degree_calls) <= 3

    def test_bounds_do_not_import_log_degree(self):
        assert not hasattr(hookbound.bounds, "log_degree")
