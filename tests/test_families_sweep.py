import hashlib
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hookbound
from hookbound.celltyping import check_typing_hypotheses
from hookbound.errors import HookBoundError, HypothesisError
from hookbound.families import (
    balanced,
    constrained_sample,
    largest_staircase_delta,
    staircase,
    staircase_core_size,
)
from hookbound.partitions import Partition, count_partitions
from hookbound.sweep import CSV_COLUMNS, build_growth_report, render_csv, render_json

from diagrams import staircase_with_tail

ALPHA = Fraction(11, 10)


class TestBalanced:
    def test_40(self):
        assert balanced(40) == Partition((6, 6, 6, 6, 6, 5, 5))

    def test_square(self):
        assert balanced(49) == Partition((7,) * 7)

    def test_sizes(self):
        for n in range(1, 200):
            lam = balanced(n)
            assert lam.n == n
            assert lam.parts[0] - lam.parts[-1] <= 1
            assert len(lam.parts) == largest_k(n)


def largest_k(n):
    import math

    k = math.isqrt(n)
    return k if k * k >= n else k + 1


class TestStaircase:
    def test_core_sizes(self):
        assert staircase_core_size(10) == 155  # (20,...,11)
        assert staircase_core_size(20) == 610  # (40,...,21)

    def test_largest_delta(self):
        assert largest_staircase_delta(154) == 9
        assert largest_staircase_delta(155) == 10
        assert largest_staircase_delta(609) == 19
        assert largest_staircase_delta(610) == 20

    def test_largest_delta_matches_its_definition(self):
        # the largest delta with staircase_core_size(delta) <= n, walking n
        # up: the core sizes grow by at least 2, so delta moves by one at most
        d = 0
        for n in range(-3, 10**5 + 1):
            if staircase_core_size(d + 1) <= n:
                d += 1
            assert largest_staircase_delta(n) == d

    def test_largest_delta_at_10_to_30(self):
        n = 10**30
        d = largest_staircase_delta(n)
        assert staircase_core_size(d) <= n < staircase_core_size(d + 1)

    def test_exact_size_and_shape(self):
        for n in (155, 160, 200, 610, 700):
            lam = staircase(n, ALPHA)
            assert lam.n == n
            d = lam.diagonal()
            for i in range(1, d):
                assert lam.part(i) > lam.part(i + 1)
            assert lam.part(d) > d

    def test_satisfies_typing_gate_from_155(self):
        for n in range(155, 210, 7):
            lam = staircase(n, ALPHA)
            delta, _ = check_typing_hypotheses(lam, ALPHA)
            assert delta == lam.diagonal() >= 10

    def test_too_small(self):
        with pytest.raises(HookBoundError):
            staircase(1, ALPHA)


class TestStaircaseWithTail:
    def test_keeps_diagonal_and_strict_rows(self):
        for seed in range(10):
            lam = staircase_with_tail(10, 11, 37, seed)
            assert lam.diagonal() == 10
            assert lam.n == 155 + 37
            for i in range(1, 10):
                assert lam.part(i) > lam.part(i + 1)

    def test_deterministic(self):
        assert staircase_with_tail(10, 11, 20, 5) == staircase_with_tail(10, 11, 20, 5)

    def test_no_tail(self):
        assert staircase_with_tail(10, 11, 0, 0) == Partition(tuple(range(20, 10, -1)))

    def test_rejects_flat_staircase(self):
        with pytest.raises(HookBoundError):
            staircase_with_tail(10, 10, 5, 0)


class TestConstrainedSample:
    def test_bounds_respected(self):
        for seed in range(20):
            lam = constrained_sample(40, Fraction(2), seed)
            assert lam.n == 40
            assert lam.part(1) * 2 <= 40
            assert lam.conjugate().part(1) * 2 <= 40

    def test_deterministic(self):
        assert constrained_sample(50, ALPHA, 3) == constrained_sample(50, ALPHA, 3)

    def test_pinned_seed(self):
        assert constrained_sample(240, Fraction(2), 1).parts == (
            29, 22, 20, 20, 16, 16, 10, 8, 8, 8, 7, 5, 5, 5, 5, 5, 5, 3, 3, 3,
            3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        )

    @pytest.mark.parametrize("alpha", [Fraction(11, 10), Fraction(3, 2), Fraction(2)])
    def test_no_recursion_at_alpha_up_to_two(self, alpha, cold_table):
        # every state of a walk in a box of width n/alpha <= n/2 ... n is
        # loose, so a cold sample needs no stack beyond the caller's
        expected = constrained_sample(300, alpha, 5)
        cold_table()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            assert constrained_sample(300, alpha, 5) == expected
        finally:
            sys.setrecursionlimit(limit)


def _cli_sweep_digest(family, alpha, beta, n_from, n_to):
    """sha256 of the stdout of ``python -m hookbound sweep`` in a fresh process."""
    env = dict(os.environ)
    src = str(Path(hookbound.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    argv = [family, "--alpha", str(alpha), "--beta", str(beta),
            "--n-from", str(n_from), "--n-to", str(n_to)]
    run = subprocess.run(
        [sys.executable, "-m", "hookbound", "sweep", *argv],
        capture_output=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return hashlib.sha256(run.stdout).hexdigest()


class TestSweep:
    def test_balanced_small_range(self):
        report = build_growth_report("balanced", Fraction(2), Fraction(3, 2), 40, 45)
        assert len(report.rows) == 6
        assert all(r.verdict == "PASS" for r in report.rows)
        assert report.empirical_n0 == 40

    def test_n0_not_reached_when_last_fails(self):
        # beta extremely close to alpha makes tiny n fail: pick a range where
        # the final verdict fails so n0 reports as None
        report = build_growth_report("balanced", Fraction(2), Fraction(199, 100), 4, 6)
        if report.rows and report.rows[-1].verdict != "PASS":
            assert report.empirical_n0 is None

    def test_enumerate_row_count_matches_dp(self):
        alpha = Fraction(2)
        report = build_growth_report("enumerate", alpha, Fraction(3, 2), 10, 14)
        for n in range(10, 15):
            cap = n // 2
            expected = count_partitions(n, cap, cap)
            got = sum(1 for r in report.rows if r.n == n)
            assert got == expected

    def test_enumerate_cap(self):
        with pytest.raises(HookBoundError):
            build_growth_report("enumerate", Fraction(2), Fraction(3, 2), 10, 200)

    @pytest.mark.parametrize(
        "alpha, beta, condition",
        [
            (Fraction(2), Fraction(2), "1 < beta < alpha"),
            (Fraction(2), Fraction(1), "1 < beta < alpha"),
            (Fraction(2), Fraction(5, 2), "1 < beta < alpha"),
            (Fraction(1), Fraction(3, 2), "alpha > 1"),
        ],
    )
    def test_pair_outside_the_hypotheses_raises(self, alpha, beta, condition):
        # once for the pair, not one skipped row per n
        with pytest.raises(HypothesisError) as err:
            build_growth_report("staircase", alpha, beta, 400, 402)
        assert err.value.condition == condition

    def test_pair_is_kept_as_fractions(self):
        report = build_growth_report("balanced", 2, "3/2", 40, 40)
        assert (type(report.alpha), type(report.beta)) == (Fraction, Fraction)
        assert (report.alpha, report.beta) == (2, Fraction(3, 2))

    def test_unknown_family(self):
        with pytest.raises(HookBoundError):
            build_growth_report("zigzag", Fraction(2), Fraction(3, 2), 10, 12)

    def test_sample_family_deterministic(self):
        a = build_growth_report("sample", Fraction(2), Fraction(3, 2), 30, 34, samples=3, seed=9)
        b = build_growth_report("sample", Fraction(2), Fraction(3, 2), 30, 34, samples=3, seed=9)
        assert render_csv(a) == render_csv(b)
        assert render_json(a) == render_json(b)

    def test_sample_family_pinned_digest(self):
        report = build_growth_report(
            "sample", Fraction(2), Fraction(3, 2), 100, 240, samples=2, seed=7
        )
        digest = hashlib.sha256(render_csv(report).encode()).hexdigest()
        assert digest == "c34872f281750544bea448804263adcc1bb924776bc1cd53fdb92a79c1930982"

    @pytest.mark.parametrize(
        "family, alpha, beta, n_from, n_to, digest",
        [
            (
                "balanced", Fraction(2), Fraction(3, 2), 1285, 1300,
                "d44991693e93476f9d37322e344d5d8c6a5bec38bad86927957e84983782dd7f",
            ),
            (
                "staircase", Fraction(11, 10), Fraction(21, 20), 600, 620,
                "f6c9971b1ff7ef0a08b05a12d89ed9e25b18d0b35a822ce97469fd772447da5f",
            ),
            # the benchmark's staircase sweep at its least shift
            (
                "staircase", Fraction(11, 10), Fraction(21, 20), 400, 1200,
                "237cbd5c3caf7f5692bc2c491ce7623926bb6242d2b55761aef5ae9a658e6faa",
            ),
        ],
        ids=["balanced", "staircase", "staircase-400-1200"],
    )
    def test_family_pinned_digest(self, family, alpha, beta, n_from, n_to, digest):
        # each range crosses from the strip dispatch (M1) to the square one (M2)
        report = build_growth_report(family, alpha, beta, n_from, n_to)
        assert {r.cls for r in report.rows} == {"M1", "M2"}
        assert hashlib.sha256(render_csv(report).encode()).hexdigest() == digest
        assert _cli_sweep_digest(family, alpha, beta, n_from, n_to) == digest

    def test_balanced_strip_range_pinned_digest(self):
        # the benchmark's balanced sweep at its least shift: every row is M1
        args = ("balanced", Fraction(2), Fraction(3, 2), 40, 400)
        report = build_growth_report(*args)
        assert {r.cls for r in report.rows} == {"M1"}
        digest = "614d60e562f26a9c4429cd4c78b29221daecc4aa195dac0233e838835c552f12"
        assert hashlib.sha256(render_csv(report).encode()).hexdigest() == digest
        assert _cli_sweep_digest(*args) == digest

    def test_sample_family_skips_n_past_recursion_limit(self, cold_table):
        # at alpha 3 the box (3000, 1000, 1000) is tight and fills its rows
        # one recursion level per part
        report = build_growth_report("sample", Fraction(3), Fraction(2), 3000, 3000)
        assert report.rows == ()
        assert [n for n, _ in report.skipped] == [3000]
        assert "recursion" in report.skipped[0][1]

    def test_csv_schema(self):
        report = build_growth_report("balanced", Fraction(2), Fraction(3, 2), 40, 42)
        lines = render_csv(report).splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[-1].startswith("# empirical_n0")
        assert len(lines) == 2 + len(report.rows)

    def test_rows_sorted(self):
        report = build_growth_report("enumerate", Fraction(2), Fraction(3, 2), 10, 12)
        keys = [(r.n, r.partition.format()) for r in report.rows]
        assert keys == sorted(keys)

    def test_row_verdict_recomputable_from_stored_fields(self):
        from hookbound.certificates import verdict_from_logs

        report = build_growth_report("enumerate", Fraction(2), Fraction(3, 2), 10, 13)
        for row in report.rows:
            lhs = row.log_degree_per_n * row.n
            rhs = row.beta_log * row.n
            assert row.margin == pytest.approx(lhs - rhs, abs=1e-9)
            implied = verdict_from_logs(lhs, rhs, row.mode)
            band = 1e-9 * max(abs(lhs), abs(rhs), 1.0)
            assert row.verdict == implied or abs(row.margin) <= band


@pytest.mark.parametrize("family", ["sample", "balanced"])
@pytest.mark.parametrize("samples", [0, -1])
def test_growth_report_needs_a_sample(family, samples):
    with pytest.raises(HookBoundError, match="samples must be at least 1"):
        build_growth_report(family, Fraction(2), Fraction(3, 2), 30, 31, samples=samples)
