"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines.

Criterion 7 checks the per-cell contract of the cell typing, exactly and on
every cell of every diagram in the family:

  (a) alpha*h <= N for every type-1/2/3 cell numbered N >= alpha;
  (b) h <= N for every type-1/2/3 cell (the remark N >= h);
  (c) the type-1/2/3 cells numbered below alpha are exactly
      ``eq1_violations()``;
  (d) prod N * q^|T123| >= p^|T123| * prod h over the type-1/2/3 cells,
      with alpha = p/q.

Clause (a) cannot extend to the cells below alpha: any numbering onto 1..n
has a cell N = 1, whose hook is at least 1, so alpha*h > N there for every
alpha > 1.  Those cells are exempt from (a), and (b) keeps them bounded;
the aggregate (d) alone would not, since it is invariant under permuting
the numbers.
"""
import json
import time
from fractions import Fraction
from math import factorial

from hookbound.bounds import (
    general_bound,
    rectangle_bound,
    reduce_diagram,
    strict_bound,
    strip_bound,
)
from hookbound.celltyping import cell_typing, check_typing_hypotheses, rho
from hookbound.certificates import MODE_LOG, PASS, revalidate
from hookbound.cli import main
from hookbound.degrees import (
    count_syt_bruteforce,
    degree,
    sum_squares_identity,
    verify_remark_N_ge_h,
)
from hookbound.errors import HookBoundError, HypothesisError
from hookbound.families import staircase
from hookbound.partitions import Partition, enumerate_partitions
from hookbound.sweep import build_growth_report, render_csv

from diagrams import staircase_with_tail

ALPHA_TYPING = Fraction(11, 10)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def timed(budget_s, started):
    return time.monotonic() - started <= budget_s


def test_criterion_01_degree_equals_bruteforce():
    started = time.monotonic()
    checked = 0
    for n in range(9):
        for lam in enumerate_partitions(n):
            assert degree(lam) == count_syt_bruteforce(lam), lam
            checked += 1
    ok = timed(60, started)
    assert report(1, ok, f"degree == brute-force tableau count on {checked} shapes, n <= 8")


def test_criterion_02_sum_of_squares():
    started = time.monotonic()
    for n in range(1, 12):
        assert sum_squares_identity(n), n
    ok = timed(60, started)
    assert report(2, ok, "sum of squared degrees equals n! for 1 <= n <= 11")


def test_criterion_03_conjugation_symmetry():
    started = time.monotonic()
    checked = 0
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert degree(lam) == degree(lam.conjugate()), lam
            checked += 1
    ok = timed(60, started)
    assert report(3, ok, f"degree(conjugate) symmetry on {checked} shapes, n <= 12")


def test_criterion_04_tableau_complement_bound():
    started = time.monotonic()
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            assert verify_remark_N_ge_h(lam), lam
    ok = timed(300, started)
    assert report(4, ok, "n+1-t >= hook over every standard tableau, n <= 7")


def test_criterion_05_strip_bound_sweep_and_example():
    started = time.monotonic()
    alpha = Fraction(2)
    checked = 0
    for n in range(10, 19):
        cap = n // 2
        for lam in enumerate_partitions(n, max_part=cap, max_parts=cap):
            if lam.part(4) > 2:
                continue
            cert = strip_bound(lam, 3, 2, alpha)
            if cert.mode == MODE_LOG:
                assert cert.verdict == PASS and cert.margin > 1e-9, lam
            else:
                assert cert.verdict == PASS, lam
            checked += 1
    example = strip_bound(Partition.parse("9,6,4,2,2,1"), 4, 3, alpha)
    assert example.aux["t"] == [6, 5, 3, 6, 3, 1, 0]
    assert sum(example.aux["t"]) == 24
    ok = timed(120, started)
    assert report(
        5, ok, f"strip bound PASS on {checked} H(3,2) shapes in [10,18]; worked t-sequence exact"
    )


def test_criterion_06_rectangle_exact_grid():
    started = time.monotonic()
    checked = 0
    for a in range(1, 9):
        for b in range(a, 65):
            if a * b > 64:
                break
            n = a * b
            f = degree(Partition((b,) * a))
            assert f * factorial(b) ** a * 4**n >= factorial(n), (a, b)
            cert = rectangle_bound(a, b)
            assert cert.aux["factorial_form_holds"] is True, (a, b)
            checked += 1
    ok = timed(120, started)
    assert report(6, ok, f"rectangle factorial inequality exact on {checked} grids, ab <= 64")


def _typing_family():
    """At least 200 hypothesis-satisfying diagrams: staircases in [155, 200]
    (none exist below 155 at alpha = 11/10) plus exact-uniform sampled tails."""
    family = []
    for n in range(155, 201):
        family.append(staircase(n, ALPHA_TYPING))
    for tail in range(1, 46):
        for seed in range(4):
            family.append(staircase_with_tail(10, 11, tail, seed * 7919 + tail))
    out = []
    for lam in family:
        if 120 <= lam.n <= 200:
            check_typing_hypotheses(lam, ALPHA_TYPING)  # raises if unsatisfied
            out.append(lam)
    return out


def test_criterion_07_cell_typing_soundness():
    started = time.monotonic()
    family = _typing_family()
    assert len(family) >= 200

    alpha = ALPHA_TYPING
    p, q = alpha.numerator, alpha.denominator
    counter_failures = []  # (a) alpha*h <= N for N >= alpha
    hook_failures = []  # (b) h <= N
    exempt_failures = []  # (c) sub-alpha cells == eq1_violations()
    aggregate_failures = []  # (d)
    clause_failures = []
    cells_checked = 0
    exempt = 0
    for lam in family:
        ct = cell_typing(lam, alpha)
        below_alpha = []
        prod_n = prod_h = 1
        t123 = 0
        for rec in ct.table:
            _, _, cell_type, _, number, hook = rec
            if cell_type not in (1, 2, 3):
                continue
            t123 += 1
            prod_n *= number
            prod_h *= hook
            if hook > number:
                hook_failures.append((lam.format(), number, hook))
            if Fraction(number) < alpha:
                below_alpha.append(rec)
            elif alpha * hook > number:
                counter_failures.append((lam.format(), number, hook))
        cells_checked += t123
        exempt += len(below_alpha)
        # equality also puts every eq1 violation below alpha
        if tuple(below_alpha) != ct.eq1_violations():
            exempt_failures.append(lam.format())
        if prod_n * q**t123 < p**t123 * prod_h:
            aggregate_failures.append(lam.format())

        if Fraction(ct.counts[0]) < 2 * alpha * ct.r + alpha * ct.delta:
            clause_failures.append(("eq2", lam.format()))
        if Fraction(ct.counts[3]) > ct.delta**2 + alpha * ct.rho:
            clause_failures.append(("eq6", lam.format()))
        prod = 1
        for _, _, cell_type, _, _, hook in ct.table:
            if cell_type == 4:
                prod *= hook
        falling = 1
        for i in range(ct.counts[3]):
            falling *= lam.n - i
        if prod > falling:
            clause_failures.append(("type4-product", lam.format()))
        cert = strict_bound(lam, alpha)
        if cert.verdict != PASS or cert.margin <= 1e-9:
            clause_failures.append(("certificate", lam.format()))
    failures = (
        counter_failures, hook_failures, exempt_failures, aggregate_failures, clause_failures
    )
    ok = timed(600, started) and not any(failures)
    exempt_hook_failures = sum(1 for _, n, _ in hook_failures if Fraction(n) < alpha)
    report(
        7,
        ok,
        f"family of {len(family)}, {cells_checked} type-1/2/3 cells; "
        f"alpha*h<=N at N>=alpha: {len(counter_failures)} failures; "
        f"h<=N: {len(hook_failures)} failures; "
        f"{exempt} exempt cells below alpha, {exempt_hook_failures} with h>N, "
        f"{len(exempt_failures)} diagrams where they differ from eq1_violations(); "
        f"aggregate product: {len(aggregate_failures)} failures; "
        f"eq2/eq6/type4-product/certificate clauses: {len(clause_failures)} failures",
    )
    assert not counter_failures, (
        f"alpha*h <= N fails at cells numbered N >= alpha, (diagram, N, h): {counter_failures[:3]}"
    )
    assert not hook_failures, f"h <= N fails, (diagram, N, h): {hook_failures[:3]}"
    assert not exempt_failures, (
        f"cells numbered below alpha differ from eq1_violations() on: {exempt_failures[:3]}"
    )
    assert not aggregate_failures, (
        f"prod N * q^|T123| < p^|T123| * prod h on: {aggregate_failures[:3]}"
    )
    assert not clause_failures, clause_failures[:3]


def _reduction_family():
    """Same construction as the typing family, scaled to where the reduction
    hypotheses are satisfiable: delta >= 18*alpha = 19.8 forces delta >= 20,
    hence n >= 610 for the minimal strict staircase."""
    family = [staircase(n, ALPHA_TYPING) for n in range(610, 681)]
    for tail in range(1, 46):
        for seed in range(3):
            family.append(staircase_with_tail(20, 21, tail, seed * 104729 + tail))
    return family


def test_criterion_08_reduction_coherence():
    started = time.monotonic()
    family = _reduction_family()
    assert len(family) >= 200
    failures = []
    for lam in family:
        try:
            tr = reduce_diagram(lam, ALPHA_TYPING)
        except (HypothesisError, HookBoundError) as err:
            failures.append((lam.format(), f"reduce error: {err}"))
            continue
        if tr.delta_mu < tr.delta // 2 + 1:
            failures.append((lam.format(), "diagonal halving"))
        if not (lam.contains(tr.mu) or lam.conjugate().contains(tr.mu)):
            failures.append((lam.format(), "containment"))
        expected_n2 = (
            tr.n1 - (tr.delta - tr.s - 1) * (tr.delta - tr.s) // 2
            if tr.s < tr.delta
            else tr.n1
        )
        if tr.n2 != expected_n2:
            failures.append((lam.format(), "n2 formula"))
        cert = general_bound(lam, ALPHA_TYPING)
        if cert.verdict != PASS:
            failures.append((lam.format(), "general bound verdict"))
    ok = timed(600, started) and not failures
    assert report(
        8,
        ok,
        f"reduction invariants and general bound PASS on {len(family)} diagrams "
        f"(delta >= 20 needs n >= 610, so the family runs at n in [610, 680]); "
        f"failures: {failures[:3]}",
    )


def test_criterion_09_theorem_sweep_end_to_end():
    # the class of each row is decided again from its diagram: M1 when
    # delta < 18*alpha, else M2 when gamma*n <= 5/2 delta^2 + alpha*rho, which
    # for alpha = p/q is alpha^(5q delta^2 + 2p rho) >= (alpha/beta)^(2qn)
    started = time.monotonic()
    sweeps = [
        ("balanced", Fraction(2), Fraction(3, 2), 40, 120),
        ("staircase", Fraction(11, 10), Fraction(21, 20), 600, 620),
    ]
    failures = []
    classes = {}
    for family, alpha, beta, n_from, n_to in sweeps:
        report_obj = build_growth_report(family, alpha, beta, n_from, n_to)
        assert len(report_obj.rows) == n_to - n_from + 1
        p, q = alpha.numerator, alpha.denominator
        ratio = alpha / beta
        for row in report_obj.rows:
            if row.verdict != PASS:
                failures.append((family, row.n, "verdict"))
            lam = row.partition
            delta = lam.diagonal()
            if delta * q < 18 * p:
                expected = "M1"
            else:
                e = 5 * q * delta**2 + 2 * p * rho(delta, alpha)
                m = 2 * q * lam.n
                m2 = p**e * ratio.denominator**m >= q**e * ratio.numerator**m
                expected = "M2" if m2 else "M3"
            if row.cls != expected:
                failures.append((family, row.n, f"class {row.cls} != {expected}"))
            classes[family, row.n] = row.cls
        if family == "balanced":
            n0 = report_obj.empirical_n0
    stair = [classes["staircase", n] for n in range(600, 621)]
    ok = (
        timed(600, started)
        and not failures
        and n0 == 40
        and stair == ["M1"] * 10 + ["M2"] * 11
    )
    assert report(
        9,
        ok,
        f"balanced sweep n in [40,120] and staircase n in [600,620]: all PASS, "
        f"classes recomputed exactly, empirical n0 = {n0}",
    )


def test_criterion_10_containment_monotonicity():
    started = time.monotonic()
    shapes = [p for n in range(11) for p in enumerate_partitions(n)]
    degrees = {p: degree(p) for p in shapes}
    checked = 0
    for lam in shapes:
        for mu in shapes:
            if lam.contains(mu):
                assert degrees[mu] <= degrees[lam], (mu, lam)
                checked += 1
    ok = timed(300, started)
    assert report(10, ok, f"containment monotonicity on {checked} nested pairs, n <= 10")


def test_criterion_11_determinism_and_revalidation(capsys):
    argv = [
        "sweep", "sample", "--alpha", "2", "--beta", "3/2",
        "--n-from", "40", "--n-to", "44", "--samples", "3", "--seed", "17",
    ]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    identical = code1 == code2 == 0 and out1 == out2 and len(out1) > 0

    certs_ok = True
    for bound_argv in (
        ["certify", "rectangle", "--a", "3", "--b", "4"],
        ["certify", "strict", ",".join(str(v) for v in range(20, 10, -1)), "--alpha", "11/10"],
        ["certify", "theorem", ",".join(str(v) for v in range(40, 20, -1)),
         "--alpha", "11/10", "--beta", "21/20"],
    ):
        main(list(bound_argv))
        data = json.loads(capsys.readouterr().out)
        certs_ok = certs_ok and revalidate(data)

    ok = identical and certs_ok
    with capsys.disabled():
        assert report(
            11, ok, "seeded sweep byte-identical across runs; certify JSON re-validates"
        )
