import gc
import hashlib
import json
import math
import sys
import tracemalloc
from array import array
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hookbound.celltyping
import hookbound.certificates
from hookbound.bounds import (
    general_bound,
    overexponential_bound,
    reduce_diagram,
    strict_bound,
    strip_bound,
    theorem_classify,
)
from hookbound.celltyping import (
    CellTyping,
    _aggregate_holds,
    _check_typing,
    _counter_holds,
    _row_sum,
    _types_follow_runs,
    cell_typing,
    check_typing_hypotheses,
    rho,
)
from hookbound.certificates import (
    MARGINAL,
    MODE_EXACT,
    PASS,
    CellTable,
    certificate_from_json,
    lane_code,
    powers_ge,
)
from hookbound.degrees import DegreeBall, degree
from hookbound.errors import ConsistencyError, HypothesisError
from hookbound.families import staircase, staircase_with_tail
from hookbound.partitions import Partition, corner_rows

ALPHA = Fraction(11, 10)
STAIR = Partition(tuple(range(20, 10, -1)))  # (20,...,11) |- 155, delta = 10
# a table row is (row, col, type, color, N, hook)
TYPE, NUMBER, HOOK = 2, 4, 5


@pytest.fixture(scope="module")
def stair_typing():
    return cell_typing(STAIR, ALPHA)


def _with_cells(ct, cells):
    """``ct`` with its table rebuilt from ``cells``, rows ``(row, col, type,
    color, N, hook)`` in the diagram's row-major order (only types, colors,
    numbers and hooks may differ from the rows of ``ct.table``)."""
    assert [tuple(cell[:2]) for cell in cells] == list(ct.partition.cells())
    _, _, types, colors, numbers, hooks = zip(*cells)
    return ct._replace(
        table=CellTable(ct.partition.parts, types, colors, numbers, hooks)
    )


class TestRho:
    def test_integer_alpha(self):
        assert rho(10, Fraction(2)) == 100

    def test_fractional_alpha(self):
        assert rho(10, Fraction(11, 10)) == 1001

    def test_small(self):
        assert rho(1, Fraction(3, 2)) == 3

    def test_gate(self):
        with pytest.raises(HypothesisError):
            rho(5, Fraction(1))


class TestHypothesisGate:
    def test_staircase_passes_with_tau_zero(self):
        delta, tau = check_typing_hypotheses(STAIR, ALPHA)
        assert delta == 10 and tau == 0

    def test_small_diagonal(self):
        with pytest.raises(HypothesisError) as err:
            cell_typing(Partition((2, 1)), Fraction(3, 2))
        assert "delta" in err.value.condition

    def test_alpha_too_big_for_diagonal(self):
        with pytest.raises(HypothesisError):
            cell_typing(STAIR, Fraction(2))  # delta = 10 < 18

    def test_rows_not_strict(self):
        lam = Partition((15, 15, 14, 13, 12, 11, 11, 11, 11, 11, 11, 10, 1))
        with pytest.raises(HypothesisError):
            check_typing_hypotheses(lam, ALPHA)

    def test_width_gate(self):
        # n = 1535 and lambda_1 * 11/10 = 1540 > n; every other gate passes
        lam = Partition((1400, 19, 18, 17, 16, 15, 14, 13, 12, 11))
        with pytest.raises(HypothesisError) as err:
            check_typing_hypotheses(lam, ALPHA)
        assert err.value.condition == "lambda_1 <= n/alpha"

    def test_conjugate_width_error_shared_with_the_bounds(self):
        # a staircase over 1500 rows of one cell: n = 1655, 1510 rows, and
        # 1510 * 11/10 > n; the typing's delta and strictness gates pass
        lam = Partition(tuple(range(20, 10, -1)) + (1,) * 1500)
        errors = []
        for call in (
            lambda: strip_bound(lam, 12, 12, ALPHA),
            lambda: theorem_classify(lam, ALPHA, Fraction(21, 20)),
            lambda: cell_typing(lam, ALPHA),
        ):
            with pytest.raises(HypothesisError) as err:
                call()
            errors.append((err.value.condition, str(err.value)))
        assert errors == [
            ("lambda'_1 <= n/alpha",
             "hypothesis violated: lambda'_1 <= n/alpha (lambda'_1=1510, n=1655)")
        ] * 3

    def test_tau_records_strict_column_prefix(self):
        # staircase plus a tall tail makes the first columns distinct
        lam = Partition((20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 2, 1))
        delta, tau = check_typing_hypotheses(lam, ALPHA)
        assert delta == 10
        assert tau == 2  # columns 12, 11, 10 strictly decreasing, col 3 = 10 >= delta


class TestTypingStructure:
    def test_counts_partition_the_diagram(self, stair_typing):
        assert sum(stair_typing.counts) == STAIR.n

    def test_numbering_is_bijection(self, stair_typing):
        numbers = sorted(number for _, _, _, _, number, _ in stair_typing.table)
        assert numbers == list(range(1, STAIR.n + 1))

    def test_type_blocks_ordered(self, stair_typing):
        maxmin = {}
        for _, _, cell_type, _, number, _ in stair_typing.table:
            lo, hi = maxmin.get(cell_type, (10**9, -1))
            maxmin[cell_type] = (min(lo, number), max(hi, number))
        present = sorted(maxmin)
        for a, b in zip(present, present[1:]):
            assert maxmin[a][1] < maxmin[b][0]

    def test_staircase_peels_to_small_core(self, stair_typing):
        # 18 full rounds peel (20..11) down to (2,1); no outside-square corners remain
        assert stair_typing.r == 18
        assert stair_typing.q == 0
        assert stair_typing.counts == (152, 0, 0, 3)
        assert stair_typing.mu == Partition((2, 1))

    def test_s_rounds_realized_bounds(self, stair_typing):
        assert stair_typing.s_rounds[0] >= stair_typing.delta
        for s in stair_typing.s_rounds[1:]:
            assert Fraction(s) >= 2 * ALPHA

    def test_hooks_are_original(self, stair_typing):
        hooks = STAIR.hook_grid()
        for row, col, _, _, _, hook in stair_typing.table:
            assert hook == hooks[(row, col)]

    def test_round_one_cells_are_original_corners(self, stair_typing):
        by_number = {rec[NUMBER]: rec for rec in stair_typing.table}
        for number, i in enumerate(corner_rows(STAIR.parts), start=1):
            row, col, cell_type, color, _, _ = by_number[number]
            assert (row, col) == (i + 1, STAIR.parts[i])
            assert color == 1 and cell_type == 1

    def test_counter_inequality_exact_for_cells_at_least_alpha(self, stair_typing):
        for rec in stair_typing.table:
            _, _, cell_type, _, number, hook = rec
            if cell_type in (1, 2, 3) and Fraction(number) >= ALPHA:
                assert ALPHA * hook <= number, rec

    def test_only_violations_are_the_sub_alpha_prefix(self, stair_typing):
        # alpha*h <= N cannot hold at N=1 (h=1, alpha>1); nothing else violates
        violations = stair_typing.eq1_violations()
        assert [(number, hook) for _, _, _, _, number, hook in violations] == [(1, 1)]

    def test_sub_alpha_cell_with_long_hook_is_rejected(self, stair_typing):
        # rotate the type-1 numbers so the last type-1 cell becomes N = 1:
        # every other check still holds (the aggregate product is invariant
        # under permuting the numbers), only h <= N catches it
        ct = stair_typing
        last = ct.counts[0]
        rotated = [
            (row, col, cell_type, color, number % last + 1 if cell_type == 1 else number, hook)
            for row, col, cell_type, color, number, hook in ct.table
        ]
        moved = next(rec for rec in rotated if rec[TYPE] == 1 and rec[NUMBER] == 1)
        assert moved[HOOK] > 1
        with pytest.raises(ConsistencyError, match=r"^h <= N fails"):
            _check_typing(_with_cells(ct, rotated), sum(ct.counts[:3]))

    def test_type1_mass_inequality(self, stair_typing):
        ct = stair_typing
        assert Fraction(ct.counts[0]) >= 2 * ALPHA * ct.r + ALPHA * ct.delta

    def test_type4_budget(self, stair_typing):
        ct = stair_typing
        assert Fraction(ct.counts[3]) <= ct.delta**2 + ALPHA * ct.rho

    def test_type4_product_below_falling_factorial(self, stair_typing):
        ct = stair_typing
        prod = 1
        for _, _, cell_type, _, _, hook in ct.table:
            if cell_type == 4:
                prod *= hook
        falling = 1
        for i in range(ct.counts[3]):
            falling *= STAIR.n - i
        assert prod <= falling

    def test_aggregate_product_certifies_alpha_power(self, stair_typing):
        ct = stair_typing
        num = den = 1
        t123 = 0
        for _, _, cell_type, _, number, hook in ct.table:
            if cell_type in (1, 2, 3):
                num *= number
                den *= hook
                t123 += 1
        p, q = ALPHA.numerator, ALPHA.denominator
        assert num * q**t123 >= p**t123 * den


def aggregate_ge(numbers, hooks, t, p, q):
    """``prod(numbers) * q**t >= p**t * prod(hooks)`` through ``powers_ge``."""
    lhs = [(x, 1) for x in numbers] + [(q, t)]
    rhs = [(p, t)] + [(h, 1) for h in hooks]
    return powers_ge(lhs, rhs, None)


class TestAggregateFilter:
    """The aggregate clause's products, decided by ``powers_ge``."""

    @given(
        st.lists(st.integers(1, 60), max_size=30),
        st.lists(st.integers(1, 60), max_size=30),
        st.integers(0, 40),
        st.fractions(min_value=Fraction(11, 10), max_value=5, max_denominator=12),
    )
    def test_matches_plain_products(self, numbers, hooks, t, alpha):
        p, q = alpha.numerator, alpha.denominator
        expected = math.prod(numbers) * q**t >= p**t * math.prod(hooks)
        assert aggregate_ge(numbers, hooks, t, p, q) == expected

    @pytest.mark.parametrize(
        "numbers, hooks, t, expected",
        [
            ([11] * 500, [10] * 500, 500, True),  # 11^500 10^500 on both sides
            ([10**12 + 1], [10**12], 0, True),  # logs 1.4e-12 apart
            ([10**12], [10**12 + 1], 0, False),
        ],
    )
    def test_near_ties_build_the_products(self, monkeypatch, numbers, hooks, t, expected):
        cleared = hookbound.certificates._cleared
        built = []

        def counted(terms):
            built.append(len(terms))
            return cleared(terms)

        monkeypatch.setattr(hookbound.certificates, "_cleared", counted)
        assert aggregate_ge(numbers, hooks, t, 11, 10) is expected
        assert built == [len(numbers) + 1, len(hooks) + 1]


# alpha = 3/2 puts the type-1 boundary k*q == 2*p at k = 3 corners
ALPHAS = [Fraction(11, 10), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(7, 3)]


@st.composite
def counter_hooks(draw):
    """``(hook_of, t, e, p, q)``: the hooks by number 1..t of a typing that
    meets h <= N below alpha and p*h <= q*N from alpha on, and an exponent
    e near t.  Hooks at their largest make every factor q*N/(p*h) close
    to 1, so that a few cells cannot cover the shortfall."""
    alpha = draw(st.sampled_from(ALPHAS + [Fraction(5, 4), Fraction(9, 2)]))
    p, q = alpha.numerator, alpha.denominator
    t = draw(st.integers(0, 40))
    tight = draw(st.booleans())
    hook_of = [None]
    for num in range(1, t + 1):
        top = num if num * q < p else q * num // p
        hook_of.append(top if tight else draw(st.integers(1, top)))
    return hook_of, t, draw(st.integers(max(t - 2, 0), t + 2)), p, q


class TestAggregateClause:
    """Clause (d): prod N * q^|T123| >= p^|T123| * prod h over the type-1/2/3 cells."""

    def test_aggregate_alone_rejects_a_typing(self, monkeypatch):
        # alpha = 3: the cells numbered 1 and 2 lie below alpha and meet
        # h <= N, the cells numbered 3 and 4 meet 3*h <= N, and every count
        # clause holds, yet 4! = 24 < 3^4 * 1*2*1*1 = 162
        ct = CellTyping(
            partition=Partition((4,)),
            alpha=Fraction(3),
            delta=0,
            rho=0,
            tau=0,
            r=0,
            q=0,
            s_rounds=(),
            t_rounds=(),
            counts=(4, 0, 0, 0),
            table=CellTable((4,), [1] * 4, [1] * 4, [1, 2, 3, 4], [1, 2, 1, 1]),
            mu=Partition(()),
        )
        assert [row[4:] for row in ct.eq1_violations()] == [(1, 1), (2, 2)]
        with pytest.raises(ConsistencyError) as err:
            _check_typing(ct, 4)
        assert str(err.value) == "aggregate product over type-1/2/3 cells below alpha^|T123|"
        monkeypatch.setattr(hookbound.celltyping, "_aggregate_holds", lambda *args: True)
        _check_typing(ct, 4)

    def test_matches_plain_products_on_both_routes(self, monkeypatch):
        fallbacks = []

        def counted(*args):
            fallbacks.append(args)
            return powers_ge(*args)

        monkeypatch.setattr(hookbound.celltyping, "powers_ge", counted)
        routes = set()

        @settings(max_examples=300, deadline=None)
        @given(counter_hooks())
        def check(case):
            hook_of, t, e, p, q = case
            before = len(fallbacks)
            decided = _aggregate_holds(hook_of, t, e, p, q)
            expected = math.factorial(t) * q**e >= p**e * math.prod(hook_of[1:])
            assert decided == expected
            fell_back = len(fallbacks) > before
            # the few-cell route only ever proves the product
            assert fell_back or decided
            routes.add(fell_back)

        check()
        assert routes == {False, True}

    def test_fallback_reads_t_factorial_as_a_ball(self, monkeypatch):
        # alpha = 3: the cells numbered 1 and 2 lie below alpha with h = N,
        # a shortfall of 3**2, and the cells from N = t down are tight
        # (h = N // 3), so 8 of them cover less than 9 and the product goes
        # to powers_ge; far from a tie, its brackets decide with no build
        t, p, q = 3000, 3, 1
        hook_of = [None, 1, 2] + [num // 3 for num in range(3, t + 1)]
        assert math.factorial(t) * q**t >= p**t * math.prod(hook_of[1:])
        fallbacks = []

        def counted(*args):
            fallbacks.append(args)
            return powers_ge(*args)

        def build(*args):
            pytest.fail("an exact product was built")

        monkeypatch.setattr(hookbound.celltyping, "powers_ge", counted)
        monkeypatch.setattr(hookbound.degrees, "_exact", build)
        assert _aggregate_holds(hook_of, t, t, p, q)
        assert len(fallbacks) == 1
        factorial = fallbacks[0][0][0][0]
        assert type(factorial) is DegreeBall and factorial.rad > 0 and factorial._exact is None

    def test_reduced_staircases_take_the_few_cell_route(self, monkeypatch):
        def unexpected(*args):
            pytest.fail("the aggregate product fell back to powers_ge")

        monkeypatch.setattr(hookbound.celltyping, "powers_ge", unexpected)
        for n in (2000, 6000):
            general_bound(staircase(n, ALPHA), ALPHA)


class TestTypingWithTail:
    def test_tail_forces_type2_rounds(self):
        lam = Partition(tuple(range(20, 10, -1)) + (8, 8, 5, 2, 2, 1))
        ct = cell_typing(lam, ALPHA)
        assert sum(ct.counts) == lam.n
        assert ct.delta == 10
        violations = ct.eq1_violations()
        assert all(Fraction(number) < ALPHA for _, _, _, _, number, _ in violations)

    def test_wide_tail_on_conjugate_side(self):
        # two long rows over the staircase are two tall columns of the conjugate
        lam = Partition((40, 38, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11))
        ct = cell_typing(lam, ALPHA)
        assert sum(ct.counts) == lam.n
        assert ct.counts[1] > 0


class TestGridAndJson:
    def test_grid_shape(self, stair_typing):
        lines = stair_typing.grid_lines()
        assert [len(line) for line in lines] == list(STAIR.parts)
        assert set("".join(lines)) <= set("1234")

    def test_grid_core_is_type4(self, stair_typing):
        lines = stair_typing.grid_lines()
        assert lines[0][0] == "4" and lines[0][1] == "4"
        assert lines[1][0] == "4"

    def test_json_dict_round_trips(self, stair_typing):
        data = json.loads(json.dumps(stair_typing.to_json_dict()))
        assert data["delta"] == 10 and data["rho"] == 1001
        assert data["counts"] == [152, 0, 0, 3]
        assert len(data["cells"]) == STAIR.n
        rebuilt = {(r, c): (t, col, n, h) for r, c, t, col, n, h in data["cells"]}
        hooks = STAIR.hook_grid()
        for (r, c), (_, _, _, h) in rebuilt.items():
            assert hooks[(r, c)] == h


class TestStrictBound:
    def test_staircase_passes(self, stair_typing):
        cert = strict_bound(STAIR, ALPHA)
        assert cert.verdict == PASS
        assert cert.mode == MODE_EXACT
        assert cert.exponent == Fraction(155) - (100 + ALPHA * 1001)
        assert cert.margin > 0

    def test_sharp_exponent_at_least_claimed(self):
        cert = strict_bound(STAIR, ALPHA)
        assert Fraction(cert.aux["sharp_exponent"]) >= cert.exponent

    def test_cells_attached(self):
        cert = strict_bound(STAIR, ALPHA)
        assert cert.cells is not None and len(cert.cells) == STAIR.n

    def test_gate_propagates(self):
        with pytest.raises(HypothesisError):
            strict_bound(Partition((2, 1)), Fraction(3, 2))

    def test_exact_inequality_rechecked_independently(self):
        cert = strict_bound(STAIR, ALPHA)
        f = degree(STAIR)
        e = cert.exponent
        u, v = e.numerator, e.denominator
        assert Fraction(f) ** v >= ALPHA**u

    def test_tiny_budget_falls_back_to_log_domain(self, monkeypatch):
        # the budget is charged only where the brackets overlap, as on the
        # exact tie f(1) = 1 >= 1**1, which falls back at 0 bits
        monkeypatch.setenv("HOOKBOUND_EXACT_BITS", "0")
        cert = overexponential_bound(Partition((1,)), 1, 1)
        assert cert.mode == "log-domain"
        assert cert.verdict == MARGINAL
        # the dispatch decides its class with no budget, near-tie included
        lam, beta = Partition((400,) * 36), Fraction(810074, 536305)
        assert theorem_classify(lam, Fraction(2), beta).aux["class"] == "M3"
        # disjoint brackets decide the strict bound within 64 bits
        monkeypatch.setenv("HOOKBOUND_EXACT_BITS", "64")
        cert = strict_bound(STAIR, ALPHA)
        assert cert.mode == MODE_EXACT
        assert cert.verdict == PASS
        assert cert.margin > 1e-9
        monkeypatch.delenv("HOOKBOUND_EXACT_BITS")
        cert = overexponential_bound(Partition((1,)), 1, 1)
        assert cert.mode == MODE_EXACT and cert.verdict == PASS


class TestCellsRoundTrip:
    """A certificate's cells survive JSON and match the typing they came from."""

    def test_strict_certificate(self, stair_typing):
        cert = strict_bound(STAIR, ALPHA)
        assert all(type(row) is tuple for row in cert.cells)
        assert cert.cells == stair_typing.table
        assert certificate_from_json(cert.to_json()).cells == cert.cells

    def test_general_certificate(self):
        cert = general_bound(staircase(2000, ALPHA), ALPHA)
        assert certificate_from_json(cert.to_json()).cells == cert.cells
        mu = Partition.parse(cert.aux["mu"])
        nested = json.loads(cert.to_json())["aux"]["mu_certificate"]
        assert len(nested["cells"]) == mu.n
        assert certificate_from_json(nested).cells == cell_typing(mu, ALPHA).table


def _swap_numbers_past_alpha(ct):
    # a type-1 cell A with hook h >= 2 and number N > h trades numbers with
    # the cell numbered h: A then has h <= N = h < alpha*h, and the other
    # cell, now numbered N > h, still meets both per-cell clauses
    cells = list(map(list, ct.table))
    a = next(r for r in cells if r[TYPE] == 1 and 2 <= r[HOOK] < r[NUMBER])
    return _swap_numbers(ct, a[NUMBER], a[HOOK])


def _relabel(ct, number, cell_type):
    cells = list(map(list, ct.table))
    next(r for r in cells if r[NUMBER] == number)[TYPE] = cell_type
    return _with_cells(ct, cells)


def _set_hook(ct, cell_type, hook):
    cells = list(map(list, ct.table))
    next(r for r in cells if r[TYPE] == cell_type)[HOOK] = hook
    return _with_cells(ct, cells)


def _set_number(ct, index, number):
    cells = list(map(list, ct.table))
    cells[index][NUMBER] = number
    return _with_cells(ct, cells)


# each corruption of the (20,...,11) typing breaks exactly one clause, by
# as little as the clause allows where it compares counts
CORRUPTIONS = {
    "column length": (
        lambda ct: ct._replace(
            table=CellTable(
                ct.table.parts,
                ct.table.types,
                ct.table.colors,
                ct.table.numbers,
                ct.table.hooks[:-1],
            ),
        ),
        "typing columns do not hold one entry per cell",
    ),
    "bijection": (
        lambda ct: _set_number(ct, 0, ct.table.numbers[1]),
        "numbering is not a bijection onto 1..n",
    ),
    "types partition": (
        lambda ct: ct._replace(counts=(152, 0, 0, 4)),
        "types do not partition the diagram",
    ),
    "counts disagree with the types": (
        # the types still run in number order, in runs of 152 and 3
        lambda ct: ct._replace(counts=(151, 0, 1, 3)),
        "types do not partition the diagram",
    ),
    "type overlap": (
        lambda ct: _relabel(ct, ct.n, 3),
        "type-3 numbers overlap type-4 numbers",
    ),
    "type outside 1..4": (
        lambda ct: _relabel(ct, ct.n, -1),
        "types do not partition the diagram",
    ),
    "negative count": (
        # the run ends 153, 152, 152 would type N = 153 as 3; the runs of
        # 153 1s and 3 4s hold 156 numbers, one more than n
        lambda ct: _relabel(ct, 153, 3)._replace(counts=(153, -1, 0, 3)),
        "types do not partition the diagram",
    ),
    "first round": (
        lambda ct: ct._replace(s_rounds=(9,) + ct.s_rounds[1:]),
        "first round removed 9 < delta corners",
    ),
    "type-1 round": (
        lambda ct: ct._replace(s_rounds=ct.s_rounds[:1] + (2,) + ct.s_rounds[2:]),
        "type-1 round ran with fewer than 2*alpha corners",
    ),
    "type-2 round": (
        lambda ct: ct._replace(t_rounds=(1,)),
        "type-2 round ran with fewer than alpha corners",
    ),
    "counter inequality": (
        _swap_numbers_past_alpha,  # cell (1,3): N = 150, h = 27 becomes N = 27
        "alpha*h <= N fails at cell (1,3) with N=27, h=27",
    ),
    "type-1 mass": (
        lambda ct: ct._replace(r=65),  # 11/10 * (2*65 + 10) = 154 > 152
        "|T1|=152 below 2*alpha*r + alpha*delta with r=65, delta=10",
    ),
    "type-4 budget": (
        lambda ct: ct._replace(delta=1, rho=1),  # 1 + 11/10 < 3
        "|T4|=3 exceeds delta^2 + alpha*rho",
    ),
    "type-4 falling factorial": (
        # the type-4 hooks 29, 28, 27 become 4831, 28, 27: 3,652,236 is the
        # least such product over 155*154*153 = 3,652,110, in the 'h' lane
        lambda ct: _set_hook(ct, 4, 4831),
        "type-4 hook product exceeds the falling factorial",
    ),
}


class TestCheckTypingClauses:
    def test_untouched_typing_passes(self, stair_typing):
        _check_typing(stair_typing, sum(stair_typing.counts[:3]))

    @pytest.mark.parametrize("clause", list(CORRUPTIONS))
    def test_each_clause_rejects_its_corruption(self, stair_typing, clause):
        corrupt, message = CORRUPTIONS[clause]
        bad = corrupt(stair_typing)
        assert bad != stair_typing
        with pytest.raises(ConsistencyError) as err:
            _check_typing(bad, sum(stair_typing.counts[:3]))
        assert str(err.value) == message


def _swap_numbers(ct, m, k):
    cells = list(map(list, ct.table))
    by_number = {r[NUMBER]: r for r in cells}
    by_number[m][NUMBER], by_number[k][NUMBER] = k, m
    return _with_cells(ct, cells)


class TestCheckTypingBoundaries:
    def test_counter_inequality_binds_from_the_first_number_at_least_alpha(self, stair_typing):
        # N = 2 = ceil(11/10) is held to alpha*h <= N: cell (10,10) with
        # h = 2 takes N = 2 (h <= N still holds), cell (2,19) takes N = 20
        bad = _swap_numbers(stair_typing, 2, 20)
        with pytest.raises(ConsistencyError) as err:
            _check_typing(bad, sum(stair_typing.counts[:3]))
        assert str(err.value) == "alpha*h <= N fails at cell (10,10) with N=2, h=2"

    def test_counter_inequality_binds_at_n_equal_to_an_integer_alpha(self):
        # alpha = 2: cell (30,10) with h = 2 takes N = 2 = alpha, so
        # N*q >= p holds with equality and 2*2 > 2 fails the clause
        ct = cell_typing(Partition(tuple(range(40, 10, -1))), Fraction(2))
        bad = _swap_numbers(ct, 2, 60)
        with pytest.raises(ConsistencyError) as err:
            _check_typing(bad, sum(ct.counts[:3]))
        assert str(err.value) == "alpha*h <= N fails at cell (30,10) with N=2, h=2"

    def test_last_type123_cell_is_held_to_h_at_most_n(self, stair_typing):
        # cell (3,1) is numbered |T123| = 152, the last type-1/2/3 number
        ct = stair_typing
        cells = list(map(list, ct.table))
        next(r for r in cells if r[NUMBER] == 152)[HOOK] = 153
        bad = _with_cells(ct, cells)
        with pytest.raises(ConsistencyError) as err:
            _check_typing(bad, sum(ct.counts[:3]))
        assert str(err.value) == "h <= N fails at cell (3,1) with N=152, h=153"

    def test_type4_budget_binds_at_one_cleared_unit(self):
        # alpha = 3/2 and |T4| = 3: with delta = rho = 1 the cleared test
        # reads 2*3 = 6 > 2*1 + 3*1 = 5, one unit over the budget
        ct = cell_typing(Partition(tuple(range(40, 10, -1))), Fraction(3, 2))
        assert (ct.delta, ct.rho, ct.counts) == (20, 801, (762, 0, 0, 3))
        with pytest.raises(ConsistencyError) as err:
            _check_typing(ct._replace(delta=1, rho=1), sum(ct.counts[:3]))
        assert str(err.value) == "|T4|=3 exceeds delta^2 + alpha*rho"

    def test_overlap_by_one_number(self):
        # the last type-3 cell and the first type-4 cell trade numbers
        ct = cell_typing(_arm_shape(18, 300, 100, 1200), Fraction(2))
        t123 = sum(ct.counts[:3])
        with pytest.raises(ConsistencyError) as err:
            _check_typing(_swap_numbers(ct, t123, t123 + 1), t123)
        assert str(err.value) == "type-3 numbers overlap type-4 numbers"


def test_counter_inequality_binds_at_one_cleared_unit(stair_typing):
    # cell (6,10) with h = 10 takes N = 11: 11*10 == 10*11, so alpha*h <= N
    # holds with equality (cell (1,19) with h = 3 takes N = 56)
    ct = stair_typing
    _check_typing(_swap_numbers(ct, 11, 56), sum(ct.counts[:3]))
    # cell (1,15) with h = 11 takes N = 12: 11*11 is one over 10*12
    with pytest.raises(ConsistencyError) as err:
        _check_typing(_swap_numbers(ct, 12, 51), sum(ct.counts[:3]))
    assert str(err.value) == "alpha*h <= N fails at cell (1,15) with N=12, h=11"


def test_cell_below_alpha_binds_at_one_past_its_number(stair_typing):
    # cell (10,10) with h = 2 takes N = 1, one past h <= N
    ct = stair_typing
    with pytest.raises(ConsistencyError) as err:
        _check_typing(_swap_numbers(ct, 1, 20), sum(ct.counts[:3]))
    assert str(err.value) == "h <= N fails at cell (10,10) with N=1, h=2"


def test_columns_too_narrow_for_n_are_rejected():
    # 2**15 cells in 'h' columns, their numbers and hooks past 2**15 - 1
    # stored as negatives: read unsigned they would pass the bijection, but
    # no 16-bit lane holds n = 2**15, so the lane tests cannot read them
    lam = Partition(tuple(range(300, 200, -1)) + (100,) * 77 + (18,))
    ct = cell_typing(lam, ALPHA)
    assert (lam.n, ct.table.numbers.typecode) == (2**15, "i")
    columns = (ct.table.types, ct.table.colors, ct.table.numbers, ct.table.hooks)
    wrapped = [[v - 2**16 if v >= 2**15 else v for v in col] for col in columns]
    # the table's own parts (one cell) set its code
    bad = ct._replace(table=CellTable((1,), *wrapped))
    assert bad.table.numbers.typecode == "h"
    with pytest.raises(ConsistencyError) as err:
        _check_typing(bad, sum(ct.counts[:3]))
    assert str(err.value) == "typing columns do not hold one entry per cell"


@pytest.mark.parametrize(
    "renumber",
    [
        lambda num, n: 0,  # fills the unused slot 0
        lambda num, n: num - n - 1,  # as a list index, the slot of num itself
        lambda num, n: n + 1,
    ],
    ids=["zero", "negative-alias", "past-n"],
)
def test_numbers_outside_one_to_n_are_not_a_bijection(stair_typing, renumber):
    ct = stair_typing
    bad = _set_number(ct, 0, renumber(ct.table.numbers[0], ct.n))
    with pytest.raises(ConsistencyError) as err:
        _check_typing(bad, sum(ct.counts[:3]))
    assert str(err.value) == "numbering is not a bijection onto 1..n"


def _reference_typing(lam, alpha):
    """The cell-keyed dict construction of cell_typing, without its checks."""
    delta, _ = check_typing_hypotheses(lam, alpha)
    rho_val = rho(delta, alpha)
    hooks = lam.hook_grid()

    def corners_of(parts):
        out = []
        for i, row in enumerate(parts, start=1):
            nxt = parts[i] if i < len(parts) else 0
            if row > 0 and row > nxt:
                out.append((i, row))
        return out

    assigned = {}
    work = list(lam.parts)
    counter = color = 0
    s_rounds = []
    while True:
        corners = corners_of(work)
        if Fraction(len(corners)) < 2 * alpha:
            break
        color += 1
        s_rounds.append(len(corners))
        for cell in corners:
            counter += 1
            assigned[cell] = (1, color, counter)
            work[cell[0] - 1] -= 1
    t_rounds = []
    while True:
        outside = [(i, j) for i, j in corners_of(work) if i > delta or j > delta]
        if Fraction(len(outside)) < alpha:
            break
        color += 1
        t_rounds.append(len(outside))
        for cell in outside:
            counter += 1
            assigned[cell] = (2, color, counter)
            work[cell[0] - 1] -= 1
    mu = Partition(tuple(p for p in work if p > 0))
    mu_conj = mu.conjugate()
    k_max = max(mu.part(1), mu_conj.part(1)) if mu else 0
    for m in range(k_max, delta + rho_val, -1):
        row_seg = [(m, j) for j in range(1, mu.part(m) + 1)]
        col_seg = [(i, m) for i in range(1, mu_conj.part(m) + 1)]
        for cell in row_seg + col_seg:
            counter += 1
            assigned[cell] = (3, m, counter)
    for cell in mu.cells():
        if cell not in assigned:
            counter += 1
            assigned[cell] = (4, 0, counter)
    cells = [[*c, *assigned[c], hooks[c]] for c in lam.cells()]
    return tuple(s_rounds), tuple(t_rounds), mu, cells


def _arm_shape(delta, arm_row, block_rows, arm_col, width=1):
    """Staircase (2*delta-1, ..., delta+1) with a long first row, a delta-wide
    block and ``arm_col`` rows of ``width`` cells below: shells of type 3."""
    top = (2 * delta + arm_row,) + tuple(range(2 * delta - 1, delta, -1))
    return Partition(top + (delta,) * block_rows + (width,) * arm_col)


REFERENCE_SHAPES = [
    *[(staircase(n, a), a) for a in (ALPHA, Fraction(3, 2), Fraction(2)) for n in (600, 2000, 5000)],
    (staircase(300, ALPHA), ALPHA),
    *[(staircase_with_tail(10, 11, 40 + seed, seed), ALPHA) for seed in range(3)],
    *[(staircase_with_tail(12, 16, 90, seed), ALPHA) for seed in range(3)],
    *[(staircase_with_tail(14, 15, 150, seed), Fraction(3, 2)) for seed in range(3)],
    *[(staircase_with_tail(20, 30, 300, seed), Fraction(2)) for seed in range(3)],
    (Partition(tuple(range(20, 10, -1)) + (8, 8, 5, 2, 2, 1)), ALPHA),
    (Partition((40, 38, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11)), ALPHA),
    (_arm_shape(18, 300, 100, 1200), Fraction(2)),  # all four types
    (_arm_shape(14, 0, 100, 1200), Fraction(3, 2)),  # type 3 by rows
    (_arm_shape(27, 1500, 60, 1500), Fraction(3)),  # type 3 by rows and columns
    (_arm_shape(36, 1500, 60, 1500, width=2), Fraction(4)),  # rows of two cells
]


class TestAgainstCellDictReference:
    def test_shapes_cover_every_type_and_both_shell_segments(self):
        typings = [cell_typing(lam, alpha) for lam, alpha in REFERENCE_SHAPES]
        assert all(any(ct.counts[t] for ct in typings) for t in range(4))
        # type-3 cells below row delta come from row segments, the rest from
        # column segments; a row segment of two cells fixes its order
        type3 = [
            (row > ct.delta, col)
            for ct in typings
            for row, col, cell_type, _, _, _ in ct.table
            if cell_type == 3
        ]
        assert {below for below, _ in type3} == {True, False}
        assert (True, 2) in type3

    @pytest.mark.parametrize("index", range(len(REFERENCE_SHAPES)))
    def test_same_typing_as_reference(self, index):
        lam, alpha = REFERENCE_SHAPES[index]
        ct = cell_typing(lam, alpha)
        s_rounds, t_rounds, mu, cells = _reference_typing(lam, alpha)
        assert (ct.s_rounds, ct.t_rounds, ct.mu) == (s_rounds, t_rounds, mu)
        assert (ct.r, ct.q) == (len(s_rounds), len(t_rounds))
        assert list(map(list, ct.table)) == cells
        assert ct.counts == tuple(sum(1 for c in cells if c[2] == t) for t in (1, 2, 3, 4))


@st.composite
def typable_diagrams(draw):
    """``(lambda, alpha)`` passing the typing's gate: a strict top of delta
    rows over a tail of strict rows, blocks of equal rows and long columns.
    A tail with equal rows is peeled cell by cell until its rows turn
    strict, partway through the type-1 rounds."""
    alpha = draw(st.sampled_from(ALPHAS))
    delta = math.ceil(9 * alpha) + draw(st.integers(0, 2))
    bottom = delta + draw(st.integers(0, 4))
    gaps = draw(st.lists(st.integers(1, 3), min_size=delta - 1, max_size=delta - 1))
    top = list(accumulate(gaps, initial=bottom))[::-1]
    cap = min(delta, bottom - 1)  # tail rows keep the diagonal and row delta a corner
    tail = []
    for kind in draw(st.lists(st.sampled_from(["strict", "block", "column"]), max_size=4)):
        if kind == "strict":
            tail += draw(st.lists(st.integers(1, cap), unique=True, max_size=8))
        elif kind == "block":
            tail += [draw(st.integers(1, cap))] * draw(st.integers(2, 8))
        else:
            tail += [draw(st.integers(1, min(2, cap)))] * draw(st.integers(10, 150))
    lam = Partition(tuple(top + sorted(tail, reverse=True)))
    try:
        check_typing_hypotheses(lam, alpha)
    except HypothesisError:
        assume(False)
    return lam, alpha


@settings(max_examples=80, deadline=None)
@given(typable_diagrams())
# a block of four rows of 5 under (20,...,11) turns strict after 3 rounds
@example((Partition(tuple(range(20, 10, -1)) + (5,) * 4), ALPHA))
def test_random_diagrams_match_reference(case):
    lam, alpha = case
    ct = cell_typing(lam, alpha)
    s_rounds, t_rounds, mu, cells = _reference_typing(lam, alpha)
    assert (ct.s_rounds, ct.t_rounds, ct.mu) == (s_rounds, t_rounds, mu)
    assert ct.table == cells
    assert ct.counts == tuple(sum(1 for c in cells if c[2] == t) for t in (1, 2, 3, 4))


LANES = ("h", "i", "q")


@given(st.data(), st.sampled_from(LANES), st.integers(0, 12), st.integers(1, 2))
def test_row_sum_matches_entrywise_sums(data, code, size, count):
    top = 1 << 8 * array(code).itemsize - 1  # the lane holds [0, top)
    entries = st.lists(st.integers(0, top // 2), min_size=size, max_size=size)
    rows = [data.draw(entries) for _ in range(count)]
    sums = list(map(sum, zip(*rows)))
    # any offset that keeps every result in [0, top), of either sign
    low, high = -min(sums, default=top // 2), top - 1 - max(sums, default=top // 2)
    assume(low <= high)
    offset = data.draw(st.integers(low, high))
    packed = _row_sum(offset, *(memoryview(array(code, row)) for row in rows))
    assert array(code, packed).tolist() == [e + offset for e in sums]


def _row_sum_ends(bits):
    """(offset, rows, expected) at the ends of the ``bits``-bit lane's results."""
    half, top = 1 << bits - 2, (1 << bits - 1) - 1
    return [
        (half - 1, ([half],), [top]),
        (-5, ([half, 5, 0], [half + 4, 0, 5]), [top, 0, 0]),
        (-5, ([],), []),
        (-top, ([top, 1, top], [0, top - 1, 0]), [0, 0, 0]),
    ]


@pytest.mark.parametrize("offset, rows, expected", _row_sum_ends(64))
def test_row_sum_at_the_ends_of_the_range(offset, rows, expected):
    packed = _row_sum(offset, *(memoryview(array("q", row)) for row in rows))
    assert array("q", packed).tolist() == expected


@pytest.mark.parametrize("code", ["h", "i"])
def test_row_sum_at_the_ends_of_the_narrow_lanes(code):
    for offset, rows, expected in _row_sum_ends(8 * array(code).itemsize):
        packed = _row_sum(offset, *(memoryview(array(code, row)) for row in rows))
        assert array(code, packed).tolist() == expected


def _ordered(column, order):
    """``column`` with its entries' bytes in byte order ``order``."""
    if order == sys.byteorder:
        return column
    swapped = array(column.typecode, column)
    swapped.byteswap()
    return swapped


def _runs_reference(numbers, types, bounds):
    return all(t == 1 + sum(num > b for b in bounds) for num, t in zip(numbers, types))


def _counter_reference(numbers, hooks, below, t, p, q, unsigned):
    return all(p * (h % unsigned) <= q * num for num, h in zip(numbers, hooks) if below < num <= t)


@st.composite
def typed_columns(draw):
    """A shuffled numbering 1..n in a lane, the types of its runs, hooks up to the counter bound."""
    code = draw(st.sampled_from(LANES))
    n = draw(st.integers(1, 60))
    numbers = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=3, max_size=3)))
    types = [1 + sum(num > c for c in cuts) for num in numbers]
    # at 128/127 the counter lanes' bound has a whole number of bytes in every lane
    p, q = draw(st.sampled_from([(11, 10), (3, 2), (2, 1), (7, 1), (128, 127), (10**6 + 1, 10**6)]))
    t = cuts[-1]
    below = min(-(-p // q) - 1, t)
    hooks = [draw(st.integers(1, q * num // p)) if below < num <= t else draw(st.integers(0, n))
             for num in numbers]
    return code, n, numbers, types, cuts, hooks, below, t, p, q


@pytest.mark.parametrize("order", ["little", "big"])
@settings(max_examples=150, deadline=None)
@given(case=typed_columns(), fault=st.integers(0, 2), bump=st.integers(1, 3))
def test_lane_checks_match_the_entrywise_reference(order, case, fault, bump):
    code, n, numbers, types, cuts, hooks, below, t, p, q = case
    unsigned = 1 << 8 * array(code).itemsize

    def run(numbers, types, hooks):
        nums = _ordered(array(code, numbers), order)
        follows = _types_follow_runs(nums, _ordered(array("b", types), order), cuts, order)
        holds = _counter_holds(nums, _ordered(array(code, hooks), order), below, t, n, p, q, order)
        assert follows == _runs_reference(numbers, types, cuts)
        assert holds == _counter_reference(numbers, hooks, below, t, p, q, unsigned)
        return follows, holds

    assert run(numbers, types, hooks) == (True, True)
    # one fault in the first, a middle or the last lane
    k = (0, len(numbers) // 2, len(numbers) - 1)[fault]
    bad_types = types[:]
    bad_types[k] = (types[k] + bump - 1) % 4 + 1
    assert run(numbers, bad_types, hooks) == (False, True)
    num = numbers[k]
    bad_hooks = hooks[:]
    bad_hooks[k] = q * num // p + bump
    assert run(numbers, types, bad_hooks) == (True, not below < num <= t)
    # a hook read past the lane's top, as a negative entry is
    bad_hooks[k] = -bump
    assert run(numbers, types, bad_hooks) == (True, not below < num <= t)


@pytest.mark.parametrize("order", ["little", "big"])
@pytest.mark.parametrize("code", LANES)
def test_counter_lanes_skip_type4_and_cells_below_alpha(code, order):
    # alpha = 3: N = 1, 2 lie below alpha, N = 3..5 are type 1/2/3 and
    # N = 6, 7 type 4; row-major, the last lane holds N = 5
    p, q, n, below, t = 3, 1, 7, 2, 5
    numbers = [6, 1, 3, 7, 4, 2, 5]
    hooks = {num: 1 for num in numbers}

    def holds(**changed):
        column = [changed.get(f"h{num}", hooks[num]) for num in numbers]
        nums = _ordered(array(code, numbers), order)
        return _counter_holds(nums, _ordered(array(code, column), order), below, t, n, p, q, order)

    assert holds()
    # a type-4 cell past the counter bound, and cells below alpha with
    # 3*h > N (h <= N is left to the hook slice), all pass
    assert holds(h6=6, h7=7, h1=1, h2=2)
    assert holds(h6=(1 << 8 * array(code).itemsize - 1) - 1)
    # N = 3 (a middle lane), 4 and 5 (the last lane) at one past 3*h <= N
    assert holds(h3=1, h4=1, h5=1)
    for num in (3, 4, 5):
        bound = q * num // p
        assert holds(**{f"h{num}": bound}) and not holds(**{f"h{num}": bound + 1})


def test_lane_width_follows_n():
    assert [lane_code(n) for n in (0, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**62)] == [
        "h", "h", "i", "i", "q", "q",
    ]
    assert [array(code).itemsize for code in LANES] == [2, 4, 8]


def test_typing_frees_its_construction_before_the_check():
    # a warm typing of the 15,870 cells of the reduced (803,)*20 peaks at
    # about 59.4 bytes a cell (56.4 on CPython 3.10), in the check's counter
    # lanes; with the construction's 7 bytes a cell of 'h' columns kept
    # through the check, at about 66.4 (63.4 on 3.10)
    alpha = Fraction(11, 10)
    mu = reduce_diagram(Partition((803,) * 20), alpha).mu
    cell_typing(mu, alpha)
    gc.collect()
    tracemalloc.start()
    try:
        cell_typing(mu, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 62 * mu.n


def test_reduced_rectangle_typing_digest():
    # recorded from the cell-keyed dict construction: same records, byte for byte
    alpha = Fraction(11, 10)
    ct = cell_typing(reduce_diagram(Partition((800,) * 20), alpha).mu, alpha)
    digest = hashlib.sha256(json.dumps(ct.to_json_dict()).encode()).hexdigest()
    assert digest == "70d19fb3f85fa867012d0aaa3ae5dd03af6f64880f7e529aae46b1f248f33afb"
