import dataclasses
import json
from fractions import Fraction

import pytest

from hookbound.bounds import strict_bound
from hookbound.celltyping import _check_typing, cell_typing, check_typing_hypotheses, rho
from hookbound.certificates import MODE_EXACT, PASS
from hookbound.degrees import degree
from hookbound.errors import ConsistencyError, HypothesisError
from hookbound.partitions import Partition

ALPHA = Fraction(11, 10)
STAIR = Partition(tuple(range(20, 10, -1)))  # (20,...,11) |- 155, delta = 10


@pytest.fixture(scope="module")
def stair_typing():
    return cell_typing(STAIR, ALPHA)


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
        numbers = sorted(r.number for r in stair_typing.cells)
        assert numbers == list(range(1, STAIR.n + 1))

    def test_type_blocks_ordered(self, stair_typing):
        maxmin = {}
        for r in stair_typing.cells:
            lo, hi = maxmin.get(r.cell_type, (10**9, -1))
            maxmin[r.cell_type] = (min(lo, r.number), max(hi, r.number))
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
        for rec in stair_typing.cells:
            assert rec.hook == hooks[(rec.row, rec.col)]

    def test_round_one_cells_are_original_corners(self, stair_typing):
        by_number = stair_typing.by_number()
        corners = STAIR.corner_cells()
        for i, cell in enumerate(corners, start=1):
            rec = by_number[i]
            assert (rec.row, rec.col) == cell
            assert rec.color == 1 and rec.cell_type == 1

    def test_counter_inequality_exact_for_cells_at_least_alpha(self, stair_typing):
        for rec in stair_typing.cells:
            if rec.cell_type in (1, 2, 3) and Fraction(rec.number) >= ALPHA:
                assert ALPHA * rec.hook <= rec.number, rec

    def test_only_violations_are_the_sub_alpha_prefix(self, stair_typing):
        # alpha*h <= N cannot hold at N=1 (h=1, alpha>1); nothing else violates
        violations = stair_typing.eq1_violations()
        assert [(v.number, v.hook) for v in violations] == [(1, 1)]

    def test_sub_alpha_cell_with_long_hook_is_rejected(self, stair_typing):
        # rotate the type-1 numbers so the last type-1 cell becomes N = 1:
        # every other check still holds (the aggregate product is invariant
        # under permuting the numbers), only h <= N catches it
        ct = stair_typing
        last = ct.counts[0]
        rotated = tuple(
            dataclasses.replace(rec, number=rec.number % last + 1)
            if rec.cell_type == 1
            else rec
            for rec in ct.cells
        )
        moved = next(rec for rec in rotated if rec.cell_type == 1 and rec.number == 1)
        assert moved.hook > 1
        with pytest.raises(ConsistencyError, match=r"^h <= N fails"):
            _check_typing(dataclasses.replace(ct, cells=rotated), sum(ct.counts[:3]))

    def test_type1_mass_inequality(self, stair_typing):
        ct = stair_typing
        assert Fraction(ct.counts[0]) >= 2 * ALPHA * ct.r + ALPHA * ct.delta

    def test_type4_budget(self, stair_typing):
        ct = stair_typing
        assert Fraction(ct.counts[3]) <= ct.delta**2 + ALPHA * ct.rho

    def test_type4_product_below_falling_factorial(self, stair_typing):
        ct = stair_typing
        prod = 1
        for rec in ct.of_type(4):
            prod *= rec.hook
        falling = 1
        for i in range(ct.counts[3]):
            falling *= STAIR.n - i
        assert prod <= falling

    def test_aggregate_product_certifies_alpha_power(self, stair_typing):
        ct = stair_typing
        num = den = 1
        t123 = 0
        for rec in ct.cells:
            if rec.cell_type in (1, 2, 3):
                num *= rec.number
                den *= rec.hook
                t123 += 1
        p, q = ALPHA.numerator, ALPHA.denominator
        assert num * q**t123 >= p**t123 * den


class TestTypingWithTail:
    def test_tail_forces_type2_rounds(self):
        lam = Partition(tuple(range(20, 10, -1)) + (8, 8, 5, 2, 2, 1))
        ct = cell_typing(lam, ALPHA)
        assert sum(ct.counts) == lam.n
        assert ct.delta == 10
        violations = ct.eq1_violations()
        assert all(Fraction(v.number) < ALPHA for v in violations)

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
        monkeypatch.setenv("HOOKBOUND_EXACT_BITS", "64")
        cert = strict_bound(STAIR, ALPHA)
        assert cert.mode == "log-domain"
        assert cert.verdict == PASS
        assert cert.margin > 1e-9
