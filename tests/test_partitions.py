import inspect
import sys
import threading
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

import hookbound.partitions
from hookbound.bounds import strip_bound
from hookbound.errors import DepthLimitError, EmptySampleSpaceError, HookBoundError, HypothesisError
from hookbound.partitions import (
    Partition,
    corner_rows,
    count_partitions,
    enumerate_partitions,
    format_rational,
    parse_rational,
    sample_partition,
    unrank_partition,
)

LAM = Partition((9, 6, 4, 2, 2, 1))


@st.composite
def partitions(draw, max_n=15):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Partition(())
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    counts = {}
    for b in bins:
        counts[b] = counts.get(b, 0) + 1
    return Partition(tuple(sorted(counts.values(), reverse=True)))


class TestConstruction:
    def test_rejects_increasing(self):
        with pytest.raises(HookBoundError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(HookBoundError):
            Partition((3, 0))

    @pytest.mark.parametrize(
        "parts, message",
        [
            ((3, 0), "parts must be positive, got 0 in (3, 0)"),
            ((0,), "parts must be positive, got 0 in (0,)"),
            ((1, 2), "parts must be weakly decreasing, got (1, 2)"),
            ((2, -1, 3), "parts must be positive, got -1 in (2, -1, 3)"),
            ((3, 4, 0), "parts must be weakly decreasing, got (3, 4, 0)"),
        ],
    )
    def test_error_names_the_first_bad_part(self, parts, message):
        with pytest.raises(HookBoundError) as err:
            Partition(parts)
        assert str(err.value) == message

    def test_parts_converted_to_int(self):
        lam = Partition([3.0, 2, True])
        assert lam.parts == (3, 2, 1)
        assert all(type(p) is int for p in lam.parts)

    def test_parse_format_roundtrip(self):
        assert Partition.parse("9,6,4,2,2,1") == LAM
        assert LAM.format() == "9,6,4,2,2,1"
        assert Partition.parse("") == Partition(())
        assert Partition(()).format() == ""

    def test_parse_garbage(self):
        with pytest.raises(HookBoundError):
            Partition.parse("3,x")

    def test_part_reads_zero_beyond_length(self):
        assert LAM.part(7) == 0
        assert LAM.part(1) == 9
        with pytest.raises(HookBoundError):
            LAM.part(0)


class TestConjugate:
    def test_example(self):
        assert LAM.conjugate() == Partition((6, 5, 3, 3, 2, 2, 1, 1, 1))

    def test_single_row(self):
        assert Partition((5,)).conjugate() == Partition((1,) * 5)

    def test_empty(self):
        assert Partition(()).conjugate() == Partition(())

    def test_involution_all_small(self):
        for n in range(16):
            for p in enumerate_partitions(n):
                assert p.conjugate().conjugate() == p

    def test_column_counts_all_small(self):
        # part j of the conjugate counts the rows of length >= j
        for n in range(15):
            for p in enumerate_partitions(n):
                width = p.part(1)
                cols = tuple(
                    sum(1 for row in p.parts if row >= j) for j in range(1, width + 1)
                )
                assert p.conjugate().parts == cols


class TestHooks:
    def test_corner_hook_is_one(self):
        hooks = LAM.hook_grid()
        for i in corner_rows(LAM.parts):
            assert hooks[(i + 1, LAM.parts[i])] == 1

    def test_examples(self):
        assert LAM.hook_grid()[(1, 1)] == 14
        assert Partition((2, 1)).hook_grid()[(1, 1)] == 3

    def test_out_of_diagram(self):
        # the grid is keyed by exactly the diagram's cells, as plain tuples
        hooks = LAM.hook_grid()
        assert (1, 10) not in hooks
        assert list(hooks) == [
            (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9),
            (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
            (3, 1), (3, 2), (3, 3), (3, 4),
            (4, 1), (4, 2), (5, 1), (5, 2), (6, 1),
        ]
        assert all(type(cell) is tuple for cell in hooks)

    def test_hook_symmetry_all_small(self):
        for n in range(16):
            for p in enumerate_partitions(n):
                conj = p.conjugate().hook_grid()
                for (i, j), h in p.hook_grid().items():
                    assert conj[(j, i)] == h

    def test_hook_multiset_conjugation_invariant(self):
        for n in range(16):
            for p in enumerate_partitions(n):
                a = sorted(p.hook_grid().values())
                b = sorted(p.conjugate().hook_grid().values())
                assert a == b


class TestDiagonal:
    def test_example(self):
        assert LAM.diagonal() == 3

    def test_single_cell(self):
        assert Partition((1,)).diagonal() == 1

    def test_rectangle(self):
        assert Partition((7,) * 3).diagonal() == 3
        assert Partition((3,) * 7).diagonal() == 3

    def test_empty(self):
        assert Partition(()).diagonal() == 0

    def test_durfee_side_matches_conjugate_definition(self):
        # the side is the largest d with lambda_d >= d and lambda'_d >= d
        for n in range(17):
            for lam in enumerate_partitions(n):
                conj = lam.conjugate()
                d = 0
                while lam.part(d + 1) >= d + 1 and conj.part(d + 1) >= d + 1:
                    d += 1
                assert lam.diagonal() == d, lam


class TestHookClass:
    """H(k, l), the diagrams whose row k+1 has at most l cells, is the
    hypothesis gate of ``strip_bound``; LAM has n = 24 and fits the widths
    at alpha = 2."""

    def test_wide_example(self):
        assert strip_bound(LAM, 4, 3, Fraction(2)).parameters["k"] == 4

    def test_negative_case(self):
        with pytest.raises(HypothesisError) as err:
            strip_bound(LAM, 1, 1, Fraction(2))
        assert err.value.condition == "lambda in H(k,l)"

    def test_trivial(self):
        assert strip_bound(LAM, LAM.n, 0, Fraction(2)).parameters["l"] == 0

    def test_bad_parameters(self):
        with pytest.raises(HypothesisError) as err:
            strip_bound(LAM, -1, 2, Fraction(2))
        assert err.value.condition == "k, l >= 0"


def _peel(parts):
    """The rows left after one cell comes off each row that ends in a corner."""
    rows = list(parts)
    for i in corner_rows(rows):
        rows[i] -= 1
    return rows


class TestCorners:
    def test_example(self):
        assert corner_rows(LAM.parts) == [0, 1, 2, 4, 5]

    def test_rectangle_single_corner(self):
        assert corner_rows((4, 4, 4)) == [2]

    def test_empty(self):
        assert corner_rows(()) == []

    def test_trailing_zeros(self):
        # the running rows of a diagram being peeled end in zeros
        assert corner_rows([3, 1, 0, 0]) == [0, 1]

    def test_corner_count_is_number_of_distinct_parts(self):
        for n in range(16):
            for p in enumerate_partitions(n):
                rows = corner_rows(p.parts)
                assert len(rows) == len(set(p.parts))
                hooks = p.hook_grid()
                assert all(hooks[(i + 1, p.parts[i])] == 1 for i in rows)


class TestRemoveCells:
    """Removing every corner cell at once, row by row, as the typing peels."""

    def test_peel_one_round(self):
        assert _peel(LAM.parts) == [8, 5, 3, 2, 1, 0]

    def test_two_from_hook(self):
        assert _peel((2, 1)) == [1, 0]

    def test_rectangle_corner(self):
        assert _peel((4, 4, 4)) == [4, 4, 3]

    def test_peel_keeps_corner_invariant(self):
        # peeled diagram has at least as many corners as distinct part values
        for n in range(16):
            for p in enumerate_partitions(n):
                if not p:
                    continue
                peeled = _peel(p.parts)
                Partition(tuple(filter(None, peeled)))  # still weakly decreasing
                assert len(corner_rows(peeled)) >= len(set(peeled) - {0})


class TestContains:
    def test_square_inside(self):
        assert LAM.contains(Partition((3, 3)))

    def test_self(self):
        assert LAM.contains(LAM)

    def test_second_row_too_long(self):
        assert not Partition((9, 3)).contains(Partition((4, 4)))

    def test_longer_than_container(self):
        assert not Partition((2, 2)).contains(Partition((1, 1, 1)))


class TestEnumeration:
    def test_p5(self):
        assert len(list(enumerate_partitions(5))) == 7

    def test_bounded(self):
        got = [p.parts for p in enumerate_partitions(4, max_parts=2)]
        assert got == [(4,), (3, 1), (2, 2)]

    def test_zero(self):
        assert list(enumerate_partitions(0)) == [Partition(())]

    def test_reverse_lex_order(self):
        got = [p.parts for p in enumerate_partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_counts_match_dp_up_to_40(self):
        for n in range(41):
            assert sum(1 for _ in enumerate_partitions(n)) == count_partitions(n)

    def test_bounded_counts_match_dp(self):
        for n in range(13):
            for cap in (1, 2, 3, 5, n or 1):
                for slots in (1, 2, 4, n or 1):
                    got = sum(1 for _ in enumerate_partitions(n, cap, slots))
                    assert got == count_partitions(n, cap, slots)

    def test_no_duplicates_and_all_valid(self):
        seen = set()
        for p in enumerate_partitions(9, max_part=5, max_parts=4):
            assert p.n == 9
            assert p.parts[0] <= 5 and len(p.parts) <= 4
            assert p.parts not in seen
            seen.add(p.parts)

    @given(st.integers(0, 18), st.integers(1, 18), st.integers(1, 18))
    def test_enumeration_matches_count_fuzz(self, n, cap, slots):
        assert sum(1 for _ in enumerate_partitions(n, cap, slots)) == count_partitions(
            n, cap, slots
        )


class TestCountTable:
    def test_matches_sum_recurrence(self):
        # the count table's definition: sum over the first part p of the
        # partitions of rem - p with parts <= p and one slot fewer
        @lru_cache(maxsize=None)
        def reference(rem, cap, slots):
            if rem == 0:
                return 1
            if cap <= 0 or slots <= 0:
                return 0
            low = -(-rem // slots)
            return sum(
                reference(rem - p, p, slots - 1) for p in range(min(cap, rem), low - 1, -1)
            )

        for r in range(61):
            for c in range(-1, 63):
                for s in range(-1, 63):
                    assert count_partitions(r, c, s) == reference(r, min(c, r), s), (r, c, s)

    def test_unbounded_reference_values(self):
        assert count_partitions(100) == 190569292
        assert count_partitions(200) == 3972999029388

    def test_closed_form_matches_bruteforce_tally(self, cold_table):
        # one enumeration per n, tallied by first part and length; a box
        # (n, c, s) counts the partitions with lambda_1 <= c and length <= s,
        # by the closed form when n <= 2s + 1 and by the row recurrence above
        sides = {True: 0, False: 0}
        for n in range(31):
            tally = [[0] * (n + 2) for _ in range(n + 2)]
            for lam in enumerate_partitions(n):
                tally[lam.part(1)][len(lam)] += 1
            for c in range(n + 2):
                for s in range(n + 2):
                    expected = sum(tally[a][l] for a in range(c + 1) for l in range(s + 1))
                    assert count_partitions(n, c, s) == expected, (n, c, s)
                    sides[n <= 2 * s + 1] += 1
        assert sides[True] > 0 and sides[False] > 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda: count_partitions(3000, 1000, 1000),
            lambda: unrank_partition(3000, 1000, 1000, 0),
            lambda: sample_partition(3000, 1000, 1000, seed=1),
        ],
        ids=["count", "unrank", "sample"],
    )
    def test_recursion_extreme_raises_named_error_fast(self, call, cold_table):
        # a tight box (n > 2*slots + 1) still fills rows one level per part
        start = time.perf_counter()
        with pytest.raises(DepthLimitError) as err:
            call()
        assert time.perf_counter() - start < 1.0
        assert err.value.n == 3000
        assert "n=3000" in str(err.value) and str(err.value.limit) in str(err.value)

    def test_table_stays_consistent_after_depth_error(self, cold_table):
        # a depth error midway through filling rows leaves only finished
        # entries behind: the count afterwards equals one on a fresh table
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            with pytest.raises(DepthLimitError):
                count_partitions(600, 200, 200)
        finally:
            sys.setrecursionlimit(limit)
        after_error = count_partitions(600, 200, 200)
        cold_table()
        assert after_error == count_partitions(600, 200, 200)

    def test_grow_completes_rows_begun_by_the_recurrence(self, cold_table):
        # a tight box leaves rows (u, u) partly filled; the triangles finish
        # those same rows and agree with triangles grown on a fresh table
        tight = count_partitions(240, 240, 60)
        count_partitions(240, 120, 120)
        rows = [list(row) for row in hookbound.partitions._p_rows]
        assert all(
            hookbound.partitions._count(u, u) is hookbound.partitions._p_rows[u]
            for u in range(1, 241)
        )
        cold_table()
        count_partitions(240, 120, 120)
        assert hookbound.partitions._p_rows == rows
        assert count_partitions(240, 240, 60) == tight

    def test_out_of_order_fill_matches_cold_table(self, cold_table):
        # rows grown by many callers, larger boxes first, hold the same
        # entries as rows grown by one call on a fresh table
        grid = [
            (n, cap, slots)
            for n in (17, 50, 99, 150, 240)
            for cap in (1, 5, n // 3, n // 2, n)
            for slots in (2, n // 3, n // 2, n)
        ]
        cold = []
        for box in grid:
            cold_table()
            cold.append(count_partitions(*box))
        cold_table()
        for n in range(240, 99, -1):
            count_partitions(n, n // 2, n // 2)
        for n in range(60, 241, 30):
            for cap, slots in ((n, 3), (7, n), (n // 4, n // 3), (n // 3, n // 4)):
                count_partitions(n, cap, slots)
        assert [count_partitions(*box) for box in grid] == cold

    def test_benchmark_boxes_rows_and_calls(self, monkeypatch, cold_table):
        # the boxes (n, n/2, n/2) are loose: counting and sampling them store
        # the 240 rows (u, u) of P and 120 rows of Q, no row with slots < rem,
        # and never call the row recurrence
        calls = []
        table_fn = hookbound.partitions._table

        def counted(*args):
            calls.append(args)
            return table_fn(*args)

        monkeypatch.setattr(hookbound.partitions, "_table", counted)
        table = hookbound.partitions._count
        for n in range(100, 241):
            count_partitions(n, n // 2, n // 2)
            sample_partition(n, n // 2, n // 2, seed=n)
        assert calls == []
        assert table.cache_info().currsize == 240
        assert all(table(u, u) is hookbound.partitions._p_rows[u] for u in range(1, 241))
        assert [len(row) for row in hookbound.partitions._p_rows] == list(range(1, 242))
        assert [len(row) for row in hookbound.partitions._q_rows] == list(range(1, 121))

    def test_threads_share_the_table(self, cold_table):
        # rows are extended in place; with a tiny switch interval, threads
        # that filled the same rows or grew the triangles without the lock
        # would append twice
        boxes = [(n, n // 2 + k, n // 2 - k) for n in range(150, 181, 10) for k in (0, 3)]
        results: dict = {}

        def work(tid):
            results[tid] = [count_partitions(*box) for box in boxes]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        cold_table()
        expected = [count_partitions(*box) for box in boxes]
        assert all(results[t] == expected for t in range(4))


class TestSampling:
    def test_forced_unique(self):
        assert sample_partition(6, 2, 3, seed=123) == Partition((2, 2, 2))

    def test_deterministic(self):
        a = sample_partition(10, 10, 10, seed=7)
        b = sample_partition(10, 10, 10, seed=7)
        assert a == b

    def test_empty_space(self):
        with pytest.raises(EmptySampleSpaceError):
            sample_partition(10, 2, 3, seed=1)

    def test_respects_bounds(self):
        for seed in range(25):
            p = sample_partition(30, 7, 6, seed=seed)
            assert p.n == 30 and p.parts[0] <= 7 and len(p.parts) <= 6

    def test_unranking_reproduces_enumeration_order(self):
        # structural uniformity: unrank is a bijection matching the
        # reverse-lexicographic enumeration, rank by rank, on every box up to
        # n = 12; loose walks bisect rows built on the spot, tight ones rows
        # of the table
        for n in range(1, 13):
            for cap in range(1, n + 1):
                for slots in range(1, n + 1):
                    total = count_partitions(n, cap, slots)
                    unranked = [unrank_partition(n, cap, slots, r) for r in range(total)]
                    assert unranked == list(enumerate_partitions(n, cap, slots)), (n, cap, slots)

    def test_pinned_seed(self):
        # recorded from the sum-recurrence table; the row table must keep it
        assert sample_partition(200, 100, 100, 12345).parts == (
            24, 20, 19, 13, 12, 12, 12, 10, 8, 6, 6, 6, 5, 5, 5, 4, 4, 4, 4, 4,
            3, 3, 3, 3, 3, 2,
        )

    def test_unrank_out_of_range(self):
        with pytest.raises(HookBoundError):
            unrank_partition(5, 5, 5, 7)

    def test_uniform_chi_square_against_count_table(self):
        # Exact-uniform check: bin draws by first part and compare against
        # exact DP probabilities; with a fixed seed the outcome is frozen.
        n, cap, slots, draws = 30, 15, 15, 50_000
        total = count_partitions(n, cap, slots)
        expected = {
            first: count_partitions(n - first, min(first, n - first) or 1, slots - 1)
            if n > first
            else 1
            for first in range(2, cap + 1)
        }
        observed = dict.fromkeys(expected, 0)
        for i in range(draws):
            p = sample_partition(n, cap, slots, seed=1_000_003 * 11 + i)
            observed[p.parts[0]] += 1
        for first, cnt in expected.items():
            prob = cnt / total
            mean = draws * prob
            sigma = (draws * prob * (1 - prob)) ** 0.5
            assert abs(observed[first] - mean) <= 4 * sigma + 1e-9, (
                first, observed[first], mean, sigma,
            )


class TestRationalText:
    def test_parse_forms(self):
        assert parse_rational("11/10") == Fraction(11, 10)
        assert parse_rational("3") == Fraction(3)
        assert parse_rational("-2/4") == Fraction(-1, 2)

    def test_rejects_floats(self):
        with pytest.raises(HookBoundError):
            parse_rational("1.5")

    @pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0"])
    def test_zero_denominator_is_named(self, text):
        with pytest.raises(HookBoundError, match=f"cannot parse rational '{text}'"):
            parse_rational(text)

    def test_format(self):
        assert format_rational(Fraction(11, 10)) == "11/10"
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(Fraction(-7, 3)) == "-7/3"

    @pytest.mark.parametrize(
        "value, text",
        [(0, "0"), (7, "7"), (-7, "-7"), (10**40, "1" + "0" * 40), (True, "1"), (False, "0")],
    )
    def test_format_int(self, value, text):
        assert format_rational(value) == text == format_rational(Fraction(value))

    def test_int_formats_without_a_fraction(self, monkeypatch):
        def no_fraction(*args):
            raise AssertionError("an int went through Fraction")

        monkeypatch.setattr(hookbound.partitions, "Fraction", no_fraction)
        assert format_rational(12) == "12" and format_rational(-3) == "-3"

    @given(st.integers(-999, 999), st.integers(1, 999))
    def test_roundtrip(self, p, q):
        fr = Fraction(p, q)
        assert parse_rational(format_rational(fr)) == fr


@given(partitions())
def test_conjugate_involution_fuzz(p):
    assert p.conjugate().conjugate() == p


@given(partitions())
def test_diagonal_is_largest_square_fuzz(p):
    d = p.diagonal()
    if d:
        assert p.contains(Partition((d,) * d))
    assert not p.contains(Partition((d + 1,) * (d + 1)))
