import gc
import json
import math
import random
import time
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hookbound.bounds import (
    general_bound,
    overexponential_bound,
    rectangle_bound,
    strict_bound,
    strip_bound,
    theorem_classify,
)
from hookbound.celltyping import cell_typing
from hookbound.certificates import (
    FAIL,
    MARGINAL,
    MODE_EXACT,
    MODE_LOG,
    PASS,
    BoundCertificate,
    CellTable,
    _log2_power,
    certificate_from_json,
    exact_bit_budget,
    exact_power_ge,
    log2_bracket,
    log_fraction,
    make_certificate,
    power_compare_bits,
    powers_ge,
    revalidate,
    verdict_from_logs,
)
from hookbound.degrees import DegreeBall, degree, degree_ball
from hookbound.families import balanced, staircase
from hookbound.partitions import Partition

from diagrams import cells_of


class TestExactPower:
    def test_integer_exponent(self):
        assert exact_power_ge(Fraction(8), Fraction(2), Fraction(3))
        assert not exact_power_ge(Fraction(7), Fraction(2), Fraction(3))

    def test_fractional_exponent(self):
        # 3 >= 2^(3/2) iff 9 >= 8
        assert exact_power_ge(Fraction(3), Fraction(2), Fraction(3, 2))
        assert not exact_power_ge(Fraction(2), Fraction(2), Fraction(3, 2))

    def test_negative_exponent(self):
        assert exact_power_ge(Fraction(1), Fraction(11, 10), Fraction(-5))

    @given(
        st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
        st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
        st.fractions(min_value=-30, max_value=30, max_denominator=6),
    )
    def test_matches_plain_powers(self, lhs, base, exponent):
        u, v = exponent.numerator, exponent.denominator
        assert exact_power_ge(lhs, base, exponent) == (lhs**v >= base**u)

    @staticmethod
    def _count_powers(monkeypatch):
        calls = []
        real_pow = Fraction.__pow__

        def counted_pow(a, b, *rest):
            calls.append(b)
            return real_pow(a, b, *rest)

        monkeypatch.setattr(Fraction, "__pow__", counted_pow)
        return calls

    @pytest.mark.parametrize(
        "base", [Fraction(2), Fraction(3, 2), Fraction(11, 10), Fraction(7, 9)]
    )
    @pytest.mark.parametrize("k", [1, 5, -64, 1001])
    def test_exact_tie_reaches_the_powers(self, monkeypatch, base, k):
        power = base**k
        calls = self._count_powers(monkeypatch)
        assert exact_power_ge(power, base, Fraction(k))
        assert calls == [1, k]

    @pytest.mark.parametrize(
        "base, k",
        [
            (Fraction(2), 1001),
            (Fraction(3, 2), 1001),
            (Fraction(11, 10), 1001),
            (Fraction(7, 9), -1001),
        ],
    )
    def test_power_plus_or_minus_one_reaches_the_powers(self, monkeypatch, base, k):
        power = base**k
        calls = self._count_powers(monkeypatch)
        assert exact_power_ge(power + 1, base, Fraction(k))
        assert not exact_power_ge(power - 1, base, Fraction(k))
        assert calls == [1, k, 1, k]

    def test_separated_huge_exponent_needs_no_power(self):
        start = time.perf_counter()
        assert not exact_power_ge(Fraction(10**100), Fraction(11, 10), Fraction(10**12))
        assert exact_power_ge(Fraction(10**100), Fraction(11, 10), Fraction(-(10**12)))
        assert exact_power_ge(Fraction(3, 2), Fraction(2), Fraction(-(10**12), 7))
        assert time.perf_counter() - start < 1.0

    def test_bit_estimate_scales_with_exponent(self):
        f = 2**99  # 100 bits
        small = power_compare_bits(((f, 1),), ((Fraction(11, 10), 10),))
        big = power_compare_bits(((f, 1),), ((Fraction(11, 10), 10000),))
        assert big > small


# degrees past the exact-build size, whose balls have a radius, and small
# ones, whose balls are exact
BALL_SHAPES = [
    staircase(2000, Fraction(11, 10)), balanced(1800), Partition((60,) * 30),
    Partition((5, 3, 1)),
]
_BALLS = {}
_DEGREES = {}  # id of a ball in _BALLS -> its exact degree


def _ball(i: int):
    """``(ball, degree)`` of ``BALL_SHAPES[i]``, built once."""
    if i not in _BALLS:
        ball, f = _BALLS[i] = degree_ball(BALL_SHAPES[i]), degree(BALL_SHAPES[i])
        _DEGREES[id(ball)] = f
    return _BALLS[i]


_RATIONALS = st.one_of(
    st.integers(min_value=1, max_value=10**40),
    st.fractions(min_value=Fraction(1, 10**9), max_value=10**9, max_denominator=10**9),
)
_EXPONENTS = st.integers(min_value=-30, max_value=30)
_TERMS = st.lists(
    st.one_of(
        st.tuples(_RATIONALS, _EXPONENTS),
        st.tuples(
            st.integers(min_value=0, max_value=len(BALL_SHAPES) - 1).map(lambda i: _ball(i)[0]),
            st.integers(min_value=-3, max_value=3),
        ),
    ),
    max_size=3,
)


def _value(terms) -> Fraction:
    """``prod x**k`` as a ``Fraction``, each ball read as its exact degree."""
    out = Fraction(1)
    for x, k in terms:
        if isinstance(x, DegreeBall):
            x = _DEGREES[id(x)]
        out *= Fraction(x) ** k
    return out


def _brackets_overlap(lhs, rhs) -> bool:
    """Whether the summed brackets of ``log2(lhs / rhs)`` hold 0."""
    brackets = [_log2_power(x, k) for x, k in lhs] + [_log2_power(y, -l) for y, l in rhs]
    return math.fsum(lo for lo, _ in brackets) <= 0.0 <= math.fsum(hi for _, hi in brackets)


class TestPowersGe:
    """``powers_ge`` against direct ``Fraction`` products."""

    @settings(max_examples=300, deadline=None)
    @given(_TERMS, _TERMS, st.one_of(st.none(), st.integers(0, 4000)), st.data())
    def test_matches_fraction_products(self, lhs, rhs, budget, data):
        if data.draw(st.booleans(), label="tie"):
            # an exact tie, or one nudged by 2**-60: the right side holds the
            # left side's terms, shuffled, with each exponent split in two
            rhs = []
            for x, k in lhs:
                part = data.draw(st.integers(min_value=min(k, 0), max_value=max(k, 0)))
                rhs += [(x, part), (x, k - part)]
            nudge = data.draw(st.sampled_from([1, 2**60 + 1, 2**60 - 1]), label="nudge")
            rhs.append((Fraction(nudge, 2**60), 1))
            rhs = data.draw(st.permutations(rhs), label="rhs")
        expected = _value(lhs) >= _value(rhs)
        got = powers_ge(lhs, rhs, budget)
        if got is None:
            assert budget is not None
            assert _brackets_overlap(lhs, rhs)
            assert power_compare_bits(lhs, rhs) > budget
        else:
            assert got is expected

    @pytest.mark.parametrize("i", range(len(BALL_SHAPES)))
    @pytest.mark.parametrize("k", [1, -2])
    def test_exact_tie_with_a_ball(self, i, k):
        ball, f = _ball(i)
        for budget in (None, 1 << 20):
            assert powers_ge(((ball, k),), ((f, k),), budget) is True
            assert powers_ge(((ball, k), (2, 1)), ((f, k),), budget) is True
            assert powers_ge(((f, k),), ((ball, k), (2, 1)), budget) is False
        assert powers_ge(((ball, k),), ((f, k),), 0) is None

    def test_ten_thousand_terms(self):
        # each end's sum is rounded once, whatever the number of terms: near
        # ties over 10,000 terms a side are decided as the exact products are
        rng = random.Random(11)
        lhs = [(rng.randrange(1, 1000), 1) for _ in range(5_000)]
        lhs += [(Fraction(i + 1, i), rng.choice((1, -1))) for i in range(1, 5_001)]
        tie = rng.sample(lhs, len(lhs))
        x, k = tie[0]
        value = _value(lhs)
        for rhs in (
            tie,
            [(x + 1, k)] + tie[1:],
            [(Fraction(x) / 2, k)] + tie[1:],
            [(Fraction(1001, 1000), 1)] + tie,
            [(Fraction(999, 1000), 1)] + tie,
        ):
            assert len(rhs) >= 10_000
            rhs_value = _value(rhs)
            assert powers_ge(lhs, rhs, None) is (value >= rhs_value)
            assert powers_ge(rhs, lhs, None) is (rhs_value >= value)

    def test_budget_is_charged_only_on_overlap(self, monkeypatch):
        # disjoint brackets decide with any budget, the default one included
        monkeypatch.setenv("HOOKBOUND_EXACT_BITS", "0")
        assert powers_ge(((Fraction(10**100), 1),), ((Fraction(11, 10), 10**12),)) is False
        assert powers_ge(((2, 10),), ((1000, 1),), 0) is True
        assert powers_ge(((2, 10),), ((1024, 1),)) is None
        monkeypatch.delenv("HOOKBOUND_EXACT_BITS")
        assert powers_ge(((2, 10),), ((1024, 1),)) is True


class TestLog2Bracket:
    def test_random_big_integers(self):
        rng = random.Random(7)
        for _ in range(500):
            x = rng.getrandbits(rng.randrange(1, 5000)) | 1
            lo, hi = log2_bracket(x)
            # bit_length - 1 <= log2(x) < bit_length
            assert lo < x.bit_length() and hi >= x.bit_length() - 1
            assert lo <= math.log2(x) <= hi
            assert hi - lo <= 2.0**-38 * (abs(math.log2(x)) + 1)

    @pytest.mark.parametrize("k", [0, 1, 52, 53, 54, 200, 4321])
    def test_powers_of_two_and_neighbours(self, k):
        lo, hi = log2_bracket(2**k)
        assert lo <= k <= hi
        for x in (2**k + 1, 2**(k + 1) - 1):
            lo, hi = log2_bracket(x)
            assert lo < k + 1 and hi >= k


class TestVerdictRules:
    def test_log_marginal_band(self):
        assert verdict_from_logs(1.0, 1.0 + 1e-12, MODE_LOG) == MARGINAL
        assert verdict_from_logs(2.0, 1.0, MODE_LOG) == PASS
        assert verdict_from_logs(1.0, 2.0, MODE_LOG) == FAIL

    def test_exact_has_no_band(self):
        assert verdict_from_logs(1.0, 1.0 + 1e-12, MODE_EXACT) == FAIL
        assert verdict_from_logs(1.0, 1.0, MODE_EXACT) == PASS


class TestBudget:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("HOOKBOUND_EXACT_BITS", raising=False)
        assert exact_bit_budget() == 1 << 20

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("HOOKBOUND_EXACT_BITS", "4096")
        assert exact_bit_budget() == 4096

    def test_bad_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("HOOKBOUND_EXACT_BITS", "zap")
        with pytest.warns(RuntimeWarning):
            assert exact_bit_budget() == 1 << 20

    def test_bad_env_warns_with_name_and_value(self, monkeypatch):
        monkeypatch.setenv("HOOKBOUND_EXACT_BITS", "zap")
        with pytest.warns(RuntimeWarning) as record:
            assert exact_bit_budget() == 1 << 20
        assert len(record) == 1
        assert "HOOKBOUND_EXACT_BITS" in str(record[0].message)
        assert "'zap'" in str(record[0].message)

    @pytest.mark.parametrize("value", ["4096", None], ids=["set", "unset"])
    def test_valid_env_does_not_warn(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("HOOKBOUND_EXACT_BITS", raising=False)
        else:
            monkeypatch.setenv("HOOKBOUND_EXACT_BITS", value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact_bit_budget()


class TestSerialization:
    def _cert(self, exact, lhs=10.0, rhs=3.0):
        if exact is False:
            lhs, rhs = rhs, lhs  # keep logs consistent with the exact verdict
        return make_certificate(
            "demo",
            {"alpha": Fraction(11, 10), "n": 42},
            Fraction(7, 2),
            lhs,
            rhs,
            exact,
            aux={"note": "x", "frac": Fraction(1, 3)},
        )

    def test_roundtrip(self):
        cert = self._cert(True)
        data = json.loads(cert.to_json())
        back = certificate_from_json(data)
        assert back.bound_name == "demo"
        assert back.parameters["alpha"] == Fraction(11, 10)
        assert back.exponent == Fraction(7, 2)
        assert back.verdict == PASS and back.mode == MODE_EXACT
        assert back.margin == pytest.approx(7.0)

    def test_contract_fields_present(self):
        data = self._cert(None).to_json_dict()
        for key in ("bound_name", "parameters", "exponent", "lhs_log", "rhs_log",
                    "margin", "mode", "verdict"):
            assert key in data
        assert data["parameters"]["alpha"] == "11/10"
        assert data["exponent"] == "7/2"
        assert data["aux"]["frac"] == "1/3"

    def test_aux_values_keep_their_json_types(self):
        aux = {
            "flag": True, "off": False, "count": 3, "ratio": 0.5, "none": None,
            "frac": Fraction(1, 3), "nested": [Fraction(2), (1, True), {"k": Fraction(3, 2)}],
        }
        data = make_certificate("demo", {}, None, 5.0, 1.0, None, aux=aux).to_json_dict()
        assert data["aux"]["flag"] is True and data["aux"]["off"] is False
        assert json.dumps(data["aux"]) == (
            '{"flag": true, "off": false, "count": 3, "ratio": 0.5, "none": null, '
            '"frac": "1/3", "nested": ["2", [1, true], {"k": "3/2"}]}'
        )

    def test_rows_of_scalars_are_copied(self):
        cells = [[1, 2, 3], (4, True, None), [], [0.5, "x"]]
        aux = {"mu_certificate": {"cells": cells}, "mixed": [[1, Fraction(1, 2)], [2]]}
        data = make_certificate("demo", {}, None, 5.0, 1.0, None, aux=aux).to_json_dict()
        out = data["aux"]["mu_certificate"]["cells"]
        assert out == [[1, 2, 3], [4, True, None], [], [0.5, "x"]]
        assert all(type(row) is list for row in out)
        assert all(a is not b for a, b in zip(out, cells))
        assert data["aux"]["mixed"] == [[1, "1/2"], [2]]

    def test_revalidate_accepts_own_output(self):
        for exact in (True, False, None):
            assert revalidate(self._cert(exact).to_json())

    def test_revalidate_rejects_flipped_verdict(self):
        data = self._cert(True).to_json_dict()
        data["verdict"] = FAIL
        assert not revalidate(data)

    def test_revalidate_rejects_bad_margin(self):
        data = self._cert(True).to_json_dict()
        data["margin"] = 123.0
        assert not revalidate(data)

    def test_revalidate_rejects_a_margin_one_ulp_off(self):
        # JSON round-trips floats exactly, so the stored margin is lhs_log - rhs_log
        data = json.loads(self._cert(True).to_json())
        assert revalidate(data)
        data["margin"] = math.nextafter(data["margin"], math.inf)
        assert not revalidate(data)

    def test_revalidate_rejects_missing_field(self):
        data = self._cert(True).to_json_dict()
        del data["mode"]
        assert not revalidate(data)

    @pytest.mark.parametrize("mode", ["bogus", "", None, "EXACT"])
    def test_revalidate_rejects_an_unknown_mode(self, mode):
        # the logs imply the stored PASS, so only the mode is wrong
        data = self._cert(True).to_json_dict()
        assert revalidate(data)
        data["mode"] = mode
        assert revalidate(data) is False
        assert revalidate(json.dumps(data)) is False

    @pytest.mark.parametrize("text", ["3", "null", "[]", '"PASS"', "true"])
    def test_revalidate_rejects_a_document_that_is_not_an_object(self, text):
        assert revalidate(text) is False

    def test_revalidate_rejects_a_list(self):
        assert revalidate([self._cert(True).to_json_dict()]) is False

    @pytest.mark.parametrize("field", ["lhs_log", "rhs_log", "margin"])
    @pytest.mark.parametrize("value", ["10.0", None, [10.0], {"log": 10.0}])
    def test_revalidate_rejects_logs_that_are_not_numbers(self, field, value):
        data = self._cert(True).to_json_dict()
        data[field] = value
        assert revalidate(data) is False
        assert revalidate(json.dumps(data)) is False

    def test_revalidate_rejects_boolean_logs(self):
        # JSON true and false are not numbers, though Python's bool is an int
        data = self._cert(True).to_json_dict()
        data.update(lhs_log=True, rhs_log=False, margin=True)
        assert revalidate(data) is False

    def test_revalidate_raises_on_text_that_is_not_json(self):
        with pytest.raises(json.JSONDecodeError):
            revalidate("{not json")

    def test_int_parameters_are_stored_as_given(self):
        lam = Partition((9, 6, 4, 2, 2, 1))
        for cert in (
            strip_bound(lam, 4, 3, Fraction(2)),
            rectangle_bound(2, 3),
            theorem_classify(Partition((500,) * 20), Fraction(11, 10), Fraction(21, 20)),
        ):
            assert type(cert.parameters["n"]) is int
            assert type(cert.exponent) is Fraction
            back = certificate_from_json(cert.to_json())
            assert back == cert
            assert back.to_json() == cert.to_json()

    def test_marginal_verdict_roundtrip(self):
        cert = make_certificate("demo", {}, None, 5.0, 5.0 + 1e-12, None)
        assert cert.verdict == MARGINAL
        assert revalidate(cert.to_json())


def test_log_fraction_matches_math_log():
    assert log_fraction(Fraction(3, 7)) == pytest.approx(math.log(3 / 7))
    with pytest.raises(ValueError):
        log_fraction(Fraction(0))


STAIR = Partition(tuple(range(20, 10, -1)))  # (20,...,11) |- 155, delta = 10
ALPHA = Fraction(11, 10)


class TestCellTable:
    def test_rows_and_length_match_the_typing(self):
        ct = cell_typing(STAIR, ALPHA)
        table = ct.table
        assert len(table) == STAIR.n
        assert all(type(row) is tuple for row in table)
        assert [row[:2] for row in table] == cells_of(STAIR)
        hooks = STAIR.hook_grid()
        assert [row[5] for row in table] == [hooks[row[:2]] for row in table]

    def test_equal_to_the_typing_cells_both_ways(self):
        rows = tuple(cell_typing(STAIR, ALPHA).table)
        cert = strict_bound(STAIR, ALPHA)
        assert cert.cells == rows and rows == cert.cells
        assert cert.cells == list(map(list, rows))
        assert cert.cells != rows[:-1] and rows[:-1] != cert.cells
        bumped = rows[:-1] + (rows[-1][:5] + (2,),)
        assert cert.cells != bumped and bumped != cert.cells
        assert cert.cells != 155

    def test_typed_columns(self):
        table = strict_bound(STAIR, ALPHA).cells
        assert type(table) is CellTable
        assert table.parts == STAIR.parts
        assert table.types.typecode == "b"
        assert {col.typecode for col in (table.colors, table.numbers, table.hooks)} == {"h"}
        ct = cell_typing(STAIR, ALPHA)
        columns = list(zip(*ct.table))[2:]
        assert (tuple(table.types), tuple(table.colors), tuple(table.numbers),
                tuple(table.hooks)) == tuple(columns)
        assert ct._replace(table=CellTable(STAIR.parts, *columns)) == ct

    @pytest.mark.parametrize("n, code", [(2**15 - 1, "h"), (2**15, "i")])
    def test_columns_take_the_narrowest_lane_that_holds_n(self, n, code):
        # one row of n cells; the step to 'q' at 2**31 is lane_code's alone
        table = CellTable((n,), bytes(n), range(n), range(1, n + 1), range(n, 0, -1))
        assert table.types.typecode == "b"
        assert [col.typecode for col in (table.colors, table.numbers, table.hooks)] == [code] * 3
        assert (table.numbers[-1], table.hooks[0]) == (n, n)

    def test_from_rows_round_trips(self):
        table = cell_typing(STAIR, ALPHA).table
        assert CellTable.from_rows(list(map(list, table))) == table
        assert CellTable.from_rows([]) == []

    def test_from_rows_rejects_shuffled_rows(self):
        rows = list(cell_typing(STAIR, ALPHA).table)
        rows[3], rows[4] = rows[4], rows[3]
        with pytest.raises(ValueError, match=r"cell 3 \[1, 5, "):
            CellTable.from_rows(rows)

    @pytest.mark.parametrize(
        "rows, index",
        [
            ([(2, 1, 1, 1, 1, 1)], 0),  # starts past row 1
            ([(1, 2, 1, 1, 1, 1)], 0),  # starts past column 1
            ([(1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 2, 1)], 1),  # repeats a cell
            ([(1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 2, 1), (2, 2, 1, 1, 3, 1)], 2),  # longer row
            ([(1, 1, 1, 1, 1, 1), (1, 2, 1, 1, 2)], 1),  # five entries
        ],
    )
    def test_from_rows_names_the_first_bad_row(self, rows, index):
        with pytest.raises(ValueError, match=f"cell {index} "):
            CellTable.from_rows(rows)

    @pytest.mark.parametrize(
        "column, entry",
        # a one-cell table takes the 'h' lane, [-2**15, 2**15)
        [(2, 128), (2, 1.5), (3, 2**15), (4, -(2**15) - 1), (5, 2**15), (5, 2**63), (5, "1")],
    )
    def test_from_rows_rejects_entries_outside_the_columns(self, column, entry):
        row = [1] * 6
        row[column] = entry
        with pytest.raises(ValueError, match="integer range"):
            CellTable.from_rows([row])


class TestNestedCertificates:
    """Sub-certificates stay objects and reload to the same bytes."""

    @pytest.fixture(scope="class")
    def general(self):
        return general_bound(staircase(2000, ALPHA), ALPHA)

    @pytest.fixture(scope="class")
    def theorem_m3(self):
        return theorem_classify(Partition((600,) * 20), ALPHA, Fraction(21, 20))

    def test_mu_certificate_is_an_object(self, general):
        mu_cert = general.aux["mu_certificate"]
        assert type(mu_cert) is BoundCertificate
        assert mu_cert.bound_name == "strict" and type(mu_cert.cells) is CellTable
        assert general.to_json_dict()["aux"]["mu_certificate"] == mu_cert.to_json_dict()
        embedded = json.loads(general.to_json())["aux"]["mu_certificate"]
        assert embedded == json.loads(json.dumps(mu_cert.to_json_dict()))

    @pytest.mark.parametrize("indent", [2, None])
    def test_general_reloads_byte_for_byte(self, general, indent):
        text = general.to_json(indent)
        back = certificate_from_json(text)
        assert back.to_json(indent) == text
        assert type(back.aux["mu_certificate"]) is BoundCertificate
        assert back.aux["mu_certificate"].cells == general.aux["mu_certificate"].cells

    @pytest.mark.parametrize("indent", [2, None])
    def test_m3_theorem_reloads_byte_for_byte(self, theorem_m3, indent):
        assert theorem_m3.aux["class"] == "M3"
        text = theorem_m3.to_json(indent)
        back = certificate_from_json(text)
        assert back.to_json(indent) == text
        sub = back.aux["sub_certificate"]
        assert type(sub) is BoundCertificate and sub.bound_name == "general"
        assert type(sub.aux["mu_certificate"]) is BoundCertificate
        assert type(sub.aux["mu_certificate"].cells) is CellTable

    def test_general_reloads_equal(self, general, theorem_m3):
        # the strict certificate's sharp exponent reloads as a Fraction, not
        # as its text, so the reload equals the certificate written
        sharp = general.aux["mu_certificate"].aux["sharp_exponent"]
        assert type(sharp) is Fraction
        for cert in (general, theorem_m3):
            back = certificate_from_json(cert.to_json())
            assert back == cert
            assert back.to_json() == cert.to_json()
        back = certificate_from_json(general.to_json())
        assert back.aux["mu_certificate"].aux["sharp_exponent"] == sharp
        assert type(back.aux["mu_certificate"].aux["sharp_exponent"]) is Fraction

    def test_revalidate_accepts_an_object(self, general, theorem_m3):
        assert revalidate(general) and revalidate(general.aux["mu_certificate"])
        assert revalidate(theorem_m3.aux["sub_certificate"])

    def test_aux_dict_missing_a_contract_field_stays_a_dict(self):
        data = make_certificate("demo", {}, None, 5.0, 1.0, True).to_json_dict()
        partial = dict(data, aux={})
        del partial["verdict"]
        back = certificate_from_json(dict(data, aux={"nested": partial}))
        assert back.aux["nested"] == partial

    def test_retained_size_per_cell(self, cold_degrees):
        # the certificate keeps its cells in typed columns, about 25 bytes
        # a cell; 6-tuples of ints took about 120
        lam = staircase(6000, ALPHA)
        general_bound(lam, ALPHA)  # fills the diagram's own caches
        cold_degrees()
        gc.collect()
        tracemalloc.start()
        try:
            cert = general_bound(lam, ALPHA)
            cold_degrees()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        mu_cells = len(cert.aux["mu_certificate"].cells)
        assert mu_cells == Partition.parse(cert.aux["mu"]).n
        assert retained <= 40 * mu_cells


# one call of each public bound, by the bound name its certificate records
PUBLIC_BOUNDS = {
    "strip": lambda: strip_bound(Partition((9, 6, 4, 2, 2, 1)), 4, 3, Fraction(2)),
    "rectangle": lambda: rectangle_bound(5, 3),
    "overexponential": lambda: overexponential_bound(
        Partition((6,) * 6), Fraction(1, 2), Fraction(3, 2)
    ),
    "strict": lambda: strict_bound(STAIR, ALPHA),
    "general": lambda: general_bound(staircase(2000, ALPHA), ALPHA),
    "theorem": lambda: theorem_classify(balanced(400), Fraction(2), Fraction(3, 2)),
}


@pytest.mark.parametrize("name", PUBLIC_BOUNDS)
def test_public_bound_returns_a_reloadable_certificate(name):
    cert = PUBLIC_BOUNDS[name]()
    assert type(cert) is BoundCertificate and cert.bound_name == name
    text = cert.to_json()
    assert certificate_from_json(text).to_json() == text
