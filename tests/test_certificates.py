import json
import math
import warnings
from fractions import Fraction

import pytest

from hookbound.certificates import (
    FAIL,
    MARGINAL,
    MODE_EXACT,
    MODE_LOG,
    PASS,
    certificate_from_json,
    exact_bit_budget,
    exact_power_ge,
    log_fraction,
    make_certificate,
    power_compare_bits,
    revalidate,
    verdict_from_logs,
)


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

    def test_bit_estimate_scales_with_exponent(self):
        small = power_compare_bits(Fraction(11, 10), Fraction(10), 100)
        big = power_compare_bits(Fraction(11, 10), Fraction(10000), 100)
        assert big > small


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

    def test_revalidate_rejects_missing_field(self):
        data = self._cert(True).to_json_dict()
        del data["mode"]
        assert not revalidate(data)

    def test_marginal_verdict_roundtrip(self):
        cert = make_certificate("demo", {}, None, 5.0, 5.0 + 1e-12, None)
        assert cert.verdict == MARGINAL
        assert revalidate(cert.to_json())


def test_log_fraction_matches_math_log():
    assert log_fraction(Fraction(3, 7)) == pytest.approx(math.log(3 / 7))
    with pytest.raises(ValueError):
        log_fraction(Fraction(0))
