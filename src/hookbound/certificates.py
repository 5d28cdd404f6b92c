"""Bound certificates: exact or log-domain comparisons with JSON serialization.

A certificate records one inequality "lhs >= rhs" about a character degree.
When the cleared-denominator big-integer comparison fits the configured bit
budget the verdict is decided exactly and carries no tolerance; otherwise
the comparison runs in the log domain where verdicts within a 1e-9 relative
band are MARGINAL.  lhs_log/rhs_log/margin are always recorded so a reader
can re-derive the verdict from the serialized object.

JSON field names (bound_name, parameters, exponent, lhs_log, rhs_log,
margin, mode, verdict, and cells for typing-backed certificates) are a
stable contract shared with the CLI.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .partitions import format_rational, parse_rational

PASS = "PASS"
FAIL = "FAIL"
MARGINAL = "MARGINAL"

MODE_EXACT = "exact"
MODE_LOG = "log-domain"

LOG_REL_TOL = 1e-9

_BUDGET_ENV = "HOOKBOUND_EXACT_BITS"
_DEFAULT_BUDGET = 1 << 20


def exact_bit_budget() -> int:
    """Bit budget for exact-mode comparisons, overridable via the environment."""
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        return _DEFAULT_BUDGET


def fraction_bits(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def log_fraction(x: Fraction) -> float:
    """Natural log of a positive rational, safe for huge operands."""
    if x <= 0:
        raise ValueError("log of non-positive rational")
    return math.log(x.numerator) - math.log(x.denominator)


def power_compare_bits(base: Fraction, exponent: Fraction, lhs_bits: int) -> int:
    """Upper estimate of the bits needed to decide lhs >= base**exponent exactly."""
    u, v = exponent.numerator, exponent.denominator
    return v * lhs_bits + abs(u) * fraction_bits(base)


def exact_power_ge(lhs: Fraction, base: Fraction, exponent: Fraction) -> bool:
    """Decide lhs >= base**exponent exactly (lhs > 0, base > 0).

    With exponent u/v in lowest terms this is lhs**v >= base**u, an exact
    big-rational comparison.
    """
    u, v = exponent.numerator, exponent.denominator
    return lhs**v >= base**u


def verdict_from_logs(lhs_log: float, rhs_log: float, mode: str) -> str:
    """Verdict implied by the recorded logs alone (used for re-validation)."""
    margin = lhs_log - rhs_log
    scale = max(abs(lhs_log), abs(rhs_log))
    if mode == MODE_LOG and abs(margin) <= LOG_REL_TOL * scale:
        return MARGINAL
    return PASS if margin >= 0 else FAIL


@dataclass(frozen=True)
class BoundCertificate:
    bound_name: str
    parameters: dict[str, Fraction]
    exponent: Fraction | None
    lhs_log: float
    rhs_log: float
    mode: str
    verdict: str
    aux: dict = field(default_factory=dict)
    cells: tuple | None = None

    @property
    def margin(self) -> float:
        return self.lhs_log - self.rhs_log

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_json_dict(self) -> dict:
        out = {
            "bound_name": self.bound_name,
            "parameters": {k: format_rational(v) for k, v in self.parameters.items()},
            "exponent": None if self.exponent is None else format_rational(self.exponent),
            "lhs_log": self.lhs_log,
            "rhs_log": self.rhs_log,
            "margin": self.margin,
            "mode": self.mode,
            "verdict": self.verdict,
            "aux": _jsonify(self.aux),
        }
        if "class" in self.aux:
            out["class"] = self.aux["class"]
        if self.cells is not None:
            out["cells"] = [list(c) for c in self.cells]
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def _jsonify(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def make_certificate(
    bound_name: str,
    parameters: dict[str, Fraction],
    exponent: Fraction | None,
    lhs_log: float,
    rhs_log: float,
    exact_result: bool | None,
    aux: dict | None = None,
    cells: tuple | None = None,
) -> BoundCertificate:
    """Assemble a certificate; ``exact_result`` of None means log-domain mode."""
    if exact_result is None:
        mode = MODE_LOG
        verdict = verdict_from_logs(lhs_log, rhs_log, mode)
    else:
        mode = MODE_EXACT
        verdict = PASS if exact_result else FAIL
    return BoundCertificate(
        bound_name=bound_name,
        parameters={k: Fraction(v) for k, v in parameters.items()},
        exponent=None if exponent is None else Fraction(exponent),
        lhs_log=lhs_log,
        rhs_log=rhs_log,
        mode=mode,
        verdict=verdict,
        aux=aux or {},
        cells=cells,
    )


def revalidate(obj: dict | str) -> bool:
    """Re-read a serialized certificate and confirm the verdict follows from it.

    The stored margin must match lhs_log - rhs_log, and the verdict must be
    the one implied by the logs.  In exact mode a stored PASS/FAIL is also
    accepted when the logs sit inside the float-indistinguishable band.
    """
    data = json.loads(obj) if isinstance(obj, str) else obj
    for key in ("bound_name", "parameters", "exponent", "lhs_log", "rhs_log",
                "margin", "mode", "verdict"):
        if key not in data:
            return False
    lhs, rhs = data["lhs_log"], data["rhs_log"]
    margin = data["margin"]
    if not math.isclose(margin, lhs - rhs, rel_tol=1e-12, abs_tol=1e-12):
        return False
    implied = verdict_from_logs(lhs, rhs, data["mode"])
    if data["verdict"] == implied:
        return True
    if data["mode"] == MODE_EXACT and data["verdict"] in (PASS, FAIL):
        band = LOG_REL_TOL * max(abs(lhs), abs(rhs), 1.0)
        return abs(margin) <= band
    return False


def certificate_from_json(obj: dict | str) -> BoundCertificate:
    data = json.loads(obj) if isinstance(obj, str) else obj
    return BoundCertificate(
        bound_name=data["bound_name"],
        parameters={k: parse_rational(v) for k, v in data["parameters"].items()},
        exponent=None if data["exponent"] is None else parse_rational(data["exponent"]),
        lhs_log=data["lhs_log"],
        rhs_log=data["rhs_log"],
        mode=data["mode"],
        verdict=data["verdict"],
        aux=data.get("aux", {}),
        cells=None if data.get("cells") is None else tuple(tuple(c) for c in data["cells"]),
    )
