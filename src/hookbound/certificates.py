"""Bound certificates: one certified comparison, exact or log-domain, and JSON.

A certificate records one inequality "lhs >= rhs" about a character degree.
Every bound decides it with one routine, ``powers_ge``, which compares
``prod x_i**k_i`` with ``prod y_j**l_j`` over integer, rational and
degree-ball terms.  It first sums certified brackets of ``log2``.
``log2_bracket`` brackets an integer from its bit length and its top 53
bits, with a radius of ``2**-40`` relative to the midpoint (plus
``2**-40``), thousands of times the real rounding error; a degree's
``DegreeBall`` (``degrees``) is bracketed from its two ends, read from the
mantissa and the scale.  Disjoint brackets decide exactly.  Only an
overlap charges the bit budget: within it the exact degrees and powers are
built and compared, and past it the certificate runs in the log domain,
where verdicts within a 1e-9 relative band are MARGINAL.
``exact_power_ge`` is the call with no budget.  lhs_log/rhs_log/margin are
always recorded so a reader can re-derive the verdict from the serialized
object.  The cell typing's aggregate product clause uses the same brackets.

JSON field names (bound_name, parameters, exponent, lhs_log, rhs_log,
margin, mode, verdict, and cells for typing-backed certificates) are a
stable contract shared with the CLI.  The ``cells`` of a typing-backed
certificate are plain ``(row, col, type, color, N, hook)`` tuples, zipped
from the typing's columns, and serialize as ``[row, col, type, color, N,
hook]``.  Tuples are immutable, so ``to_json_dict`` and a nested
certificate's JSON share the rows instead of copying them.  The list
``to_json_dict`` emits is a ``_CellRows``, which encodes as a plain array;
serializing a certificate that nests it copies the list and skips the
per-scalar check other aux rows get.
"""
from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .degrees import DegreeBall
from .partitions import format_rational, parse_rational

# the terms ``(base, exponent)`` of one side of ``powers_ge``
Terms = Sequence[tuple[int | Fraction | DegreeBall, int]]

PASS = "PASS"
FAIL = "FAIL"
MARGINAL = "MARGINAL"

MODE_EXACT = "exact"
MODE_LOG = "log-domain"

LOG_REL_TOL = 1e-9

LOG2_SLACK = 2.0**-40

_BUDGET_ENV = "HOOKBOUND_EXACT_BITS"
_DEFAULT_BUDGET = 1 << 20

# the default ``budget`` of ``powers_ge``: ``exact_bit_budget()``
_FROM_ENV = object()


def exact_bit_budget() -> int:
    """Bit budget for exact-mode comparisons, overridable via the environment.

    A value that is not an integer falls back to the default with a
    ``RuntimeWarning``; the default warning filter shows it once a process.
    """
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        warnings.warn(
            f"{_BUDGET_ENV}={raw!r} is not an integer; using {_DEFAULT_BUDGET}",
            RuntimeWarning,
        )
        return _DEFAULT_BUDGET


def log_fraction(x: Fraction) -> float:
    """Natural log of a positive rational, safe for huge operands."""
    if x <= 0:
        raise ValueError("log of non-positive rational")
    return math.log(x.numerator) - math.log(x.denominator)


def power_compare_bits(lhs: Terms, rhs: Terms) -> int:
    """Upper estimate of the bits ``powers_ge`` builds: ``|k|`` times each base's bits."""
    return sum(
        abs(k) * x.bit_length() if type(x) is DegreeBall
        else abs(k) * (x.numerator.bit_length() + x.denominator.bit_length())
        for x, k in chain(lhs, rhs)
    )


def log2_bracket(x: int, scale: int = 0) -> tuple[float, float]:
    """Certified bracket ``lo <= log2(x * 2**scale) <= hi`` of an integer ``x >= 1``.

    The midpoint is ``log2`` of the top 53 bits of ``x * 2**scale`` (an
    exact float) plus the number of bits below them.  Its error has three
    parts: the dropped bits move the ``log2`` by less than 2**-51,
    ``math.log2`` is off by at most an ulp (2**-52 of its value), and adding
    the shift rounds by 2**-53 of the midpoint.  The radius
    ``(midpoint + 1) * LOG2_SLACK``, with ``LOG2_SLACK = 2**-40``, is
    thousands of times their sum.  ``scale >= 0`` spares building the
    shifted integer; the bracket is the one of ``x << scale``.
    """
    shift = max(x.bit_length() + scale - 53, 0)
    top = x >> shift - scale if shift >= scale else x << scale - shift
    mid = math.log2(top) + shift
    rad = (mid + 1.0) * LOG2_SLACK
    return mid - rad, mid + rad


def _log2_power(x: int | Fraction | DegreeBall, k: int) -> tuple[float, float]:
    """Certified bracket of ``k * log2(x)`` for a rational ``x > 0`` or a degree ball.

    A ball's bracket runs from the lower bracket of its lower end to the
    upper bracket of its upper end.  The subtraction and the product round
    by 2**-53 of their result, far inside the radii of the brackets they
    combine.
    """
    if type(x) is DegreeBall:
        if x.rad:
            lo = log2_bracket(x.m, x.s)[0]
            hi = log2_bracket(x.m + x.rad, x.s)[1]
        else:
            lo, hi = log2_bracket(x.m)
    else:
        num_lo, num_hi = log2_bracket(x.numerator)
        den_lo, den_hi = log2_bracket(x.denominator)
        lo, hi = num_lo - den_hi, num_hi - den_lo
    lo, hi = k * lo, k * hi
    return (lo, hi) if k >= 0 else (hi, lo)


def powers_ge(lhs: Terms, rhs: Terms, budget: int | None = _FROM_ENV) -> bool | None:
    """Decide ``prod x**k >= prod y**l`` over the terms ``(x, k)`` of each side.

    A base is an ``int``, a positive ``Fraction`` or a degree's
    ``DegreeBall``, and an exponent an integer of either sign.  The summed
    brackets of ``_log2_power`` bound ``log2(lhs / rhs)``; each addition
    rounds by 2**-53 of a partial sum, at most the sum of the terms' sizes,
    while their radii add up to 2**-40 of it or more.  A bracket clear of 0
    decides.  Only on an overlap is the bit budget charged: ``None``
    (log-domain) when ``power_compare_bits`` exceeds it, else the exact
    degrees and powers are built and compared.  ``budget`` is a bit cap,
    ``None`` for none, and by default ``exact_bit_budget()``.
    """
    lo = hi = 0.0
    for x, k in chain(lhs, ((y, -l) for y, l in rhs)):
        term_lo, term_hi = _log2_power(x, k)
        lo += term_lo
        hi += term_hi
    if lo > 0.0:
        return True
    if hi < 0.0:
        return False
    if budget is _FROM_ENV:
        budget = exact_bit_budget()
    if budget is not None and power_compare_bits(lhs, rhs) > budget:
        return None
    lhs_num, lhs_den = _cleared(lhs)
    rhs_num, rhs_den = _cleared(rhs)
    return lhs_num * rhs_den >= rhs_num * lhs_den


def _cleared(terms: Terms) -> tuple[int, int]:
    """Numerator and denominator of ``prod x**k``, built exactly and unreduced."""
    num = den = 1
    for x, k in terms:
        if type(x) is DegreeBall:
            x = x.exact()
        power = (x if k >= 0 else Fraction(x)) ** k
        num *= power.numerator
        den *= power.denominator
    return num, den


def exact_power_ge(lhs: int | Fraction | DegreeBall, base: Fraction, exponent: Fraction) -> bool:
    """Decide lhs >= base**exponent (lhs > 0, base > 0) exactly, with no bit budget.

    With exponent u/v in lowest terms this is ``powers_ge`` of lhs**v
    against base**u with no cap: only a near-tie builds the powers.
    """
    return powers_ge(((lhs, exponent.denominator),), ((base, exponent.numerator),), None)


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
            out["cells"] = _CellRows(self.cells)
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


class _CellRows(list):
    """The ``cells`` list ``to_json_dict`` emits: immutable rows of JSON scalars.

    It encodes as a plain JSON array.  Serializing a certificate that nests
    it copies the list and shares its rows, with no scan of the scalars.
    """


_JSON_SCALARS = frozenset((int, float, str, bool, type(None)))
_JSON_ROWS = frozenset((list, tuple))


def _jsonify(value):
    # exact types first: isinstance against Fraction goes through the ABC
    # machinery.  Nested sub-certificates hold one row of scalars per cell:
    # the cells list ``to_json_dict`` emitted is copied with its rows shared
    # and unchecked; other rows that are all tuples are immutable and shared
    # once every scalar is checked, and any other rows are copied into
    # lists, all without a Python call per cell
    if type(value) in _JSON_SCALARS:
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if type(value) is _CellRows:
        return _CellRows(value)
    if isinstance(value, (list, tuple)):
        if all(map(_JSON_SCALARS.__contains__, map(type, value))):
            return list(value)
        row_types = set(map(type, value))
        if row_types <= _JSON_ROWS and all(
            map(_JSON_SCALARS.__contains__, map(type, chain.from_iterable(value)))
        ):
            return list(value) if row_types == {tuple} else list(map(list, value))
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
        parameters={
            k: v if type(v) is Fraction else Fraction(v) for k, v in parameters.items()
        },
        exponent=(
            exponent if exponent is None or type(exponent) is Fraction else Fraction(exponent)
        ),
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
