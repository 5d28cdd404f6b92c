"""Bound certificates: one certified comparison, exact or log-domain, and JSON.

A certificate records one inequality "lhs >= rhs" about a character degree.
Every bound decides it with one routine, ``powers_ge``, which compares
``prod x_i**k_i`` with ``prod y_j**l_j`` over integer, rational and
degree-ball terms.  It first sums certified brackets of ``log2``.
``log2_bracket`` brackets an integer from its bit length and its top 53
bits, with a radius of ``2**-40`` relative to the midpoint (plus
``2**-40``), thousands of times the real rounding error; a degree's
``DegreeBall`` (``degrees``) is bracketed from its two ends, read from the
mantissa and the scale.  ``math.fsum`` adds the lower ends and the upper
ends with one correct rounding each, which keeps the sign of the exact
sum, so disjoint brackets decide exactly over any number of terms.  Sides
of degree balls with the same prime powers are equal with no build.  Only
an overlap charges the bit budget: within it the exact degrees and powers
are built and compared, and past it the certificate runs in the log
domain, where verdicts within a 1e-9 relative band are MARGINAL.
``budget=None`` lifts the cap: ``exact_power_ge`` is that call, and so are
the bounds' containment checks ``f(lambda) >= f(mu)`` and the cell
typing's aggregate product clause.  lhs_log/rhs_log/margin are always
recorded so a reader can re-derive the verdict from the serialized object.

JSON field names (bound_name, parameters, exponent, lhs_log, rhs_log,
margin, mode, verdict, and cells for typing-backed certificates) are a
stable contract shared with the CLI.  A typing-backed certificate holds its
cells as one ``CellTable``: the diagram's parts and four typed ``array``
columns (type, color, number N, hook).  The type is one byte, and the
other three take the narrowest signed code that holds n (``lane_code``),
so a table keeps 7 bytes a cell below n = 2**15, 13 below 2**31 and 25
past that.  It iterates as plain ``(row, col, type, color, N, hook)``
tuples, read off the row-major layout, and these rows are built only when
``to_json_dict`` emits them as ``[row, col, type, color, N, hook]``.  A
sub-certificate in ``aux`` stays a ``BoundCertificate`` and serializes
through its own ``to_json_dict``.  ``certificate_from_json`` rebuilds
both: the cells as a table, checked to be the row-major cells of a
partition, and every ``aux`` value that carries all the contract fields as
a nested certificate, so a reload serializes to the same bytes.
"""
from __future__ import annotations

import json
import math
import os
import warnings
from array import array
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, count, repeat
from operator import eq, itemgetter
from typing import NamedTuple

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
    """Upper estimate of the bits ``powers_ge`` builds: ``|k|`` times each base's bits.

    A degree ball counts the bits of its upper end, so the estimate builds
    nothing.
    """
    return sum(
        abs(k) * ((x.m + x.rad).bit_length() + x.s) if type(x) is DegreeBall
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
    ``DegreeBall``, and an exponent an integer of either sign.  The
    brackets of ``_log2_power`` bound ``log2(lhs / rhs)`` from both ends;
    ``math.fsum`` adds each end with one correct rounding, which keeps the
    sign of the exact sum whatever the number of terms, so a lower end
    above 0 or an upper end below 0 decides.  On an overlap, sides of
    degree balls with the same ``n``, prime exponents and exponents ``k``
    (a shape and its conjugate, say) are equal.  Only then is the bit
    budget charged: ``None`` (log-domain) when ``power_compare_bits``
    exceeds it, else the exact degrees and powers are built and compared.
    ``budget`` is a bit cap, ``None`` for none, and by default
    ``exact_bit_budget()``.
    """
    brackets = [_log2_power(x, k) for x, k in chain(lhs, ((y, -l) for y, l in rhs))]
    if math.fsum(map(itemgetter(0), brackets)) > 0.0:
        return True
    if math.fsum(map(itemgetter(1), brackets)) < 0.0:
        return False
    keys = _degree_keys(lhs)
    if keys and keys == _degree_keys(rhs):
        return True
    if budget is _FROM_ENV:
        budget = exact_bit_budget()
    if budget is not None and power_compare_bits(lhs, rhs) > budget:
        return None
    lhs_num, lhs_den = _cleared(lhs)
    rhs_num, rhs_den = _cleared(rhs)
    return lhs_num * rhs_den >= rhs_num * lhs_den


def _degree_keys(terms: Terms) -> list[tuple] | None:
    """The terms as ``((n, exponents), k)``, or None unless every base is a degree ball.

    Balls of the same ``n`` and prime exponents are the same degree, so
    sides of the same keys are equal.
    """
    if all(type(x) is DegreeBall for x, _ in terms):
        return [(x._key, k) for x, k in terms]
    return None


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


def lane_code(n: int) -> str:
    """The narrowest signed ``array`` code that holds 0..n: ``'h'``, ``'i'`` or ``'q'``."""
    return "h" if n < 1 << 15 else "i" if n < 1 << 31 else "q"


class CellTable:
    """The cells of a typed diagram: its parts and four typed columns.

    ``types`` is an ``array('b')`` and ``colors``, ``numbers`` and
    ``hooks`` are arrays of ``lane_code(n)``, n the sum of the parts, one
    entry per cell in row-major order; each cell's row and column come
    from ``parts``.  An entry past its column's code raises
    ``OverflowError``.  The table iterates as plain ``(row, col, type,
    color, N, hook)`` tuples and compares equal to any sequence of such
    rows, lists included.
    """

    __slots__ = ("parts", "types", "colors", "numbers", "hooks")

    def __init__(self, parts, types, colors, numbers, hooks):
        self.parts = tuple(parts)
        code = lane_code(sum(self.parts))
        self.types = array("b", types)
        self.colors = array(code, colors)
        self.numbers = array(code, numbers)
        self.hooks = array(code, hooks)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> CellTable:
        """The table of ``rows``, which must be the row-major cells of a partition.

        Each row is ``(row, col, type, color, N, hook)``: rows run 1, 2, ...
        and columns 1, 2, ... within a row, and no row is longer than the
        one above it.  A ValueError names the first row that breaks this,
        and is also raised for an entry that is not an integer in its
        column's range.
        """
        parts: list[int] = []
        for index, cell in enumerate(rows):
            if len(cell) == 6:
                row, col = cell[0], cell[1]
                if row == len(parts) + 1 and col == 1:
                    parts.append(1)
                    continue
                if parts and row == len(parts) and col == parts[-1] + 1 and (
                    row == 1 or col <= parts[-2]
                ):
                    parts[-1] = col
                    continue
            raise ValueError(
                f"cell {index} {list(cell)!r} is not the next row-major cell of a partition"
            )
        try:
            return cls(parts, *(map(itemgetter(k), rows) for k in range(2, 6)))
        except (OverflowError, TypeError) as err:
            raise ValueError(f"cell entry out of its column's integer range: {err}") from None

    def __len__(self) -> int:
        return len(self.types)

    def __iter__(self):
        parts = self.parts
        rows = chain.from_iterable(map(repeat, count(1), parts))
        cols = chain.from_iterable(map(range, repeat(1), [row + 1 for row in parts]))
        return zip(rows, cols, self.types, self.colors, self.numbers, self.hooks)

    def __eq__(self, other):
        if type(other) is CellTable:
            return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(other) == len(self) and all(map(eq, self, map(tuple, other)))


class _CertificateFields(NamedTuple):
    bound_name: str
    parameters: dict[str, Fraction | int]
    exponent: Fraction | None
    lhs_log: float
    rhs_log: float
    mode: str
    verdict: str
    aux: dict
    cells: CellTable | None


class BoundCertificate(_CertificateFields):
    """One certified comparison; ``aux`` defaults to a new empty dict."""

    __slots__ = ()

    def __new__(
        cls,
        bound_name: str,
        parameters: dict[str, Fraction | int],
        exponent: Fraction | None,
        lhs_log: float,
        rhs_log: float,
        mode: str,
        verdict: str,
        aux: dict | None = None,
        cells: CellTable | None = None,
    ) -> "BoundCertificate":
        return tuple.__new__(
            cls,
            (bound_name, parameters, exponent, lhs_log, rhs_log, mode, verdict,
             {} if aux is None else aux, cells),
        )

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
            out["cells"] = list(self.cells)
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


_JSON_SCALARS = frozenset((int, float, str, bool, type(None)))


def _jsonify(value):
    # exact types first: isinstance against Fraction goes through the ABC
    # machinery.  A nested certificate serializes itself
    if type(value) in _JSON_SCALARS:
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if type(value) is BoundCertificate:
        return value.to_json_dict()
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def make_certificate(
    bound_name: str,
    parameters: dict[str, Fraction | int],
    exponent: Fraction | None,
    lhs_log: float,
    rhs_log: float,
    exact_result: bool | None,
    aux: dict | None = None,
    cells: CellTable | None = None,
) -> BoundCertificate:
    """Assemble a certificate; ``exact_result`` of None means log-domain mode.

    ``parameters`` and ``exponent`` are stored as given: an int parameter
    stays an int, and a reload reads it back as an equal ``Fraction``.
    """
    if exact_result is None:
        mode = MODE_LOG
        verdict = verdict_from_logs(lhs_log, rhs_log, mode)
    else:
        mode = MODE_EXACT
        verdict = PASS if exact_result else FAIL
    return BoundCertificate(
        bound_name=bound_name,
        parameters=parameters,
        exponent=exponent,
        lhs_log=lhs_log,
        rhs_log=rhs_log,
        mode=mode,
        verdict=verdict,
        aux=aux or {},
        cells=cells,
    )


_CONTRACT_FIELDS = ("bound_name", "parameters", "exponent", "lhs_log", "rhs_log",
                    "margin", "mode", "verdict")


def revalidate(obj: BoundCertificate | dict | str) -> bool:
    """Re-read a certificate, serialized or not, and confirm the verdict follows from it.

    The stored margin must equal lhs_log - rhs_log exactly (JSON round-trips
    floats exactly), and the verdict must be the one implied by the logs.
    In exact mode a stored PASS/FAIL is also accepted when the logs sit
    inside the float-indistinguishable band.  A document that is not a JSON
    object, whose mode is neither exact nor log-domain, or whose logs or
    margin are not numbers, is rejected; text that is not JSON raises
    ``json.JSONDecodeError``.
    """
    if type(obj) is BoundCertificate:
        obj = obj.to_json_dict()
    data = json.loads(obj) if isinstance(obj, str) else obj
    if not isinstance(data, dict) or not all(map(data.__contains__, _CONTRACT_FIELDS)):
        return False
    if data["mode"] not in (MODE_EXACT, MODE_LOG):
        return False
    lhs, rhs, margin = data["lhs_log"], data["rhs_log"], data["margin"]
    if not all(type(x) in (int, float) for x in (lhs, rhs, margin)):
        return False
    if margin != lhs - rhs:
        return False
    implied = verdict_from_logs(lhs, rhs, data["mode"])
    if data["verdict"] == implied:
        return True
    if data["mode"] == MODE_EXACT and data["verdict"] in (PASS, FAIL):
        band = LOG_REL_TOL * max(abs(lhs), abs(rhs), 1.0)
        return abs(margin) <= band
    return False


def certificate_from_json(obj: dict | str) -> BoundCertificate:
    """Rebuild a certificate from its JSON, nested certificates and cell table included.

    Every ``aux`` value that is an object carrying all the contract fields
    is rebuilt as a nested ``BoundCertificate``, a rational ``aux`` value
    (the strict bound's ``sharp_exponent``) as a ``Fraction``, and ``cells``
    as a ``CellTable`` (``CellTable.from_rows``), so the result equals the
    certificate written and serializes to the bytes it was read from.
    """
    data = json.loads(obj) if isinstance(obj, str) else obj
    return BoundCertificate(
        bound_name=data["bound_name"],
        parameters={k: parse_rational(v) for k, v in data["parameters"].items()},
        exponent=None if data["exponent"] is None else parse_rational(data["exponent"]),
        lhs_log=data["lhs_log"],
        rhs_log=data["rhs_log"],
        mode=data["mode"],
        verdict=data["verdict"],
        aux={k: _aux_from_json(k, v) for k, v in data.get("aux", {}).items()},
        cells=None if data.get("cells") is None else CellTable.from_rows(data["cells"]),
    )


# the aux keys that hold a rational, written as its "p/q" text
_RATIONAL_AUX = frozenset(("sharp_exponent",))


def _aux_from_json(key: str, value):
    """An ``aux`` value as a certificate holds it: a nested certificate, a rational or as read."""
    if isinstance(value, dict) and all(map(value.__contains__, _CONTRACT_FIELDS)):
        return certificate_from_json(value)
    if key in _RATIONAL_AUX:
        return parse_rational(value)
    return value
