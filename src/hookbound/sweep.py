"""Growth-report sweeps: certify a partition family across a range of n.

Each row runs the full theorem dispatch on one partition and records the
normalized logs next to the verdict; the report ends with the empirical
threshold n0, the smallest tested n from which every later verdict is
PASS.  Rows are sorted by (n, partition text), generated single-threadedly,
and depend only on (arguments, seed), so a repeated run is byte-identical.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import NamedTuple

from . import families
from .bounds import _require_pair, theorem_classify
from .celltyping import _width_cap
from .errors import HookBoundError, HypothesisError
from .partitions import Partition, enumerate_partitions, format_rational

ENUMERATE_CAP = 30


class GrowthRow(NamedTuple):
    n: int
    partition: Partition
    cls: str
    verdict: str
    mode: str
    log_degree_per_n: float
    beta_log: float
    sub_bound: str
    sub_rhs_log_per_n: float
    margin: float


# the CSV header and the JSON row keys: the fields of GrowthRow in order,
# with ``cls`` written as "class"
_FIELDS = GrowthRow._fields
CSV_COLUMNS = tuple("class" if name == "cls" else name for name in _FIELDS)


class GrowthReport(NamedTuple):
    family: str
    alpha: Fraction
    beta: Fraction
    n_from: int
    n_to: int
    samples: int
    seed: int
    rows: tuple[GrowthRow, ...]
    skipped: tuple[tuple[int, str], ...] = ()

    @property
    def empirical_n0(self) -> int | None:
        """Least tested n after which every verdict is PASS; None if not reached."""
        if not self.rows:
            return None
        worst_by_n: dict[int, bool] = {}
        for row in self.rows:
            worst_by_n[row.n] = worst_by_n.get(row.n, True) and row.verdict == "PASS"
        ns = sorted(worst_by_n)
        n0 = None
        for n in reversed(ns):
            if worst_by_n[n]:
                n0 = n
            else:
                break
        return n0


def _candidates(family, n, alpha, samples, seed):
    if family == "balanced":
        yield families.balanced(n)
    elif family == "staircase":
        yield families.staircase(n, alpha)
    elif family == "enumerate":
        cap = _width_cap(n, alpha)
        for lam in enumerate_partitions(n, max_part=cap, max_parts=cap):
            yield lam
    elif family == "sample":
        for i in range(samples):
            yield families.constrained_sample(n, alpha, (seed * 1_000_003 + n) * 1_000_003 + i)


def build_growth_report(
    family: str,
    alpha: Fraction,
    beta: Fraction,
    n_from: int,
    n_to: int,
    samples: int = 1,
    seed: int = 0,
) -> GrowthReport:
    if family not in ("balanced", "staircase", "enumerate", "sample"):
        raise HookBoundError(f"unknown family {family!r}")
    if samples < 1:
        raise HookBoundError(f"samples must be at least 1, got {samples}")
    if family == "enumerate" and n_to > ENUMERATE_CAP:
        raise HookBoundError(
            f"enumerate family is capped at n <= {ENUMERATE_CAP}; use the sample family"
        )
    # every row would fail the same gates of the pair: raise before the first
    alpha, beta = _require_pair(alpha, beta)
    rows: list[GrowthRow] = []
    skipped: list[tuple[int, str]] = []
    for n in range(n_from, n_to + 1):
        try:
            candidates = list(_candidates(family, n, alpha, samples, seed))
        except HookBoundError as err:
            skipped.append((n, str(err)))
            continue
        if len(candidates) > 1:
            candidates.sort(key=Partition.format)
        for lam in candidates:
            try:
                cert = theorem_classify(lam, alpha, beta)
            except HypothesisError as err:
                skipped.append((n, str(err)))
                continue
            sub = cert.aux["sub_certificate"]
            rows.append(
                GrowthRow(
                    n=n,
                    partition=lam,
                    cls=cert.aux["class"],
                    verdict=cert.verdict,
                    mode=cert.mode,
                    log_degree_per_n=cert.lhs_log / n,
                    beta_log=cert.rhs_log / n,
                    sub_bound=sub.bound_name,
                    sub_rhs_log_per_n=sub.rhs_log / n,
                    margin=cert.margin,
                )
            )
    return GrowthReport(
        family=family,
        alpha=alpha,
        beta=beta,
        n_from=n_from,
        n_to=n_to,
        samples=samples,
        seed=seed,
        rows=tuple(rows),
        skipped=tuple(skipped),
    )


def _fmt(x: float) -> str:
    return format(x, ".15g")


def _values(row: GrowthRow) -> list:
    """The row's values in column order, the partition as its text."""
    return [v.format() if type(v) is Partition else v for v in row]


def render_csv(report: GrowthReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.rows:
        writer.writerow([_fmt(v) if type(v) is float else v for v in _values(row)])
    n0 = report.empirical_n0
    writer.writerow(["# empirical_n0", "not reached" if n0 is None else n0])
    return buf.getvalue()


def render_json(report: GrowthReport) -> str:
    n0 = report.empirical_n0
    data = {
        "family": report.family,
        "alpha": format_rational(report.alpha),
        "beta": format_rational(report.beta),
        "n_from": report.n_from,
        "n_to": report.n_to,
        "samples": report.samples,
        "seed": report.seed,
        "empirical_n0": n0,
        "skipped": [list(s) for s in report.skipped],
        "rows": [dict(zip(CSV_COLUMNS, _values(row))) for row in report.rows],
    }
    return json.dumps(data, indent=2)
