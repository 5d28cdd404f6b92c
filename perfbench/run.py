"""hookbound benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics: the set-up
time (median of several fresh set-up processes), then passes of the
workload, one after another, at least three and as many as fit in ``S``
seconds.  Certify workloads run each pass in a fresh worker process that
times every bound call; sweep workloads time each ``hookbound sweep``
invocation as a subprocess, process start included.  Every timed operation
and set-up process is measured in CPU seconds and divided by the CPU time
of the calibration kernel (``calibrate.py``) run right before and after it
(in the worker, or in this process for subprocesses), so that the host's
drifting speed cancels out.  With
``--trace 1`` it alternates an untraced pass with a traced one (the same
operations with every layer's public functions wrapped) and prints the
per-layer metrics.

Every operation is checked after the measurement against ``reference.py``,
which decides each verdict and dispatch class without the library's degree
code, and against the output of the first pass: same seed, same bytes, with
or without tracing.  One line per timed operation records its time next to
its verdict, mode, class and sub-bound; the last line of stdout is the JSON
result.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import reference
import workloads
from calibrate import CALIB_REF_S, calibrate

SETUP_PROBES = 11
MIN_PASSES = 3  # so that each operation's median has three samples
WORKER = Path(__file__).with_name("worker.py")

# (metric, unit) of the traced run; "calls" and "self_s" come from the
# wrapper of the function the prefix names.
PER_LAYER = (
    ("degrees.degree.calls", "count"),
    ("degrees.degree.self_s", "s"),
    ("degrees.hook_product.self_s", "s"),
    ("degrees.log_degree.calls", "count"),
    ("degrees.degree_calls_per_cert", "ratio"),
    ("partitions.hook_grid.calls", "count"),
    ("partitions.hook_grid.self_s", "s"),
    ("partitions.conjugate.calls", "count"),
    ("partitions.conjugate.self_s", "s"),
    ("partitions.diagonal.calls", "count"),
    ("partitions.sample_partition.self_s", "s"),
    ("partitions.count_table_entries", "count"),
    ("families.constrained_sample.self_s", "s"),
    ("celltyping.cell_typing.calls", "count"),
    ("celltyping.cell_typing.self_s", "s"),
    ("celltyping.check_typing_hypotheses.calls", "count"),
    ("bounds.reduce_diagram.self_s", "s"),
    ("bounds.strict_bound.self_s", "s"),
    ("bounds.general_bound.self_s", "s"),
    ("bounds.strip_bound.self_s", "s"),
    ("bounds.overexponential_bound.self_s", "s"),
    ("bounds.theorem_classify.self_s", "s"),
    ("bounds.class_M1", "count"),
    ("bounds.class_M2", "count"),
    ("bounds.class_M3", "count"),
    ("certificates.exact_power_ge.calls", "count"),
    ("certificates.exact_power_ge.self_s", "s"),
    ("certificates.log_domain_count", "count"),
    ("certificates.bits_over_budget_max", "ratio"),
    ("certificates.to_json_dict.self_s", "s"),
    ("sweep.build_growth_report.self_s", "s"),
    ("sweep.render_csv.self_s", "s"),
    ("sweep.rows", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Child:
    """A finished child process: output, exit code, wall and CPU time, peak memory."""

    def __init__(self, argv: list[str], root: Path, env: dict):
        # Output goes to unnamed files rather than pipes, so the child can
        # never block on a full pipe; os.wait4 then gives this child's own
        # peak resident memory.
        with tempfile.TemporaryFile(dir=root) as out, tempfile.TemporaryFile(dir=root) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=root, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            self.cpu_s = usage.ru_utime + usage.ru_stime
            self.peak_rss_kb = usage.ru_maxrss
            out.seek(0)
            err.seek(0)
            self.out = out.read()
            self.err = err.read().decode(errors="replace")


class Bench:
    def __init__(self, workload: str, seed: int, root: Path):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.ops = workloads.operations(workload, seed)
        self.certify = workload in workloads.CERTIFY
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # measure the library's documented default exact-bit budget
        self.env.pop("HOOKBOUND_EXACT_BITS", None)
        self.baseline: list[str | None] = [None] * len(self.ops)
        self.checked: dict[tuple[int, str], list[str]] = {}
        self.reference_cache: dict = {}
        self.self_test_failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    # -- running --------------------------------------------------------------

    def setup_probes(self) -> list[float]:
        """CPU seconds of each set-up process over the calibration kernel's."""
        cpu, calib_s = [], [calibrate()]
        for _ in range(SETUP_PROBES):
            child = Child([sys.executable, str(WORKER), "setup", self.workload, str(self.seed)],
                          self.root, self.env)
            if child.code != 0:
                raise SystemExit(f"set-up process failed with exit {child.code}:\n{child.err}")
            cpu.append(child.cpu_s)
            calib_s.append(calibrate())
        return _relative(cpu, calib_s)

    def run_pass(self, traced: bool) -> dict:
        """One pass: per-operation summaries, the pass's peak memory and trace."""
        if self.certify or traced:
            mode = "traced" if traced else "plain"
            child = Child([sys.executable, str(WORKER), mode, self.workload, str(self.seed)],
                          self.root, self.env)
            try:
                result = json.loads(child.out.decode().strip().splitlines()[-1])
            except (ValueError, IndexError):
                error = f"worker exit {child.code}: {child.err.strip()[-500:]}"
                return {"ops": [{"time_s": 0.0, "cpu_s": 0.0, "error": error} for _ in self.ops],
                        "calib_s": [1.0] * (len(self.ops) + 1),  # the pass failed
                        "peak_rss_kb": child.peak_rss_kb, "traced": traced}
            result["traced"] = traced
            return result
        summaries, peak, calib_s = [], 0, [calibrate()]
        for op in self.ops:
            child = Child([sys.executable, "-m", "hookbound.cli", *op["argv"]],
                          self.root, self.env)
            calib_s.append(calibrate())
            text = child.out.decode()
            summaries.append({"time_s": child.wall_s, "cpu_s": child.cpu_s, "exit": child.code,
                              "csv": text, "digest": hashlib.sha256(child.out).hexdigest(),
                              "stderr": child.err.strip()[-500:]})
            peak = max(peak, child.peak_rss_kb)
        return {"ops": summaries, "calib_s": calib_s, "peak_rss_kb": peak, "traced": False}

    # -- checking ---------------------------------------------------------------

    def reference_for(self, parts: tuple[int, ...], alpha: Fraction, beta: Fraction | None):
        key = (parts, alpha, beta)
        if key not in self.reference_cache:
            import hookbound

            if hookbound.degree(hookbound.Partition(parts)) != reference.degree(parts):
                self.self_test_failures.append(f"degree differs from the reference on {parts}")
            if beta is None:
                self.reference_cache[key] = reference.general(parts, alpha)
            else:
                self.reference_cache[key] = reference.theorem(parts, alpha, beta)
        return self.reference_cache[key]

    def check(self, index: int, summary: dict, traced: bool) -> list[str]:
        """Problems with one operation's outcome; empty when it is correct."""
        if "error" in summary:
            return [summary["error"]]
        digest = summary["digest"]
        if self.baseline[index] is None and not traced:
            self.baseline[index] = digest
        problems = []
        if digest != self.baseline[index]:
            what = "traced output" if traced else "output"
            problems.append(f"{what} differs from the first untraced pass (same seed)")
        key = (index, digest)
        if key not in self.checked:
            op = self.ops[index]
            check = self._check_sweep if op["kind"] == "sweep" else self._check_certificate
            self.checked[key] = check(op, summary)
        return problems + self.checked[key]

    def _check_certificate(self, op: dict, summary: dict) -> list[str]:
        alpha, beta = workloads.rationals(op)
        lam = workloads.build_shape(op["shape"], op["alpha"])
        if summary["partition"] != lam.format():
            return [f"certified {summary['partition']!r}, expected {lam.format()!r}"]
        expected = self.reference_for(lam.parts, alpha, beta)
        got = {key: summary[key] for key in expected}
        if got != expected:
            return [f"got {got}, reference {expected}"]
        return []

    def _check_sweep(self, op: dict, summary: dict) -> list[str]:
        if summary.get("exit") != 0:
            return [f"exit {summary.get('exit')}: {summary.get('stderr', '')}"]
        if "csv" not in summary:  # a traced sweep: its digest was compared above
            return []
        alpha, beta = Fraction(op["alpha"]), Fraction(op["beta"])
        rows = _csv_rows(summary["csv"])
        expected_rows = (op["n_to"] - op["n_from"] + 1) * op["samples"]
        problems = []
        if len(rows) != expected_rows:
            problems.append(f"{len(rows)} rows, expected {expected_rows}")
        if sorted({int(r["n"]) for r in rows}) != list(range(op["n_from"], op["n_to"] + 1)):
            problems.append("the rows do not cover every n of the range")
        for row in rows:
            n = int(row["n"])
            parts = tuple(int(p) for p in row["partition"].split(","))
            if op["family"] == "sample":
                ok = (sum(parts) == n and parts == tuple(sorted(parts, reverse=True))
                      and parts[-1] >= 1 and max(parts[0], len(parts)) * alpha <= n)
            else:
                shape = workloads.build_shape([op["family"], n], op["alpha"])
                ok = parts == shape.parts
            if not ok:
                problems.append(f"row n={n}: unexpected partition {row['partition']}")
                continue
            expected = self.reference_for(parts, alpha, beta)
            got = {"verdict": row["verdict"], "class": row["class"],
                   "sub_bound": row["sub_bound"]}
            want = {key: expected[key] for key in got}
            if got != want:
                problems.append(f"row n={n} {row['partition']}: got {got}, reference {want}")
        return problems[:5]

    def record(self, passes: list[dict]) -> None:
        """Check every operation of every pass and print one line for each."""
        for number, result in enumerate(passes, start=1):
            kind = "traced" if result["traced"] else "plain"
            relative = _relative([s["cpu_s"] for s in result["ops"]], result.get("calib_s", []))
            for index, summary in enumerate(result["ops"]):
                problems = self.check(index, summary, result["traced"])
                self.attempted += 1
                self.failed += bool(problems)
                status = "ok" if not problems else "FAILED: " + "; ".join(problems)
                rel = f"{relative[index]:.3f}" if relative else "-"
                print(f"{self.workload} pass {number} {kind} op {index + 1} "
                      f"{summary['time_s']:.4f} s wall {summary['cpu_s']:.4f} s cpu {rel} rel "
                      f"{_describe(summary)} [{self.ops[index]['label']}] {status}")

    def exact_share(self, result: dict) -> float:
        modes = Counter()
        for summary in result["ops"]:
            if "modes" in summary:
                modes.update(summary["modes"])
            elif "csv" in summary:
                modes.update(row["mode"] for row in _csv_rows(summary["csv"]))
        total = sum(modes.values())
        return modes["exact"] / total if total else 0.0


def _csv_rows(text: str) -> list[dict]:
    return [row for row in csv.DictReader(io.StringIO(text))
            if not row["n"].startswith("#")]


def _describe(summary: dict) -> str:
    """Verdict, mode, class and sub-bound of one timed operation."""
    if "error" in summary:
        return "error"
    if "csv" in summary:
        rows = _csv_rows(summary["csv"])
        tallies = " ".join(f"{label}={_tally(rows, key)}" for label, key in (
            ("verdict", "verdict"), ("mode", "mode"), ("class", "class"), ("sub", "sub_bound")))
        return f"exit={summary['exit']} rows={len(rows)} {tallies}"
    if "verdict" not in summary:
        return f"exit={summary['exit']} digest={summary['digest'][:12]}"
    return (f"verdict={summary['verdict']} mode={summary['mode']} class={summary['class']} "
            f"sub={summary['sub_bound']}:{summary['sub_verdict']}:{summary['sub_mode']}")


def _tally(rows: list[dict], key: str) -> str:
    return ",".join(f"{k}:{v}" for k, v in sorted(Counter(r[key] for r in rows).items()))


def _relative(cpu_s: list[float], calib_s: list[float]) -> list[float]:
    """Each CPU time over the mean of the calibration runs on either side of it."""
    return [cpu / ((before + after) / 2)
            for cpu, before, after in zip(cpu_s, calib_s, calib_s[1:])]


def _median_total(per_pass: list[list[float]]) -> float:
    """Sum over operations of each operation's median across passes."""
    return sum(statistics.median(values) for values in zip(*per_pass))


def _times(passes: list[dict], key: str) -> list[list[float]]:
    return [[s[key] for s in p["ops"]] for p in passes]


def _self_test() -> list[str]:
    """The reference degree equals brute-force tableau counting for n <= 10."""
    from hookbound import Partition, count_syt_bruteforce

    return [f"reference degree differs from count_syt_bruteforce on {p}"
            for n in range(11) for p in reference.partitions(n)
            if reference.degree(p) != count_syt_bruteforce(Partition(p))]


def _passes(bench: Bench, seconds: float, kinds: tuple[bool, ...], min_rounds: int) -> list[dict]:
    """Rounds of the given pass kinds: at least ``min_rounds``, then as many as fit.

    A further round starts only if one more round of the last round's
    length still ends within ``seconds``, so a run measures for about
    ``seconds`` unless the minimum takes longer.
    """
    passes = []
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while rounds < min_rounds or time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        passes.extend(bench.run_pass(traced) for traced in kinds)
        last = time.perf_counter() - round_start
        rounds += 1
    return passes


def _per_layer(untraced: list[dict], traced: list[dict], ops: list[dict]) -> dict:
    """Per-layer metrics: counts from the first traced pass, self times as medians."""
    first = traced[0]["trace"]
    counts = first["counts"]

    def calls(layer: str) -> int:
        return first["stats"].get(layer, [0])[0]

    def self_s(layer: str) -> float:
        return statistics.median(p["trace"]["stats"].get(layer, [0, 0.0])[1]
                                 for p in traced)

    values = {
        # top-level certificates: one per sweep row, else one per operation
        "degrees.degree_calls_per_cert": calls("degrees.degree") / (counts["rows"] or len(ops)),
        "partitions.count_table_entries": first["count_table_entries"],
        "certificates.log_domain_count": counts["log_domain_count"],
        "certificates.bits_over_budget_max": first["bits_over_budget_max"],
        "sweep.rows": counts["rows"],
        "trace.overhead_ratio": (_median_total(_times(traced, "cpu_s"))
                                 / _median_total(_times(untraced, "cpu_s"))),
    }
    for cls in ("M1", "M2", "M3"):
        values[f"bounds.class_{cls}"] = counts[f"class_{cls}"]
    for name, _unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls(layer)
        elif field == "self_s":
            values[name] = self_s(layer)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hookbound" / "__init__.py").is_file():
        print(f"no hookbound source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    bench = Bench(args.workload, args.seed, root)
    self_test = _self_test()
    if args.trace:
        setup = []
        passes = _passes(bench, args.seconds, (False, True), min_rounds=1)
    else:
        setup = bench.setup_probes()
        passes = _passes(bench, args.seconds, (False,), min_rounds=MIN_PASSES)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    bench.record(passes)
    failures = self_test + bench.self_test_failures
    for failure in failures[:5]:
        print(f"reference self-test FAILED: {failure}")
    if len(failures) > 5:
        print(f"reference self-test FAILED on {len(failures) - 5} more inputs")

    if args.trace:
        metrics = _per_layer(untraced, traced, bench.ops)
    else:
        relative = [_relative([s["cpu_s"] for s in p["ops"]], p["calib_s"]) for p in untraced]
        metrics = {
            "cpu_rel": {"value": _median_total(relative), "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup) * CALIB_REF_S, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_kb"] for p in untraced) / 1024,
                            "unit": "MB"},
            "exact_share": {"value": bench.exact_share(untraced[0]), "unit": "ratio"},
        }
    error_rate = bench.failed / bench.attempted
    print(f"{args.workload} seed={args.seed} passes={len(untraced)} untraced, "
          f"{len(traced)} traced; setup probes={len(setup)}")
    print(f"  wall_s = {_median_total(_times(untraced, 'time_s')):.6g} s, "
          f"cpu_s = {_median_total(_times(untraced, 'cpu_s')):.6g} s (raw, not rescaled)")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate = {error_rate:.6g} ({bench.failed} of {bench.attempted} operations)")
    print(json.dumps({
        "correct": bench.failed == 0 and not failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
