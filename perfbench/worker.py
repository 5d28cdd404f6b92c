"""One benchmark process: set up a workload, then run one pass of it.

    python3 perfbench/worker.py MODE WORKLOAD SEED

MODE is ``setup`` (import and build the inputs, then exit: the set-up
probe), ``plain`` (time every operation, in wall and CPU seconds, each one
between two runs of the calibration kernel) or ``traced`` (the same with
every public layer function wrapped by a ``Tracer``, and no calibration).
Certify operations call the bound functions; sweep operations call
``hookbound.cli.main`` in this process with stdout captured, so the
wrappers apply.  The last line of stdout is one JSON object with a summary
and a digest of every operation's output, the calibration times, its peak
resident memory and, when traced, the per-layer counts.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import resource
import sys
import time

import workloads
from calibrate import calibrate

import hookbound

# (module, attribute) of every function the traced run wraps; a dotted
# attribute is a method, patched on its class.  Layer names drop the class.
TRACED = (
    ("degrees", "degree"),
    ("degrees", "hook_product"),
    ("degrees", "log_degree"),
    ("partitions", "Partition.hook_grid"),
    ("partitions", "Partition.conjugate"),
    ("partitions", "Partition.diagonal"),
    ("partitions", "sample_partition"),
    ("families", "constrained_sample"),
    ("celltyping", "cell_typing"),
    ("celltyping", "check_typing_hypotheses"),
    ("bounds", "reduce_diagram"),
    ("bounds", "strict_bound"),
    ("bounds", "general_bound"),
    ("bounds", "strip_bound"),
    ("bounds", "overexponential_bound"),
    ("bounds", "theorem_classify"),
    ("certificates", "exact_power_ge"),
    ("certificates", "make_certificate"),
    ("certificates", "power_compare_bits"),
    ("certificates", "BoundCertificate.to_json_dict"),
    ("sweep", "build_growth_report"),
    ("sweep", "render_csv"),
    ("cli", "main"),
)


class Tracer:
    """Wraps library functions from outside and records calls and self time.

    A function's self time is its duration minus the durations of the
    wrapped calls made inside it.  Every binding of a function is patched:
    modules that imported it by name hold their own reference.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}  # layer -> [calls, self_s]
        self.counts = {"class_M1": 0, "class_M2": 0, "class_M3": 0,
                       "log_domain_count": 0, "rows": 0}
        self.bits_over_budget_max = 0.0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, observe=None):
        stats = self.stats.setdefault(layer, [0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_theorem(self, cert) -> None:
        self.counts["class_" + cert.aux["class"]] += 1

    def _observe_certificate(self, cert) -> None:
        if cert.mode == hookbound.certificates.MODE_LOG:
            self.counts["log_domain_count"] += 1

    def _observe_bits(self, bits: int) -> None:
        ratio = bits / hookbound.certificates.exact_bit_budget()
        self.bits_over_budget_max = max(self.bits_over_budget_max, ratio)

    def _observe_report(self, report) -> None:
        self.counts["rows"] += len(report.rows)

    def install(self) -> None:
        observers = {
            "bounds.theorem_classify": self._observe_theorem,
            "certificates.make_certificate": self._observe_certificate,
            "certificates.power_compare_bits": self._observe_bits,
            "sweep.build_growth_report": self._observe_report,
        }
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "hookbound" or name.startswith("hookbound.")]
        for module_name, attr in TRACED:
            module = sys.modules.get("hookbound." + module_name)
            if module is None:  # the CLI is imported by sweep workloads only
                continue
            layer = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self._wrap(layer, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original, observers.get(layer))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def report(self) -> dict:
        info = hookbound.partitions._count.cache_info()
        return {
            "stats": self.stats,
            "counts": self.counts,
            "bits_over_budget_max": self.bits_over_budget_max,
            "count_table_entries": info.currsize,
        }


def _modes(cert: dict) -> list[str]:
    """Modes of a certificate dict and of the certificates nested in its aux."""
    nested = [value for value in cert["aux"].values()
              if isinstance(value, dict) and "mode" in value and "verdict" in value]
    return [cert["mode"]] + [mode for sub in nested for mode in _modes(sub)]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _prepare(op: dict):
    if op["kind"] == "sweep":
        importlib.import_module("hookbound.cli")
        return op["argv"]
    alpha, beta = workloads.rationals(op)
    lam = workloads.build_shape(op["shape"], op["alpha"])
    return (lam, alpha) if beta is None else (lam, alpha, beta)


def _call(op: dict, args):
    """Run one operation; returns its raw result.  The call is what is timed."""
    if op["kind"] == "sweep":
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = hookbound.cli.main(list(args))
        return code, out.getvalue()
    fn = hookbound.bounds.theorem_classify if op["bound"] == "theorem" else hookbound.bounds.general_bound
    return fn(*args)


def _summary(op: dict, args, result) -> dict:
    if op["kind"] == "sweep":
        code, text = result
        return {"exit": code, "digest": _digest(text)}
    cert = result.to_json_dict()
    aux = cert["aux"]
    sub = aux.get("sub_certificate") or aux.get("mu_certificate") or {}
    return {
        "partition": args[0].format(),
        "verdict": cert["verdict"],
        "mode": cert["mode"],
        "class": cert.get("class"),
        "sub_bound": sub.get("bound_name"),
        "sub_verdict": sub.get("verdict"),
        "sub_mode": sub.get("mode"),
        "modes": _modes(cert),
        "digest": _digest(json.dumps(cert)),
    }


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    ops = workloads.operations(workload, seed)
    inputs = [_prepare(op) for op in ops]
    if mode == "setup":
        return 0
    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    # a plain pass brackets every operation with the calibration kernel
    calib_s = [] if tracer is not None else [calibrate()]
    timed = []
    for op, args in zip(ops, inputs):
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            result, error = _call(op, args), None
        except Exception as exc:  # an operation's failure is a result, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        timed.append((time.perf_counter() - start, time.process_time() - cpu_start,
                      result, error))
        if tracer is None:
            calib_s.append(calibrate())
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    summaries = []
    for op, args, (elapsed, cpu, result, error) in zip(ops, inputs, timed):
        summary = {"time_s": elapsed, "cpu_s": cpu}
        if error is None:
            summary.update(_summary(op, args, result))
        else:
            summary["error"] = error
        summaries.append(summary)
    out = {"ops": summaries, "calib_s": calib_s, "peak_rss_kb": peak_rss_kb}
    if tracer is not None:
        out["trace"] = tracer.report()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
