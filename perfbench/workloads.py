"""The benchmark's workloads: the operations each one times, derived from a seed.

A certify operation is one call of a public bound function on one shape; a
sweep operation is one ``hookbound sweep`` invocation.  The seed moves each
n by at most about one per cent, so the work barely changes, and picks the
sampled partitions of the sample sweep; the same seed always gives the same
operations.

Each workload joins groups of operations (large and general; small and
sample) that load different layers; README.md says why, and which layer
each group loads.
"""
from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("certify", "sweep")
CERTIFY = ("certify",)


def _certify(bound: str, shape: tuple, alpha: str, beta: str | None = None) -> dict:
    params = ", ".join(p for p in (alpha, beta) if p is not None)
    fn = "theorem_classify" if bound == "theorem" else "general_bound"
    return {
        "kind": "certify",
        "bound": bound,
        "shape": list(shape),
        "alpha": alpha,
        "beta": beta,
        "label": f"{fn}({shape[0]}({', '.join(map(str, shape[1:]))}), {params})",
    }


def _sweep(family: str, alpha: str, beta: str, n_from: int, n_to: int,
           samples: int = 1, seed: int | None = None) -> dict:
    argv = ["sweep", family, "--alpha", alpha, "--beta", beta,
            "--n-from", str(n_from), "--n-to", str(n_to)]
    if seed is not None:
        argv += ["--samples", str(samples), "--seed", str(seed)]
    return {
        "kind": "sweep",
        "argv": argv,
        "family": family,
        "alpha": alpha,
        "beta": beta,
        "n_from": n_from,
        "n_to": n_to,
        "samples": samples,
        "label": "hookbound " + " ".join(argv),
    }


def operations(workload: str, seed: int) -> list[dict]:
    """The operations one pass of ``workload`` runs, in order."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "certify":
        # large: huge balanced shapes, all M2 and exact
        ops = [
            _certify("theorem", ("balanced", n + rng.randrange(64)), "2", "3/2")
            for n in (20000, 30000, 40000)
        ]
        # general: reduction, cell typing and cells JSON, mostly log-domain;
        # then the M3 dispatch
        ops += [
            _certify("general", ("staircase", n + rng.randrange(16)), "11/10")
            for n in range(2000, 12001, 1000)
        ]
        ops += [
            _certify("theorem", ("rectangle", 20, w + rng.randrange(4)), "11/10", "21/20")
            for w in (600, 800)
        ]
        return ops
    if workload == "sweep":
        shift = rng.randrange(4)
        return [
            # small: many tiny shapes, so per-row overhead
            _sweep("balanced", "2", "3/2", 40 + shift, 400 + shift),
            _sweep("staircase", "11/10", "21/20", 400 + shift, 1200 + shift),
            # sample: the constrained sampler and its count table
            _sweep("sample", "2", "3/2", 100, 240, samples=2, seed=seed),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def build_shape(shape: list, alpha: str):
    """The ``Partition`` an operation runs on, built by the library's families.

    The library is imported here, not at the top, so that the runner can
    report a checkout without ``src/`` before anything imports it.
    """
    from hookbound import Partition
    from hookbound.families import balanced, staircase

    kind = shape[0]
    if kind == "balanced":
        return balanced(shape[1])
    if kind == "staircase":
        return staircase(shape[1], Fraction(alpha))
    if kind == "rectangle":
        rows, width = shape[1], shape[2]
        return Partition((width,) * rows)
    raise ValueError(f"unknown shape {shape!r}")


def rationals(op: dict) -> tuple[Fraction, Fraction | None]:
    """The operation's alpha and beta (None for a bound without beta)."""
    beta = op["beta"]
    return Fraction(op["alpha"]), None if beta is None else Fraction(beta)
