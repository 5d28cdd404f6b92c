"""Command-line front end.

Subcommands: degree | certify | typing | sweep | oracle.  Exit codes follow
a fixed convention so shell pipelines can triage: 0 for PASS (or plain
success), 2 for a FAIL or MARGINAL verdict, 3 for a hypothesis violation,
1 for usage or parse errors.  Results go to stdout, diagnostics to stderr;
nothing is written to disk unless --out is given.
"""
from __future__ import annotations

import argparse
import decimal
import json
import math
import sys

from .bounds import (
    general_bound,
    overexponential_bound,
    rectangle_bound,
    strict_bound,
    strip_bound,
    theorem_classify,
)
from .celltyping import cell_typing
from .degrees import (
    SUM_SQUARES_GUARD,
    SYT_COUNT_GUARD,
    count_syt_bruteforce,
    degree,
    sum_squares_identity,
    verify_remark_N_ge_h,
)
from .errors import HookBoundError, HypothesisError
from .partitions import Partition, enumerate_partitions, parse_rational
from .sweep import build_growth_report, render_csv, render_json

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_HYPOTHESIS = 3

ORACLE_GLOBAL_CAP = 12
DEGREE_SUITE_CAP = 8
REMARK_SUITE_CAP = 7


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hookbound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degree", help="print the exact degree and its natural log")
    p.add_argument("partition")

    p = sub.add_parser("certify", help="emit a bound certificate as JSON")
    p.add_argument(
        "bound",
        choices=["strip", "rectangle", "overexponential", "strict", "general", "theorem"],
    )
    p.add_argument("partition", nargs="?", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--eps", default=None)
    p.add_argument("--gamma", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("typing", help="dump the four-type cell numbering")
    p.add_argument("partition")
    p.add_argument("--alpha", required=True)
    p.add_argument("--format", choices=["grid", "json"], default="grid")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="growth report over a partition family")
    p.add_argument("family", choices=["balanced", "staircase", "enumerate", "sample"])
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("oracle", help="run the identity and oracle suites")
    p.add_argument("--max-n", type=int, required=True)

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise HookBoundError(f"cannot write --out {out_path}: {err.strerror}") from None
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_degree(args) -> int:
    lam = Partition.parse(args.partition)
    f = degree(lam)
    # an exact decimal context prints every digit, past CPython's int-to-str
    # digit limit, without touching that interpreter-wide limit
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    print(exact.create_decimal(f))
    print(format(math.log(f), ".15g"))
    return EXIT_PASS


def _need(args, names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise _UsageError(f"certify {args.bound} requires --{name.replace('_', '-')}")


def _cmd_certify(args) -> int:
    bound = args.bound
    if bound == "rectangle":
        _need(args, ["a", "b"])
        cert = rectangle_bound(args.a, args.b)
    else:
        if args.partition is None:
            raise _UsageError(f"certify {bound} requires a partition argument")
        lam = Partition.parse(args.partition)
        if bound == "strip":
            _need(args, ["alpha", "k", "l"])
            cert = strip_bound(lam, args.k, args.l, parse_rational(args.alpha))
        elif bound == "overexponential":
            _need(args, ["eps", "gamma"])
            cert = overexponential_bound(
                lam, parse_rational(args.eps), parse_rational(args.gamma)
            )
        elif bound == "strict":
            _need(args, ["alpha"])
            cert = strict_bound(lam, parse_rational(args.alpha))
        elif bound == "general":
            _need(args, ["alpha"])
            cert = general_bound(lam, parse_rational(args.alpha))
        else:  # theorem
            _need(args, ["alpha", "beta"])
            cert = theorem_classify(lam, parse_rational(args.alpha), parse_rational(args.beta))
    _emit(cert.to_json(), args.out)
    return EXIT_PASS if cert.verdict == "PASS" else EXIT_FAIL


def _cmd_typing(args) -> int:
    lam = Partition.parse(args.partition)
    typing = cell_typing(lam, parse_rational(args.alpha))
    if args.format == "grid":
        _emit("\n".join(typing.grid_lines()), args.out)
    else:
        _emit(json.dumps(typing.to_json_dict(), indent=2), args.out)
    return EXIT_PASS


def _cmd_sweep(args) -> int:
    report = build_growth_report(
        family=args.family,
        alpha=parse_rational(args.alpha),
        beta=parse_rational(args.beta),
        n_from=args.n_from,
        n_to=args.n_to,
        samples=args.samples,
        seed=args.seed,
    )
    if args.format == "csv":
        text = render_csv(report)
        # the CSV has no place for skipped n; JSON lists them under "skipped"
        for n, reason in report.skipped:
            print(f"skipped n={n}: {reason}", file=sys.stderr)
    else:
        text = render_json(report)
    _emit(text, args.out)
    return EXIT_PASS


def _cmd_oracle(args) -> int:
    max_n = args.max_n
    if max_n < 1 or max_n > ORACLE_GLOBAL_CAP:
        print(
            f"--max-n must be between 1 and {ORACLE_GLOBAL_CAP} "
            f"(suite guards: degrees {DEGREE_SUITE_CAP}, remark {REMARK_SUITE_CAP}, "
            f"identities {SUM_SQUARES_GUARD})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    # (label, the suite's own cap on n, the check of every shape of one n)
    suites = (
        ("sum-of-squares identity", SUM_SQUARES_GUARD, sum_squares_identity),
        ("conjugation symmetry", SUM_SQUARES_GUARD,
         lambda n: all(degree(p) == degree(p.conjugate()) for p in enumerate_partitions(n))),
        ("brute-force tableau counts", min(DEGREE_SUITE_CAP, SYT_COUNT_GUARD),
         lambda n: all(degree(p) == count_syt_bruteforce(p) for p in enumerate_partitions(n))),
        ("tableau complement bound", REMARK_SUITE_CAP,
         lambda n: all(map(verify_remark_N_ge_h, enumerate_partitions(n)))),
    )
    failures = 0
    for label, guard, check in suites:
        cap = min(max_n, guard)
        ok = all(map(check, range(cap + 1)))
        failures += not ok
        print(f"{label} up to n={cap}: {'PASS' if ok else 'FAIL'}")
    return EXIT_PASS if failures == 0 else EXIT_FAIL


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "degree":
            return _cmd_degree(args)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "typing":
            return _cmd_typing(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_oracle(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisError as err:
        print(str(err), file=sys.stderr)
        return EXIT_HYPOTHESIS
    except HookBoundError as err:
        print(str(err), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
