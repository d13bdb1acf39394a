"""Command line front end: run verification suites and write reports.

Examples
--------
Run everything with the defaults::

    nklab

Run two suites on one model with more samples and a custom tolerance::

    nklab --suite gray,nk-core --model s3s3 --samples 40 --tol.gray-5 1e-7

Compare two reports row by row (status changes, largest residual drift)::

    nklab --diff before.jsonl after.jsonl

Exit status: 0 when every check passed (expected failures count as
passing), 1 when any check failed, 2 for usage errors, 3 when the run
itself raised (an internal error).  With ``--diff``: 0 when no row changed
status, 1 when one did, 2 when a report cannot be read or holds no
rows.
"""
from __future__ import annotations

import argparse
import math
import sys

from . import report as REP
from . import suites as S

__all__ = ["main", "build_parser", "split_tolerance_args"]


def split_tolerance_args(argv):
    """Pull ``--tol.<check> value`` / ``--tol.<check>=value`` out of argv.

    argparse cannot express a dynamic option family, so tolerance
    overrides are extracted before parsing.
    """
    rest, overrides = [], {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--tol."):
            if "=" in arg:
                name, _, val = arg.partition("=")
            else:
                if i + 1 >= len(argv):
                    raise ValueError(f"missing value for '{arg}'")
                name, val = arg, argv[i + 1]
                i += 1
            check = name[len("--tol."):]
            if not check:
                raise ValueError("empty check name in tolerance override")
            try:
                tol = float(val)
            except ValueError:
                raise ValueError(f"bad tolerance '{val}' for '{check}'") from None
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError(f"tolerance for '{check}' must be finite and "
                                 f"positive, got '{val}'")
            overrides[check] = tol
        else:
            rest.append(arg)
        i += 1
    return rest, overrides


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``; anything else is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"      # argparse reports "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nklab",
        description="Numerical verification suites for nearly Kahler "
                    "six-manifolds and their Killing reductions.")
    p.add_argument("--model", default=None,
                   help="comma-separated models (default: each suite's own); "
                        f"known: {', '.join(S.MODEL_NAMES)}")
    p.add_argument("--suite", default="all",
                   help="comma-separated suites or 'all'; known: "
                        f"{', '.join(S.SUITES)}")
    p.add_argument("--samples", type=_int_at_least(2), default=20,
                   help="sample points per chart, at least 2 (default 20)")
    p.add_argument("--seed", type=_int_at_least(0), default=0,
                   help="random seed for sampling (default 0)")
    p.add_argument("--deriv-mode", choices=("exact", "fd"), default="exact",
                   help="derivative backend: exact jets or finite differences")
    p.add_argument("--out", default=None,
                   help="write a JSONL report here (default: "
                        "$NKLAB_REPORT_DIR/nklab-report-<stamp>.jsonl if set)")
    p.add_argument("--list-checks", action="store_true",
                   help="print the check registry and exit")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-check lines, print only the summary")
    p.add_argument("--diff", nargs=2, metavar=("A.jsonl", "B.jsonl"), default=None,
                   help="compare two reports by (suite, check, model) instead "
                        "of running: status changes and the largest residual drift")
    return p


def _list_checks() -> None:
    width = max(len(c.check) for c in S.CHECKS)
    for spec in S.CHECKS:
        print(f"{spec.check:{width}s}  suite={spec.suite:10s} "
              f"tol={spec.tol:<8.0e} models={','.join(spec.models)}")
    print(f"{len(S.CHECKS)} checks; expected failures: "
          + "; ".join(f"{c} on ({s}, {m})" for (s, m, c) in sorted(S.XFAIL)))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        rest, overrides = split_tolerance_args(argv)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(rest)

    if args.list_checks:
        _list_checks()
        return 0

    if args.diff:
        try:
            d = REP.diff_reports(*(REP.read_jsonl(path) for path in args.diff))
        except (OSError, ValueError, TypeError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(REP.format_diff(d))
        return 1 if d["changes"] else 0

    unknown = set(overrides) - {c.check for c in S.CHECKS}
    if unknown:
        print(f"error: unknown check(s) in tolerance override: "
              f"{', '.join(sorted(unknown))}", file=sys.stderr)
        return 2

    suites = None if args.suite == "all" else [x for x in args.suite.split(",") if x]
    models = None if args.model is None else [x for x in args.model.split(",") if x]
    if suites is not None:
        bad = set(suites) - set(S.SUITES)
        if bad:
            print(f"error: unknown suite(s): {', '.join(sorted(bad))}",
                  file=sys.stderr)
            return 2
    if models is not None:
        bad = set(models) - set(S.MODEL_NAMES)
        if bad:
            print(f"error: unknown model(s): {', '.join(sorted(bad))}",
                  file=sys.stderr)
            return 2

    try:
        results = S.run(models=models, suites=suites, samples=args.samples,
                        seed=args.seed, tol_overrides=overrides,
                        mode=args.deriv_mode)
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3

    if not results:
        print("error: no checks selected for this (model, suite) choice",
              file=sys.stderr)
        return 2

    if not args.quiet:
        for r in results:
            print(REP.format_line(r))
    print(REP.format_summary(results))

    out_path = args.out if args.out is not None else REP.default_report_path()
    if out_path:
        REP.write_jsonl(results, out_path)
        print(f"report written to {out_path}")

    return 0 if REP.summarize(results)["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
