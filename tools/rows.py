#!/usr/bin/env python3
"""Write the lab's rows for the benchmark workloads, or compare two such sets.

Two steps, each a plain ``nklab`` command line per (workload, seed)::

    python3 tools/rows.py write OUT [--src SRC]
    python3 tools/rows.py compare OLD NEW

``write`` runs the CLI of the checkout whose ``src/`` is ``SRC`` (default:
this repository's) once per workload configuration of
``perfbench/run.py`` and seed of ``SEEDS``, and writes each report to
``OUT/<workload>-seed<seed>.jsonl``.  ``compare`` diffs the reports of two
such directories file by file with ``nklab.report.diff_reports`` and says,
per file and overall, whether the rows are bit-identical: the same rows,
statuses, residuals, values and quantiles.  For each file it names the
rows found on one side only, says whether the rows of both sides are
bit-identical, and prints the worst passing residual/tolerance, old ->
new: how close the nearest passing row came to failing.  It exits 0 when
every status is kept, and 1 when any row changed status or is absent from
one side, a file is missing, or either directory holds no report.

To compare a change with its parent, write the parent's rows from a second
checkout (``git archive HEAD~1 | tar x -C /tmp/parent``)::

    python3 tools/rows.py write /tmp/rows-old --src /tmp/parent/src
    python3 tools/rows.py write /tmp/rows-new
    python3 tools/rows.py compare /tmp/rows-old /tmp/rows-new
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nklab import report as REP  # noqa: E402

#: The workload configurations of ``perfbench/run.py`` (``WORKLOADS``), as
#: ``nklab`` arguments.
WORKLOADS = {
    "lab-exact": ["--samples", "50"],
    "lab-wide": ["--model", "s3s3,s6,s3s3-product", "--suite", "gray,nk-core",
                 "--samples", "100"],
    "lab-fd": ["--samples", "20", "--deriv-mode", "fd"],
}

#: The seeds each workload runs at.
SEEDS = (0, 1, 2, 3)


def write(out: Path, src: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    for name, argv in WORKLOADS.items():
        for seed in SEEDS:
            path = out / f"{name}-seed{seed}.jsonl"
            # exit status 1 only says that a check failed (lab-fd has some)
            done = subprocess.run(
                [sys.executable, "-m", "nklab.cli", *argv, "--seed", str(seed),
                 "--quiet", "--out", str(path)],
                env=env, capture_output=True, text=True)
            if done.returncode not in (0, 1):
                raise SystemExit(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}")
            print(f"{path}: {done.stdout.splitlines()[0]}")


def shared_identical(d: dict) -> bool:
    """True when the rows found in both runs are the same, bit for bit."""
    return (all(None in (s0, s1) for _, s0, s1 in d["changes"])
            and all(x is None or x[0] == 0.0 for x in (d["drift"], d["value_drift"]))
            and not d["quantile_changes"])


def worst_margin(rows: dict) -> str:
    """The largest residual/tolerance of the passing ``rows`` and its row."""
    ratio, key = max(((r.residual / r.tolerance, k) for k, r in rows.items()
                      if r.status == "pass"), default=(None, None))
    return "-" if key is None else f"{ratio:.3g} ({key[0]}/{key[1]} on {key[2]})"


def compare(old: Path, new: Path) -> int:
    for side in (old, new):
        if not any(side.glob("*.jsonl")):
            print(f"{side}: no *.jsonl report to compare")
            return 1
    names = sorted({p.name for p in (*old.glob("*.jsonl"), *new.glob("*.jsonl"))})
    kept, same = True, True
    for name in names:
        if not (old / name).exists() or not (new / name).exists():
            print(f"== {name}: only in {old if (old / name).exists() else new}")
            kept = same = False
            continue
        d = REP.diff_reports(REP.read_jsonl(old / name), REP.read_jsonl(new / name))
        shared = shared_identical(d)
        exact = shared and len(d["old"]) == len(d["new"]) == d["compared"]
        print(f"== {name}: {'bit-identical' if exact else 'differs'}")
        tally = []
        for side, mine, theirs in (("OLD", d["old"], d["new"]), ("NEW", d["new"], d["old"])):
            only = [f"{k[0]}/{k[1]} on {k[2]}" for k in mine if k not in theirs]
            if only:
                tally.append(f"{len(only)} row{'s' if len(only) > 1 else ''} only in "
                             f"{side} ({', '.join(only)})")
        tally.append(f"{d['compared']} shared rows "
                     f"{'bit-identical' if shared else 'not bit-identical'}")
        print(", ".join(tally))
        print(f"worst passing residual/tolerance {worst_margin(d['old'])} -> "
              f"{worst_margin(d['new'])}")
        if not exact:
            print(REP.format_diff(d))
        kept &= not d["changes"]
        same &= exact
    print(f"{len(names)} files: {'all bit-identical' if same else 'not bit-identical'}, "
          f"{'every status kept' if kept else 'STATUS CHANGED'}")
    return 0 if kept else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    w = sub.add_parser("write", help="write the rows of every workload and seed")
    w.add_argument("out", type=Path)
    w.add_argument("--src", type=Path, default=ROOT / "src",
                   help="the src/ directory of the checkout to run")
    c = sub.add_parser("compare", help="compare two directories of rows")
    c.add_argument("old", type=Path)
    c.add_argument("new", type=Path)
    args = p.parse_args(argv)
    if args.cmd == "write":
        write(args.out, args.src.resolve())
        return 0
    return compare(args.old, args.new)


if __name__ == "__main__":
    raise SystemExit(main())
