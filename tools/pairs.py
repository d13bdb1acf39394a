#!/usr/bin/env python3
"""Alternate benchmark runs of two checkouts and compare their metrics.

::

    python3 tools/pairs.py OLD NEW --workload lab-wide --pairs 10 --seconds 8

``OLD`` and ``NEW`` are checkout roots, each with its own
``perfbench/run.py`` and ``src/``.  Each pair runs ``perfbench/run.py
--workload W --seconds S --seed SEED --trace 0`` once in each checkout,
one after the other; which side runs first alternates from pair to pair,
so neither side always meets the machine as the other left it.  The last
line of each run's standard output is its JSON result.

For every end-to-end metric of ``BENCHMARK.json`` it prints the median of
each side, the quartiles of OLD, how many pairs NEW won (better in the
metric's direction; a tie is no win) and whether the median gap, in the
better direction, exceeds the interquartile range of OLD's runs.  A gain
that does not clear OLD's IQR cannot be told from the spread of OLD
alone.  Each metric also gets the verdict a change that claims no gain
faces, against the metric's ``bound`` in ``BENCHMARK.json`` (``verdict``).
Last it prints the failed and attempted operations each side summed over
its runs, and ``more operations failed`` when NEW's share is higher.
It exits 1 when a metric reads ``worse beyond bound`` or more operations
failed, and 0 otherwise, ``unresolved`` included (:func:`rejected`), so
a script can gate on the exit code.  The script only runs ``perfbench/``; it writes nothing but the
runs' own output under ``perfbench/out/`` of each checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end(path: Path = ROOT / "BENCHMARK.json") -> dict:
    """{metric: "lower" or "higher"} of the declared end-to-end metrics."""
    spec = json.loads(path.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def bounds(path: Path = ROOT / "BENCHMARK.json") -> dict:
    """{metric: bound} of the declared end-to-end metrics: the share of
    OLD's median by which NEW's may be worse."""
    spec = json.loads(path.read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def run(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its metric values, and
    its ``failed`` and ``attempted`` operation counts."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds",
         str(seconds), "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{checkout}: no JSON result (exit {done.returncode})\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: the run broke the correctness gate\n{done.stdout}")
    return {**{k: v["value"] for k, v in result["metrics"].items()},
            "failed": result["failed"], "attempted": result["attempted"]}


def quartiles(values: list) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(a: list, b: list, sign: float, bound: float) -> str:
    """No-regression verdict of NEW's runs ``b`` against OLD's ``a``.

    ``sign`` is 1 where lower is better and -1 where higher is.  "worse
    beyond bound" when NEW's median is worse than OLD's by more than
    ``bound`` times OLD's median; "unresolved" when OLD's IQR exceeds that
    margin and not every NEW run beats every OLD run; "within bound"
    otherwise.
    """
    margin = bound * abs(statistics.median(a))
    if sign * (statistics.median(b) - statistics.median(a)) > margin:
        return "worse beyond bound"
    q1, q3 = quartiles(a)
    if q3 - q1 > margin and not all(sign * (x - y) > 0 for x in a for y in b):
        return "unresolved"
    return "within bound"


def summary(old: list, new: list, better: dict, bound: dict) -> list:
    """Per metric, the comparison of paired runs ``old[i]``/``new[i]``.

    ``old`` and ``new`` are lists of {metric: value}, one per pair;
    ``better`` maps each metric to "lower" or "higher", and ``bound`` to
    its bound.  Each row holds both medians, OLD's quartiles, NEW's wins,
    the median gap signed so that a positive gap is a gain, whether that
    gain exceeds OLD's IQR, and the metric's :func:`verdict`.
    """
    rows = []
    for name, direction in better.items():
        a = [r[name] for r in old]
        b = [r[name] for r in new]
        sign = 1.0 if direction == "lower" else -1.0
        q1, q3 = quartiles(a)
        gain = sign * (statistics.median(a) - statistics.median(b))
        rows.append({
            "metric": name, "better": direction,
            "old_median": statistics.median(a), "new_median": statistics.median(b),
            "old_q1": q1, "old_q3": q3,
            "wins": sum(sign * (x - y) > 0 for x, y in zip(a, b)), "pairs": len(a),
            "gain": gain, "clears_iqr": gain > q3 - q1,
            "verdict": verdict(a, b, sign, bound[name]),
        })
    return rows


def format_rows(rows: list) -> str:
    out = []
    for r in rows:
        rel = r["gain"] / r["old_median"] if r["old_median"] else float("nan")
        out.append(f"{r['metric']:16s} ({r['better']} is better)  old {r['old_median']:.5g}"
                   f" [q1 {r['old_q1']:.5g}, q3 {r['old_q3']:.5g}]  new {r['new_median']:.5g}"
                   f"  gain {rel:+.1%}  wins {r['wins']}/{r['pairs']}"
                   f"  {'clears' if r['clears_iqr'] else 'inside'} the old IQR  {r['verdict']}")
    return "\n".join(out)


def _operations(runs: list) -> tuple:
    """(failed, attempted) operations summed over ``runs``."""
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def more_failed(old: list, new: list) -> bool:
    """Whether NEW fails a larger share of its operations than OLD."""
    (fo, ao), (fn, an) = _operations(old), _operations(new)
    return fn * ao > fo * an  # fn/an > fo/ao without dividing by zero


def failures(old: list, new: list) -> str:
    """Each side's failed/attempted operations over its runs, flagged when
    NEW fails a larger share of them than OLD."""
    (fo, ao), (fn, an) = _operations(old), _operations(new)
    line = f"failed operations  old {fo}/{ao}  new {fn}/{an}"
    if more_failed(old, new):
        line += "  more operations failed"
    return line


def rejected(rows: list, old: list, new: list) -> bool:
    """Whether NEW fails the gate of a change that claims no gain: a
    metric of ``rows`` (:func:`summary`) reads "worse beyond bound", or
    NEW fails a larger share of its operations.  "unresolved" passes."""
    return (any(r["verdict"] == "worse beyond bound" for r in rows)
            or more_failed(old, new))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    runs = {"old": [], "new": []}
    for i in range(args.pairs):
        for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
            runs[side].append(run(sides[side], args.workload, args.seconds, args.seed))
        print(f"pair {i + 1}: lab_s old {runs['old'][-1].get('lab_s', float('nan')):.4f}"
              f" new {runs['new'][-1].get('lab_s', float('nan')):.4f}", flush=True)
    rows = summary(runs["old"], runs["new"], end_to_end(), bounds())
    print(format_rows(rows))
    print(failures(runs["old"], runs["new"]))
    return int(rejected(rows, runs["old"], runs["new"]))


if __name__ == "__main__":
    raise SystemExit(main())
