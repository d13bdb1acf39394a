#!/usr/bin/env python3
"""Benchmark of the nklab verification lab.

Run from the repository root; nklab is imported from ``src/``::

    python3 perfbench/run.py --workload lab-exact --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --all          # every workload, untraced then traced
    python3 perfbench/run.py --self-check   # tiny samples: names, units, wrapping

Every workload is closed loop: one caller runs the lab through the public
API ``nklab.suites.run(models, suites, samples, seed, mode)``, waits for
the results and runs it again, until ``--seconds`` is used up (at least
two passes).  Each workload runs in its own single-threaded process.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes one
traced pass and one untraced pass and reports the per-layer metrics of
``tracing.py`` and the tracing overhead.  Either way the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``attempted`` counts check results over all passes and
``failed`` those whose evaluation raised (status ``error``); a ``fail``
verdict is an output of the lab, counted in ``pass_frac``/``fail_frac``.

Correctness gate, on every run: all passes of one run must agree exactly
on every status and residual, and on the exact-derivative workloads
``report.summarize(results)["ok"]`` must hold.  A run that breaks the gate
prints its result with ``"correct": false`` and exits with status 1.

The per-(check, model) table and the run fingerprint go to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``; a traced run
also writes its spans to ``...-spans.json`` there.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: jmatinv's np.linalg.inv would
# otherwise start an OpenBLAS pool of up to MAX_THREADS threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing

# Import nklab from cached bytecode, as an installed package does, even
# where PYTHONDONTWRITEBYTECODE is set: compiling would dominate setup_s.
sys.dont_write_bytecode = False

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MODULES = ("jets", "findiff", "chart", "calculus", "exterior", "models",
           "nkcore", "reduction", "ansatz", "report", "suites")

#: Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    "lab-exact": {"models": None, "suites": None, "samples": 50,
                  "mode": "exact", "gate": True},
    "lab-wide": {"models": ("s3s3", "s6", "s3s3-product"),
                 "suites": ("gray", "nk-core"), "samples": 100,
                 "mode": "exact", "gate": True},
    "lab-fd": {"models": None, "suites": None, "samples": 20,
               "mode": "fd", "gate": False},
}

DEFAULT_SECONDS = 32
SETUP_REPS = 5
SELF_CHECK_SAMPLES = 4
#: Per-layer metrics that must repeat bit-for-bit at a fixed seed.
EXACT_UNITS = ("count", "B-computed")
EXACT_RATIOS = ("jets.jj.trusted_frac", "chart.memo.hit_ratio")


# ---------------------------------------------------------------------------
# the program under test


def load_nklab() -> dict:
    """Import a fresh copy of every nklab module from ``src/``."""
    for name in [n for n in sys.modules if n == "nklab" or n.startswith("nklab.")]:
        del sys.modules[name]
    nk = {m: importlib.import_module(f"nklab.{m}") for m in MODULES}
    if not Path(nk["suites"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"nklab was imported from {nk['suites'].__file__}, not {SRC}")
    return nk


def workload_models(suites_mod, w) -> list:
    models = []
    for suite in w["suites"] or suites_mod.SUITES:
        for m in suites_mod.SUITES[suite]:
            if (w["models"] is None or m in w["models"]) and m not in models:
                models.append(m)
    return models


def build(nk, w, samples, seed) -> None:
    """Build the workload's models and sample points, as a pass does."""
    for name in workload_models(nk["suites"], w):
        chart = nk["models"].build_model(name).chart
        nk["chart"].sample_points(chart, samples, np.random.default_rng(seed))


def settle() -> None:
    """Collect garbage and freeze what survives, before each timed step.

    Without this, how many objects earlier set-ups, passes and spans left
    behind changes the cost of every later garbage collection.
    """
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def set_up(w, samples, seed):
    """Time one set-up: import nklab afresh, build models, draw points."""
    settle()
    t0 = time.perf_counter()
    nk = load_nklab()
    build(nk, w, samples, seed)
    return time.perf_counter() - t0, nk


def lab_pass(nk, w, samples, seed):
    settle()
    t0 = time.perf_counter()
    results = nk["suites"].run(w["models"], w["suites"], samples, seed, mode=w["mode"])
    return time.perf_counter() - t0, results


def table(results) -> list:
    """Per-(check, model) rows; repr keeps NaN comparable and every digit."""
    return [(r.suite, r.model, r.check, r.status, repr(r.residual), repr(r.value))
            for r in results]


def accuracy(suites_mod, results) -> dict:
    n = len(results)
    bad = sum(r.failed for r in results)
    plain = [r for r in results if (r.suite, r.model, r.check) not in suites_mod.XFAIL]
    ratios = [r.residual / r.tolerance if r.residual == r.residual else math.inf
              for r in plain]
    logs = [math.log10(min(max(r.residual, 1e-308), 1e308))
            if r.residual == r.residual else 308.0 for r in plain]
    median_log10 = statistics.median(logs)
    return {
        "results": n,
        "bad": bad,
        "fail_frac": bad / n,
        "pass_frac": (n - bad) / n,
        "worst_tol_ratio": max(ratios),
        "residual_median_log10": median_log10,
        "residual_digits": -median_log10,
    }


# ---------------------------------------------------------------------------
# run fingerprint


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def fingerprint(name, w, samples, seed, trace) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": name, "seed": seed, "samples": samples, "mode": w["mode"],
        "trace": trace, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": openblas_threads(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu, "git_sha": git_sha(),
    }


# ---------------------------------------------------------------------------
# one workload in this process


def run_untraced(w, samples, seed, seconds):
    """Run passes for ``seconds``, each after SETUP_REPS timed set-ups.

    Spreading the set-ups over the run lets them see the same machine
    states as the passes; each pass starts from freshly imported modules.
    """
    setup_times, times, tables, results = [], [], [], None
    start = time.perf_counter()
    while (len(times) < 2 or time.perf_counter() - start
           + statistics.median(times) <= seconds):
        for _ in range(SETUP_REPS):
            dt, nk = set_up(w, samples, seed)
            setup_times.append(dt)
        dt, results = lab_pass(nk, w, samples, seed)
        times.append(dt)
        tables.append(table(results))
    return nk, setup_times, times, tables, results


def run_traced(w, samples, seed):
    """One traced pass, then one untraced pass of the same lab.

    The traced pass goes first so that ``rss_rise_mb`` sees the process's
    high-water mark rise.  The untraced pass, the overhead baseline, runs
    on a fresh import of nklab that holds no wrappers.
    """
    nk = load_nklab()
    tracer = tracing.Tracer()
    bound = tracing.install(nk, tracer)
    build(nk, w, samples, seed)
    setup = tracer.take()
    traced_s, traced = lab_pass(nk, w, samples, seed)
    _, nk = set_up(w, samples, seed)
    untraced_s, results = lab_pass(nk, w, samples, seed)
    metrics = tracing.layer_metrics(tracer, setup, nk["suites"].MODEL_NAMES,
                                    nk["suites"].SUITES)
    metrics["trace.lab_s"] = traced_s
    metrics["trace.untraced_lab_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return nk, tracer, bound, metrics, [table(traced), table(results)], results


def run_one(args) -> int:
    name, w = args.workload, WORKLOADS[args.workload]
    samples = args.samples or w["samples"]
    if not (SRC / "nklab" / "__init__.py").is_file():
        print(f"perfbench: no nklab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    info = fingerprint(name, w, samples, args.seed, args.trace)
    print(f"perfbench {name}: " + " ".join(f"{k}={v}" for k, v in info.items()), flush=True)

    if args.trace:
        nk, tracer, bound, layer, tables, results = run_traced(
            w, samples, args.seed)
        units = tracing.metric_units(nk["suites"].MODEL_NAMES, nk["suites"].SUITES)
        metrics = {k: (layer[k], u) for k, u in units.items()}
        extra = {"wrapped": bound}
    else:
        nk, setup_times, times, tables, results = run_untraced(
            w, samples, args.seed, args.seconds)
        acc = accuracy(nk["suites"], results)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "lab_s": (statistics.median(times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_frac": (acc["pass_frac"], "ratio"),
            "residual_digits": (acc["residual_digits"], "digits"),
        }
        extra = {"setup_times": setup_times, "pass_times": times, "accuracy": acc}

    problems = []
    if any(t != tables[0] for t in tables[1:]):
        problems.append("passes disagree on statuses or residuals")
    summary = nk["report"].summarize(results)
    if w["gate"] and not summary["ok"]:
        problems.append(f"exact-mode lab not ok: {summary}")
    attempted = len(results) * len(tables)
    raised = sum(r.status == "error" for r in results) * len(tables)
    emitted = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{args.seed}-trace{args.trace}"
    report = {
        "fingerprint": info, "problems": problems, "summary": summary,
        "metrics": emitted, **extra,
        "results": [{"suite": r.suite, "model": r.model, "check": r.check,
                     "status": r.status, "residual": r.residual,
                     "tolerance": r.tolerance, "value": r.value} for r in results],
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        tracer.write(f"{stem}-spans.json")
        for k, (v, u) in metrics.items():
            print(f"  {k:52s} {v:.6g} {u}")
    else:
        print(f"  {'setup_s':24s} {metrics['setup_s'][0]:.4f} s   (median of {len(setup_times)} set-ups)")
        print(f"  {'lab_s':24s} {metrics['lab_s'][0]:.4f} s   (median of {len(times)} passes, samples={samples})")
        print(f"  {'peak_rss_mb':24s} {metrics['peak_rss_mb'][0]:.1f} MB")
        print(f"  {'fail_frac':24s} {acc['fail_frac']:.4f}     ({acc['bad']} of {acc['results']} results fail, xpass or error)")
        print(f"  {'pass_frac':24s} {acc['pass_frac']:.4f} ratio")
        print(f"  {'worst_tol_ratio':24s} {acc['worst_tol_ratio']:.3e}")
        print(f"  {'residual_median_log10':24s} {acc['residual_median_log10']:.4f}")
        print(f"  {'residual_digits':24s} {acc['residual_digits']:.4f} digits")
    for p in problems:
        print(f"  GATE FAILED: {p}")
    print(f"  table: {stem}.json")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": raised,
                      "metrics": emitted}))
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# every workload, each in its own process


def child(workload, seed, seconds, trace, samples=None):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if samples:
        cmd += ["--samples", str(samples)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def run_all(args) -> int:
    rows, status = {}, 0
    for name in WORKLOADS:
        code0, plain = child(name, args.seed, args.seconds, 0, args.samples)
        code1, traced = child(name, args.seed, args.seconds, 1, args.samples)
        status |= code0 | code1
        rows[name] = (plain, traced)
    print(f"\nperfbench summary, seed {args.seed}")
    for name, (plain, traced) in rows.items():
        if plain is None or traced is None:
            print(f"  {name}: no result")
            continue
        m = plain["metrics"]
        cells = "  ".join(f"{k}={v['value']:.5g} {v['unit']}" for k, v in m.items())
        with open(OUT / f"{name}-seed{args.seed}-trace0.json", encoding="utf-8") as fh:
            acc = json.load(fh)["accuracy"]
        t = traced["metrics"]
        print(f"  {name}: {cells}  correct={plain['correct'] and traced['correct']}")
        print(f"  {name}: fail_frac={acc['fail_frac']:.4f} ({acc['bad']} of {acc['results']})"
              f"  worst_tol_ratio={acc['worst_tol_ratio']:.3e}"
              f"  residual_median_log10={acc['residual_median_log10']:.4f}")
        print(f"  {name}: tracing overhead {t['trace.overhead_s']['value']:.3f} s"
              f" on an untraced pass of {t['trace.untraced_lab_s']['value']:.3f} s")
    return 1 if status else 0


def self_check(args) -> int:
    """Fast check that the harness still matches BENCHMARK.json and nklab."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    if {x["name"] for x in spec["workloads"]} != set(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from WORKLOADS")
    if spec["run_seconds"] != DEFAULT_SECONDS:
        errors.append("BENCHMARK.json run_seconds differs from DEFAULT_SECONDS")
    sys.path.insert(0, str(SRC))
    jets = importlib.import_module("nklab.jets")
    for nvars, ok in ((4, 0), (4, 2), (6, 1), (6, 3)):
        if len(jets.jetspace(nvars, ok).mul_a) != tracing.trusted_pairs(nvars, ok, ok):
            errors.append(f"trusted_pairs({nvars}, {ok}) differs from jetspace's pair table")
    samples = args.samples or SELF_CHECK_SAMPLES
    for name in WORKLOADS:
        runs = [child(name, args.seed, 1, trace, samples) for trace in (0, 1, 1)]
        for (code, result), want in zip(runs, (e2e, layer, layer)):
            if code != 0 or result is None or not result["correct"]:
                errors.append(f"{name}: run failed (exit {code})")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{name}: emitted metrics differ from BENCHMARK.json: "
                              f"missing {sorted(set(want) - set(got))}, "
                              f"extra {sorted(set(got) - set(want))}, "
                              f"units {sorted(k for k in got if k in want and got[k] != want[k])}")
        if all(r is not None for _, r in runs[1:]):
            a, b = (r["metrics"] for _, r in runs[1:])
            for k, v in a.items():
                exact = v["unit"] in EXACT_UNITS or k in EXACT_RATIOS
                if exact and v["value"] != b.get(k, {}).get("value"):
                    errors.append(f"{name}: {k} differs between two traced runs "
                                  f"({v['value']} vs {b.get(k, {}).get('value')})")
    for e in errors:
        print(f"SELF-CHECK FAILED: {e}")
    print("self-check " + ("failed" if errors else "passed"))
    return 1 if errors else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload, untraced then traced")
    p.add_argument("--self-check", action="store_true",
                   help="run every workload at tiny samples and check names, units and counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--samples", type=int, default=None,
                   help="override the workload's sample count")
    args = p.parse_args(argv)
    if args.self_check:
        return self_check(args)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("give --workload, --all or --self-check")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
