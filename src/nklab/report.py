"""Structured results for the verification suites.

One record per executed check; records serialise as JSON lines so runs
can be archived and diffed.  The JSON schema is flat and sorted so the
files are stable under re-runs with the same inputs.  :func:`diff_reports`
matches the rows of two reports by (suite, check, model).
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass

__all__ = [
    "SCHEMA_VERSION",
    "CheckResult",
    "write_jsonl",
    "read_jsonl",
    "diff_reports",
    "format_diff",
    "default_report_path",
    "format_line",
    "summarize",
    "format_summary",
]

SCHEMA_VERSION = 1

#: Environment variable naming a directory for automatic report files.
REPORT_DIR_ENV = "NKLAB_REPORT_DIR"


@dataclass
class CheckResult:
    """Outcome of one check on one model."""

    check: str
    suite: str
    model: str
    status: str            # pass | fail | xfail | xpass | error
    residual: float
    tolerance: float
    value: float | None = None
    quantiles: dict | None = None
    samples: int = 0
    seed: int = 0
    seconds: float = 0.0
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status in ("fail", "xpass", "error")

    def to_json(self) -> str:
        d = asdict(self)
        d["schema"] = SCHEMA_VERSION
        return json.dumps(d, sort_keys=True, allow_nan=True)


def write_jsonl(results, path: str) -> str:
    """Append-free write of all results to ``path`` (one JSON per line)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for r in results:
            fh.write(r.to_json() + "\n")
    return path


def read_jsonl(path: str) -> list[CheckResult]:
    """The rows of a report written by :func:`write_jsonl`; a report with
    no rows raises ``ValueError``, so comparing it shows nothing."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            d = json.loads(line)
            if d.pop("schema", None) != SCHEMA_VERSION:
                raise ValueError(f"{path}: not a schema-{SCHEMA_VERSION} report row")
            rows.append(CheckResult(**d))
    if not rows:
        raise ValueError(f"{path}: a report with no rows")
    return rows


def _by_key(rows) -> dict:
    out = {}
    for r in rows:
        key = (r.suite, r.check, r.model)
        if key in out:
            raise ValueError(f"two rows for {'/'.join(key[:2])} on {key[2]}")
        out[key] = r
    return out


def _drift(a: float, b: float) -> float:
    """|b - a|; two NaNs agree, one NaN is an infinite drift."""
    if math.isnan(a) and math.isnan(b):
        return 0.0
    d = abs(b - a)
    return math.inf if math.isnan(d) else d


def _largest(pairs):
    """The ``(drift, key)`` pair of largest drift, or None for no pairs."""
    return max(pairs, key=lambda x: x[0], default=None)


def diff_reports(old, new) -> dict:
    """Rows of two runs matched by (suite, check, model).

    ``changes`` lists ``(key, old status, new status)`` for each row whose
    status differs, a row missing from one run having status None;
    ``drift`` is ``(|residual change|, key)`` of the row whose residual
    moved most, or None when no row is in both runs; ``value_drift`` is the
    same for ``value``, over the rows of both runs that carry one in either
    (a value in one run only is an infinite drift); ``quantile_changes``
    lists the keys of the rows whose ``quantiles`` differ.
    """
    a, b = _by_key(old), _by_key(new)
    both = [k for k in a if k in b]
    changes = [(k, a[k].status if k in a else None, b[k].status if k in b else None)
               for k in dict.fromkeys([*a, *b])
               if k not in a or k not in b or a[k].status != b[k].status]
    drift = _largest((_drift(a[k].residual, b[k].residual), k) for k in both)
    value_drift = _largest(
        (math.inf if None in (a[k].value, b[k].value) else _drift(a[k].value, b[k].value), k)
        for k in both if (a[k].value, b[k].value) != (None, None))
    quantile_changes = [k for k in both if json.dumps(a[k].quantiles, sort_keys=True)
                        != json.dumps(b[k].quantiles, sort_keys=True)]
    return {"old": a, "new": b, "compared": len(both), "changes": changes,
            "drift": drift, "value_drift": value_drift,
            "quantile_changes": quantile_changes}


def format_diff(d: dict) -> str:
    def name(key):
        return f"{key[0]}/{key[1]} on {key[2]}"

    def residual(rows, key):
        return f"{rows[key].residual:.3e}" if key in rows else "-"

    lines = [f"STATUS  {name(k)}: {s0 or 'absent'} -> {s1 or 'absent'}  (residual "
             f"{residual(d['old'], k)} -> {residual(d['new'], k)})"
             for k, s0, s1 in d["changes"]]
    if d["drift"] is not None:
        size, k = d["drift"]
        lines.append(f"largest residual drift {size:.2e}: {name(k)} "
                     f"({residual(d['old'], k)} -> {residual(d['new'], k)})")
    if d["value_drift"] is not None:
        size, k = d["value_drift"]
        lines.append(f"largest value drift {size:.2e}: {name(k)} "
                     f"({d['old'][k].value} -> {d['new'][k].value})")
    lines += [f"QUANTILES  {name(k)}: {d['old'][k].quantiles} -> {d['new'][k].quantiles}"
              for k in d["quantile_changes"]]
    lines.append(f"{d['compared']} rows in both runs, {len(d['changes'])} status changes")
    return "\n".join(lines)


def default_report_path() -> str | None:
    """Timestamped path under $NKLAB_REPORT_DIR, or None if unset."""
    base = os.environ.get(REPORT_DIR_ENV)
    if not base:
        return None
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return os.path.join(base, f"nklab-report-{stamp}.jsonl")


def format_line(r: CheckResult) -> str:
    tag = {"pass": "PASS ", "fail": "FAIL ", "xfail": "XFAIL",
           "xpass": "XPASS", "error": "ERROR"}[r.status]
    extra = f"  value={r.value:.6g}" if r.value is not None else ""
    tail = f"  [{r.detail}]" if r.detail and r.status in ("error", "xfail", "xpass") else ""
    return (f"{tag}  {r.check:28s} {r.model:14s} "
            f"residual={r.residual:9.3e}  tol={r.tolerance:.0e}{extra}{tail}")


def summarize(results) -> dict:
    out = {"pass": 0, "fail": 0, "xfail": 0, "xpass": 0, "error": 0}
    for r in results:
        out[r.status] += 1
    out["total"] = len(results)
    out["ok"] = out["fail"] == 0 and out["xpass"] == 0 and out["error"] == 0
    return out


def format_summary(results) -> str:
    s = summarize(results)
    bits = [f"{s['total']} checks", f"{s['pass']} passed"]
    for k in ("fail", "xfail", "xpass", "error"):
        if s[k]:
            bits.append(f"{s[k]} {k}")
    return ", ".join(bits)
