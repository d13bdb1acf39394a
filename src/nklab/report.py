"""Structured results for the verification suites.

One record per executed check; records serialise as JSON lines so runs
can be archived and diffed.  The JSON schema is flat and sorted so the
files are stable under re-runs with the same inputs.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

__all__ = [
    "SCHEMA_VERSION",
    "CheckResult",
    "write_jsonl",
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
