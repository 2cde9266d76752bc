"""``repro bench-history``: a provenance-stamped performance trajectory.

``repro bench-diff`` (:mod:`repro.obs.benchdiff`) answers "did *this*
run regress against *that* baseline?" — a single pair.  This module
gives the repo a trajectory: every benchmark run appends one JSON line
per experiment to ``benchmarks/history.jsonl`` (git SHA, hostname,
cpu_count, backend, timestamp, timing metrics, summary scalars), and
the analyzer compares the newest entry against the **median of the
previous K** instead of one cherry-picked baseline — robust to a single
noisy CI run on either side, which pairwise diffing is not.

Verdicts per (experiment, metric) series:

* ``regression`` — the latest timing exceeds the window median by more
  than the threshold (direction-aware: ``speedup`` regresses downward);
* ``drift`` — a deterministic summary scalar changed against the window
  median (the simulator is seed-deterministic, so this is a code-change
  signal, not noise);
* ``improved`` / ``ok`` — faster or within tolerance;
* ``insufficient`` — fewer than :data:`MIN_ENTRIES` entries; never a
  failure, so a fresh clone's first CI runs pass while the history
  warms up.

Exit codes mirror bench-diff: 0 all ok, 1 any regression/drift, 2
nothing to analyze.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from .benchdiff import DEFAULT_THRESHOLD, MIN_SECONDS
from .manifest import collect_provenance

__all__ = [
    "HISTORY_FILENAME",
    "HISTORY_ENV",
    "DEFAULT_WINDOW",
    "MIN_ENTRIES",
    "record_from_result",
    "append_history",
    "read_history",
    "TrendSeries",
    "analyze_history",
    "render_history",
    "sparkline",
]

HISTORY_FILENAME = "history.jsonl"

#: Environment override for where benchmark runs append their records
#: (the CI job points this at a persisted artifact path).
HISTORY_ENV = "REPRO_BENCH_HISTORY"

#: How many *previous* entries the median window spans.
DEFAULT_WINDOW = 5

#: Minimum entries a series needs before verdicts mean anything; below
#: this everything is ``insufficient`` (and passing).
MIN_ENTRIES = 3

_SPARK_BARS = "▁▂▃▄▅▆▇█"


def record_from_result(
    result: Dict[str, Any], timestamp: Optional[float] = None
) -> Dict[str, Any]:
    """One history line from an ``EXP-*.json``-shaped result dict.

    Carries exactly what trend analysis needs: identity (exp_id),
    provenance (git SHA, hostname, cpu_count, python, backend), the
    timing sidecar, and the numeric summary scalars.  Rows are *not*
    recorded — the history is a trajectory, not an archive; bench-diff
    against committed baselines still owns exact row comparison.
    """
    timings = dict(result.get("timings") or {})
    summary = {
        k: v
        for k, v in (result.get("summary") or {}).items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }
    return {
        "exp_id": str(result.get("exp_id", "?")),
        "unix_time": time.time() if timestamp is None else float(timestamp),
        "provenance": collect_provenance(),
        "backend": os.environ.get("REPRO_BACKEND", "reference"),
        "timings": timings,
        "summary": summary,
    }


def append_history(path: pathlib.Path, record: Dict[str, Any]) -> pathlib.Path:
    """Append one record line (creating parents); returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    return path


def read_history(path: pathlib.Path) -> List[dict]:
    """Load a history file in append order, skipping undecodable lines.

    A decoded record whose ``timings``, ``timings.phase_seconds`` or
    ``summary`` is present but not an object raises ``ValueError``
    naming the file, the line and the field.
    """
    path = pathlib.Path(path)
    if not path.is_file():
        return []
    records: List[dict] = []
    with path.open(encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError:
                continue  # a torn line from a killed benchmark run
            if isinstance(line, dict) and line.get("exp_id"):
                _check_record(path, lineno, line)
                records.append(line)
    return records


def _check_record(path: pathlib.Path, lineno: int, record: dict) -> None:
    timings = record.get("timings")
    fields = [("timings", timings), ("summary", record.get("summary"))]
    if isinstance(timings, dict):
        fields.append(("timings.phase_seconds", timings.get("phase_seconds")))
    for name, value in fields:
        if value is not None and not isinstance(value, dict):
            raise ValueError(
                f"{path}: line {lineno}: field {name!r} must be an object, "
                f"got {type(value).__name__}"
            )


# ----------------------------------------------------------------------
# trend analysis
@dataclass
class TrendSeries:
    """One (experiment, metric) series and its verdict."""

    exp_id: str
    metric: str
    values: List[float]
    #: median of the window preceding the latest value
    window_median: Optional[float] = None
    latest: Optional[float] = None
    #: relative change of latest vs window median (signed fraction)
    change: Optional[float] = None
    status: str = "insufficient"  # ok | improved | regression | drift | insufficient
    details: List[str] = field(default_factory=list)


def _series(records: List[dict]) -> Dict[Tuple[str, str, str], List[float]]:
    """``(exp_id, metric, kind) -> chronological values`` over the history.

    ``kind`` is ``timing`` (noisy, threshold-compared, direction-aware)
    or ``summary`` (deterministic, exact-compared).
    """
    out: Dict[Tuple[str, str, str], List[float]] = {}

    def push(exp: str, metric: str, kind: str, value: Any) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out.setdefault((exp, metric, kind), []).append(float(value))

    for rec in records:
        exp = str(rec.get("exp_id"))
        timings = rec.get("timings") or {}
        push(exp, "wall", "timing", timings.get("wall_seconds"))
        push(exp, "speedup", "timing", timings.get("speedup"))
        for phase, seconds in (timings.get("phase_seconds") or {}).items():
            push(exp, f"phase[{phase}]", "timing", seconds)
        for key, value in (rec.get("summary") or {}).items():
            push(exp, f"summary[{key}]", "summary", value)
    return out


def analyze_history(
    records: List[dict],
    window: int = DEFAULT_WINDOW,
    threshold: float = DEFAULT_THRESHOLD,
) -> Tuple[List[TrendSeries], int]:
    """Windowed verdicts for every series; returns ``(trends, exit_code)``.

    The latest value of each series is judged against the median of the
    up-to-``window`` entries before it.  Timing metrics use
    ``threshold`` with :data:`~repro.obs.benchdiff.MIN_SECONDS` noise
    floors (same semantics as bench-diff); ``speedup`` is
    higher-is-better; summary scalars must match the median exactly.
    """
    trends: List[TrendSeries] = []
    for (exp_id, metric, kind), values in sorted(_series(records).items()):
        trend = TrendSeries(exp_id=exp_id, metric=metric, values=values)
        trends.append(trend)
        if len(values) < MIN_ENTRIES:
            trend.details.append(
                f"{len(values)} entr{'y' if len(values) == 1 else 'ies'} "
                f"(need {MIN_ENTRIES})"
            )
            continue
        latest = values[-1]
        prior = values[-1 - window : -1] if window > 0 else values[:-1]
        mid = median(prior)
        trend.window_median = mid
        trend.latest = latest
        trend.change = (latest - mid) / mid if mid else None
        if kind == "summary":
            trend.status = "ok" if latest == mid else "drift"
            if trend.status == "drift":
                trend.details.append(f"median {mid:g} -> {latest:g}")
            continue
        higher_is_better = metric == "speedup"
        if not higher_is_better and mid < MIN_SECONDS:
            trend.status = "ok"
            trend.details.append(f"below noise floor ({MIN_SECONDS}s)")
            continue
        if higher_is_better:
            regressed = latest < mid * (1.0 - threshold)
            improved = latest > mid * (1.0 + threshold)
        else:
            regressed = latest > mid * (1.0 + threshold)
            improved = latest < mid * (1.0 - threshold)
        trend.status = "regression" if regressed else ("improved" if improved else "ok")
        if regressed:
            trend.details.append(
                f"median of last {len(prior)}: {mid:.3f} -> {latest:.3f} "
                f"({trend.change:+.0%})"
            )
    if not trends:
        return trends, 2
    bad = any(t.status in ("regression", "drift") for t in trends)
    return trends, 1 if bad else 0


def sparkline(values: List[float], width: int = 16) -> str:
    """A unicode mini-chart of the series' last ``width`` values."""
    tail = [v for v in values[-width:]]
    if not tail:
        return ""
    lo, hi = min(tail), max(tail)
    if hi <= lo:
        return _SPARK_BARS[0] * len(tail)
    scale = (len(_SPARK_BARS) - 1) / (hi - lo)
    return "".join(_SPARK_BARS[int((v - lo) * scale)] for v in tail)


def render_history(
    trends: List[TrendSeries],
    window: int = DEFAULT_WINDOW,
    threshold: float = DEFAULT_THRESHOLD,
) -> str:
    """The ``repro bench-history`` report: one row per series."""
    from ..analysis.tables import render_table

    def _fmt(value: Optional[float]) -> str:
        return f"{value:.3f}" if value is not None else "-"

    rows = []
    for t in trends:
        rows.append(
            [
                t.exp_id,
                t.metric,
                len(t.values),
                _fmt(t.window_median),
                _fmt(t.latest),
                f"{t.change:+.0%}" if t.change is not None else "-",
                sparkline(t.values),
                t.status,
            ]
        )
    lines = [
        render_table(
            ["experiment", "metric", "n", f"median(last {window})", "latest",
             "delta", "trend", "status"],
            rows,
            title=f"bench-history (threshold +{threshold * 100:.0f}%)",
        )
    ]
    for t in trends:
        if t.details and t.status in ("regression", "drift"):
            lines.append(f"{t.exp_id} {t.metric} [{t.status}]:")
            lines.extend(f"  - {msg}" for msg in t.details)
    counts: Dict[str, int] = {}
    for t in trends:
        counts[t.status] = counts.get(t.status, 0) + 1
    lines.append("totals: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return "\n".join(lines)
