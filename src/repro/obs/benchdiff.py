"""``repro bench-diff``: compare two directories of ``EXP-*.json`` files.

Every benchmark persists its :class:`~repro.analysis.experiments.base.
ExperimentResult` as ``benchmarks/out/EXP-*.json`` (the ``exp_output``
fixture).  Those files carry two different kinds of signal:

* **measured results** — the table rows and the ``summary`` scalars
  (termination rounds, CONGEST bits, error rates).  The simulator is
  deterministic in its seeds, so *any* change here means the code now
  computes something different: reported as ``drift``.  Cells pair by
  column name when both files carry headers, so a dropped column is
  reported once rather than shifting every cell after it.
* **timings** — the observability sidecar (wall seconds, per-phase
  seconds, parallel ``speedup``).  Wall clock is noisy, so changes only
  count as a ``regression`` when the new time exceeds the old by more
  than the metric's tolerance (default ``threshold``, 25%) *and* the
  old time was big enough to measure honestly (``MIN_SECONDS``).
  Per-metric tolerances come from ``--tolerance NAME=FRAC`` (repeatable;
  ``NAME`` is ``wall``, ``phase[delivery]``, ``speedup``, ... optionally
  prefixed ``EXP-ID:`` to scope one experiment).  The ``speedup``
  comparison is *skipped with a logged reason* when the two sides record
  different ``cpu_count`` — a 1-CPU CI runner cannot regress a speedup
  measured on a 4-CPU box, it can only fail to reproduce it.

Exit status: 0 when every experiment is ``ok`` (or only got faster);
1 when anything drifted or regressed; 2 when there was nothing to
compare.  ``repro bench-diff --fail-on-regression`` additionally fails
``only-new`` experiments (no committed baseline) — that is the blocking
CI gate mode; refreshing the committed baseline is the intended fix for
legitimate drift.
"""

from __future__ import annotations

import json
import logging
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "BenchDiff",
    "diff_dirs",
    "parse_tolerances",
    "render_diff",
    "DEFAULT_THRESHOLD",
    "MIN_SECONDS",
]

logger = logging.getLogger("repro.obs.benchdiff")

#: Relative slow-down below which a wall/phase time change is noise.
DEFAULT_THRESHOLD = 0.25
#: Old-side floor (seconds) under which timing comparisons are skipped —
#: a 2ms phase doubling to 4ms is scheduler jitter, not a regression.
MIN_SECONDS = 0.05


def parse_tolerances(specs: Optional[List[str]]) -> Dict[str, float]:
    """``["wall=0.4", "EXP-SUB:speedup=0.2"]`` -> per-metric fractions."""
    out: Dict[str, float] = {}
    for spec in specs or ():
        name, sep, raw = spec.partition("=")
        if not sep or not name:
            raise ValueError(
                f"--tolerance {spec!r}: expected NAME=FRACTION "
                f"(e.g. wall=0.4 or EXP-SUB:speedup=0.2)"
            )
        try:
            frac = float(raw)
        except ValueError:
            raise ValueError(
                f"--tolerance {spec!r}: {raw!r} is not a number"
            ) from None
        if frac < 0:
            raise ValueError(f"--tolerance {spec!r}: fraction must be >= 0")
        out[name] = frac
    return out


#: optional top-level fields of an ``EXP-*.json`` file: (check, expected shape)
_FIELD_SHAPES: Dict[str, Tuple[Any, str]] = {
    "rows": (
        lambda v: isinstance(v, list) and all(isinstance(r, list) for r in v),
        "a list of lists",
    ),
    "headers": (
        lambda v: isinstance(v, list) and all(isinstance(h, str) for h in v),
        "a list of strings",
    ),
    "summary": (lambda v: isinstance(v, dict), "an object"),
    "timings": (lambda v: isinstance(v, dict), "an object"),
}


def _load_dir(directory: pathlib.Path) -> Dict[str, dict]:
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"no benchmark output directory at {directory}")
    out: Dict[str, dict] = {}
    for path in sorted(directory.glob("EXP-*.json")):
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ValueError(
                f"{path}: expected a JSON object with exp_id/rows/summary, "
                f"got {type(data).__name__}"
            )
        for name, (valid, shape) in _FIELD_SHAPES.items():
            if data.get(name) is not None and not valid(data[name]):
                raise ValueError(
                    f"{path}: field {name!r} must be {shape}, "
                    f"got {type(data[name]).__name__}"
                )
        out[str(data.get("exp_id", path.stem))] = data
    return out


def _volatile_metric(name: str) -> bool:
    """Is this column/summary name a timing, not a measured result?

    Wall clocks and speedups re-measure differently on every host; when
    an experiment stores them in its *rows* or *summary* (EXP-SUB's
    backend-comparison table does), exact comparison would report drift
    on every run.  Those cells are excluded from the drift check —
    speedups still regress through :func:`_timing_regressions`.
    """
    lowered = name.lower()
    return (
        lowered.endswith(" s")
        or lowered.endswith("(s)")
        or "seconds" in lowered
        or "speedup" in lowered
        or "wall" in lowered
    )


def _cell_changes(
    old_rows: List[list],
    new_rows: List[list],
    old_headers: Optional[List[str]] = None,
    new_headers: Optional[List[str]] = None,
) -> Tuple[List[str], List[str]]:
    """``(drift, notes)``: human-readable row/cell deltas, capped to keep
    reports short.

    When both files carry headers, cells pair by column name, so a
    dropped or inserted column does not shift its neighbours.  A column
    only one file has is reported once: as drift when it holds results,
    as a note when its name is a timing.  Without headers on both sides,
    cells pair by position.  Timing columns (:func:`_volatile_metric`)
    are never compared exactly — they are compared with tolerances.
    """
    changes: List[str] = []
    notes: List[str] = []
    # (label, old index, new index) of every column compared exactly
    columns: List[Tuple[str, int, int]] = []
    # how much wider a new row is than its old row when nothing is wrong
    width_delta = 0
    if old_headers and new_headers:
        for side, mine, other in (
            ("old", old_headers, new_headers),
            ("new", new_headers, old_headers),
        ):
            for name in mine:
                if name not in other:
                    message = f"column {name!r} only in the {side} file"
                    (notes if _volatile_metric(name) else changes).append(message)
        for j, name in enumerate(new_headers):
            if name in old_headers and not _volatile_metric(name):
                columns.append((f"col {j} ({name!r})", old_headers.index(name), j))
        width_delta = len(new_headers) - len(old_headers)
    else:
        headers = old_headers or new_headers or []
        width = max((len(row) for row in old_rows + new_rows), default=0)
        for j in range(width):
            if not (j < len(headers) and _volatile_metric(headers[j])):
                columns.append((f"col {j}", j, j))
    if len(old_rows) != len(new_rows):
        changes.append(f"row count {len(old_rows)} -> {len(new_rows)}")
    for i, (old_row, new_row) in enumerate(zip(old_rows, new_rows)):
        if old_row == new_row:
            continue
        for label, a_idx, b_idx in columns:
            if a_idx >= len(old_row) or b_idx >= len(new_row):
                continue
            a, b = old_row[a_idx], new_row[b_idx]
            if a != b:
                changes.append(f"row {i} {label}: {a!r} -> {b!r}")
        if len(new_row) - len(old_row) != width_delta:
            changes.append(f"row {i} width {len(old_row)} -> {len(new_row)}")
        if len(changes) >= 8:
            changes.append("...")
            break
    return changes, notes


def _summary_changes(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    changes = []
    for key in sorted(set(old) | set(new)):
        if _volatile_metric(key):  # timings regress via tolerances instead
            continue
        a, b = old.get(key), new.get(key)
        if a != b:
            changes.append(f"summary[{key}]: {a!r} -> {b!r}")
    return changes


def _timing_regressions(
    old: Dict[str, Any],
    new: Dict[str, Any],
    threshold: float,
    tolerances: Optional[Dict[str, float]] = None,
    exp_id: str = "",
    old_summary: Optional[Dict[str, Any]] = None,
    new_summary: Optional[Dict[str, Any]] = None,
) -> Tuple[List[str], List[str]]:
    """``(regressions, notes)`` for one experiment's timing sidecars.

    Speedup-named *summary* scalars (``max_speedup`` etc., excluded from
    the exact drift check as volatile) regress here too: lower is worse,
    same tolerance lookup as the sidecar ``speedup``.  Notes record
    comparisons that were deliberately *skipped* (today: speedups when
    ``cpu_count`` differs between sides) so a passing gate still says
    what it chose not to check.
    """

    def tol(name: str) -> float:
        for key in (f"{exp_id}:{name}", name):
            if tolerances and key in tolerances:
                return tolerances[key]
        return threshold

    pairs: List[Tuple[str, Optional[float], Optional[float]]] = [
        ("wall", old.get("wall_seconds"), new.get("wall_seconds"))
    ]
    old_phases = old.get("phase_seconds", {}) or {}
    new_phases = new.get("phase_seconds", {}) or {}
    for phase in sorted(set(old_phases) | set(new_phases)):
        pairs.append((f"phase[{phase}]", old_phases.get(phase), new_phases.get(phase)))
    regressions = []
    notes: List[str] = []
    for name, a, b in pairs:
        if a is None or b is None or a < MIN_SECONDS:
            continue
        if b > a * (1.0 + tol(name)):
            regressions.append(f"{name}: {a:.3f}s -> {b:.3f}s (+{(b / a - 1) * 100:.0f}%)")

    # speedups: higher is better, and only comparable on equal hardware
    # parallelism — a 1-CPU runner cannot reproduce a 4-CPU speedup.
    speed_pairs: List[Tuple[str, Any, Any]] = [
        ("speedup", old.get("speedup"), new.get("speedup"))
    ]
    old_summary = old_summary or {}
    new_summary = new_summary or {}
    for key in sorted(set(old_summary) | set(new_summary)):
        if "speedup" in key.lower():
            speed_pairs.append(
                (f"summary[{key}]", old_summary.get(key), new_summary.get(key))
            )
    a_cpu, b_cpu = old.get("cpu_count"), new.get("cpu_count")
    for name, a_speed, b_speed in speed_pairs:
        if not isinstance(a_speed, (int, float)) or not isinstance(
            b_speed, (int, float)
        ):
            continue
        if a_cpu != b_cpu:
            reason = (
                f"{name} comparison skipped: cpu_count {a_cpu} -> {b_cpu} "
                f"(baseline measured under different hardware parallelism)"
            )
            logger.info("%s: %s", exp_id or "bench-diff", reason)
            notes.append(reason)
        elif b_speed < a_speed * (1.0 - tol("speedup")):
            regressions.append(
                f"{name}: {a_speed:.2f}x -> {b_speed:.2f}x "
                f"({(b_speed / a_speed - 1) * 100:.0f}%)"
            )
    return regressions, notes


@dataclass
class BenchDiff:
    """The comparison of one experiment id across the two directories."""

    exp_id: str
    status: str  # ok | drift | regression | only-old | only-new
    details: List[str] = field(default_factory=list)
    old_wall: Optional[float] = None
    new_wall: Optional[float] = None
    #: deliberately skipped comparisons (informational; never a failure)
    notes: List[str] = field(default_factory=list)


def diff_dirs(
    old_dir: pathlib.Path,
    new_dir: pathlib.Path,
    threshold: float = DEFAULT_THRESHOLD,
    tolerances: Optional[Dict[str, float]] = None,
    fail_on_regression: bool = False,
) -> Tuple[List[BenchDiff], int]:
    """Compare every ``EXP-*.json`` and return ``(diffs, exit_code)``.

    ``tolerances`` maps metric names (optionally ``EXP-ID:``-scoped) to
    per-metric fractions overriding ``threshold``.  With
    ``fail_on_regression`` the exit code also fails ``only-new``
    experiments — gate mode: every benchmark must have a committed
    baseline.
    """
    old = _load_dir(pathlib.Path(old_dir))
    new = _load_dir(pathlib.Path(new_dir))
    diffs: List[BenchDiff] = []
    for exp_id in sorted(set(old) | set(new)):
        if exp_id not in new:
            diffs.append(BenchDiff(exp_id, "only-old", ["missing from new directory"]))
            continue
        if exp_id not in old:
            diffs.append(BenchDiff(exp_id, "only-new", ["no baseline to compare against"]))
            continue
        o, n = old[exp_id], new[exp_id]
        drift, column_notes = _cell_changes(
            o.get("rows") or [], n.get("rows") or [],
            o.get("headers"), n.get("headers"),
        )
        drift += _summary_changes(o.get("summary") or {}, n.get("summary") or {})
        slow, notes = _timing_regressions(
            o.get("timings", {}), n.get("timings", {}), threshold,
            tolerances=tolerances, exp_id=exp_id,
            old_summary=o.get("summary", {}), new_summary=n.get("summary", {}),
        )
        status = "regression" if slow else ("drift" if drift else "ok")
        diffs.append(
            BenchDiff(
                exp_id,
                status,
                details=slow + drift,
                old_wall=(o.get("timings") or {}).get("wall_seconds"),
                new_wall=(n.get("timings") or {}).get("wall_seconds"),
                notes=column_notes + notes,
            )
        )
    if not diffs:
        return diffs, 2
    bad = {"drift", "regression", "only-old"}
    if fail_on_regression:
        bad = bad | {"only-new"}
    return diffs, (1 if any(d.status in bad for d in diffs) else 0)


def render_diff(diffs: List[BenchDiff], threshold: float = DEFAULT_THRESHOLD) -> str:
    """The ``repro bench-diff`` report."""
    from ..analysis.tables import render_table

    def _wall(value: Optional[float]) -> str:
        return f"{value:.3f}s" if value is not None else "-"

    rows = [
        [d.exp_id, d.status, _wall(d.old_wall), _wall(d.new_wall), len(d.details)]
        for d in diffs
    ]
    lines = [
        render_table(
            ["experiment", "status", "old wall", "new wall", "deltas"],
            rows,
            title=f"bench-diff (timing threshold +{threshold * 100:.0f}%)",
        )
    ]
    for d in diffs:
        if d.details and d.status != "ok":
            lines.append(f"{d.exp_id} [{d.status}]:")
            lines.extend(f"  - {msg}" for msg in d.details)
        # skipped comparisons are worth stating even on a passing gate
        lines.extend(f"{d.exp_id} [note]: {msg}" for msg in d.notes)
    counts: Dict[str, int] = {}
    for d in diffs:
        counts[d.status] = counts.get(d.status, 0) + 1
    lines.append(
        "totals: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    return "\n".join(lines)
