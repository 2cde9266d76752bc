"""``repro bench-diff``: judge benchmark results against their baseline.

Every benchmark writes its result as ``benchmarks/out/EXP-*.json`` and
appends one provenance-stamped record per experiment to the history
store ``benchmarks/history.jsonl`` (the ``exp_output`` fixture).  One
engine judges both shapes:

* ``OLD_DIR NEW_DIR`` — each ``EXP-*.json`` of ``NEW_DIR`` against the
  same experiment's file in ``OLD_DIR``: a baseline of one record;
* ``HISTORY.jsonl [--window K]`` — each experiment's newest record
  against the median of the up-to-``K`` records before it, which shrugs
  off one noisy run where a single baseline cannot.

Measured results — table rows (only ``EXP-*.json`` files carry them;
compared with the newest baseline record) and ``summary`` scalars — are
seed-deterministic, so any change is ``drift``.  Timings — wall, CPU
and per-phase seconds, and speedups (``timings.speedup`` and
speedup-named summary scalars) — are ``regression`` when worse than the
baseline by more than the metric's tolerance (``--tolerance
NAME=FRAC``, optionally ``EXP-ID:``-scoped, else ``threshold``),
``improved`` when better by as much.  Times under a :data:`MIN_SECONDS`
baseline are jitter; a speedup is skipped with a note when the
baseline records another ``cpu_count``.
An experiment with no baseline is ``only-new`` (failing only under
``--fail-on-regression``, the CI gate mode); one missing from
``NEW_DIR`` is ``only-old``; a history experiment with fewer than
:data:`MIN_ENTRIES` records is ``insufficient`` and passes while the
history warms up.  Exit status: 0 pass, 1 failure, 2 nothing to compare.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from collections import Counter
from dataclasses import dataclass, field
from statistics import median, median_low
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .manifest import collect_provenance

__all__ = [
    "BenchDiff", "diff_dirs", "diff_history", "diff_table", "parse_tolerances",
    "render_diff", "record_from_result", "append_history", "read_history",
    "sparkline", "DEFAULT_THRESHOLD", "DEFAULT_WINDOW", "HISTORY_ENV",
    "MIN_ENTRIES", "MIN_SECONDS",
]

#: Relative slow-down below which a wall/phase time change is noise.
DEFAULT_THRESHOLD = 0.25
#: Baseline floor (seconds) under which timing comparisons are skipped —
#: a 2ms phase doubling to 4ms is scheduler jitter, not a regression.
MIN_SECONDS = 0.05
#: How many records before the newest one a history baseline spans.
DEFAULT_WINDOW = 5
#: Records a history experiment needs before it is judged.
MIN_ENTRIES = 3
#: Environment override for where benchmark runs append their records
#: (empty disables appending).
HISTORY_ENV = "REPRO_BENCH_HISTORY"

_SPARK_BARS = "▁▂▃▄▅▆▇█"


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
            raise ValueError(f"--tolerance {spec!r}: {raw!r} is not a number") from None
        if frac < 0:
            raise ValueError(f"--tolerance {spec!r}: fraction must be >= 0")
        out[name] = frac
    return out


# ----------------------------------------------------------------------
# records: EXP-*.json files and history lines, one check for both
def record_from_result(result: Dict[str, Any],
                       timestamp: Optional[float] = None) -> Dict[str, Any]:
    """One history line from an ``EXP-*.json``-shaped result dict.

    Identity (exp_id), provenance (git SHA, hostname, cpu_count, python),
    backend, the timing sidecar and the numeric summary scalars.  Rows
    are not recorded: the history is a trajectory, not an archive.
    """
    summary = {k: v for k, v in (result.get("summary") or {}).items() if _number(v)}
    return {
        "exp_id": str(result.get("exp_id", "?")),
        "unix_time": time.time() if timestamp is None else float(timestamp),
        "provenance": collect_provenance(),
        "backend": os.environ.get("REPRO_BACKEND", "reference"),
        "timings": dict(result.get("timings") or {}),
        "summary": summary,
    }


def append_history(path: pathlib.Path, record: Dict[str, Any]) -> pathlib.Path:
    """Append one record line (creating parents); returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    return path


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: the checked fields of a record: (dotted name, check, expected shape)
_FIELDS = (
    ("rows", lambda v: isinstance(v, list) and all(isinstance(r, list) for r in v),
     "a list of lists"),
    ("headers", lambda v: isinstance(v, list) and all(isinstance(h, str) for h in v),
     "a list of strings"),
    ("summary", lambda v: isinstance(v, dict), "an object"),
    ("provenance", lambda v: isinstance(v, dict), "an object"),
    ("timings", lambda v: isinstance(v, dict), "an object"),
    ("timings.wall_seconds", _number, "a number"),
    ("timings.cpu_seconds", _number, "a number"),
    ("timings.speedup", _number, "a number"),
    ("timings.phase_seconds",
     lambda v: isinstance(v, dict) and all(_number(s) for s in v.values()),
     "an object of numbers"),
)


def _check_record(where: str, record: dict) -> None:
    """Raise :class:`ValueError` on the first field with the wrong shape."""
    for name, valid, shape in _FIELDS:
        parent, _, key = name.rpartition(".")
        value = (record.get(parent) or {} if parent else record).get(key)
        if value is not None and not valid(value):
            raise ValueError(
                f"{where}: field {name!r} must be {shape}, "
                f"got {type(value).__name__}"
            )


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
        _check_record(str(path), data)
        out[str(data.get("exp_id", path.stem))] = data
    return out


def read_history(path: pathlib.Path) -> List[dict]:
    """A history file's records in append order; lines that do not decode
    (a killed run's torn tail) and objects without ``exp_id`` are skipped."""
    path = pathlib.Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no benchmark history file at {path}")
    records: List[dict] = []
    with path.open(encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = json.loads(raw)
            except json.JSONDecodeError:
                continue
            if isinstance(line, dict) and line.get("exp_id"):
                _check_record(f"{path}: line {lineno}", line)
                records.append(line)
    return records


# ----------------------------------------------------------------------
# the verdict
def _volatile_metric(name: str) -> bool:
    """Is this column/summary name a timing, not a measured result?

    Timings re-measure differently on every host, so rows and summaries
    that hold them (EXP-SUB's do) are never compared exactly.
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
    """``(drift, notes)``: row/cell deltas, capped to keep reports short.

    With headers on both sides cells pair by column name, and a column
    only one side has is reported once: as drift when it holds results,
    as a note when it is a timing.  Otherwise cells pair by position.
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


@dataclass
class BenchDiff:
    """One experiment's newest record judged against its baseline."""

    exp_id: str
    # ok | improved | drift | regression | insufficient | only-new | only-old
    status: str
    details: List[str] = field(default_factory=list)
    #: baseline wall seconds (the window median) and the newest record's
    old_wall: Optional[float] = None
    new_wall: Optional[float] = None
    #: deliberately skipped comparisons (informational; never a failure)
    notes: List[str] = field(default_factory=list)
    #: how many baseline records the verdict used
    baseline: int = 0
    #: wall seconds of every record, oldest first (the trend sparkline)
    walls: List[float] = field(default_factory=list)


def _timed(record: dict) -> Dict[str, Any]:
    """A record's tolerance-judged metrics by name (speedups included)."""
    timings = record.get("timings") or {}
    out = {
        "wall": timings.get("wall_seconds"),
        "cpu": timings.get("cpu_seconds"),
        "speedup": timings.get("speedup"),
    }
    for phase, seconds in (timings.get("phase_seconds") or {}).items():
        out[f"phase[{phase}]"] = seconds
    for key, value in (record.get("summary") or {}).items():
        if "speedup" in key.lower():
            out[f"summary[{key}]"] = value
    return out


def _baseline_value(values: Iterable[Any], average: Callable = median) -> Any:
    """The ``average`` of the baseline's numbers, or its newest non-number."""
    present = [v for v in values if v is not None]
    if present and all(_number(v) for v in present):
        return average(present)
    return present[-1] if present else None


def _cpu_count(record: dict) -> Any:
    fallback = (record.get("provenance") or {}).get("cpu_count")
    return (record.get("timings") or {}).get("cpu_count", fallback)


def _judge(exp_id: str, records: List[dict], window: int, threshold: float,
           tolerances: Dict[str, float], min_records: int) -> BenchDiff:
    """The verdict on ``records[-1]`` against the records before it."""
    newest, earlier = records[-1], records[:-1]
    prior = earlier[-window:] if window > 0 else earlier
    walls = [w for w in (_timed(r)["wall"] for r in records) if _number(w)]
    verdict = BenchDiff(exp_id, "ok", new_wall=_timed(newest)["wall"],
                        baseline=len(prior), walls=walls)
    if not prior:
        verdict.status = "only-new"
        verdict.details.append("no baseline to compare against")
        return verdict
    if len(records) < min_records:
        verdict.status = "insufficient"
        verdict.details.append(f"{len(records)} records (need {min_records})")
        return verdict

    base = prior[-1]
    drift, verdict.notes = _cell_changes(
        base.get("rows") or [], newest.get("rows") or [],
        base.get("headers"), newest.get("headers"),
    )
    summaries = [r.get("summary") or {} for r in prior]
    new_summary = newest.get("summary") or {}
    for key in sorted(set(new_summary).union(*summaries)):
        a = _baseline_value((s.get(key) for s in summaries), median_low)
        if not _volatile_metric(key) and a != new_summary.get(key):
            drift.append(f"summary[{key}]: {a!r} -> {new_summary.get(key)!r}")

    slower: List[str] = []
    faster: List[str] = []
    cpus = sorted({str(_cpu_count(r)) for r in prior})
    new_cpu = str(_cpu_count(newest))
    baselines = [_timed(r) for r in prior]
    for name, b in _timed(newest).items():
        a = _baseline_value(t.get(name) for t in baselines)
        if not (_number(a) and _number(b)):
            continue
        speed = "speedup" in name
        if name == "wall":
            verdict.old_wall = a
        if speed and cpus != [new_cpu]:
            verdict.notes.append(
                f"{name} comparison skipped: cpu_count {'/'.join(cpus)} -> "
                f"{new_cpu} (baseline measured under different hardware parallelism)"
            )
            continue
        if a <= 0 or (not speed and a < MIN_SECONDS):
            continue
        key = "speedup" if speed else name  # scoped, then plain, then threshold
        frac = tolerances.get(f"{exp_id}:{key}", tolerances.get(key, threshold))
        grew, shrank = b > a * (1.0 + frac), b < a * (1.0 - frac)
        unit = "x" if speed else "s"
        message = f"{name}: {a:.3f}{unit} -> {b:.3f}{unit} ({b / a - 1:+.0%})"
        if shrank if speed else grew:
            slower.append(message)
        elif grew if speed else shrank:
            faster.append(message)
    verdict.status = (
        "regression" if slower else "drift" if drift
        else "improved" if faster else "ok"
    )
    verdict.details = slower + drift + faster
    return verdict


def _verdicts(histories: Dict[str, List[dict]], window: int, threshold: float,
              tolerances: Optional[Dict[str, float]], min_records: int,
              fail_on_regression: bool, vanished: Sequence[BenchDiff] = (),
              ) -> Tuple[List[BenchDiff], int]:
    """Judge every history; returns ``(diffs, exit_code)``."""
    diffs = [
        _judge(exp_id, records, window, threshold, tolerances or {}, min_records)
        for exp_id, records in histories.items()
    ]
    diffs = sorted(diffs + list(vanished), key=lambda d: d.exp_id)
    if not diffs:
        return diffs, 2
    bad = {"drift", "regression", "only-old"}
    if fail_on_regression:
        bad.add("only-new")
    return diffs, (1 if any(d.status in bad for d in diffs) else 0)


def diff_dirs(old_dir: pathlib.Path, new_dir: pathlib.Path,
              threshold: float = DEFAULT_THRESHOLD,
              tolerances: Optional[Dict[str, float]] = None,
              fail_on_regression: bool = False) -> Tuple[List[BenchDiff], int]:
    """Judge every ``EXP-*.json`` of ``new_dir`` against ``old_dir``.

    ``tolerances`` maps metric names (optionally ``EXP-ID:``-scoped) to
    fractions overriding ``threshold``; ``fail_on_regression`` also
    fails ``only-new`` experiments.  Returns ``(diffs, exit_code)``.
    """
    old, new = _load_dir(old_dir), _load_dir(new_dir)
    histories = {
        exp_id: [old[exp_id], record] if exp_id in old else [record]
        for exp_id, record in new.items()
    }
    vanished = [
        BenchDiff(exp_id, "only-old", ["missing from new directory"])
        for exp_id in old if exp_id not in new
    ]
    return _verdicts(histories, 1, threshold, tolerances, 2,
                     fail_on_regression, vanished)


def diff_history(records: List[dict], window: int = DEFAULT_WINDOW,
                 threshold: float = DEFAULT_THRESHOLD,
                 tolerances: Optional[Dict[str, float]] = None,
                 fail_on_regression: bool = False) -> Tuple[List[BenchDiff], int]:
    """Judge each experiment's newest history record against the median
    of the up-to-``window`` records before it (``window <= 0``: all of
    them); same tolerances and exit codes as :func:`diff_dirs`."""
    histories: Dict[str, List[dict]] = {}
    for record in records:
        histories.setdefault(str(record["exp_id"]), []).append(record)
    return _verdicts(histories, window, threshold, tolerances, MIN_ENTRIES,
                     fail_on_regression)


# ----------------------------------------------------------------------
# rendering
def sparkline(values: List[float], width: int = 16) -> str:
    """A unicode mini-chart of the series' last ``width`` values."""
    tail = values[-width:]
    if not tail:
        return ""
    lo, hi = min(tail), max(tail)
    if hi <= lo:
        return _SPARK_BARS[0] * len(tail)
    scale = (len(_SPARK_BARS) - 1) / (hi - lo)
    return "".join(_SPARK_BARS[int((v - lo) * scale)] for v in tail)


def diff_table(diffs: List[BenchDiff]) -> Tuple[List[str], List[list]]:
    """``(headers, rows)``: one row per experiment, for text and HTML."""

    def wall(value: Optional[float]) -> str:
        return f"{value:.3f}s" if value is not None else "-"

    rows = [[
        d.exp_id, d.status, d.baseline, wall(d.old_wall), wall(d.new_wall),
        f"{d.new_wall / d.old_wall - 1:+.0%}" if d.old_wall and d.new_wall else "-",
        sparkline(d.walls), len(d.details),
    ] for d in diffs]
    headers = ["experiment", "status", "n", "old wall", "new wall", "delta",
               "trend", "deltas"]
    return headers, rows


def render_diff(diffs: List[BenchDiff], threshold: float = DEFAULT_THRESHOLD,
                window: Optional[int] = None) -> str:
    """The ``repro bench-diff`` report; ``window`` names a history's."""
    from ..analysis.tables import render_table

    baseline = f"; old = median of the last {window} records" if window else ""
    headers, rows = diff_table(diffs)
    lines = [render_table(
        headers, rows,
        title=f"bench-diff (timing threshold +{threshold:.0%}{baseline})",
    )]
    for d in diffs:
        if d.details and d.status != "ok":
            lines.append(f"{d.exp_id} [{d.status}]:")
            lines.extend(f"  - {msg}" for msg in d.details)
        # skipped comparisons are worth stating even on a passing gate
        lines.extend(f"{d.exp_id} [note]: {msg}" for msg in d.notes)
    counts = Counter(d.status for d in diffs)
    lines.append("totals: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return "\n".join(lines)
