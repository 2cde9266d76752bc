"""Shared experiment-result container and the one experiment grid runner."""

from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ...sim.config import RunConfig, check_config
from ..tables import format_float, render_table

__all__ = ["ExperimentResult", "run_grid"]


def _cpu_seconds() -> float:
    """This process's CPU time plus that of the child processes it reaped."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return time.process_time()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_grid(
    label: str,
    cell_fn: Union[Callable[..., Any], Sequence[Callable[..., Any]]],
    rows: Sequence[Sequence[Tuple]],
    config: Optional[RunConfig],
    timings: Dict[str, Any],
    *,
    unit: str = "runs",
    labels: Optional[Sequence[str]] = None,
) -> List[List[Any]]:
    """Run every task of a grid through the result cache; outcomes by row.

    ``rows[i]`` lists row ``i``'s tasks (typically one per seed), each
    given as its cache key: the positional arguments of ``cell_fn``, a
    module-level function shared by every row, or a sequence of one per
    row.  The backend is resolved once, here in the parent, and appended
    as the last argument only for cell functions that declare a
    ``backend`` parameter; it never enters a key, because the backends
    are bit-identical.  Tasks are named (in progress events and failure
    messages) by their cell function's parameters, unless ``labels``
    gives one name per task in grid order.

    One ``sweep`` span named ``label`` and one progress scope of every
    task, counted in ``unit``, wrap the grid's
    :func:`~repro.cache.runcache.cached_map` on one
    :class:`~repro.sim.parallel.ParallelExecutor`: hits are served in
    the parent, misses run inline or on the pool, and outcomes come back
    in grid order.  A ``config`` that is not a
    :class:`~repro.sim.config.RunConfig` raises
    :class:`~repro.errors.ConfigurationError` naming ``label`` before
    any task runs.

    Adds to ``timings``: ``wall_seconds``; ``cpu_seconds``, this
    process's CPU time plus that of the pool workers it reaped;
    ``tasks``; and ``workers``.
    """
    from ...cache.runcache import cached_map
    from ...obs.progress import report_begin, report_finish
    from ...obs.spans import span
    from ...sim.parallel import ParallelExecutor

    cfg = check_config(label, config)
    fns = [cell_fn] * len(rows) if callable(cell_fn) else list(cell_fn)
    params = {fn: list(inspect.signature(fn).parameters) for fn in set(fns)}
    tasks = [(fn, tuple(key)) for fn, row in zip(fns, rows) for key in row]
    if labels is None:
        labels = [
            ", ".join(f"{name}={value!r}" for name, value in zip(params[fn], key))
            for fn, key in tasks
        ]
    tags: Dict[str, Any] = {}
    if any("backend" in names for names in params.values()):
        tags["backend"] = cfg.resolved_backend()
    executor = ParallelExecutor(cfg.workers)
    wall, cpu = time.perf_counter(), _cpu_seconds()
    outcomes: List[Any] = []
    with span("sweep", label, workers=executor.workers, **tags):
        report_begin(len(tasks), unit=unit, label=label)
        try:
            # one map per run of rows sharing a cell function (EXP-HEUR
            # appends its baseline row); the executor stays the same
            for fn, run in groupby(tasks, key=lambda task: task[0]):
                keys = [key for _, key in run]
                extra = (tags["backend"],) if "backend" in params[fn] else ()
                start = len(outcomes)
                outcomes += cached_map(
                    executor, fn, [key + extra for key in keys],
                    labels=labels[start : start + len(keys)],
                    keys=keys, config=cfg,
                )
        finally:
            report_finish()
    timings.update(
        wall_seconds=round(time.perf_counter() - wall, 3),
        cpu_seconds=round(_cpu_seconds() - cpu, 3),
        tasks=len(tasks),
        workers=executor.workers,
    )
    flat = iter(outcomes)
    return [[next(flat) for _ in row] for row in rows]


def _jsonable(value: Any) -> Any:
    """Coerce cells to JSON-ready values (numpy scalars -> python)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        return item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return format_float(value)


@dataclass
class ExperimentResult:
    """Structured output of one EXP-* experiment."""

    exp_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: free-form scalar summaries (slopes, error rates, ...)
    summary: Dict[str, Any] = field(default_factory=dict)
    #: timing sidecar: wall/CPU seconds, task count and workers from
    #: :func:`run_grid`; run counts and phase seconds when the
    #: experiment ran under an observation session
    timings: Dict[str, Any] = field(default_factory=dict)

    def attach_session(self, session: Any) -> None:
        """Fold an :class:`~repro.obs.runtime.ObservationSession`'s
        aggregate timings into this result's ``timings`` sidecar.

        The session owns ``engine_runs`` and ``phase_seconds``.  The
        driver's grid owns ``wall_seconds`` and ``workers``
        (:func:`run_grid`); the session's are used only where no grid
        recorded them, as for the figure experiments."""
        phase_totals: Dict[str, float] = {}
        for key, metric in session.manifest.metrics.items():
            if key.startswith("phase_seconds{phase=") and metric.get("type") == "histogram":
                phase = key[len("phase_seconds{phase=") : -1]
                phase_totals[phase] = metric.get("sum", 0.0)
        self.timings.update(engine_runs=session.num_runs, phase_seconds=phase_totals)
        self.timings.setdefault("wall_seconds", session.manifest.wall_seconds)
        if session.manifest.workers:
            self.timings.setdefault("workers", session.manifest.workers)

    def to_dict(self) -> dict:
        """JSON-ready dump: what ``benchmarks/out/<EXP-ID>.json`` holds."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [[_jsonable(c) for c in row] for row in self.rows],
            "summary": {k: _jsonable(v) for k, v in sorted(self.summary.items())},
            "notes": list(self.notes),
            "timings": _jsonable(self.timings),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        parts = [render_table(self.headers, self.rows, title=f"[{self.exp_id}] {self.title}")]
        if self.summary:
            parts.append("summary: " + ", ".join(f"{k}={v}" for k, v in sorted(self.summary.items())))
        if self.timings:
            wall = self.timings.get("wall_seconds")
            cpu = self.timings.get("cpu_seconds")
            runs = self.timings.get("engine_runs")
            bits = []
            if wall is not None:
                bits.append(f"wall={wall:.3f}s")
            if cpu is not None:
                bits.append(f"cpu={cpu:.3f}s")
            if runs:
                bits.append(f"engine_runs={runs}")
            for phase, sec in sorted(self.timings.get("phase_seconds", {}).items()):
                bits.append(f"{phase}={sec:.3f}s")
            if bits:
                parts.append("timing: " + ", ".join(bits))
        parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)
