"""Shared experiment-result container and driver-config resolution."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..tables import format_float, render_table

__all__ = ["ExperimentResult", "exp_scope", "resolve_exp_config"]


def resolve_exp_config(config: Optional[Any]) -> Tuple[Optional[int], str]:
    """``(workers, backend)`` for an experiment driver, from its config.

    With no config, both defer to the environment (``$REPRO_WORKERS``,
    ``$REPRO_BACKEND``).  The backend is resolved *here*, in the parent,
    so pool tasks receive a fixed name instead of re-reading the
    environment in each worker.
    """
    from ...sim.config import RunConfig

    cfg = config if config is not None else RunConfig()
    return cfg.workers, cfg.resolved_backend()


@contextmanager
def exp_scope(exp_id: str, total: int, unit: str = "runs", **tags: Any) -> Iterator[None]:
    """One experiment driver's observability scope.

    Opens a ``sweep`` span named after the experiment (a no-op without
    an ambient observation session) and a progress scope of ``total``
    work items (see :mod:`repro.obs.progress`); the driver's
    :class:`~repro.sim.parallel.ParallelExecutor` advances it one step
    per task, inline or pooled.
    """
    from ...obs.progress import report_begin, report_finish
    from ...obs.spans import span

    with span("sweep", exp_id, **tags):
        report_begin(total, unit=unit, label=exp_id)
        try:
            yield
        finally:
            report_finish()


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
    #: optional observability sidecar: wall/phase seconds, run counts —
    #: populated when the experiment ran under an observation session
    timings: Dict[str, Any] = field(default_factory=dict)

    def attach_session(self, session: Any) -> None:
        """Fold an :class:`~repro.obs.runtime.ObservationSession`'s
        aggregate timings into this result's ``timings`` sidecar.

        Merges into (rather than replaces) ``timings``, so fields the
        experiment driver recorded itself — e.g. ``workers`` from a
        parallel run — survive."""
        phase_totals: Dict[str, float] = {}
        for key, metric in session.manifest.metrics.items():
            if key.startswith("phase_seconds{phase=") and metric.get("type") == "histogram":
                phase = key[len("phase_seconds{phase=") : -1]
                phase_totals[phase] = metric.get("sum", 0.0)
        self.timings.update(
            wall_seconds=session.manifest.wall_seconds,
            engine_runs=session.num_runs,
            phase_seconds=phase_totals,
        )
        if session.manifest.workers and "workers" not in self.timings:
            self.timings["workers"] = session.manifest.workers

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
            runs = self.timings.get("engine_runs")
            bits = []
            if wall is not None:
                bits.append(f"wall={wall:.3f}s")
            if runs:
                bits.append(f"engine_runs={runs}")
            for phase, sec in sorted(self.timings.get("phase_seconds", {}).items()):
                bits.append(f"{phase}={sec:.3f}s")
            if bits:
                parts.append("timing: " + ", ".join(bits))
        parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)
