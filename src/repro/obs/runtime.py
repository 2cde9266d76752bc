"""Ambient observation sessions: record every engine run in a scope.

Experiments construct :class:`~repro.sim.engine.SynchronousEngine`
objects many layers below the CLI, so observability cannot be threaded
through every call signature.  Instead, a scope opts in::

    with observe(trace_dir="out/run", label="thm8") as session:
        exp_thm8_leader_election()          # any number of engine runs
    # out/run/ now holds events.jsonl + run-0001.jsonl, run-0002.jsonl, ...

While a session is active, every engine constructed in its scope hands
its finished run to :meth:`ObservationSession.run_finished` (from
:meth:`~repro.sim.engine.RoundDriver.finish`).  The session derives the
run's counters from its trace and its stage clock, folds them into the
session's registry, persists the trace as JSONL, and logs a
:class:`RunManifest` to the session log, ``events.jsonl``
(:mod:`repro.obs.stream`).  Every
:class:`~repro.core.simulation.TwoPartyReduction` likewise picks up a
fresh :class:`~repro.obs.ledger.ProofLedger` and hands it back via
:meth:`ObservationSession.record_reduction`, persisted as a
``format_version 2`` ledger run.  With no active session nothing is
recorded; the engines run the same loop either way.

Sessions nest (a stack); the innermost wins.  This is deliberately a
plain module-global stack, matching the simulator's single-threaded
execution model.
"""

from __future__ import annotations

import pathlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .export import write_ledger_jsonl, write_trace_jsonl
from .ledger import ProofLedger
from .manifest import RunManifest, SessionManifest, collect_provenance
from .metrics import MetricsRegistry
from .resource import ResourceSampler, resolve_interval
from .spans import Span, SpanRecorder
from .stream import EVENTS_FILENAME, EventStream, resolve_stream

__all__ = [
    "ObservationSession",
    "observe",
    "current_session",
    "CapturedRun",
    "WorkerObservations",
    "worker_capture",
]

_SESSIONS: List["ObservationSession"] = []


def _run_metrics(engine: Any) -> Dict[str, Any]:
    """A finished engine run's summary: the run file's ``run_metrics``.

    The counters are derived from the trace; ``phase_seconds`` is the
    engine's stage clock, and ``wall_seconds`` is its sum — a lockstep
    replica has no wall span of its own.  Batch runs add their
    adjacency ``representation``.
    """
    trace = engine.trace
    bits = delivered = changes = 0
    last_edges = None
    for record in trace:
        bits += record.total_bits
        delivered += sum(record.delivered.values())
        if record.edges != last_edges:
            changes += 1
        last_edges = record.edges
    phase_seconds = dict(engine.stage_seconds)
    metrics: Dict[str, Any] = {
        "rounds": trace.rounds,
        "bits_sent": bits,
        "messages_delivered": delivered,
        "topology_changes": changes,
        "wall_seconds": sum(phase_seconds.values()),
        "phase_seconds": phase_seconds,
    }
    if engine.backend == "batch":
        metrics["representation"] = engine.representation
    return metrics


@dataclass
class CapturedRun:
    """One run recorded inside a pool worker, awaiting parent persistence.

    Holds exactly what the parent session needs to persist the run as if
    it had happened locally: the run manifest, and either the engine
    trace (``kind == "engine"``) or the proof-ledger records + reduction
    summary (``kind == "reduction"``).  Every field is picklable — the
    trace is frozen dataclasses, the ledger is a list of JSON dicts.
    """

    kind: str
    manifest: RunManifest
    trace: Any = None
    node_ids: Optional[List[int]] = None
    run_metrics: Optional[dict] = None
    ledger: Optional[List[dict]] = None
    summary: Optional[dict] = None


@dataclass
class WorkerObservations:
    """What one worker task ships back: its registry plus captured runs."""

    registry: MetricsRegistry
    runs: List[CapturedRun] = field(default_factory=list)
    #: span dicts recorded inside the worker (repro.obs.spans); the
    #: parent re-keys ids and grafts worker roots onto its active span
    spans: List[dict] = field(default_factory=list)


class ObservationSession:
    """Collects metrics and (optionally) persists traces for a scope.

    Parameters
    ----------
    trace_dir:
        Directory for the session log ``events.jsonl`` + one
        ``run-NNNN.jsonl`` per engine run.  ``None`` collects metrics
        only.
    label:
        Free-form tag (e.g. the experiment name) stored in the log.
    stream:
        Durability (see :mod:`repro.obs.stream`): fsync every log line,
        sample resources into heartbeat events, and emit rate-limited
        checkpoint events, so a ``kill -9`` leaves a loadable partial
        session with its aggregates.  The log's content does not depend
        on it.  ``None`` defers to ``REPRO_STREAM``; only persisting,
        non-collect sessions ever stream (workers ship their
        observations back instead — single writer per session dir).
    resource_interval:
        Seconds between background resource samples when streaming
        (``None``: ``REPRO_RESOURCE_INTERVAL`` or 1.0; ``<= 0``
        disables the sampler).
    """

    def __init__(
        self,
        trace_dir: Optional[pathlib.Path] = None,
        label: Optional[str] = None,
        collect: bool = False,
        stream: Optional[bool] = None,
        resource_interval: Optional[float] = None,
    ):
        self.registry = MetricsRegistry()
        self.trace_dir = pathlib.Path(trace_dir) if trace_dir is not None else None
        self.manifest = SessionManifest(label=label)
        #: collect mode (pool workers): runs are buffered as
        #: :class:`CapturedRun` for the parent to persist, never written
        self.collect = collect
        self._captured: List[CapturedRun] = []
        #: the session's span tree (see :mod:`repro.obs.spans`); each
        #: finished span is logged as a ``span-close`` event
        self.spans = SpanRecorder()
        self._run_index = 0
        self._started_at = time.perf_counter()
        #: the session log (None: metrics only, or a pool worker)
        self.stream: Optional[EventStream] = None
        self._sampler: Optional[ResourceSampler] = None
        #: min seconds between checkpoint events
        self.checkpoint_interval = 1.0
        self._last_checkpoint = float("-inf")
        persisting = not collect and self.trace_dir is not None
        self.streaming = persisting and resolve_stream(stream)
        if not persisting:
            return
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        # a reused directory holds this session only: the log is
        # truncated below, and an earlier session's run files go with it
        for stale in self.trace_dir.glob("run-*.jsonl"):
            stale.unlink()
        self.manifest.provenance = collect_provenance()
        self.stream = EventStream(
            self.trace_dir / EVENTS_FILENAME,
            durable=self.streaming,
            label=label,
            package_version=self.manifest.package_version,
            provenance=self.manifest.provenance,
        )
        self.spans.on_record = self._span_recorded
        interval = resolve_interval(resource_interval) if self.streaming else 0
        if interval > 0:
            self._sampler = ResourceSampler(
                registry=self.registry,
                interval=interval,
                emit=lambda **sample: self._emit("heartbeat", **sample),
                on_tick=self._maybe_checkpoint,
            )
            self._sampler.start()

    # -- the session log ------------------------------------------------
    def _emit(self, type_: str, **payload: Any) -> None:
        """One log line, when persisting; a no-op otherwise."""
        if self.stream is not None:
            self.stream.emit(type_, **payload)

    def _span_recorded(self, sp: Span) -> None:
        """``SpanRecorder.on_record`` hook: log each finished span."""
        self._emit("span-close", span=sp.as_dict())

    def _totals(self) -> Dict[str, Any]:
        """The aggregates ``checkpoint`` and ``session-close`` carry."""
        return {
            "metrics": self.registry.snapshot(),
            "wall_seconds": time.perf_counter() - self._started_at,
            "workers": self.manifest.workers,
            "runs": self._run_index,
        }

    def checkpoint(self) -> None:
        """Log the aggregates so far as one ``checkpoint`` event.

        Run and span events are the per-occurrence record; checkpoints
        make a killed session's *aggregates* — the metrics registry
        above all — recoverable to the last one instead of to zero.
        Only durable (streaming) sessions checkpoint.
        """
        if self.streaming:
            self._last_checkpoint = time.perf_counter()
            self._emit("checkpoint", **self._totals())

    def _maybe_checkpoint(self) -> None:
        """Checkpoint, rate-limited to :attr:`checkpoint_interval`.

        The sampler thread and the main thread both call this; the limit
        is best-effort (both may pass it at once), while each line is
        written whole under the log's lock.
        """
        if time.perf_counter() - self._last_checkpoint >= self.checkpoint_interval:
            self.checkpoint()

    def record_progress(self, phase: str, label: str, depth: int, **extra: Any) -> None:
        """Log one progress event (begin/advance/finish); see
        :func:`repro.obs.progress.report_begin` and friends."""
        self._emit("progress", phase=phase, label=label, depth=depth, **extra)

    # -- engine integration --------------------------------------------
    def run_finished(self, engine: Any) -> None:
        """Account for and record one finished engine run.

        Called by :meth:`~repro.sim.engine.RoundDriver.finish`.  The
        run's counters and stage seconds fold into the registry once per
        run; the run becomes a ``run`` span with one ``phase`` child per
        stage, and (when persisting) a run file plus a ``run-complete``
        event.
        """
        metrics = _run_metrics(engine)
        reg = self.registry
        reg.counter("runs_total").inc()
        reg.counter("rounds_total").inc(metrics["rounds"])
        reg.counter("bits_sent_total").inc(metrics["bits_sent"])
        reg.counter("messages_delivered_total").inc(metrics["messages_delivered"])
        reg.counter("topology_changes_total").inc(metrics["topology_changes"])
        for stage, seconds in metrics["phase_seconds"].items():
            reg.histogram("phase_seconds", {"phase": stage}).observe(seconds)
        run_manifest = RunManifest.from_engine(engine)
        run_manifest.wall_seconds = metrics["wall_seconds"]
        protocol = type(next(iter(engine.nodes.values()))).__name__ if engine.nodes else None
        self.spans.record_run(run_manifest, metrics["phase_seconds"], protocol=protocol)
        if self.collect:
            self._captured.append(
                CapturedRun(
                    kind="engine",
                    manifest=run_manifest,
                    trace=engine.trace,
                    node_ids=list(engine.node_ids),
                    run_metrics=metrics,
                )
            )
            return
        self._run_index += 1
        if self.trace_dir is not None:
            name = f"run-{self._run_index:04d}.jsonl"
            write_trace_jsonl(
                engine.trace,
                self.trace_dir / name,
                manifest=run_manifest,
                node_ids=engine.node_ids,
                run_metrics=metrics,
            )
            run_manifest.trace_file = name
        self.manifest.runs.append(run_manifest)
        self._emit("run-complete", run=run_manifest.as_dict())
        self._maybe_checkpoint()

    # -- reduction (proof-ledger) integration --------------------------
    def reduction_ledger(self) -> ProofLedger:
        """A fresh proof ledger feeding this session's registry."""
        return ProofLedger(registry=self.registry)

    def record_reduction(self, reduction: Any, outcome: Any = None) -> None:
        """Persist a finished (or diverged) two-party reduction run."""
        ledger = reduction.ledger
        run_manifest = RunManifest(
            seed=getattr(reduction, "seed", None),
            num_nodes=getattr(reduction, "num_nodes", 0),
            adversary=f"TwoPartyReduction[{reduction.mapping}]",
            kind="reduction",
        )
        summary: dict = {"ledger_summary": ledger.summary()}
        if outcome is not None:
            summary.update(
                rounds=outcome.rounds_simulated,
                termination_round=outcome.watched_terminated_round,
                total_bits=outcome.total_bits,
                reduction={
                    "decision": outcome.decision,
                    "truth": outcome.truth,
                    "correct": outcome.correct,
                    "bits_alice_to_bob": outcome.bits_alice_to_bob,
                    "bits_bob_to_alice": outcome.bits_bob_to_alice,
                },
            )
        else:
            summary.update(rounds=None, diverged=True)
        self.spans.record_run(run_manifest)
        if self.collect:
            self._captured.append(
                CapturedRun(
                    kind="reduction",
                    manifest=run_manifest,
                    ledger=list(ledger.records),
                    summary=summary,
                )
            )
            return
        self._run_index += 1
        if self.trace_dir is not None:
            name = f"run-{self._run_index:04d}.jsonl"
            write_ledger_jsonl(
                self.trace_dir / name,
                manifest=run_manifest,
                ledger=ledger.records,
                summary=summary,
            )
            run_manifest.trace_file = name
        self.manifest.runs.append(run_manifest)
        self._emit("run-complete", run=run_manifest.as_dict())
        self._maybe_checkpoint()

    # -- parallel-worker integration ------------------------------------
    def export_worker_observations(self) -> WorkerObservations:
        """Package a collecting session's registry + buffered runs.

        Called at the end of each pool-worker task; the result crosses
        the process boundary and is handed to the parent session's
        :meth:`ingest_worker_observations`.
        """
        return WorkerObservations(
            registry=self.registry,
            runs=self._captured,
            spans=self.spans.export(),
        )

    def ingest_worker_observations(
        self, observations: WorkerObservations, workers: int = 0
    ) -> None:
        """Merge one worker task's observations into this session.

        Counters add, gauges keep the incoming value, histograms pool
        (see :meth:`MetricsRegistry.merge <repro.obs.metrics.MetricsRegistry.merge>`);
        captured runs are persisted here with this session's run
        numbering.  Callers ingest in *task* order, so run files,
        manifest entries, and gauge values land exactly as a sequential
        run would have left them.
        """
        self.registry.merge(observations.registry)
        self.spans.ingest(getattr(observations, "spans", ()) or [])
        if workers > self.manifest.workers:
            self.manifest.workers = workers
        for captured in observations.runs:
            self._run_index += 1
            run_manifest = captured.manifest
            if self.trace_dir is not None:
                name = f"run-{self._run_index:04d}.jsonl"
                if captured.kind == "reduction":
                    write_ledger_jsonl(
                        self.trace_dir / name,
                        manifest=run_manifest,
                        ledger=captured.ledger or [],
                        summary=captured.summary,
                    )
                else:
                    write_trace_jsonl(
                        captured.trace,
                        self.trace_dir / name,
                        manifest=run_manifest,
                        node_ids=captured.node_ids,
                        run_metrics=captured.run_metrics,
                    )
                run_manifest.trace_file = name
            self.manifest.runs.append(run_manifest)
            self._emit("run-complete", run=run_manifest.as_dict())
        if observations.runs:
            self._maybe_checkpoint()

    # -- lifecycle ------------------------------------------------------
    @property
    def num_runs(self) -> int:
        return self._run_index

    def close(self) -> Optional[pathlib.Path]:
        """Finalize: snapshot the aggregates and log ``session-close``.

        The sampler stops first, so its last gauges land in the
        snapshot, and ``session-close`` is the log's final line — its
        presence is what tells a clean close from a killed session.
        Returns the log's path when persisting.
        """
        if self._sampler is not None:
            self._sampler.stop()
        totals = self._totals()
        self.manifest.metrics = totals["metrics"]
        self.manifest.wall_seconds = totals["wall_seconds"]
        if self.stream is None:
            return None
        self.stream.close(**totals)
        return self.stream.path


def current_session() -> Optional[ObservationSession]:
    """The innermost active session, or None."""
    return _SESSIONS[-1] if _SESSIONS else None


@contextmanager
def observe(
    trace_dir: Optional[pathlib.Path] = None,
    label: Optional[str] = None,
    stream: Optional[bool] = None,
    resource_interval: Optional[float] = None,
):
    """Activate an :class:`ObservationSession` for the ``with`` scope."""
    session = ObservationSession(
        trace_dir=trace_dir,
        label=label,
        stream=stream,
        resource_interval=resource_interval,
    )
    _SESSIONS.append(session)
    try:
        yield session
    finally:
        _SESSIONS.pop()
        session.close()


@contextmanager
def worker_capture():
    """A collecting session for one pool-worker task.

    Engines and reductions constructed inside the scope observe into a
    fresh registry and buffer their runs as :class:`CapturedRun`; the
    caller exports the result with
    :meth:`ObservationSession.export_worker_observations` and ships it
    back to the parent process.  Nothing is written to disk here — the
    parent persists, preserving its own run numbering.
    """
    session = ObservationSession(collect=True)
    _SESSIONS.append(session)
    try:
        yield session
    finally:
        _SESSIONS.pop()
