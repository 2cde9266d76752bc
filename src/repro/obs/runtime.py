"""Ambient observation sessions: record every engine run in a scope.

Experiments construct :class:`~repro.sim.engine.SynchronousEngine`
objects many layers below the CLI, so observability cannot be threaded
through every call signature.  Instead, a scope opts in::

    with observe(trace_dir="out/run", label="thm8") as session:
        exp_thm8_leader_election()          # any number of engine runs
    # out/run/ now holds manifest.json + run-0001.jsonl, run-0002.jsonl, ...

While a session is active, every engine constructed without an explicit
``instrumentation=`` picks one up from the session (one fresh
:class:`~repro.obs.instrumentation.Instrumentation` per engine, all
feeding the session's shared registry); when each run ends the session
persists its trace as JSONL and appends a :class:`RunManifest`.  Every
:class:`~repro.core.simulation.TwoPartyReduction` likewise picks up a
fresh :class:`~repro.obs.ledger.ProofLedger` and hands it back via
:meth:`ObservationSession.record_reduction`, persisted as a
``format_version 2`` ledger run.  With no active session the lookups
return ``None`` and both the engine and the reduction run on the
zero-cost uninstrumented path.

Sessions nest (a stack); the innermost wins.  This is deliberately a
plain module-global stack, matching the simulator's single-threaded
execution model.
"""

from __future__ import annotations

import pathlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, List, Optional

from .export import write_ledger_jsonl, write_trace_jsonl
from .instrumentation import Instrumentation
from .ledger import ProofLedger
from .manifest import RunManifest, SessionManifest, collect_provenance
from .metrics import MetricsRegistry, NULL_REGISTRY
from .resource import RESOURCE_FILENAME, ResourceSampler, resolve_interval
from .spans import SPANS_FILENAME, Span, SpanRecorder, write_spans_jsonl
from .stream import EVENTS_FILENAME, EventStream, resolve_stream, write_checkpoint

__all__ = [
    "ObservationSession",
    "observe",
    "current_session",
    "instrument_engine",
    "CapturedRun",
    "WorkerObservations",
    "worker_capture",
]

_SESSIONS: List["ObservationSession"] = []


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
        Directory for ``manifest.json`` + one ``run-NNNN.jsonl`` per
        engine run.  ``None`` collects metrics only.
    metrics:
        When False, per-run timing still works but nothing aggregates
        into the shared registry (it is the null sink).
    label:
        Free-form tag (e.g. the experiment name) stored in the manifest.
    stream:
        Crash-safe streaming (see :mod:`repro.obs.stream`): append one
        fsync'd event line per occurrence to ``events.jsonl``, plus
        periodic atomic checkpoints, so a ``kill -9`` leaves a loadable
        partial session.  ``None`` defers to ``REPRO_STREAM``; only
        persisting, non-collect sessions ever stream (workers ship their
        observations back instead — single writer per session dir).
    resource_interval:
        Seconds between background resource samples when streaming
        (``None``: ``REPRO_RESOURCE_INTERVAL`` or 1.0; ``<= 0``
        disables the sampler).
    """

    def __init__(
        self,
        trace_dir: Optional[pathlib.Path] = None,
        metrics: bool = True,
        label: Optional[str] = None,
        collect: bool = False,
        stream: Optional[bool] = None,
        resource_interval: Optional[float] = None,
    ):
        self.registry: MetricsRegistry = MetricsRegistry() if metrics else NULL_REGISTRY
        self.trace_dir = pathlib.Path(trace_dir) if trace_dir is not None else None
        self.manifest = SessionManifest(label=label)
        #: collect mode (pool workers): runs are buffered as
        #: :class:`CapturedRun` for the parent to persist, never written
        self.collect = collect
        self._captured: List[CapturedRun] = []
        #: the session's span tree (see :mod:`repro.obs.spans`);
        #: persisted as ``spans.jsonl`` (format_version 3) at close
        self.spans = SpanRecorder()
        self._run_index = 0
        self._started_at = time.perf_counter()
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        if not collect and self.trace_dir is not None:
            self.manifest.provenance = collect_provenance()
        #: the live event stream (None: not streaming); see module doc
        self.stream: Optional[EventStream] = None
        self._sampler: Optional[ResourceSampler] = None
        #: min seconds between checkpoints (events still stream per line)
        self.checkpoint_interval = 1.0
        self._last_checkpoint = 0.0
        #: serializes checkpoints: the resource sampler's thread and the
        #: main thread both write the one ``checkpoint.json.tmp``
        self._checkpoint_lock = threading.Lock()
        self.streaming = (
            not collect and self.trace_dir is not None and resolve_stream(stream)
        )
        if self.streaming:
            self.stream = EventStream(
                self.trace_dir / EVENTS_FILENAME,
                label=label,
                header_extra={"provenance": self.manifest.provenance},
            )
            self.spans.on_record = self._span_recorded
            interval = resolve_interval(resource_interval)
            if interval > 0:
                self._sampler = ResourceSampler(
                    self.trace_dir,
                    registry=self.registry,
                    interval=interval,
                    emit=lambda **payload: self._emit("heartbeat", **payload),
                    on_tick=self._maybe_checkpoint,
                )
                self._sampler.start()

    # -- streaming ------------------------------------------------------
    def _emit(self, type_: str, **payload: Any) -> None:
        """One event line, when streaming; a no-op otherwise."""
        if self.stream is not None:
            self.stream.emit(type_, **payload)

    def _span_recorded(self, sp: Span) -> None:
        """``SpanRecorder.on_record`` hook: stream each finished span.

        Synthesized ``run``/``phase`` spans are *not* re-emitted — each
        run already streams one ``run-complete`` event carrying its
        phase seconds, and :func:`repro.obs.stream.spans_from_events`
        rebuilds the subtree from that (six extra fsync'd lines per run
        would double the stream for zero information).
        """
        if sp.kind in ("run", "phase"):
            return
        if sp.kind == "cell":
            type_ = "cell-complete"
        elif sp.kind == "event" and sp.name == "degraded-retry":
            type_ = sp.name
        else:
            type_ = "span-close"
        self._emit(type_, span=sp.as_dict())

    def _open_spans(self) -> List[Span]:
        by_id = {sp.span_id: sp for sp in self.spans.spans}
        return [by_id[sid] for sid in self.spans._stack if sid in by_id]

    def checkpoint(self) -> None:
        """Atomically snapshot aggregate state to ``checkpoint.json``.

        The event stream is the per-occurrence record; the checkpoint is
        what makes a crashed session's *aggregates* — metrics registry,
        open-span stack, run count — recoverable to the last write
        instead of to zero.
        """
        if self.stream is None or self.trace_dir is None:
            return
        with self._checkpoint_lock:
            self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        """Snapshot and write; the caller holds ``_checkpoint_lock``."""
        write_checkpoint(
            self.trace_dir,
            {
                "label": self.manifest.label,
                "provenance": dict(self.manifest.provenance),
                "workers": self.manifest.workers,
                "wall_seconds": time.perf_counter() - self._started_at,
                "runs": self._run_index,
                "events_seq": self.stream.seq,
                "metrics": self.registry.snapshot(),
                "open_spans": [sp.as_dict() for sp in self._open_spans()],
            },
        )
        self._last_checkpoint = time.perf_counter()

    def _maybe_checkpoint(self) -> None:
        """Checkpoint, rate-limited to :attr:`checkpoint_interval`."""
        if self.stream is None or self.trace_dir is None:
            return
        with self._checkpoint_lock:
            if time.perf_counter() - self._last_checkpoint >= self.checkpoint_interval:
                self._write_checkpoint()

    def record_progress(self, phase: str, label: str, depth: int, **extra: Any) -> None:
        """Stream one progress event (begin/advance/finish); see
        :func:`repro.obs.progress.report_begin` and friends."""
        self._emit("progress", phase=phase, label=label, depth=depth, **extra)

    # -- engine integration --------------------------------------------
    def instrument(self, engine: Any = None) -> Instrumentation:
        """A fresh per-run instrumentation feeding this session."""
        return Instrumentation(registry=self.registry, on_run_end=self._run_ended)

    @staticmethod
    def _engine_protocol(engine: Any) -> Optional[str]:
        """Protocol class name, derived from the engine's node set."""
        nodes = getattr(engine, "nodes", None)
        if not nodes:
            return None
        return type(next(iter(nodes.values()))).__name__

    def _run_ended(self, instr: Instrumentation, engine: Any) -> None:
        if self.collect and engine is not None:
            run_manifest = RunManifest.from_engine(engine)
            run_manifest.wall_seconds = instr.wall_seconds
            self.spans.record_run(
                run_manifest, instr, protocol=self._engine_protocol(engine)
            )
            self._captured.append(
                CapturedRun(
                    kind="engine",
                    manifest=run_manifest,
                    trace=engine.trace,
                    node_ids=list(engine.node_ids),
                    run_metrics=instr.run_metrics(),
                )
            )
            return
        self._run_index += 1
        if engine is not None:
            run_manifest = RunManifest.from_engine(engine)
        else:  # pragma: no cover - engines always pass themselves
            run_manifest = RunManifest(seed=None, num_nodes=0, adversary="?")
        run_manifest.wall_seconds = instr.wall_seconds
        self.spans.record_run(
            run_manifest, instr, protocol=self._engine_protocol(engine)
        )
        if self.trace_dir is not None and engine is not None:
            name = f"run-{self._run_index:04d}.jsonl"
            write_trace_jsonl(
                engine.trace,
                self.trace_dir / name,
                manifest=run_manifest,
                node_ids=engine.node_ids,
                run_metrics=instr.run_metrics(),
            )
            run_manifest.trace_file = name
        self.manifest.runs.append(run_manifest)
        self._emit(
            "run-complete",
            run=run_manifest.as_dict(),
            phase_seconds=dict(getattr(instr, "phase_seconds", {}) or {}),
            protocol=self._engine_protocol(engine),
        )
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
        self.spans.record_run(run_manifest, None)
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
        self._emit("run-complete", run=run_manifest.as_dict(), phase_seconds={})
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
            self._emit(
                "run-complete",
                run=run_manifest.as_dict(),
                phase_seconds=dict(
                    (captured.run_metrics or {}).get("phase_seconds", {}) or {}
                ),
            )
        if observations.runs:
            self._maybe_checkpoint()

    # -- lifecycle ------------------------------------------------------
    @property
    def num_runs(self) -> int:
        return self._run_index

    def close(self) -> Optional[pathlib.Path]:
        """Finalize: snapshot metrics, write ``manifest.json`` if persisting.

        Streaming order matters: the sampler stops (its last gauges land
        in the snapshot), the stream's ``session-close`` marker is the
        final event, and ``manifest.json`` is written last — its
        existence is the clean-close signal partial-session loading
        keys on.
        """
        if self._sampler is not None:
            self._sampler.stop()
        self.manifest.wall_seconds = time.perf_counter() - self._started_at
        self.manifest.metrics = self.registry.snapshot()
        if self.trace_dir is not None:
            if self.spans.spans:
                write_spans_jsonl(
                    self.trace_dir / SPANS_FILENAME,
                    self.spans.spans,
                    label=self.manifest.label,
                )
                self.manifest.spans_file = SPANS_FILENAME
            if self.stream is not None:
                self.manifest.events_file = EVENTS_FILENAME
                if self._sampler is not None:
                    self.manifest.resource_file = RESOURCE_FILENAME
                self.stream.close(
                    runs=self._run_index,
                    wall_seconds=self.manifest.wall_seconds,
                )
            return self.manifest.write(self.trace_dir)
        return None


def current_session() -> Optional[ObservationSession]:
    """The innermost active session, or None."""
    return _SESSIONS[-1] if _SESSIONS else None


def instrument_engine(engine: Any) -> Optional[Instrumentation]:
    """Hook for the engine: instrumentation from the active session, if any."""
    session = current_session()
    return session.instrument(engine) if session is not None else None


@contextmanager
def observe(
    trace_dir: Optional[pathlib.Path] = None,
    metrics: bool = True,
    label: Optional[str] = None,
    stream: Optional[bool] = None,
    resource_interval: Optional[float] = None,
):
    """Activate an :class:`ObservationSession` for the ``with`` scope."""
    session = ObservationSession(
        trace_dir=trace_dir,
        metrics=metrics,
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
