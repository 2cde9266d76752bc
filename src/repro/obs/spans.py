"""Hierarchical structured spans: where the wall clock went, and why.

The metrics registry answers *what happened* (rounds, bits, phase
histograms); spans answer *where time went* across the execution
hierarchy the experiment farm actually runs::

    sweep  ->  cell  ->  replicate  ->  run  ->  engine phase

Each :class:`Span` carries its kind, a human name, free-form tags
(protocol, adversary, N, seed, backend, workers, ...), wall seconds and
— for spans timed in-process — CPU seconds.  Spans form a tree via
``parent_id``; the tree is rooted at whatever opened first inside the
active :class:`~repro.obs.runtime.ObservationSession`.

Three ways spans come into existence:

* :func:`span` — a context manager around any scope.  With no active
  session it is a no-op whose entire cost is one list lookup.
* :func:`span_event` — a zero-duration marker (tape stats, cache
  hits) attached to the current position in the tree.
* synthesized run/phase spans — when an engine run ends under a
  session, the session converts the engine's stage clock into one
  ``run`` span with five ``phase`` children, so engine time is
  attributed without a span per round.

**Merge algebra.**  Pool workers record spans into a collecting
session (:func:`repro.obs.runtime.worker_capture`); the parent ingests
them in task order, re-keys the ids into its own id space, and grafts
each worker-root span onto the span that was active at ingest time
(the ``replicate``/``sweep`` span wrapping the executor call).  This
mirrors the PR-3 metrics merge: a merged parallel session's span tree
has exactly the same shape and span count as the sequential session's,
and the same totals up to wall-clock noise.

**Persistence.**  A persisting session writes each span to its session
log the moment the span finishes, as one ``span-close`` event carrying
:meth:`Span.as_dict` (:mod:`repro.obs.stream`); ids are the recorder's
own, so the loaded tree is the recorded one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "SPAN_KINDS",
    "Span",
    "SpanRecorder",
    "span",
    "span_event",
    "current_span",
]

#: The canonical hierarchy, outermost first.  ``event`` marks
#: zero-duration occurrences (tape stats, cache hits); other kinds are
#: accepted — the hierarchy is a convention, not a schema.
SPAN_KINDS = ("sweep", "cell", "replicate", "run", "phase", "event")


@dataclass
class Span:
    """One timed (or zero-duration) node of the span tree."""

    span_id: int
    parent_id: Optional[int]
    kind: str
    name: str
    tags: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: CPU (process) time, when the span was timed in-process; synthesized
    #: run/phase spans carry None — their clock is the engine's stage clock
    cpu_seconds: Optional[float] = None
    status: str = "ok"

    def as_dict(self) -> dict:
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "name": self.name,
            "tags": dict(self.tags),
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            span_id=int(data["span_id"]),
            parent_id=data.get("parent_id"),
            kind=str(data.get("kind", "span")),
            name=str(data.get("name", "?")),
            tags=dict(data.get("tags", {})),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            cpu_seconds=data.get("cpu_seconds"),
            status=str(data.get("status", "ok")),
        )


class SpanRecorder:
    """Owns one session's span tree: an id counter, a stack, a list.

    Deliberately plain (no threading, module-global-stack style) to
    match the simulator's single-threaded execution model; pool workers
    each get their own recorder inside their collecting session.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 1
        #: called with each span the moment it is *finished* — on
        #: :meth:`end`, :meth:`add`, and per grafted span in
        #: :meth:`ingest`.  A persisting session hooks this to append
        #: span-close events to its log; None costs one check.
        self.on_record: Optional[Any] = None

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def active_id(self) -> Optional[int]:
        """Id of the innermost open span (new spans parent here)."""
        return self._stack[-1] if self._stack else None

    def begin(self, kind: str, name: str, tags: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span as a child of the currently active one."""
        sp = Span(
            span_id=self._next_id,
            parent_id=self.active_id,
            kind=kind,
            name=name,
            tags=dict(tags or {}),
        )
        self._next_id += 1
        self.spans.append(sp)
        self._stack.append(sp.span_id)
        return sp

    def end(self, sp: Span, wall_seconds: float, cpu_seconds: Optional[float]) -> None:
        """Close the innermost span (must be ``sp``) with its timings."""
        sp.wall_seconds = wall_seconds
        sp.cpu_seconds = cpu_seconds
        if self._stack and self._stack[-1] == sp.span_id:
            self._stack.pop()
        if self.on_record is not None:
            self.on_record(sp)

    def add(
        self,
        kind: str,
        name: str,
        tags: Optional[Dict[str, Any]] = None,
        wall_seconds: float = 0.0,
        cpu_seconds: Optional[float] = None,
        parent_id: Optional[int] = None,
        status: str = "ok",
    ) -> Span:
        """Record an already-finished span (synthesized runs, events)."""
        sp = Span(
            span_id=self._next_id,
            parent_id=parent_id if parent_id is not None else self.active_id,
            kind=kind,
            name=name,
            tags=dict(tags or {}),
            wall_seconds=wall_seconds,
            cpu_seconds=cpu_seconds,
            status=status,
        )
        self._next_id += 1
        self.spans.append(sp)
        if self.on_record is not None:
            self.on_record(sp)
        return sp

    def record_run(
        self,
        manifest: Any,
        phase_seconds: Optional[Dict[str, float]] = None,
        protocol: Optional[str] = None,
    ) -> Span:
        """Synthesize one ``run`` span (+ ``phase`` children) for a
        finished run.

        No extra clocks: the wall time is the manifest's, and the phase
        children re-use the run's per-stage totals — so the run subtree
        is identical whether the run happened here or inside a pool
        worker.
        """
        tags: Dict[str, Any] = {
            "adversary": manifest.adversary,
            "n": manifest.num_nodes,
            "seed": manifest.seed,
            "backend": manifest.backend,
        }
        if protocol:
            tags["protocol"] = protocol
        representation = getattr(manifest, "representation", None)
        if representation is not None:  # batch runs: attribute the kernel
            tags["representation"] = representation
        wall = manifest.wall_seconds or 0.0
        run_span = self.add("run", manifest.adversary, tags=tags, wall_seconds=wall)
        for phase, seconds in (phase_seconds or {}).items():
            self.add(
                "phase",
                phase,
                tags={"phase": phase},
                wall_seconds=seconds,
                parent_id=run_span.span_id,
            )
        return run_span

    # -- merge algebra ---------------------------------------------------
    def export(self) -> List[dict]:
        """JSON-ready span dicts (what a worker ships to its parent)."""
        return [sp.as_dict() for sp in self.spans]

    def ingest(self, spans: List[dict]) -> None:
        """Graft a worker's span list into this tree, re-keyed.

        Ids are offset into this recorder's id space and worker-root
        spans (``parent_id is None``) are re-parented onto the currently
        active span — the ``replicate``/``sweep`` span wrapping the
        executor call — so the merged tree matches the sequential one.
        Called in task order, like the metrics merge.
        """
        if not spans:
            return
        remap: Dict[int, int] = {}
        graft_parent = self.active_id
        for data in spans:
            sp = Span.from_dict(data)
            remap[sp.span_id] = self._next_id
            sp.span_id = self._next_id
            self._next_id += 1
            if sp.parent_id is None:
                sp.parent_id = graft_parent
            else:
                sp.parent_id = remap.get(sp.parent_id, graft_parent)
            self.spans.append(sp)
            if self.on_record is not None:
                self.on_record(sp)


# ----------------------------------------------------------------------
# ambient API
def _recorder() -> Optional[SpanRecorder]:
    from .runtime import current_session

    session = current_session()
    return session.spans if session is not None else None


def current_span() -> Optional[Span]:
    """The innermost open span of the active session, or None."""
    rec = _recorder()
    if rec is None or rec.active_id is None:
        return None
    # The active span is near the tail in the common case.
    active = rec.active_id
    for sp in reversed(rec.spans):
        if sp.span_id == active:
            return sp
    return None  # pragma: no cover - stack ids always exist in the list


@contextmanager
def span(kind: str, name: str, **tags: Any) -> Iterator[Optional[Span]]:
    """Time a scope as one span of the active session's tree.

    With no active session the body runs untimed and untracked — the
    no-op path costs one session lookup, keeping instrumented call
    sites free when observability is off.
    """
    rec = _recorder()
    if rec is None:
        yield None
        return
    sp = rec.begin(kind, name, tags)
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        yield sp
    except BaseException:
        sp.status = "error"
        raise
    finally:
        rec.end(sp, time.perf_counter() - t0, time.process_time() - c0)


def span_event(name: str, **tags: Any) -> Optional[Span]:
    """Record a zero-duration ``event`` span (retries, tape stats)."""
    rec = _recorder()
    if rec is None:
        return None
    return rec.add("event", name, tags=tags)
