"""Span tracing from outside the program, for the traced benchmark run.

The tracer wraps public functions and methods of the ``repro`` package
in place for one run and restores them afterwards, so nothing under
``src/`` changes and the untraced runs execute the unmodified code.

What becomes a span:

* the harness's own calls into a layer (``span(name)``): driver and
  ``replicate`` calls, ``observe()`` scopes;
* ``ResultCache.get``/``put``, ``ObservationSession.close``, the
  drivers' ``dynamic_diameter``, ``BatchEngine.run`` and the runner's
  ``run_batch_replicas`` (the engine-run containers);
* every round stage of every batch engine: ``BatchEngine.step`` is
  replaced by a loop over the engine's own ``step_stages()`` that takes
  a timestamp at each yield.  All stage spans of one engine share its
  run id.

Node methods (``action``, ``on_messages``, ``on_sent``, ``output``) and
the adversary's ``edges`` run N x rounds times, so they are recorded as
aggregate child spans: a call count and summed seconds per method under
the span that was open when they ran (normally a stage).  A span's self
time is its duration minus the seconds its child spans and aggregate
calls cover.
"""

from __future__ import annotations

import contextlib
import json
import time
import weakref
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Span", "Tracer", "STAGES", "NODE_METHODS"]

#: the engine's round stages, in order (``repro.sim.engine.ROUND_STAGES``)
STAGES = ("actions", "adversary", "validation", "delivery", "termination")

#: node methods recorded as aggregate calls (key ``node.<method>``)
NODE_METHODS = ("action", "on_messages", "on_sent", "output")

#: ``ScheduleTape.stats`` counters summed over every tape a traced engine used
TAPE_COUNTERS = ("rounds", "key_hits", "content_hits", "unique_topologies")


class Span:
    """One finished span; ``calls`` maps an aggregate key to [count, seconds]."""

    __slots__ = ("id", "parent", "run", "name", "start", "end", "calls")

    def __init__(self, id_, parent, run, name, start, end=0.0, calls=None):
        self.id = id_
        self.parent = parent
        self.run = run
        self.name = name
        self.start = start
        self.end = end
        self.calls: Dict[str, List[float]] = {} if calls is None else calls

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, t0: float) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": round(self.start - t0, 9),
            "end": round(self.end - t0, 9),
        }
        if self.run is not None:
            out["run"] = self.run
        if self.calls:
            out["calls"] = {k: [int(n), round(s, 9)] for k, (n, s) in self.calls.items()}
        return out


class Tracer:
    """Collects spans in memory while its patches are installed."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.t0 = self.clock()
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: where aggregate calls land: the innermost open span's ``calls``
        #: (calls made while no span is open are dropped)
        self._calls: Dict[str, List[float]] = {}
        self._next_id = 0
        self._run_ids: "weakref.WeakKeyDictionary[Any, int]" = weakref.WeakKeyDictionary()
        self._open_tapes: Dict[int, Any] = {}
        self._patches: List[Tuple[Any, str, bool, Any]] = []
        #: hooks that were not found (the program changed); their layer
        #: reports zeros rather than failing the run
        self.missing: List[str] = []
        self.runs = 0
        self.rounds = 0
        self.node_rounds = 0
        self.tape_totals: Dict[str, int] = {k: 0 for k in TAPE_COUNTERS}
        self.tape_representations: Dict[str, int] = {}

    # -- spans -----------------------------------------------------------
    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextlib.contextmanager
    def span(self, name: str, run: Optional[int] = None) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        sp = Span(self._new_id(), parent, run, name, self.clock())
        outer_calls = self._calls
        self._stack.append(sp)
        self._calls = sp.calls
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()
            self._calls = outer_calls
            self.spans.append(sp)

    def _run_id(self, engine: Any) -> int:
        rid = self._run_ids.get(engine)
        if rid is None:
            self.runs += 1
            rid = self._run_ids[engine] = self.runs
            tape = getattr(engine, "tape", None)
            if tape is not None:
                self._open_tapes[id(tape)] = tape
        return rid

    def _flush_tapes(self) -> None:
        """Fold the stats of the tapes used since the last flush."""
        for tape in self._open_tapes.values():
            stats = getattr(tape, "stats", {})
            for key in TAPE_COUNTERS:
                self.tape_totals[key] += int(stats.get(key, 0))
            for kind, count in getattr(tape, "representations", {}).items():
                self.tape_representations[kind] = (
                    self.tape_representations.get(kind, 0) + int(count)
                )
        self._open_tapes.clear()

    # -- wrappers ----------------------------------------------------------
    def _aggregate(self, key: str, original: Callable) -> Callable:
        clock = self.clock
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls = tracer._calls
                entry = calls.get(key)
                if entry is None:
                    calls[key] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt

        return wrapper

    def _spanned(self, name: str, original: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        return wrapper

    def _engine_run(self, original: Callable) -> Callable:
        tracer = self

        def run(engine, *args, **kwargs):
            with tracer.span("engine.run", run=tracer._run_id(engine)):
                try:
                    return original(engine, *args, **kwargs)
                finally:
                    tracer._flush_tapes()

        return run

    def _replicas(self, original: Callable) -> Callable:
        tracer = self

        def run_batch_replicas(*args, **kwargs):
            with tracer.span("batch.replicas"):
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._flush_tapes()

        return run_batch_replicas

    def _stepper(self, step_stages: Callable) -> Callable:
        tracer = self
        clock = self.clock
        spans = self.spans

        def step(engine):
            run_id = tracer._run_id(engine)
            parent = tracer._stack[-1].id if tracer._stack else None
            outer_calls = tracer._calls
            calls: Dict[str, List[float]] = {}
            tracer._calls = calls
            event = None
            start = clock()
            try:
                for event in step_stages(engine):
                    end = clock()
                    spans.append(
                        Span(tracer._new_id(), parent, run_id,
                             "stage." + event.stage, start, end, calls)
                    )
                    calls = {}
                    tracer._calls = calls
                    start = clock()
            finally:
                tracer._calls = outer_calls
            tracer.rounds += 1
            tracer.node_rounds += len(engine.nodes)
            return event.record

        return step

    # -- patching ----------------------------------------------------------
    def _patch(self, owner: Any, name: str, make: Callable[[Callable], Callable],
               original: Optional[Callable] = None) -> None:
        if original is None:
            original = getattr(owner, name, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        own = vars(owner).get(name)
        self._patches.append((owner, name, own is not None, own))
        setattr(owner, name, make(original))

    def install(self, node_classes: Iterable[type], adversary_classes: Iterable[type]) -> None:
        """Wrap the hooks; node/adversary classes get aggregate calls."""
        from repro.analysis.experiments import protocols as drivers
        from repro.cache import store
        from repro.obs import runtime
        from repro.sim import batch, runner

        engine = batch.BatchEngine
        step_stages = getattr(engine, "step_stages", None)
        if step_stages is None:
            self.missing.append("BatchEngine.step_stages")
        else:
            self._patch(engine, "step", lambda _orig: self._stepper(step_stages))
        self._patch(engine, "run", self._engine_run)
        self._patch(runner, "run_batch_replicas", self._replicas)
        self._patch(store.ResultCache, "get", lambda f: self._spanned("cache.get", f))
        self._patch(store.ResultCache, "put", lambda f: self._spanned("cache.put", f))
        self._patch(runtime.ObservationSession, "close",
                    lambda f: self._spanned("obs.close", f))
        self._patch(drivers, "dynamic_diameter",
                    lambda f: self._spanned("causality.dynamic_diameter", f))
        # Resolve every original before patching any: a subclass that
        # inherits a method must wrap the base implementation, not the
        # base class's wrapper, or its calls would count twice.
        targets = [(cls, "node." + m, m) for cls in node_classes for m in NODE_METHODS]
        targets += [(cls, "adversary.edges", "edges") for cls in adversary_classes]
        originals = [getattr(cls, m, None) for cls, _key, m in targets]
        for (cls, key, m), original in zip(targets, originals):
            self._patch(cls, m, lambda f, key=key: self._aggregate(key, f), original)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order) and flush tapes."""
        for owner, name, had_own, own in reversed(self._patches):
            if had_own:
                setattr(owner, name, own)
            else:
                delattr(owner, name)
        self._patches.clear()
        self._flush_tapes()

    @contextlib.contextmanager
    def installed(self, node_classes: Iterable[type],
                  adversary_classes: Iterable[type]) -> Iterator["Tracer"]:
        self.install(node_classes, adversary_classes)
        try:
            yield self
        finally:
            self.uninstall()

    # -- views ---------------------------------------------------------------
    def subtree(self, root: Span) -> List[Span]:
        """``root`` and every span below it."""
        children: Dict[Optional[int], List[Span]] = {}
        for sp in self.spans:
            children.setdefault(sp.parent, []).append(sp)
        out, todo = [], [root]
        while todo:
            sp = todo.pop()
            out.append(sp)
            todo.extend(children.get(sp.id, ()))
        return out

    def write(self, path, header: Dict[str, Any]) -> int:
        """Write the spans as JSONL (a header line, then one span per line)."""
        spans = sorted(self.spans, key=lambda sp: (sp.start, sp.id))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, format="perfbench-spans", version=1,
                                     spans=len(spans)), sort_keys=True) + "\n")
            for sp in spans:
                fh.write(json.dumps(sp.as_dict(self.t0), sort_keys=True) + "\n")
        return len(spans)


def self_seconds(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus what its child spans and aggregate calls cover."""
    covered: Dict[int, float] = {}
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] = covered.get(sp.parent, 0.0) + sp.duration
    return {
        sp.id: sp.duration - covered.get(sp.id, 0.0) - sum(s for _n, s in sp.calls.values())
        for sp in spans
    }
