"""Live progress for sweeps and replications: one event, one renderer.

The execution layer (:func:`~repro.sim.runner.replicate`,
:class:`~repro.sim.parallel.ParallelExecutor` and
:func:`~repro.analysis.experiments.base.run_grid`, the grid runner of
the experiment drivers and of
:func:`~repro.analysis.sweep.cartesian_sweep`) reports through
:func:`report_begin`, :func:`report_advance` and :func:`report_finish`.
Each call builds one progress event — a dict with ``phase``
(``begin``/``advance``/``finish``), ``label`` and ``depth``, plus
``total``/``unit`` on begin and ``status`` on advance — and hands it
to both consumers: the active session's log (a
``progress`` line of ``events.jsonl``, which ``repro tail`` follows)
and the installed ticker (:func:`progress_scope`).

:class:`ProgressRenderer` is the one state machine that turns those
events into ``[label] done/total unit  rate/s  ETA`` lines: it keeps
per-depth state, and only the outermost open scope drives the line
(a sweep shows cells, not the replicas inside each cell).
:class:`StderrTicker` and ``repro tail`` both render through it.

Reporters are ambient (a module-global stack, innermost wins), so
progress is not threaded through call signatures; with no reporter and
no persisting session every call is a no-op.  Pool workers never
report — the parent consumes results in input order and reports on
their behalf — so progress output is single-writer by construction.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, TextIO

from .runtime import current_session

__all__ = [
    "ProgressRenderer",
    "StderrTicker",
    "current_reporter",
    "progress_scope",
    "report_begin",
    "report_advance",
    "report_finish",
]

#: what :func:`progress_scope` installs: a callable taking one event
Reporter = Callable[[Dict[str, Any]], None]


class ProgressRenderer:
    """Progress events in, status lines out.

    :meth:`feed` takes events in order, each with the time ``now`` it
    happened (any clock, as long as it is one clock), and returns the
    outermost scope's status line after a ``begin`` or ``advance`` of
    that scope, else ``None``.  Events of a depth that never began (a
    consumer attached mid-scope) are ignored.
    """

    def __init__(self) -> None:
        #: depth -> {done, total, unit, label, t0}
        self.scopes: Dict[int, Dict[str, Any]] = {}

    def feed(self, event: Dict[str, Any], now: float) -> Optional[str]:
        depth = int(event.get("depth", 1))
        phase = event.get("phase")
        if phase == "begin":
            self.scopes[depth] = {
                "done": 0,
                "total": int(event.get("total", 0)),
                "unit": event.get("unit", "tasks"),
                "label": event.get("label") or "progress",
                "t0": now,
            }
        elif phase == "advance" and depth in self.scopes:
            self.scopes[depth]["done"] += 1
        else:  # a finish, or an advance of a scope that never began
            if phase == "finish":
                self.scopes.pop(depth, None)
            return None
        if depth != min(self.scopes):
            return None
        state = self.scopes[depth]
        done, total = state["done"], state["total"]
        parts = [f"[{state['label']}] {done}/{total} {state['unit']}"]
        elapsed = now - state["t0"]
        if done and elapsed > 0:
            rate = done / elapsed
            parts.append(f"{rate:.1f}/s")
            if total > done:
                parts.append(f"ETA {(total - done) / rate:.1f}s")
        status = event.get("status", "ok")
        if status != "ok" and event.get("label"):
            parts.append(f"{status}: {event['label']}")
        return "  ".join(parts)


class StderrTicker:
    """The default reporter: one updating stderr line per outermost scope.

    Repaints in place (``\\r``), at most once per ``min_interval``
    seconds; a scope's first line, a non-``ok`` item and the final
    state always paint, and the line ends when the outermost scope
    finishes.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        min_interval: float = 0.1,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.clock = clock
        self.renderer = ProgressRenderer()
        self._line: Optional[str] = None  # the latest line, painted or not
        self._painted = True
        self._last_paint = float("-inf")

    def __call__(self, event: Dict[str, Any]) -> None:
        now = self.clock()
        line = self.renderer.feed(event, now)
        if line is not None:
            self._line, self._painted = line, False
            throttled = (
                event["phase"] == "advance"
                and event.get("status", "ok") == "ok"
                and now - self._last_paint < self.min_interval
            )
            if not throttled:
                self._paint(now)
        elif event["phase"] == "finish" and not self.renderer.scopes:
            if not self._painted:
                self._paint(now)
            if self._line is not None:
                self.stream.write("\n")
                self.stream.flush()
                self._line = None

    def _paint(self, now: float) -> None:
        self._last_paint = now
        self._painted = True
        self.stream.write("\r\x1b[2K" + self._line)
        self.stream.flush()


_REPORTERS: List[Reporter] = []


def current_reporter() -> Optional[Reporter]:
    """The innermost installed reporter, or None."""
    return _REPORTERS[-1] if _REPORTERS else None


@contextmanager
def progress_scope(reporter: Reporter) -> Iterator[Reporter]:
    """Install a reporter for the ``with`` scope (a stack; innermost wins)."""
    _REPORTERS.append(reporter)
    try:
        yield reporter
    finally:
        _REPORTERS.pop()


#: open scopes, outermost = 1 (reset to 0 in pool workers)
_DEPTH = 0


def _report(phase: str, label: Optional[str], **fields: Any) -> None:
    """Hand one progress event to the ticker and the session log."""
    reporter = current_reporter()
    session = current_session()
    if reporter is None and (session is None or session.stream is None):
        return
    event = {"phase": phase, "label": label or "", "depth": _DEPTH, **fields}
    if reporter is not None:
        reporter(event)
    if session is not None:
        session.record_progress(event)


def report_begin(total: int, unit: str = "tasks", label: Optional[str] = None) -> None:
    """Open a progress scope of ``total`` work items."""
    global _DEPTH
    _DEPTH += 1
    _report("begin", label, total=int(total), unit=unit)


def report_advance(label: Optional[str] = None, status: str = "ok") -> None:
    """One work item of the innermost open scope finished."""
    _report("advance", label, status=status)


def report_finish() -> None:
    """Close the innermost open progress scope."""
    global _DEPTH
    _report("finish", None)
    if _DEPTH > 0:
        _DEPTH -= 1
