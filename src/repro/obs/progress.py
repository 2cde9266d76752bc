"""Live progress streaming for sweeps and replications.

Sweeps are long: the farm runs thousands of deterministic cells, and
until now nothing said *anything* until the final table printed.  This
module adds a small callback protocol — :class:`ProgressReporter` — that
the execution layer (:func:`~repro.sim.runner.replicate`,
:func:`~repro.analysis.sweep.cartesian_sweep`,
:class:`~repro.sim.parallel.ParallelExecutor`) notifies as work
completes, plus a default stderr ticker.  Another consumer implements
the four methods and installs itself with :func:`progress_scope`; it
then sees cells done/total, throughput, ETA, and per-cell status
without touching the execution layer.

Like observation sessions, reporters are ambient (a module-global
stack, innermost wins) so that progress does not have to be threaded
through every call signature; with no reporter installed every
notification is a no-op costing one list check.  Pool workers never
report — the parent consumes results in input order and reports on
their behalf — so progress output is single-writer by construction.

Events carry the degradation the executor layer already records:
``degraded-retry`` (a worker crash or hang absorbed by a retry).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, TextIO

__all__ = [
    "ProgressReporter",
    "StderrTicker",
    "current_reporter",
    "progress_scope",
    "report_event",
    "report_begin",
    "report_advance",
    "report_finish",
]


class ProgressReporter:
    """The callback protocol; every method is optional to override.

    The execution layer guarantees the call pattern
    ``begin -> advance* -> finish`` (``finish`` in a ``finally``), with
    ``event`` possible at any point.  Nested scopes (a ``replicate``
    inside a sweep cell) call ``begin``/``finish`` too; implementations
    that only care about the outermost scope track depth, as
    :class:`StderrTicker` does.
    """

    def begin(self, total: int, unit: str = "tasks", label: Optional[str] = None) -> None:
        """A scope of ``total`` work items is starting."""

    def advance(self, label: Optional[str] = None, status: str = "ok") -> None:
        """One work item finished (``status``: ``ok``/``error``)."""

    def event(self, kind: str, detail: str) -> None:
        """An out-of-band occurrence (e.g. degraded-retry)."""

    def finish(self) -> None:
        """The scope that most recently ``begin``-ed is done."""


class StderrTicker(ProgressReporter):
    """Default reporter: a single updating stderr line plus event lines.

    Renders ``[label] done/total unit  rate/s  ETA``; throttled to at
    most one repaint per ``min_interval`` seconds (the final state and
    events always print).  Only the outermost ``begin`` drives the
    line — inner scopes contribute their completions to it (so a sweep
    shows cells, not the replicas inside each cell).
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        label: Optional[str] = None,
        min_interval: float = 0.1,
        clock=time.perf_counter,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self.min_interval = min_interval
        self.clock = clock
        self._depth = 0
        self._total = 0
        self._done = 0
        self._unit = "tasks"
        self._started_at: Optional[float] = None
        self._last_paint: float = -1.0
        self._line_open = False

    # -- protocol ------------------------------------------------------
    def begin(self, total: int, unit: str = "tasks", label: Optional[str] = None) -> None:
        self._depth += 1
        if self._depth > 1:
            return
        self._total = int(total)
        self._done = 0
        self._unit = unit
        if label is not None:
            self.label = label
        self._started_at = self.clock()
        self._last_paint = -1.0
        self._paint()

    def advance(self, label: Optional[str] = None, status: str = "ok") -> None:
        if self._depth != 1:
            return
        self._done += 1
        force = status != "ok" or self._done >= self._total
        self._paint(force=force, status=status, label=label)

    def event(self, kind: str, detail: str) -> None:
        self._end_line()
        prefix = f"[{self.label}] " if self.label else ""
        print(f"{prefix}{kind}: {detail}", file=self.stream)

    def finish(self) -> None:
        if self._depth > 0:
            self._depth -= 1
        if self._depth == 0:
            self._paint(force=True)
            self._end_line()

    # -- rendering -----------------------------------------------------
    def _render(self, status: str = "ok", label: Optional[str] = None) -> str:
        elapsed = (self.clock() - self._started_at) if self._started_at else 0.0
        rate = self._done / elapsed if elapsed > 0 and self._done else 0.0
        parts = [f"{self._done}/{self._total} {self._unit}"]
        if rate:
            parts.append(f"{rate:.1f}/s")
            remaining = self._total - self._done
            if remaining > 0:
                parts.append(f"ETA {remaining / rate:.1f}s")
        if status != "ok" and label:
            parts.append(f"{status}: {label}")
        prefix = f"[{self.label}] " if self.label else ""
        return prefix + "  ".join(parts)

    def _paint(self, force: bool = False, status: str = "ok",
               label: Optional[str] = None) -> None:
        now = self.clock()
        if not force and self._last_paint >= 0 and now - self._last_paint < self.min_interval:
            return
        self._last_paint = now
        self.stream.write("\r\x1b[2K" + self._render(status=status, label=label))
        self.stream.flush()
        self._line_open = True

    def _end_line(self) -> None:
        if self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False


_REPORTERS: List[ProgressReporter] = []


def current_reporter() -> Optional[ProgressReporter]:
    """The innermost installed reporter, or None."""
    return _REPORTERS[-1] if _REPORTERS else None


@contextmanager
def progress_scope(reporter: ProgressReporter) -> Iterator[ProgressReporter]:
    """Install a reporter for the ``with`` scope (a stack; innermost wins)."""
    _REPORTERS.append(reporter)
    try:
        yield reporter
    finally:
        _REPORTERS.pop()


def report_event(kind: str, detail: str) -> None:
    """Notify the installed reporter of an event (no-op without one)."""
    reporter = current_reporter()
    if reporter is not None:
        reporter.event(kind, detail)


# ----------------------------------------------------------------------
# combined reporter + session-log notification
#
# The execution layer calls these instead of poking the reporter
# directly, so one call site feeds both live consumers: the installed
# ProgressReporter (the stderr ticker by default) and the
# active session's log (repro.obs.stream), which is what
# ``repro tail`` follows after the process is no longer ours to watch.
# Depth is tracked here (outermost scope = 1) because the session log,
# unlike StderrTicker, records *every* scope and lets the consumer
# choose a depth to render.

_DEPTH = 0


def _logging_session():
    from .runtime import current_session

    session = current_session()
    return session if session is not None and session.stream is not None else None


def report_begin(total: int, unit: str = "tasks", label: Optional[str] = None) -> int:
    """Open a progress scope everywhere; returns the scope's depth."""
    global _DEPTH
    _DEPTH += 1
    reporter = current_reporter()
    if reporter is not None:
        reporter.begin(total, unit=unit, label=label)
    session = _logging_session()
    if session is not None:
        session.record_progress(
            "begin", label or "", _DEPTH, total=int(total), unit=unit
        )
    return _DEPTH


def report_advance(label: Optional[str] = None, status: str = "ok") -> None:
    """One work item of the innermost open scope finished."""
    reporter = current_reporter()
    if reporter is not None:
        reporter.advance(label=label, status=status)
    session = _logging_session()
    if session is not None:
        session.record_progress("advance", label or "", _DEPTH, status=status)


def report_finish() -> None:
    """Close the innermost open progress scope everywhere."""
    global _DEPTH
    reporter = current_reporter()
    if reporter is not None:
        reporter.finish()
    session = _logging_session()
    if session is not None:
        session.record_progress("finish", "", _DEPTH)
    if _DEPTH > 0:
        _DEPTH -= 1
