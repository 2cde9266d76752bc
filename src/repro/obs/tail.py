"""``repro tail``: attach to a live (or dead) session directory.

The session log (:mod:`repro.obs.stream`) is written line-at-a-time,
flushed per line, precisely so that *another process* can follow it.
This module is that follower: open ``events.jsonl``, render what has
happened so far, then poll the file for growth and render each new
event as one line — the outermost progress scope prints
``[label] done/total unit  rate/s  ETA`` per finished item (the
ticker's renderer, :class:`~repro.obs.progress.ProgressRenderer`),
runs and cells print as discrete lines, and event types with no
handler render nothing unless ``verbose``.  Lines are decoded and
checked by the loader's :func:`~repro.obs.stream.decode_event`.

Attach semantics:

* the directory may not have an ``events.jsonl`` *yet* (the session is
  about to start) — tail waits for it up to ``timeout``;
* a ``session-close`` event ends the tail (clean shutdown);
* a session that stops growing without ``session-close`` is either
  still computing or dead; tail keeps following until ``timeout``
  seconds pass with no new events, then reports the session as stalled
  or killed;
* ``follow=False`` renders the current contents and exits — the
  post-mortem mode the crash-safety tests drive.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Callable, List, TextIO

from .progress import ProgressRenderer
from .stream import EVENTS_FILENAME, decode_event

__all__ = ["TailRenderer", "iter_event_lines", "tail_session"]


class TailRenderer:
    """Turn a session's event stream into human lines, statefully.

    Feed events in order via :meth:`render`; each call returns the lines
    to print (usually zero or one).  Progress events go through the
    ticker's :class:`~repro.obs.progress.ProgressRenderer`, timed by
    their ``elapsed`` field: one line per finished item of the
    outermost scope.
    """

    def __init__(self, verbose: bool = False):
        self.verbose = verbose
        self.progress = ProgressRenderer()
        self.runs = 0
        self.closed = False

    # -- event -> lines -------------------------------------------------
    def render(self, event: dict) -> List[str]:
        etype = event.get("type")
        handler = getattr(self, f"_on_{str(etype).replace('-', '_')}", None)
        if handler is not None:
            return handler(event)
        if self.verbose:
            return [f"  {etype}: {json.dumps(event, sort_keys=True)}"]
        return []

    def _on_stream_start(self, event: dict) -> List[str]:
        label = event.get("label") or "(unlabelled)"
        prov = event.get("provenance") or {}
        bits = [f"session {label}", f"pid {event.get('pid')}"]
        if prov.get("git_sha"):
            bits.append(f"git {str(prov['git_sha'])[:12]}")
        if prov.get("hostname"):
            bits.append(str(prov["hostname"]))
        return ["attached: " + "  ".join(bits)]

    def _on_run_complete(self, event: dict) -> List[str]:
        self.runs += 1
        run = event.get("run") or {}
        wall = run.get("wall_seconds")
        wall_s = f"  {wall:.3f}s" if isinstance(wall, (int, float)) else ""
        return [
            f"run {self.runs:4d}  {run.get('adversary', '?')}"
            f"  n={run.get('num_nodes', '?')} seed={run.get('seed', '?')}"
            f"  [{run.get('backend', '?')}]{wall_s}"
        ]

    def _on_span_close(self, event: dict) -> List[str]:
        sp = event.get("span") or {}
        if sp.get("kind") == "cell":
            wall = sp.get("wall_seconds") or 0.0
            status = sp.get("status", "ok")
            mark = "" if status == "ok" else f"  !{status}"
            return [f"cell done  {sp.get('name', '?')}  {wall:.2f}s{mark}"]
        if not self.verbose:
            return []
        return [f"  span {sp.get('kind')}:{sp.get('name')}  {sp.get('wall_seconds', 0):.3f}s"]

    def _on_progress(self, event: dict) -> List[str]:
        line = self.progress.feed(event, float(event.get("elapsed", 0.0)))
        return [line] if line is not None and event.get("phase") == "advance" else []

    def _on_heartbeat(self, event: dict) -> List[str]:
        if not self.verbose:
            return []
        rss = event.get("rss_bytes")
        rss_s = f"{rss / 1048576:.0f} MiB" if isinstance(rss, (int, float)) else "?"
        return [f"  alive  rss {rss_s}  cpu {event.get('cpu_percent', '?')}%"]

    def _on_session_close(self, event: dict) -> List[str]:
        self.closed = True
        wall = event.get("wall_seconds")
        wall_s = f" in {wall:.2f}s" if isinstance(wall, (int, float)) else ""
        return [f"session closed: {event.get('runs', self.runs)} runs{wall_s}"]

    def summary(self) -> str:
        """Final status line for a tail that ended without a close marker."""
        state = "closed cleanly" if self.closed else "no close marker (killed or still running)"
        return f"tail: {self.runs} runs — {state}"


def iter_event_lines(
    path: pathlib.Path,
    follow: bool = True,
    poll: float = 0.2,
    timeout: float = 10.0,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
):
    """Yield checked events from ``events.jsonl``, optionally following.

    Partial trailing lines (a writer mid-``write``) are buffered until
    the newline lands; a complete line that does not decode or check
    raises :class:`ValueError` naming the file and line, as
    :func:`repro.obs.stream.read_events_jsonl` does.  The generator ends
    on ``follow=False`` EOF, a ``session-close`` event, or ``timeout``
    seconds without growth.
    """
    path = pathlib.Path(path)
    buffer = ""
    lineno = 0
    last_growth = clock()
    # draining: one final read-to-EOF after the timeout fires, so lines
    # the writer flushed just before dying are never missed.
    draining = not follow
    with path.open(encoding="utf-8") as fh:
        while True:
            chunk = fh.readline()
            if chunk:
                buffer += chunk
                if not buffer.endswith("\n"):
                    if draining:
                        return  # torn tail of a killed writer
                    continue  # writer mid-line: wait for the rest
                raw, buffer = buffer, ""
                lineno += 1
                last_growth = clock()
                if not raw.strip():
                    continue
                try:
                    event = decode_event(raw)
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
                yield event
                if event["type"] == "session-close":
                    return
                continue
            if draining:
                return
            if clock() - last_growth > timeout:
                draining = True
                continue
            sleep(poll)


def tail_session(
    directory: pathlib.Path,
    out: TextIO,
    follow: bool = True,
    poll: float = 0.2,
    timeout: float = 10.0,
    verbose: bool = False,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Attach to ``directory`` and print its session log to ``out``.

    Returns an exit code: 0 when the session closed cleanly, 1 when the
    log ended without a close marker — a crashed, killed, or stalled
    session.  Never raises for partial sessions; a directory with no
    log at all (and none appearing within ``timeout``) is an error the
    caller turns into usage exit code 2.
    """
    directory = pathlib.Path(directory)
    events_path = directory / EVENTS_FILENAME
    waited = clock()
    while not events_path.is_file():
        if not follow or clock() - waited > timeout:
            raise FileNotFoundError(
                f"{directory}: no {EVENTS_FILENAME} — not a session "
                f"directory, or its session has not started"
            )
        sleep(poll)

    renderer = TailRenderer(verbose=verbose)
    for event in iter_event_lines(
        events_path, follow=follow, poll=poll, timeout=timeout,
        clock=clock, sleep=sleep,
    ):
        for line in renderer.render(event):
            print(line, file=out)
    print(renderer.summary(), file=out)
    return 0 if renderer.closed else 1
