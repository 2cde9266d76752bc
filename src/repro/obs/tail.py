"""``repro tail``: attach to a live (or dead) session directory.

The event stream (:mod:`repro.obs.stream`) is written fsync'd
line-at-a-time precisely so that *another process* can follow it.  This
module is that follower: open ``events.jsonl``, render what has
happened so far, then poll the file for growth and render each new
event as one line — progress scopes collapse into an updating
``done/total  rate/s  ETA`` status, runs/cells/retries print as
discrete lines, and event types with no handler render nothing unless
``verbose``.

Attach semantics:

* the directory may not have an ``events.jsonl`` *yet* (the session is
  about to start) — tail waits for it up to ``timeout``;
* a ``session-close`` event ends the tail (clean shutdown);
* a session that stops growing without ``session-close`` is either
  still computing or dead; tail keeps following until ``timeout``
  seconds pass with no new events, then reports the session as stalled
  or killed (a ``manifest.json`` appearing also ends the tail — the
  writer closed between polls);
* ``follow=False`` renders the current contents and exits — the
  post-mortem mode the crash-safety tests drive.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Callable, Dict, List, Optional, TextIO

from .manifest import MANIFEST_FILENAME
from .stream import EVENTS_FILENAME

__all__ = ["TailRenderer", "iter_event_lines", "tail_session"]


def _fmt_rate(done: int, elapsed: float) -> str:
    if done <= 0 or elapsed <= 0:
        return ""
    return f"{done / elapsed:.1f}/s"


def _fmt_eta(done: int, total: int, elapsed: float) -> str:
    if done <= 0 or elapsed <= 0 or total <= done:
        return ""
    return f"ETA {(total - done) * elapsed / done:.0f}s"


class TailRenderer:
    """Turn a session's event stream into human lines, statefully.

    Feed events in order via :meth:`render`; each call returns the lines
    to print (usually zero or one).  Progress state is tracked per depth
    so the ETA line reflects the outermost scope (cells of a sweep) with
    inner completions folded in, mirroring ``StderrTicker``.
    """

    def __init__(self, verbose: bool = False):
        self.verbose = verbose
        #: depth -> {done, total, unit, label, t0}
        self._progress: Dict[int, Dict[str, Any]] = {}
        self.runs = 0
        self.retries = 0
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

    def _on_cell_complete(self, event: dict) -> List[str]:
        sp = event.get("span") or {}
        wall = sp.get("wall_seconds") or 0.0
        status = sp.get("status", "ok")
        mark = "" if status == "ok" else f"  !{status}"
        return [f"cell done  {sp.get('name', '?')}  {wall:.2f}s{mark}"]

    def _on_span_close(self, event: dict) -> List[str]:
        if not self.verbose:
            return []
        sp = event.get("span") or {}
        return [f"  span {sp.get('kind')}:{sp.get('name')}  {sp.get('wall_seconds', 0):.3f}s"]

    def _on_degraded_retry(self, event: dict) -> List[str]:
        self.retries += 1
        tags = (event.get("span") or {}).get("tags", {})
        return [
            f"retry      {tags.get('kind', '?')} on [{tags.get('label', '?')}]"
            f" attempt {tags.get('attempt', '?')}"
        ]

    def _on_progress(self, event: dict) -> List[str]:
        depth = int(event.get("depth", 1))
        phase = event.get("phase")
        now = float(event.get("elapsed", 0.0))
        if phase == "begin":
            self._progress[depth] = {
                "done": 0,
                "total": int(event.get("total", 0)),
                "unit": event.get("unit", "tasks"),
                "label": event.get("label") or "",
                "t0": now,
            }
            return []
        state = self._progress.get(depth)
        if state is None:
            return []
        if phase == "finish":
            self._progress.pop(depth, None)
            return []
        state["done"] += 1
        if depth != min(self._progress):
            return []  # inner scopes stay quiet, like StderrTicker
        elapsed = now - state["t0"]
        bits = [
            f"[{state['label']}]" if state["label"] else "[progress]",
            f"{state['done']}/{state['total']} {state['unit']}",
        ]
        rate = _fmt_rate(state["done"], elapsed)
        eta = _fmt_eta(state["done"], state["total"], elapsed)
        bits.extend(b for b in (rate, eta) if b)
        return ["  ".join(bits)]

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
        bits = [f"{self.runs} runs"]
        if self.retries:
            bits.append(f"{self.retries} retries")
        state = "closed cleanly" if self.closed else "no close marker (killed or still running)"
        return f"tail: {', '.join(bits)} — {state}"


def iter_event_lines(
    path: pathlib.Path,
    follow: bool = True,
    poll: float = 0.2,
    timeout: float = 10.0,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    stop: Optional[Callable[[], bool]] = None,
):
    """Yield parsed events from ``events.jsonl``, optionally following.

    Partial trailing lines (a writer mid-``write``) are buffered until
    the newline lands; undecodable complete lines are skipped, matching
    :func:`repro.obs.stream.read_events_jsonl`.  The generator ends on
    ``follow=False`` EOF, a ``session-close`` event, ``timeout`` seconds
    without growth, or ``stop()`` returning True.
    """
    path = pathlib.Path(path)
    buffer = ""
    last_growth = clock()
    # draining: one final read-to-EOF after the stop condition fires, so
    # lines the writer flushed just before closing are never missed.
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
                raw, buffer = buffer.strip(), ""
                last_growth = clock()
                if not raw:
                    continue
                try:
                    event = json.loads(raw)
                except json.JSONDecodeError:
                    continue
                if not isinstance(event, dict):
                    continue
                yield event
                if event.get("type") == "session-close":
                    return
                continue
            if draining:
                return
            if (stop is not None and stop()) or clock() - last_growth > timeout:
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
    """Attach to ``directory`` and print its event stream to ``out``.

    Returns an exit code: 0 when the session closed cleanly (or a
    manifest.json shows a clean close happened), 1 when the stream ended
    without a close marker — a crashed, killed, or stalled session.
    Never raises for partial sessions; a directory with no event stream
    at all (and none appearing within ``timeout``) is an error the
    caller turns into usage exit code 2.
    """
    directory = pathlib.Path(directory)
    events_path = directory / EVENTS_FILENAME
    waited = clock()
    while not events_path.is_file():
        if not follow or clock() - waited > timeout:
            raise FileNotFoundError(
                f"{directory}: no {EVENTS_FILENAME} — session never streamed "
                f"(run it with --stream or REPRO_STREAM=1)"
            )
        sleep(poll)

    renderer = TailRenderer(verbose=verbose)
    # A manifest appearing means the writer closed while we slept
    # between polls; one final non-follow pass will see session-close.
    stop = (directory / MANIFEST_FILENAME).is_file
    for event in iter_event_lines(
        events_path, follow=follow, poll=poll, timeout=timeout,
        clock=clock, sleep=sleep, stop=stop,
    ):
        for line in renderer.render(event):
            print(line, file=out)
    print(renderer.summary(), file=out)
    return 0 if renderer.closed else 1
