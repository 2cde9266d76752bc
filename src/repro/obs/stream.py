"""Crash-safe streaming telemetry: ``events.jsonl`` + checkpoints.

An :class:`~repro.obs.runtime.ObservationSession` historically persisted
its manifest and spans only at ``close()`` — a
``kill -9`` three hours into a sweep left run files with no session
around them.  This module makes session telemetry *streaming*: a
persisting session opened with ``stream=True`` (or under
``REPRO_STREAM=1``) additionally appends one JSON line per occurrence to
an append-only ``events.jsonl``, each line flushed and ``fsync``-ed
before the session moves on, so the file is a valid record of the
completed prefix at every instant.

Event types (the union the consumers — ``repro tail``, partial-session
loading — understand):

* ``stream-start`` — the header line: format version, label, pid,
  provenance;
* ``run-complete`` — one engine/reduction run persisted (carries the
  :class:`~repro.obs.manifest.RunManifest` dict plus per-phase seconds);
* ``cell-complete`` / ``span-close`` — a closed span, payload included,
  so the span tree of everything *finished* is reconstructible without
  ``spans.jsonl`` (which only exists after a clean close).  Synthesized
  ``run``/``phase`` spans are *not* re-emitted — they are rebuilt from
  ``run-complete`` events (see :func:`spans_from_events`);
* ``degraded-retry`` — executor degradations (zero-duration event
  spans, forwarded with their tags);
* ``progress`` — begin/advance/finish heartbeats from the execution
  layer (:func:`repro.obs.progress.report_begin` and friends), the
  done/total/rate seam ``repro tail`` renders;
* ``heartbeat`` — periodic liveness from the resource sampler thread
  (:mod:`repro.obs.resource`);
* ``session-close`` — the clean-shutdown marker (absent after a crash).

**Checkpoints.**  Alongside the event stream the session periodically
writes ``checkpoint.json`` — an atomic (write-to-temp + ``os.replace``)
snapshot of the metrics registry, the open-span stack, and the run
count — so a crashed session's aggregate metrics are recoverable to the
last checkpoint, not just to zero.

**Partial sessions.**  :func:`load_session_manifest` is the single
loader every consumer goes through: a directory with a ``manifest.json``
loads it as before; a directory without one (crashed or still running)
synthesizes a :class:`~repro.obs.manifest.SessionManifest` from the
checkpoint, the event stream, and the run files actually on disk, with
``partial=True`` so ``repro inspect``/``profile``/``report`` can mark it
— they must *never* refuse a partial session.  The event reader
tolerates a torn final line (a kill mid-``write``) by design.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .manifest import MANIFEST_FILENAME, RunManifest, SessionManifest

__all__ = [
    "EVENTS_FILENAME",
    "CHECKPOINT_FILENAME",
    "STREAM_ENV",
    "STREAM_FORMAT_VERSION",
    "EventStream",
    "resolve_stream",
    "read_events_jsonl",
    "write_checkpoint",
    "load_checkpoint",
    "is_partial_session",
    "synthesize_manifest",
    "load_session_manifest",
    "spans_from_events",
    "stream_progress_totals",
]

EVENTS_FILENAME = "events.jsonl"
CHECKPOINT_FILENAME = "checkpoint.json"

#: Environment variable turning streaming on for every persisting
#: session (the CLI ``--stream`` flag wins over it either way).
STREAM_ENV = "REPRO_STREAM"

#: Version 1 of the event-stream sidecar (independent of the session
#: manifest's ``format_version``; both readers treat the other file as
#: optional).
STREAM_FORMAT_VERSION = 1

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def resolve_stream(stream: Optional[bool] = None) -> bool:
    """Effective streaming choice: explicit argument, else ``REPRO_STREAM``."""
    if stream is not None:
        return bool(stream)
    return os.environ.get(STREAM_ENV, "").strip().lower() in _TRUTHY


class EventStream:
    """Append-only, fsync-per-line event log for one session directory.

    Thread-safe: the resource sampler thread heartbeats into the same
    stream the main thread records runs into.  Every ``emit`` is one
    ``write`` + ``flush`` + ``os.fsync`` — after a ``kill -9`` the file
    holds every event emitted before the kill, plus at most one torn
    final line (which :func:`read_events_jsonl` skips).
    """

    def __init__(self, path: pathlib.Path, label: Optional[str] = None,
                 header_extra: Optional[Dict[str, Any]] = None):
        self.path = pathlib.Path(path)
        self._lock = threading.Lock()
        self._seq = 0
        self._t0 = time.perf_counter()
        self._fh = self.path.open("a", encoding="utf-8")
        self._closed = False
        head = {
            "format_version": STREAM_FORMAT_VERSION,
            "label": label,
            "pid": os.getpid(),
            "unix_time": time.time(),
        }
        head.update(header_extra or {})
        self.emit("stream-start", **head)

    @property
    def seq(self) -> int:
        """Events emitted so far (monotone; the last line's ``seq``)."""
        return self._seq

    def emit(self, type_: str, **payload: Any) -> None:
        """Append one event line; durable before this method returns."""
        with self._lock:
            if self._closed:  # pragma: no cover - defensive late emits
                return
            self._seq += 1
            record = {"type": type_, "seq": self._seq,
                      "elapsed": time.perf_counter() - self._t0}
            record.update(payload)
            # default=str: free-form span tags may carry non-JSON values;
            # a readable stream beats a crashed sweep.
            self._fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self, **summary: Any) -> None:
        """Emit the clean-shutdown marker and close the file."""
        self.emit("session-close", **summary)
        with self._lock:
            self._closed = True
            self._fh.close()


def read_events_jsonl(path: pathlib.Path) -> List[dict]:
    """Load an event stream, tolerating a torn final line.

    A ``kill -9`` can interrupt the final ``write`` mid-line; every
    *complete* line is valid JSON by construction, so undecodable or
    non-object lines are skipped rather than fatal — the stream of a
    crashed session must always load.
    """
    path = pathlib.Path(path)
    events: List[dict] = []
    with path.open(encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError:
                continue  # torn tail of a killed writer
            if isinstance(line, dict):
                events.append(line)
    return events


def write_checkpoint(directory: pathlib.Path, payload: Dict[str, Any]) -> pathlib.Path:
    """Atomically replace ``checkpoint.json`` (temp file + ``os.replace``).

    Readers therefore always see either the previous checkpoint or the
    new one, never a torn intermediate — the same crash contract as the
    event stream's line-at-a-time appends.
    """
    directory = pathlib.Path(directory)
    path = directory / CHECKPOINT_FILENAME
    tmp = directory / (CHECKPOINT_FILENAME + ".tmp")
    data = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    with tmp.open("w", encoding="utf-8") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def load_checkpoint(directory: pathlib.Path) -> Optional[dict]:
    """The last checkpoint of a session directory, or None."""
    path = pathlib.Path(directory) / CHECKPOINT_FILENAME
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):  # pragma: no cover - atomic writes
        return None
    return data if isinstance(data, dict) else None


def is_partial_session(directory: pathlib.Path) -> bool:
    """True when ``directory`` holds session output but no final manifest.

    That is the signature of a crashed or still-running session: run
    files / an event stream / a checkpoint exist, but ``close()`` never
    wrote ``manifest.json``.
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir() or (directory / MANIFEST_FILENAME).is_file():
        return False
    return (
        (directory / EVENTS_FILENAME).is_file()
        or (directory / CHECKPOINT_FILENAME).is_file()
        or any(directory.glob("run-*.jsonl"))
    )


def _runs_from_events(events: List[dict]) -> List[RunManifest]:
    runs: List[RunManifest] = []
    for event in events:
        if event.get("type") == "run-complete" and isinstance(event.get("run"), dict):
            runs.append(RunManifest.from_dict(event["run"]))
    return runs


def _runs_from_files(directory: pathlib.Path) -> List[RunManifest]:
    """Fallback run list for streams with no run-complete events yet."""
    runs: List[RunManifest] = []
    for path in sorted(directory.glob("run-*.jsonl")):
        manifest: Optional[RunManifest] = None
        try:
            with path.open(encoding="utf-8") as fh:
                head = json.loads(fh.readline())
            if isinstance(head, dict) and head.get("type") == "manifest":
                manifest = RunManifest.from_dict(head)
        except (OSError, json.JSONDecodeError, TypeError, ValueError):
            manifest = None  # torn first line: the run never completed
        if manifest is not None:
            manifest.trace_file = path.name
            runs.append(manifest)
    return runs


def _typed(checkpoint: dict, key: str, types: Any) -> Any:
    """``checkpoint[key]`` if it has one of ``types``; else None (absent)."""
    value = checkpoint.get(key)
    if isinstance(value, types) and not isinstance(value, bool):
        return value
    return None


def synthesize_manifest(directory: pathlib.Path) -> SessionManifest:
    """Build the best-available :class:`SessionManifest` for a partial dir.

    Sources, in order of authority: the checkpoint (aggregate metrics,
    label, workers, provenance), the event stream (completed runs, wall
    clock so far), and finally the run files themselves (a session
    killed before its first checkpoint still reports every persisted
    run).  The result carries ``partial=True`` and is never written
    back to disk.
    """
    directory = pathlib.Path(directory)
    checkpoint = load_checkpoint(directory) or {}
    events: List[dict] = []
    events_path = directory / EVENTS_FILENAME
    if events_path.is_file():
        events = read_events_jsonl(events_path)
    label = _typed(checkpoint, "label", str)
    provenance = dict(_typed(checkpoint, "provenance", dict) or {})
    for event in events:
        if event.get("type") == "stream-start":
            label = label or event.get("label")
            if not provenance and isinstance(event.get("provenance"), dict):
                provenance = dict(event["provenance"])
            break
    runs = _runs_from_events(events)
    if not runs:
        runs = _runs_from_files(directory)
    wall = _typed(checkpoint, "wall_seconds", (int, float))
    if events:
        last = events[-1].get("elapsed")
        if isinstance(last, (int, float)) and (wall is None or last > wall):
            wall = float(last)
    manifest = SessionManifest(
        label=label,
        wall_seconds=wall,
        runs=runs,
        metrics=dict(_typed(checkpoint, "metrics", dict) or {}),
        workers=_typed(checkpoint, "workers", int) or 0,
        provenance=provenance,
        partial=True,
    )
    if events_path.is_file():
        manifest.events_file = EVENTS_FILENAME
    from .resource import RESOURCE_FILENAME

    if (directory / RESOURCE_FILENAME).is_file():
        manifest.resource_file = RESOURCE_FILENAME
    return manifest


def load_session_manifest(directory: pathlib.Path) -> SessionManifest:
    """The one loader for session directories, partial or complete.

    A ``manifest.json`` wins (clean close); otherwise a partial manifest
    is synthesized.  Raises :class:`FileNotFoundError` only when the
    directory holds no session output at all.
    """
    directory = pathlib.Path(directory)
    manifest_path = directory / MANIFEST_FILENAME
    if manifest_path.is_file():
        return SessionManifest.load(manifest_path)
    if is_partial_session(directory):
        return synthesize_manifest(directory)
    raise FileNotFoundError(
        f"{directory}: no {MANIFEST_FILENAME}, event stream, checkpoint, or "
        f"run files — not an observation session directory"
    )


def spans_from_events(events: List[dict]) -> List["Any"]:
    """Reconstruct the *closed* spans of a session from its event stream.

    ``span-close``/``cell-complete`` events carry the span payload
    verbatim; ``run-complete`` events re-synthesize the ``run`` span and
    its ``phase`` children exactly as
    :meth:`~repro.obs.spans.SpanRecorder.record_run` would have (they
    are deliberately not double-emitted as span events).  Spans still
    open at the kill are absent — the reconstruction is the completed
    prefix, which is the honest answer.
    """
    from .spans import Span, SpanRecorder

    recorder = SpanRecorder()
    id_remap: Dict[int, int] = {}
    spans: List[Span] = []
    for event in events:
        etype = event.get("type")
        if etype in ("span-close", "cell-complete") and isinstance(
            event.get("span"), dict
        ):
            sp = Span.from_dict(event["span"])
            id_remap[sp.span_id] = recorder._next_id
            sp.span_id = recorder._next_id
            recorder._next_id += 1
            if sp.parent_id is not None:
                # Parents that closed earlier were remapped; parents
                # still open at the kill are gone — detach to root.
                sp.parent_id = id_remap.get(sp.parent_id)
            spans.append(sp)
            recorder.spans.append(sp)
        elif etype == "run-complete" and isinstance(event.get("run"), dict):
            manifest = RunManifest.from_dict(event["run"])
            phase_seconds = event.get("phase_seconds") or {}

            class _Instr:  # matches record_run's duck-typed reader
                pass

            instr = _Instr()
            instr.wall_seconds = manifest.wall_seconds or 0.0
            instr.phase_seconds = dict(phase_seconds)
            recorder.record_run(manifest, instr, protocol=event.get("protocol"))
    return recorder.spans


# ----------------------------------------------------------------------
# event-stream helpers shared by tail and the tests
def stream_progress_totals(events: List[dict]) -> Dict[int, Tuple[int, int]]:
    """``{depth: (done, total)}`` from the progress events seen so far."""
    state: Dict[int, Tuple[int, int]] = {}
    for event in events:
        if event.get("type") != "progress":
            continue
        depth = int(event.get("depth", 1))
        phase = event.get("phase")
        if phase == "begin":
            state[depth] = (0, int(event.get("total", 0)))
        elif phase == "advance":
            done, total = state.get(depth, (0, 0))
            state[depth] = (done + 1, total)
        elif phase == "finish":
            state.pop(depth, None)
    return state
