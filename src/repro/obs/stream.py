"""The session log: ``events.jsonl``, its writer, and its one loader.

Every persisting :class:`~repro.obs.runtime.ObservationSession` writes
exactly one session file, ``events.jsonl``, next to its
``run-NNNN.jsonl`` traces: one JSON object per line, appended as things
happen.  Event types:

* ``stream-start`` — the header line: ``format_version``, label, pid,
  wall-clock start, package version, provenance;
* ``run-complete`` — one engine/reduction run persisted (``run``: the
  :class:`~repro.obs.manifest.RunManifest` dict);
* ``span-close`` — one finished span (``span``: the
  :class:`~repro.obs.spans.Span` dict with its real ``span_id`` and
  ``parent_id``), run and phase spans included;
* ``progress`` — begin/advance/finish of a progress scope
  (:func:`repro.obs.progress.report_begin` and friends);
* ``heartbeat`` — one resource sample (:mod:`repro.obs.resource`);
* ``checkpoint`` — the aggregates so far (metrics snapshot, wall
  seconds, worker count, run count), rate-limited;
* ``session-close`` — the same aggregates at clean shutdown; absent
  after a crash.

**Durability.**  ``stream=True`` (or ``REPRO_STREAM=1``) controls
durability and nothing else: each line is ``fsync``-ed before the
session moves on, a sampler thread emits heartbeats, and checkpoints
are emitted.  An unstreamed session writes the same kinds of lines,
flushed but not fsync'd, so the format never depends on the flag.

**Loading.**  :func:`load_session` is the single reader every consumer
(``audit``, ``report``) goes through; ``tail`` decodes lines with the
same :func:`decode_event`.  A log without
``session-close`` loads as ``partial`` — the completed prefix, never a
refusal.  A torn final line (a kill mid-``write``) is skipped; any other
malformed line raises :class:`ValueError` naming the file, line and
field.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .manifest import RunManifest, SessionManifest
from .spans import Span

__all__ = [
    "EVENTS_FILENAME",
    "STREAM_ENV",
    "STREAM_FORMAT_VERSION",
    "EventStream",
    "SessionLog",
    "resolve_stream",
    "decode_event",
    "read_events_jsonl",
    "load_session",
]

EVENTS_FILENAME = "events.jsonl"

#: Environment variable turning durable streaming on for every
#: persisting session (the CLI ``--stream`` flag wins over it either way).
STREAM_ENV = "REPRO_STREAM"

#: Version 2: the log is the whole session — run and phase spans, the
#: aggregates (``checkpoint``/``session-close``) and resource samples
#: (``heartbeat``) included.
STREAM_FORMAT_VERSION = 2

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def resolve_stream(stream: Optional[bool] = None) -> bool:
    """Effective streaming choice: explicit argument, else ``REPRO_STREAM``."""
    if stream is not None:
        return bool(stream)
    return os.environ.get(STREAM_ENV, "").strip().lower() in _TRUTHY


class EventStream:
    """The writer of one session's ``events.jsonl``.

    Opening truncates: a session directory holds one session, like its
    run files.  Thread-safe — the resource sampler thread heartbeats
    into the same log the main thread records runs into.  Every
    ``emit`` is one ``write`` + ``flush``, plus an ``os.fsync`` when
    ``durable``; after a ``kill -9`` a durable log holds every event
    emitted before the kill and at most one torn final line.
    """

    def __init__(self, path: pathlib.Path, durable: bool = False, **header: Any):
        self.path = pathlib.Path(path)
        self.durable = durable
        self._lock = threading.Lock()
        self._seq = 0
        self._t0 = time.perf_counter()
        self._fh = self.path.open("w", encoding="utf-8")
        self._closed = False
        self.emit(
            "stream-start",
            format_version=STREAM_FORMAT_VERSION,
            pid=os.getpid(),
            unix_time=time.time(),
            **header,
        )

    def emit(self, type_: str, **payload: Any) -> None:
        """Append one event line; durable before this returns if ``durable``."""
        with self._lock:
            if self._closed:  # pragma: no cover - defensive late emits
                return
            self._seq += 1
            record = {"type": type_, "seq": self._seq,
                      "elapsed": time.perf_counter() - self._t0}
            record.update(payload)
            # default=str: free-form span tags may carry non-JSON values;
            # a readable log beats a crashed sweep.
            self._fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
            self._fh.flush()
            if self.durable:
                os.fsync(self._fh.fileno())

    def close(self, **summary: Any) -> None:
        """Emit the clean-shutdown marker and close the file."""
        self.emit("session-close", **summary)
        with self._lock:
            self._closed = True
            self._fh.close()


# ----------------------------------------------------------------------
# decoding: one checked line at a time
_NONE = type(None)

#: field kind -> (accepted JSON-decoded types, what the message says)
_KINDS: Dict[str, Tuple[Tuple[type, ...], str]] = {
    "int": ((int,), "an integer"),
    "int?": ((int, _NONE), "an integer or null"),
    "number": ((int, float), "a number"),
    "number?": ((int, float, _NONE), "a number or null"),
    "str": ((str,), "a string"),
    "str?": ((str, _NONE), "a string or null"),
    "bool": ((bool,), "a boolean"),
    "object": ((dict,), "an object"),
}

#: payload checks per event type: (key of the nested payload object, or
#: None for the event itself; field kinds; fields that must be present)
_PAYLOADS: Dict[str, Tuple[Optional[str], Dict[str, str], Tuple[str, ...]]] = {
    "stream-start": (None, {"format_version": "int"}, ("format_version",)),
    "run-complete": ("run", {
        "seed": "int?", "num_nodes": "int", "adversary": "str",
        "bandwidth_factor": "int?", "check_connected": "bool",
        "package_version": "str", "wall_seconds": "number?",
        "trace_file": "str?", "kind": "str", "backend": "str",
        "representation": "str?", "dense_node_limit": "int?",
    }, ("seed", "num_nodes", "adversary")),
    "span-close": ("span", {
        "span_id": "int", "parent_id": "int?", "kind": "str", "name": "str",
        "tags": "object", "wall_seconds": "number", "cpu_seconds": "number?",
        "status": "str",
    }, ("span_id",)),
    "heartbeat": (None, {
        "rss_bytes": "int?", "cpu_percent": "number", "gc_collections": "int",
    }, ()),
}

#: fields every event may carry
_ENVELOPE = {"type": "str", "seq": "int", "elapsed": "number"}


def _fits(value: Any, kind: str) -> bool:
    # exact types: json gives bool for true/false, which is no integer
    return type(value) in _KINDS[kind][0]


def _check_fields(data: dict, kinds: Dict[str, str], required: Tuple[str, ...],
                  prefix: str = "") -> None:
    for name, kind in kinds.items():
        if name not in data:
            if name in required:
                raise ValueError(f"field {prefix + name!r} is missing")
            continue
        value = data[name]
        if not _fits(value, kind):
            raise ValueError(
                f"field {prefix + name!r} must be {_KINDS[kind][1]}, "
                f"got {type(value).__name__}"
            )


def decode_event(raw: str) -> dict:
    """Decode and check one complete event line.

    Raises :class:`ValueError` naming the offending field: a payload
    the loader would build a run or span from must be well-typed, and a
    ``format_version`` newer than this reader is refused.  Event types
    this reader does not know pass through unchecked.
    """
    try:
        event = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON ({exc.msg})") from None
    if not isinstance(event, dict):
        raise ValueError(f"expected a JSON object, got {type(event).__name__}")
    _check_fields(event, _ENVELOPE, ("type",))
    spec = _PAYLOADS.get(event["type"])
    if spec is not None:
        key, kinds, required = spec
        if key is None:
            _check_fields(event, kinds, required)
        else:
            _check_fields(event, {key: "object"}, (key,))
            _check_fields(event[key], kinds, required, prefix=f"{key}.")
    if event["type"] == "stream-start" and event["format_version"] > STREAM_FORMAT_VERSION:
        raise ValueError(
            f"format_version {event['format_version']} is newer than this "
            f"reader ({STREAM_FORMAT_VERSION})"
        )
    return event


def read_events_jsonl(path: pathlib.Path) -> List[dict]:
    """Every event of a log, in order, each checked by :func:`decode_event`.

    A final line with no newline that does not decode is the torn
    write of a killed session and is skipped; any other bad line raises
    :class:`ValueError` naming the file and line.
    """
    path = pathlib.Path(path)
    events: List[dict] = []
    with path.open(encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            try:
                events.append(decode_event(raw))
            except ValueError as exc:
                if not raw.endswith("\n"):
                    break  # torn tail of a killed writer
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return events


# ----------------------------------------------------------------------
# loading: the whole log folded into one SessionLog
@dataclass
class SessionLog:
    """A session directory as read back by :func:`load_session`."""

    directory: pathlib.Path
    #: label, provenance, runs, and the latest aggregates
    manifest: SessionManifest
    #: every closed span, by ``span_id``; a span whose parent never
    #: closed (the session was cut) is detached to root
    spans: List[Span] = field(default_factory=list)
    #: ``heartbeat`` events, in order (see
    #: :func:`repro.obs.resource.summarize_resources`)
    resources: List[dict] = field(default_factory=list)
    #: True when the log has no ``session-close``: killed, still
    #: running, or a directory of bare run files
    partial: bool = False
    format_version: int = STREAM_FORMAT_VERSION

    def run_files(self) -> List[pathlib.Path]:
        """The run files the log names; every ``run-*.jsonl`` only in a
        directory with no log."""
        if not (self.directory / EVENTS_FILENAME).is_file():
            return sorted(self.directory.glob("run-*.jsonl"))
        return [self.directory / r.trace_file for r in self.manifest.runs
                if r.trace_file]


def _runs_from_files(directory: pathlib.Path) -> List[RunManifest]:
    """Runs of a directory with no log, read from the run files' heads."""
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


def _fold_aggregates(manifest: SessionManifest, event: dict) -> None:
    """Take a ``checkpoint``/``session-close`` event's aggregates.

    A mistyped field reads as absent, and so does a metrics entry that
    is not an object; the previous value stands.
    """
    metrics = event.get("metrics")
    if isinstance(metrics, dict):
        manifest.metrics = {k: v for k, v in metrics.items() if isinstance(v, dict)}
    if _fits(event.get("wall_seconds"), "number"):
        manifest.wall_seconds = float(event["wall_seconds"])
    if _fits(event.get("workers"), "int"):
        manifest.workers = event["workers"]


def load_session(directory: pathlib.Path) -> SessionLog:
    """Read a session directory, complete or partial.

    Raises :class:`FileNotFoundError` when ``directory`` does not exist
    and :class:`ValueError` when it holds neither a log nor run files,
    or when a log line is malformed.
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"no session directory at {directory}")
    path = directory / EVENTS_FILENAME
    if not path.is_file():
        runs = _runs_from_files(directory)
        if not runs:
            raise ValueError(
                f"{directory}: no {EVENTS_FILENAME} and no run files — "
                f"not an observation session directory"
            )
        return SessionLog(
            directory, SessionManifest(package_version="?", runs=runs), partial=True
        )

    log = SessionLog(directory, SessionManifest(package_version="?"))
    manifest = log.manifest
    closed = False
    elapsed = None
    for event in read_events_jsonl(path):
        etype = event["type"]
        if etype == "stream-start":
            log.format_version = event["format_version"]
            if _fits(event.get("label"), "str"):
                manifest.label = event["label"]
            if _fits(event.get("package_version"), "str"):
                manifest.package_version = event["package_version"]
            if _fits(event.get("provenance"), "object"):
                manifest.provenance = dict(event["provenance"])
        elif etype == "run-complete":
            manifest.runs.append(RunManifest.from_dict(event["run"]))
        elif etype == "span-close":
            log.spans.append(Span.from_dict(event["span"]))
        elif etype == "heartbeat":
            log.resources.append(event)
        elif etype in ("checkpoint", "session-close"):
            _fold_aggregates(manifest, event)
            closed = closed or etype == "session-close"
        elapsed = event.get("elapsed", elapsed)
    log.partial = not closed
    if log.partial and elapsed is not None:
        # a cut session's wall clock runs to its last event
        manifest.wall_seconds = float(elapsed)
    log.spans.sort(key=lambda sp: sp.span_id)
    ids = {sp.span_id for sp in log.spans}
    for sp in log.spans:
        if sp.parent_id not in ids:
            sp.parent_id = None
    return log
