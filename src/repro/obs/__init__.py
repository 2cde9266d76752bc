"""Observability: metrics, sessions, proof ledgers, export, audit.

The layer every quantitative claim runs through:

``repro.obs.metrics``
    Counter/gauge/histogram registry; a histogram keeps the count and
    sum of its observations.
``repro.obs.ledger``
    The proof ledger: per-round spoiled-node counts vs the Lemma 3/4
    budget curve, cut-crossing bit attribution, adversary divergence.
``repro.obs.manifest``
    :class:`RunManifest` / :class:`SessionManifest` — replay-from-metadata.
``repro.obs.stream``
    The session log ``events.jsonl`` — its writer and
    :func:`load_session`, the one reader of session directories.
``repro.obs.export``
    Lossless JSONL persistence of execution traces and reduction ledgers
    (``format_version 2``; the reader accepts version-1 files).
``repro.obs.runtime``
    Ambient :func:`observe` sessions that capture every engine run (its
    counters and stage timings) and every two-party reduction in a
    scope without threading arguments through experiment code.
``repro.obs.inspect``
    ``repro inspect``: summarize one persisted run (rounds, bits, phase
    timing, realized dynamic diameter).
``repro.obs.audit``
    ``repro audit``: replay persisted proof ledgers and fail on any
    Lemma 3/4 or O(s log N) cut-budget violation.
``repro.obs.benchdiff``
    ``repro bench-diff``: judge ``benchmarks/out/EXP-*.json`` sets, or
    the benchmark history store (newest record vs the median of a
    window), flagging result drift and wall-time regressions, with
    per-metric tolerances and a blocking ``--fail-on-regression`` mode.
``repro.obs.spans``
    Hierarchical spans (sweep → cell → replicate → run → phase) with
    wall + CPU time, logged as ``span-close`` events; a no-op without
    an active session.
``repro.obs.progress``
    ``report_begin``/``report_advance``/``report_finish``: one progress
    event each, handed to the session log and to the stderr ticker
    behind ``--progress``; the ticker and ``repro tail`` draw it with
    one :class:`ProgressRenderer` (done/total, rate, ETA).
``repro.obs.report``
    ``repro report``: the one human summary of a session — runs, span
    and stage rollups, hottest cells, metrics, coverage and baseline
    deltas — as text or one self-contained HTML page.
``repro.obs.tail``
    ``repro tail``: follow a live session's log.

See ``docs/OBSERVABILITY.md`` for the metrics catalogue and schemas.
"""

from .audit import AuditReport, audit_path, audit_run, resolve_run_files
from .benchdiff import BenchDiff, diff_dirs, parse_tolerances, render_diff
from .export import (
    PersistedRun,
    decode_payload,
    encode_payload,
    read_trace_jsonl,
    write_ledger_jsonl,
    write_trace_jsonl,
)
from .inspect import RunReport, inspect_run, realized_diameter
from .ledger import ProofLedger, lemma_number, spoiled_budget_curve
from .manifest import RunManifest, SessionManifest
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .progress import ProgressRenderer, StderrTicker, progress_scope
from .report import Report, build_report
from .runtime import ObservationSession, current_session, observe
from .spans import Span, SpanRecorder, current_span, span, span_event
from .stream import SessionLog, load_session

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProofLedger",
    "lemma_number",
    "spoiled_budget_curve",
    "RunManifest",
    "SessionManifest",
    "PersistedRun",
    "encode_payload",
    "decode_payload",
    "read_trace_jsonl",
    "write_trace_jsonl",
    "write_ledger_jsonl",
    "ObservationSession",
    "observe",
    "current_session",
    "RunReport",
    "inspect_run",
    "realized_diameter",
    "AuditReport",
    "audit_run",
    "audit_path",
    "resolve_run_files",
    "BenchDiff",
    "diff_dirs",
    "parse_tolerances",
    "render_diff",
    "Span",
    "SpanRecorder",
    "span",
    "span_event",
    "current_span",
    "SessionLog",
    "load_session",
    "ProgressRenderer",
    "StderrTicker",
    "progress_scope",
    "Report",
    "build_report",
]
