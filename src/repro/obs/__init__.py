"""Observability: metrics, instrumentation, proof ledgers, export, audit.

The layer every quantitative claim runs through:

``repro.obs.metrics``
    Counter/gauge/histogram registry with a no-op null sink, plus
    OpenMetrics text exposition (``--metrics-out``).
``repro.obs.instrumentation``
    Per-run phase timing (the engine's five round phases) and counters.
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
    Ambient :func:`observe` sessions that capture every engine run and
    every two-party reduction in a scope without threading arguments
    through experiment code.
``repro.obs.inspect``
    ``repro inspect``: summarize a persisted run (rounds, bits, phase
    timing, realized dynamic diameter) or a whole session directory.
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
    :class:`ProgressReporter` callback protocol + the stderr ticker
    behind ``--progress``: cells done/total, rate, ETA, and
    degraded-retry events.
``repro.obs.profile``
    ``repro profile``: self/total rollups of a session's spans by
    kind/protocol/adversary/backend plus the top-K hottest cells.
``repro.obs.report``
    ``repro report``: one self-contained static HTML page per session
    (span treemap, metrics snapshot, run table, baseline deltas).

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
from .inspect import (
    RunReport,
    SessionReport,
    inspect_path,
    inspect_run,
    inspect_session,
    realized_diameter,
)
from .instrumentation import PHASES, Instrumentation
from .ledger import ProofLedger, lemma_number, spoiled_budget_curve
from .manifest import RunManifest, SessionManifest
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from .profile import SessionProfile, profile_session, render_profile
from .progress import (
    ProgressReporter,
    StderrTicker,
    current_reporter,
    progress_scope,
    report_event,
)
from .report import render_report, write_report
from .runtime import ObservationSession, current_session, observe
from .spans import Span, SpanRecorder, current_span, span, span_event
from .stream import SessionLog, load_session

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "PHASES",
    "Instrumentation",
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
    "SessionReport",
    "inspect_run",
    "inspect_session",
    "inspect_path",
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
    "ProgressReporter",
    "StderrTicker",
    "current_reporter",
    "progress_scope",
    "report_event",
    "SessionProfile",
    "profile_session",
    "render_profile",
    "render_report",
    "write_report",
]
