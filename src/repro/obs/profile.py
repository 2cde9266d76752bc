"""``repro profile``: where a session's wall clock went, rolled up.

Turns a session's spans (its log's ``span-close`` events) into the
classic profiler view — *total* time (a span and everything under it)
vs *self* time (a span minus its children) — rolled up along the axes
the sweeps vary:

* span kind (sweep / cell / replicate / run / phase),
* protocol, adversary, and backend tags,
* the top-K hottest ``cell`` spans by total time, which is how
  EXP-SUB-style optimization targets fall out of any sweep: the hottest
  cell names the (protocol, adversary, N) combination to vectorize next.

Also reports *coverage*: the fraction of the session's wall clock
attributed to named spans (root-span total over the session's
``wall_seconds``).  Coverage well under 1.0 means un-instrumented time
— setup, analysis, I/O — and the profile is lying by omission; the CLI
surfaces it on every invocation for exactly that reason.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.tables import render_table
from .resource import summarize_resources
from .spans import Span
from .stream import SessionLog, load_session

__all__ = ["SessionProfile", "profile_session", "profile_log", "render_profile"]


@dataclass
class _Rollup:
    """Accumulated totals for one rollup key."""

    count: int = 0
    total_seconds: float = 0.0
    self_seconds: float = 0.0
    cpu_seconds: float = 0.0
    has_cpu: bool = False

    def add(self, sp: Span, self_seconds: float) -> None:
        self.count += 1
        self.total_seconds += sp.wall_seconds
        self.self_seconds += self_seconds
        if sp.cpu_seconds is not None:
            self.cpu_seconds += sp.cpu_seconds
            self.has_cpu = True


@dataclass
class SessionProfile:
    """The profile of one session directory."""

    spans: List[Span]
    #: span_id -> wall minus the sum of child walls (clamped at 0)
    self_seconds: Dict[int, float]
    by_kind: Dict[str, _Rollup]
    by_protocol: Dict[str, _Rollup]
    by_adversary: Dict[str, _Rollup]
    by_backend: Dict[str, _Rollup]
    #: hottest ``cell`` spans, by total wall, descending
    hottest_cells: List[Span]
    #: session wall clock from the log (None: not recorded)
    session_wall_seconds: Optional[float] = None
    #: wall total of the root spans (the attributable time)
    attributed_seconds: float = 0.0
    events: Dict[str, int] = field(default_factory=dict)
    #: True for a killed or still-running session: the spans are the
    #: completed prefix
    partial: bool = False
    #: rollup of the heartbeat samples (see
    #: :func:`repro.obs.resource.summarize_resources`); None without any
    resources: Optional[Dict[str, Any]] = None

    @property
    def coverage(self) -> Optional[float]:
        """Fraction of the session wall attributed to spans (None: unknown)."""
        if not self.session_wall_seconds:
            return None
        return self.attributed_seconds / self.session_wall_seconds


def _self_seconds(spans: Sequence[Span]) -> Dict[int, float]:
    child_sums: Dict[int, float] = {}
    for sp in spans:
        if sp.parent_id is not None:
            child_sums[sp.parent_id] = child_sums.get(sp.parent_id, 0.0) + sp.wall_seconds
    return {
        sp.span_id: max(0.0, sp.wall_seconds - child_sums.get(sp.span_id, 0.0))
        for sp in spans
    }


def profile_session(directory: pathlib.Path, top_k: int = 10) -> SessionProfile:
    """Profile a session directory; see :func:`profile_log`."""
    return profile_log(load_session(directory), top_k=top_k)


def profile_log(log: SessionLog, top_k: int = 10) -> SessionProfile:
    """Profile a loaded session.

    A session with no spans (a directory of bare run files) profiles to
    an empty span list — the caller decides whether that is an error
    (the CLI says so) or just an absent section (the HTML report omits
    it).  A *partial* session profiles its completed prefix, marked
    ``partial``.
    """
    spans = log.spans
    self_sec = _self_seconds(spans)
    by_kind: Dict[str, _Rollup] = {}
    by_protocol: Dict[str, _Rollup] = {}
    by_adversary: Dict[str, _Rollup] = {}
    by_backend: Dict[str, _Rollup] = {}
    events: Dict[str, int] = {}
    attributed = 0.0
    for sp in spans:
        if sp.kind == "event":
            events[sp.name] = events.get(sp.name, 0) + 1
            continue
        sec = self_sec[sp.span_id]
        by_kind.setdefault(sp.kind, _Rollup()).add(sp, sec)
        protocol = sp.tags.get("protocol")
        if protocol:
            by_protocol.setdefault(str(protocol), _Rollup()).add(sp, sec)
        adversary = sp.tags.get("adversary")
        if adversary:
            by_adversary.setdefault(str(adversary), _Rollup()).add(sp, sec)
        backend = sp.tags.get("backend")
        # run spans carry the authoritative backend; rolling up every
        # tagged span would double-count runs into their cells
        if backend and sp.kind == "run":
            by_backend.setdefault(str(backend), _Rollup()).add(sp, sec)
        if sp.parent_id is None:
            attributed += sp.wall_seconds
    hottest = sorted(
        (sp for sp in spans if sp.kind == "cell"),
        key=lambda sp: sp.wall_seconds,
        reverse=True,
    )[:top_k]
    return SessionProfile(
        spans=spans,
        self_seconds=self_sec,
        by_kind=by_kind,
        by_protocol=by_protocol,
        by_adversary=by_adversary,
        by_backend=by_backend,
        hottest_cells=hottest,
        session_wall_seconds=log.manifest.wall_seconds,
        attributed_seconds=attributed,
        events=events,
        partial=log.partial,
        resources=summarize_resources(log.resources),
    )


def _rollup_rows(rollups: Dict[str, _Rollup]) -> List[list]:
    rows = []
    for key, r in sorted(
        rollups.items(), key=lambda kv: kv[1].total_seconds, reverse=True
    ):
        rows.append([
            key, r.count,
            f"{r.total_seconds:.4f}", f"{r.self_seconds:.4f}",
            f"{r.cpu_seconds:.4f}" if r.has_cpu else "-",
        ])
    return rows


def render_profile(profile: SessionProfile, top_k: int = 10) -> str:
    """The ``repro profile`` text output."""
    parts: List[str] = []
    headers = ["", "spans", "total s", "self s", "cpu s"]
    sections: List[Tuple[str, Dict[str, _Rollup]]] = [
        ("by span kind", profile.by_kind),
        ("by protocol", profile.by_protocol),
        ("by adversary", profile.by_adversary),
        ("by backend (runs)", profile.by_backend),
    ]
    for title, rollups in sections:
        if rollups:
            parts.append(render_table(headers, _rollup_rows(rollups), title=title))
    if profile.hottest_cells:
        rows = [
            [
                sp.name,
                f"{sp.wall_seconds:.4f}",
                f"{profile.self_seconds[sp.span_id]:.4f}",
            ]
            for sp in profile.hottest_cells[:top_k]
        ]
        parts.append(
            render_table(["cell", "total s", "self s"], rows,
                         title=f"hottest cells (top {len(rows)})")
        )
    if profile.events:
        parts.append(
            "events: "
            + ", ".join(f"{k}x{v}" for k, v in sorted(profile.events.items()))
        )
    if profile.resources:
        res = profile.resources
        bits = [f"{res['samples']} samples over {res['duration_seconds']:.1f}s"]
        if res.get("rss_peak_bytes") is not None:
            bits.append(f"rss peak {res['rss_peak_bytes'] / 1048576:.1f} MiB")
        if res.get("cpu_percent_mean") is not None:
            bits.append(
                f"cpu mean {res['cpu_percent_mean']:.0f}% "
                f"max {res['cpu_percent_max']:.0f}%"
            )
        bits.append(f"gc collections {res.get('gc_collections', 0)}")
        parts.append("resources: " + "  ".join(bits))
    coverage = profile.coverage
    if coverage is not None:
        parts.append(
            f"coverage: {profile.attributed_seconds:.4f}s of "
            f"{profile.session_wall_seconds:.4f}s session wall attributed "
            f"to spans ({coverage:.1%})"
        )
    if profile.partial:
        parts.append(
            "PARTIAL session (no clean close): profile covers the "
            "completed prefix of the session log"
        )
    if not profile.spans:
        parts.append("no spans recorded (a directory of bare run files, or nothing ran)")
    return "\n".join(parts)
