"""``repro report``: the one human summary of a session.

``repro report SESSION`` prints text; ``--html FILE`` writes the same
content as one self-contained page — inline CSS, no scripts, no
external assets — that can be archived next to ``EXP-*.json`` and
opened years later.  Both render one list of blocks built by
:func:`build_report`: header lines, then sections, each a (title,
headers, rows) table, in this order:

1. the header — label, PARTIAL marker, run count, wall clock and the
   provenance line;
2. runs — one row per run file, with rounds, termination and bits read
   from the file's summary line (:func:`~repro.obs.export.read_run_summary`;
   the round lines are not decoded);
3. span rollups by kind, protocol, adversary and backend — *total* time
   (a span and everything under it), *self* time (a span minus its
   children) and CPU time;
4. the stage rollup — the five ``ROUND_STAGES`` summed over the
   session's ``phase`` spans, in seconds and as a share of their total;
5. the top-K hottest ``cell`` spans (the (protocol, adversary, N)
   combination to vectorize next), span events, and the resource
   rollup of a streamed session's heartbeats;
6. metrics — :func:`metrics_section`, which ``--metrics`` on the
   experiment commands prints too;
7. the ``coverage:`` line — the share of the session wall attributed
   to spans; well under 1.0 means un-instrumented time (setup,
   analysis, I/O);
8. deltas of the session wall and shared metrics against a baseline
   session directory.

The session and the baseline are read by
:func:`repro.obs.stream.load_session`.  A partial session (killed or
still running: no ``session-close``) renders its completed prefix,
marked PARTIAL; a run file it names that a kill tore or never wrote is
skipped with a note, while in a closed session it is an error.
Everything user-controlled (labels, tag values, metric names) is
HTML-escaped.
"""

from __future__ import annotations

import html
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..analysis.tables import render_table
from ..sim.engine import ROUND_STAGES
from .export import read_run_summary
from .manifest import RunManifest, SessionManifest
from .resource import summarize_resources
from .spans import Span
from .stream import EVENTS_FILENAME, SessionLog, load_session

__all__ = ["Section", "Report", "build_report", "metrics_section", "render_text"]


class Section(NamedTuple):
    """One table of the report."""

    title: str
    headers: List[str]
    rows: List[list]
    #: column whose seconds the HTML page draws as a proportional bar
    bar: Optional[int] = None


#: a report is header/note lines and sections, in order
Block = Union[str, Section]


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


def _self_seconds(spans: Sequence[Span]) -> Dict[int, float]:
    child_sums: Dict[int, float] = {}
    for sp in spans:
        if sp.parent_id is not None:
            child_sums[sp.parent_id] = child_sums.get(sp.parent_id, 0.0) + sp.wall_seconds
    return {
        sp.span_id: max(0.0, sp.wall_seconds - child_sums.get(sp.span_id, 0.0))
        for sp in spans
    }


#: a run file's path, manifest and summary (see :func:`read_run_summary`)
RunSummary = Tuple[pathlib.Path, RunManifest, dict]


def _read_runs(log: SessionLog) -> Tuple[List[RunSummary], List[str]]:
    """The run files a session names, read; and notes on skipped ones."""
    runs: List[RunSummary] = []
    skipped: List[str] = []
    for path in log.run_files():
        try:
            runs.append((path, *read_run_summary(path)))
        except FileNotFoundError:
            if not log.partial:
                raise ValueError(
                    f"{path.name} is listed in {EVENTS_FILENAME} but missing "
                    f"from {log.directory} — partial or truncated session"
                ) from None
            skipped.append(f"{path.name}: missing")
        except ValueError as exc:
            if not log.partial:
                raise
            skipped.append(f"{path.name}: unreadable ({exc})")
    return runs, skipped


@dataclass
class Report:
    """A session, summarized; :func:`build_report` fills it in."""

    log: SessionLog
    #: run files' manifests and summaries, in session order
    runs: List[RunSummary] = field(default_factory=list)
    #: notes on run files a partial session names but could not read
    skipped: List[str] = field(default_factory=list)
    #: span_id -> wall minus the sum of its children's walls
    self_seconds: Dict[int, float] = field(default_factory=dict)
    by_kind: Dict[str, _Rollup] = field(default_factory=dict)
    by_protocol: Dict[str, _Rollup] = field(default_factory=dict)
    by_adversary: Dict[str, _Rollup] = field(default_factory=dict)
    by_backend: Dict[str, _Rollup] = field(default_factory=dict)
    #: ROUND_STAGES -> seconds summed over the ``phase`` spans
    by_stage: Dict[str, float] = field(default_factory=dict)
    #: hottest ``cell`` spans, by total wall, descending
    hottest_cells: List[Span] = field(default_factory=list)
    events: Dict[str, int] = field(default_factory=dict)
    #: wall total of the root spans (the attributable time)
    attributed_seconds: float = 0.0
    baseline: Optional[SessionLog] = None

    @property
    def partial(self) -> bool:
        return self.log.partial

    @property
    def spans(self) -> List[Span]:
        """Every closed span of the session."""
        return self.log.spans

    @property
    def coverage(self) -> Optional[float]:
        """Fraction of the session wall attributed to spans (None: unknown)."""
        wall = self.log.manifest.wall_seconds
        return self.attributed_seconds / wall if wall else None

    # -- blocks ---------------------------------------------------------
    def blocks(self) -> List[Block]:
        """The report's content, in order (see the module docstring)."""
        manifest = self.log.manifest
        out: List[Optional[Block]] = list(self._header())
        out.append(self._runs_section())
        out.extend(f"skipped {note}" for note in self.skipped)
        if not self.spans:
            out.append("no spans recorded (a directory of bare run files, or nothing ran)")
        for title, rollups in (
            ("time by span kind", self.by_kind),
            ("time by protocol", self.by_protocol),
            ("time by adversary", self.by_adversary),
            ("time by backend (runs)", self.by_backend),
        ):
            out.append(_rollup_section(title, rollups))
        if any(self.by_stage.values()):
            total = sum(self.by_stage.values())
            out.append(Section(
                "time by stage", ["stage", "seconds", "share"],
                [[stage, f"{sec:.4f}", f"{sec / total:.1%}"]
                 for stage, sec in self.by_stage.items()],
                bar=1,
            ))
        if self.hottest_cells:
            out.append(Section(
                f"hottest cells (top {len(self.hottest_cells)})",
                ["cell", "total s", "self s"],
                [[sp.name, f"{sp.wall_seconds:.4f}",
                  f"{self.self_seconds[sp.span_id]:.4f}"]
                 for sp in self.hottest_cells],
                bar=1,
            ))
        if self.events:
            out.append(Section("events", ["event", "count"],
                               [[k, v] for k, v in sorted(self.events.items())]))
        out.append(_resources_section(summarize_resources(self.log.resources)))
        if manifest.metrics:
            out.append(metrics_section(manifest.metrics))
        if self.coverage is not None:
            out.append(
                f"coverage: {self.attributed_seconds:.4f}s of "
                f"{manifest.wall_seconds:.4f}s session wall attributed to "
                f"spans ({self.coverage:.1%})"
            )
        if self.baseline is not None:
            out.append(self._deltas_section())
        return [block for block in out if block is not None]

    def _header(self) -> List[str]:
        manifest = self.log.manifest
        bits = [
            f"label={manifest.label}" if manifest.label else None,
            "PARTIAL (no clean close)" if self.partial else None,
            f"runs={len(manifest.runs)}",
            None if manifest.wall_seconds is None
            else f"wall={manifest.wall_seconds:.3f}s",
        ]
        lines = [
            f"session: {self.log.directory}  ("
            + ", ".join(b for b in bits if b) + ")"
        ]
        prov = manifest.provenance
        if prov:
            bits = [
                f"git={str(prov['git_sha'])[:12]}" if prov.get("git_sha") else None,
                f"host={prov['hostname']}" if prov.get("hostname") else None,
                f"cpus={prov['cpu_count']}" if prov.get("cpu_count") else None,
                f"python={prov['python_version']}" if prov.get("python_version") else None,
            ]
            lines.append("provenance: " + "  ".join(b for b in bits if b))
        return lines

    def _runs_section(self) -> Optional[Section]:
        rows = []
        for path, m, summary in self.runs:
            terminated = summary.get("termination_round")
            wall = (summary.get("run_metrics") or {}).get("wall_seconds", m.wall_seconds)
            rows.append([
                path.name, m.kind, m.backend, m.adversary, m.num_nodes, m.seed,
                summary.get("rounds") or 0, "-" if terminated is None else terminated,
                summary.get("total_bits", 0), "-" if wall is None else f"{wall:.4f}",
            ])
        if not rows:
            return None
        return Section(
            "runs",
            ["run", "kind", "backend", "adversary", "N", "seed", "rounds",
             "terminated", "bits", "wall s"],
            rows,
        )

    def _deltas_section(self) -> Block:
        base = self.baseline
        name = base.manifest.label or str(base.directory)
        rows = _delta_rows(self.log.manifest, base.manifest)
        if not rows:
            return f"deltas vs baseline {name}: no shared metrics to compare"
        return Section(f"deltas vs baseline {name}",
                       ["metric", "baseline", "current", "delta"], rows)

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        """The text report."""
        return render_text(self.blocks())

    def render_html(self) -> str:
        """The self-contained HTML page."""
        title = self.log.manifest.label or self.log.directory.name
        body = [f"<h1>Session report: {_esc(title)}</h1>"]
        for block in self.blocks():
            if isinstance(block, str):
                body.append(f"<p>{_esc(block)}</p>")
                continue
            heading = block.title[:1].upper() + block.title[1:]
            body.append(f"<h2>{_esc(heading)}</h2>")
            if block.bar is not None:
                body.append(_bar([(row[0], float(row[block.bar])) for row in block.rows]))
            body.append(_table(block.headers, block.rows))
        return (
            "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
            f"<title>{_esc(title)}</title><style>{_STYLE}</style></head><body>"
            + "".join(body)
            + "</body></html>"
        )


def build_report(
    directory: pathlib.Path,
    baseline: Optional[pathlib.Path] = None,
    top_k: int = 10,
) -> Report:
    """Load, read and roll up one session directory.

    Raises :class:`FileNotFoundError` for a missing session or baseline
    directory and :class:`ValueError` for a malformed one (see
    :func:`~repro.obs.stream.load_session`).
    """
    log = load_session(pathlib.Path(directory))
    report = Report(log=log)
    report.runs, report.skipped = _read_runs(log)
    report.self_seconds = _self_seconds(log.spans)
    report.by_stage = dict.fromkeys(ROUND_STAGES, 0.0)
    for sp in log.spans:
        if sp.kind == "event":
            report.events[sp.name] = report.events.get(sp.name, 0) + 1
            continue
        sec = report.self_seconds[sp.span_id]
        report.by_kind.setdefault(sp.kind, _Rollup()).add(sp, sec)
        for key, rollups in (("protocol", report.by_protocol),
                             ("adversary", report.by_adversary)):
            if sp.tags.get(key):
                rollups.setdefault(str(sp.tags[key]), _Rollup()).add(sp, sec)
        # run spans carry the authoritative backend; rolling up every
        # tagged span would double-count runs into their cells
        if sp.kind == "run" and sp.tags.get("backend"):
            report.by_backend.setdefault(str(sp.tags["backend"]), _Rollup()).add(sp, sec)
        if sp.kind == "phase" and sp.name in report.by_stage:
            report.by_stage[sp.name] += sp.wall_seconds
        if sp.parent_id is None:
            report.attributed_seconds += sp.wall_seconds
    report.hottest_cells = sorted(
        (sp for sp in log.spans if sp.kind == "cell"),
        key=lambda sp: sp.wall_seconds,
        reverse=True,
    )[:top_k]
    if baseline is not None:
        report.baseline = load_session(pathlib.Path(baseline))
    return report


# ----------------------------------------------------------------------
# sections
def metrics_section(metrics: Dict[str, Any]) -> Section:
    """A metrics snapshot (:meth:`MetricsRegistry.snapshot
    <repro.obs.metrics.MetricsRegistry.snapshot>`) as one table."""
    rows = []
    for name, metric in sorted(metrics.items()):
        kind = metric.get("type", "?")
        if kind == "histogram":
            value = (
                f"count={metric.get('count', 0)} sum={metric.get('sum', 0.0):.6g} "
                f"mean={metric.get('mean', 0.0):.6g}"
            )
        else:
            value = metric.get("value", 0)
        rows.append([name, kind, value])
    return Section("metrics", ["metric", "type", "value"], rows)


def _rollup_section(title: str, rollups: Dict[str, _Rollup]) -> Optional[Section]:
    if not rollups:
        return None
    rows = [
        [key, r.count, f"{r.total_seconds:.4f}", f"{r.self_seconds:.4f}",
         f"{r.cpu_seconds:.4f}" if r.has_cpu else "-"]
        for key, r in sorted(rollups.items(), key=lambda kv: kv[1].total_seconds,
                             reverse=True)
    ]
    return Section(title, ["", "spans", "total s", "self s", "cpu s"], rows, bar=3)


def _resources_section(res: Optional[Dict[str, Any]]) -> Optional[Section]:
    if not res:
        return None

    def mib(value: Optional[int]) -> str:
        return "-" if value is None else f"{value / 1048576:.1f} MiB"

    def pct(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.0f}%"

    return Section("resources", ["", "value"], [
        ["samples", res["samples"]],
        ["sampled over", f"{res['duration_seconds']:.1f}s"],
        ["rss peak", mib(res.get("rss_peak_bytes"))],
        ["rss last", mib(res.get("rss_last_bytes"))],
        ["cpu mean", pct(res.get("cpu_percent_mean"))],
        ["cpu max", pct(res.get("cpu_percent_max"))],
        ["gc collections", res.get("gc_collections", 0)],
    ])


def _delta_rows(
    current: SessionManifest, baseline: SessionManifest
) -> List[List[str]]:
    """Bench-diff-style relative changes of shared scalar metrics + wall."""
    rows: List[List[str]] = []

    def fmt(name: str, old: Any, new: Any) -> None:
        numbers = (int, float)
        if not isinstance(old, numbers) or not isinstance(new, numbers):
            return
        if old == 0:
            delta = "-" if new == 0 else "new"
        else:
            frac = (new - old) / old
            arrow = "▲" if frac > 0 else ("▼" if frac < 0 else "=")
            delta = f"{arrow} {frac:+.1%}"
        rows.append([name, f"{old:.6g}", f"{new:.6g}", delta])

    fmt("wall_seconds", baseline.wall_seconds, current.wall_seconds)
    for name, metric in sorted(current.metrics.items()):
        other = baseline.metrics.get(name)
        if other is None:
            continue
        if metric.get("type") == "histogram":
            fmt(f"{name} (sum)", other.get("sum"), metric.get("sum"))
        else:
            fmt(name, other.get("value"), metric.get("value"))
    return rows


# ----------------------------------------------------------------------
# rendering
def render_text(blocks: Sequence[Block]) -> str:
    """Lines as they are; each section as a titled fixed-width table."""
    out: List[str] = []
    for block in blocks:
        if isinstance(block, str):
            out.append(block)
            continue
        if out:
            out.append("")
        out.append(render_table(block.headers, block.rows, title=f"-- {block.title} --"))
    return "\n".join(out)


_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 70rem;
       color: #1a1a1a; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem;
     border-bottom: 1px solid #ddd; padding-bottom: .2rem; }
table { border-collapse: collapse; margin: .5rem 0; font-size: .85rem; }
th, td { border: 1px solid #ccc; padding: .25rem .6rem; text-align: left; }
th { background: #f3f3f3; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar { display: flex; height: 1.4rem; border-radius: 3px; overflow: hidden;
       margin: .3rem 0 .6rem; max-width: 60rem; }
.bar span { display: block; height: 100%; overflow: hidden; color: #fff;
            font-size: .7rem; padding: .15rem 0 0 .3rem; white-space: nowrap; }
.muted { color: #777; }
"""

#: bar palette, cycled (muted, print-safe)
_COLORS = ("#4a6fa5", "#b0783c", "#5e8d5a", "#a05195", "#8a8a3c",
           "#c05555", "#4f9090", "#7a6fb8")


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _is_number(cell: Any) -> bool:
    try:
        float(str(cell).rstrip("%"))
    except ValueError:
        return False
    return True


def _table(headers: List[str], rows: List[list]) -> str:
    """An HTML table; numeric cells are right-aligned."""
    out = ["<table><tr>"]
    out.extend(f"<th>{_esc(h)}</th>" for h in headers)
    out.append("</tr>")
    for row in rows:
        out.append("<tr>")
        for cell in row:
            cls = ' class="num"' if _is_number(cell) else ""
            out.append(f"<td{cls}>{_esc(cell)}</td>")
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


def _bar(parts: List[Tuple[Any, float]]) -> str:
    """One proportional flex bar from ``(label, seconds)`` parts."""
    total = sum(sec for _, sec in parts)
    if total <= 0:
        return '<p class="muted">no timed spans</p>'
    out = ['<div class="bar">']
    for i, (label, sec) in enumerate(parts):
        pct = 100.0 * sec / total
        if pct < 0.5:
            continue
        color = _COLORS[i % len(_COLORS)]
        out.append(
            f'<span style="width:{pct:.2f}%;background:{color}" '
            f'title="{_esc(label)}: {sec:.4f}s">{_esc(label)}</span>'
        )
    out.append("</div>")
    return "".join(out)
