"""``repro report``: one self-contained HTML page per session.

Static by construction — a single file with inline CSS, no scripts, no
external assets, no new dependencies — so it can be archived as a CI
artifact next to ``EXP-*.json`` and opened years later.  Sections:

* provenance — label, package version, wall clock, worker count and
  log format version;
* the span profile — the same rollups as ``repro profile`` plus a
  treemap-style bar per kind/cell (CSS-proportional widths);
* hottest cells — the EXP-SUB optimization targets;
* metrics snapshot — the session's counters/gauges/histograms;
* runs — the per-run manifest table, backend included;
* resources — RSS/CPU/GC rollup when the session sampled
  (:mod:`repro.obs.resource`);
* deltas — when ``--baseline`` names a *session directory*,
  bench-diff-style relative changes of shared counters and of the
  session wall; when it names a *history file*
  (``benchmarks/history.jsonl``), the ``repro bench-diff`` verdict per
  experiment with a wall-time sparkline instead
  (:func:`repro.obs.benchdiff.diff_history`).

The session, and a baseline session directory, are read by
:func:`repro.obs.stream.load_session`.
Partial sessions (killed or still running — no ``session-close``)
render too, marked PARTIAL.

Everything user-controlled (labels, tag values, metric names) is
HTML-escaped; the page renders identically from ``file://``.
"""

from __future__ import annotations

import html
import pathlib
from typing import Any, Dict, List, Optional

from .manifest import SessionManifest
from .profile import SessionProfile, profile_log
from .stream import load_session

__all__ = ["render_report", "write_report"]

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 70rem;
       color: #1a1a1a; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem;
     border-bottom: 1px solid #ddd; padding-bottom: .2rem; }
table { border-collapse: collapse; margin: .5rem 0; font-size: .85rem; }
th, td { border: 1px solid #ccc; padding: .25rem .6rem; text-align: left; }
th { background: #f3f3f3; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar { display: flex; height: 1.4rem; border-radius: 3px; overflow: hidden;
       margin: .3rem 0 .6rem; max-width: 60rem; }
.bar span { display: block; height: 100%; overflow: hidden; color: #fff;
            font-size: .7rem; padding: .15rem 0 0 .3rem; white-space: nowrap; }
.kv { font-size: .9rem; } .kv dt { font-weight: 600; display: inline; }
.kv dd { display: inline; margin: 0 1.2rem 0 .3rem; }
.delta-up { color: #b02a2a; } .delta-down { color: #1b7a2f; }
.muted { color: #777; }
"""

#: treemap palette, cycled (muted, print-safe)
_COLORS = ("#4a6fa5", "#b0783c", "#5e8d5a", "#a05195", "#8a8a3c",
           "#c05555", "#4f9090", "#7a6fb8")


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _table(headers: List[str], rows: List[List[Any]],
           numeric_from: int = 1) -> str:
    """An HTML table; columns >= ``numeric_from`` are right-aligned."""
    out = ["<table><tr>"]
    for i, h in enumerate(headers):
        cls = ' class="num"' if i >= numeric_from else ""
        out.append(f"<th{cls}>{_esc(h)}</th>")
    out.append("</tr>")
    for row in rows:
        out.append("<tr>")
        for i, cell in enumerate(row):
            cls = ' class="num"' if i >= numeric_from else ""
            out.append(f"<td{cls}>{_esc(cell)}</td>")
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


def _treemap_bar(parts: List[tuple]) -> str:
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


def _rollup_section(title: str, rollups: Dict[str, Any]) -> str:
    if not rollups:
        return ""
    ordered = sorted(rollups.items(), key=lambda kv: kv[1].total_seconds,
                     reverse=True)
    bar = _treemap_bar([(k, r.self_seconds or r.total_seconds)
                        for k, r in ordered])
    rows = [
        [k, r.count, f"{r.total_seconds:.4f}", f"{r.self_seconds:.4f}",
         f"{r.cpu_seconds:.4f}" if r.has_cpu else "-"]
        for k, r in ordered
    ]
    return (
        f"<h2>{_esc(title)}</h2>" + bar
        + _table(["", "spans", "total s", "self s", "cpu s"], rows)
    )


def _metric_rows(metrics: Dict[str, Any]) -> List[List[Any]]:
    rows = []
    for name, metric in sorted(metrics.items()):
        kind = metric.get("type", "?")
        if kind == "histogram":
            value = (
                f"count={metric.get('count', 0)} sum={metric.get('sum', 0.0):.4g}"
            )
        else:
            value = f"{metric.get('value', 0)}"
        rows.append([name, kind, value])
    return rows


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


def _history_section(path: pathlib.Path) -> str:
    """The ``repro bench-diff`` table of a benchmark history file."""
    from .benchdiff import diff_history, diff_table, read_history

    diffs, _ = diff_history(read_history(path))
    out = [f"<h2>Benchmark history: {_esc(path)}</h2>"]
    if not diffs:
        out.append('<p class="muted">history file holds no records yet</p>')
        return "".join(out)
    headers, rows = diff_table(diffs)
    out.append(_table(headers, rows, numeric_from=2))
    return "".join(out)


def render_report(
    directory: pathlib.Path,
    baseline: Optional[pathlib.Path] = None,
    top_k: int = 10,
) -> str:
    """The full HTML page for one session directory."""
    directory = pathlib.Path(directory)
    log = load_session(directory)
    manifest = log.manifest
    profile: SessionProfile = profile_log(log, top_k=top_k)

    title = manifest.label or directory.name
    body: List[str] = [f"<h1>Session report: {_esc(title)}</h1>"]
    if log.partial:
        body.append(
            '<p><strong>PARTIAL session</strong> — no clean close; this '
            "report covers the completed prefix of the session log.</p>"
        )

    # provenance
    coverage = profile.coverage
    prov = [
        ("label", manifest.label or "-"),
        ("package version", manifest.package_version),
        ("format version", log.format_version),
        ("wall seconds", "-" if manifest.wall_seconds is None
         else f"{manifest.wall_seconds:.4f}"),
        ("workers", manifest.workers),
        ("runs", len(manifest.runs)),
        ("spans", len(profile.spans)),
        ("span coverage", "-" if coverage is None else f"{coverage:.1%}"),
    ]
    stamp = manifest.provenance or {}
    if stamp.get("git_sha"):
        prov.append(("git", str(stamp["git_sha"])[:12]))
    if stamp.get("hostname"):
        prov.append(("host", stamp["hostname"]))
    if stamp.get("cpu_count"):
        prov.append(("cpus", stamp["cpu_count"]))
    if stamp.get("python_version"):
        prov.append(("python", stamp["python_version"]))
    body.append("<h2>Provenance</h2><dl class=\"kv\">")
    body.extend(f"<dt>{_esc(k)}:</dt><dd>{_esc(v)}</dd>" for k, v in prov)
    body.append("</dl>")

    # span profile
    body.append(_rollup_section("Time by span kind", profile.by_kind))
    body.append(_rollup_section("Time by protocol", profile.by_protocol))
    body.append(_rollup_section("Time by adversary", profile.by_adversary))
    body.append(_rollup_section("Time by backend (runs)", profile.by_backend))

    if profile.hottest_cells:
        body.append(f"<h2>Hottest cells (top {len(profile.hottest_cells)})</h2>")
        body.append(_treemap_bar(
            [(sp.name, sp.wall_seconds) for sp in profile.hottest_cells]
        ))
        body.append(_table(
            ["cell", "total s", "self s"],
            [
                [sp.name, f"{sp.wall_seconds:.4f}",
                 f"{profile.self_seconds[sp.span_id]:.4f}"]
                for sp in profile.hottest_cells
            ],
        ))
    if profile.events:
        body.append("<h2>Events</h2>")
        body.append(_table(
            ["event", "count"],
            [[k, v] for k, v in sorted(profile.events.items())],
        ))
    if not profile.spans:
        body.append('<p class="muted">No spans recorded '
                    "(a directory of bare run files, or nothing ran).</p>")

    # resource timeline rollup
    if profile.resources:
        res = profile.resources
        body.append("<h2>Resources</h2>")
        body.append(_table(
            ["", "value"],
            [
                ["samples", res["samples"]],
                ["sampled over", f"{res['duration_seconds']:.1f}s"],
                ["rss peak", "-" if res.get("rss_peak_bytes") is None
                 else f"{res['rss_peak_bytes'] / 1048576:.1f} MiB"],
                ["rss last", "-" if res.get("rss_last_bytes") is None
                 else f"{res['rss_last_bytes'] / 1048576:.1f} MiB"],
                ["cpu mean", "-" if res.get("cpu_percent_mean") is None
                 else f"{res['cpu_percent_mean']:.0f}%"],
                ["cpu max", "-" if res.get("cpu_percent_max") is None
                 else f"{res['cpu_percent_max']:.0f}%"],
                ["gc collections", res.get("gc_collections", 0)],
            ],
        ))

    # metrics snapshot
    if manifest.metrics:
        body.append("<h2>Metrics snapshot</h2>")
        body.append(_table(["metric", "type", "value"],
                           _metric_rows(manifest.metrics), numeric_from=2))

    # runs
    if manifest.runs:
        body.append("<h2>Runs</h2>")
        body.append(_table(
            ["trace", "kind", "backend", "adversary", "N", "seed", "wall s"],
            [
                [
                    r.trace_file or "-", r.kind, r.backend, r.adversary,
                    r.num_nodes, r.seed,
                    "-" if r.wall_seconds is None else f"{r.wall_seconds:.4f}",
                ]
                for r in manifest.runs
            ],
            numeric_from=4,
        ))

    # baseline deltas: a session directory compares aggregates; a
    # history file renders the benchmark trend table instead
    if baseline is not None:
        baseline = pathlib.Path(baseline)
        if baseline.is_file():
            body.append(_history_section(baseline))
        else:
            base_manifest = load_session(baseline).manifest
            rows = _delta_rows(manifest, base_manifest)
            body.append(
                f"<h2>Deltas vs baseline: {_esc(base_manifest.label or baseline)}</h2>"
            )
            if rows:
                body.append(_table(["metric", "baseline", "current", "delta"], rows))
            else:
                body.append('<p class="muted">no shared metrics to compare</p>')

    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title><style>{_STYLE}</style></head><body>"
        + "".join(body)
        + "</body></html>"
    )


def write_report(
    directory: pathlib.Path,
    out: pathlib.Path,
    baseline: Optional[pathlib.Path] = None,
    top_k: int = 10,
) -> pathlib.Path:
    """Render and write the report; returns the output path."""
    out = pathlib.Path(out)
    out.write_text(render_report(directory, baseline=baseline, top_k=top_k))
    return out
