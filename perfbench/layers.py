"""Per-layer metrics of one traced run, and their written summary.

Every metric is a ``(value, unit)`` pair, plus the base of every ratio.
Layers a workload does not exercise report zero: that is the bypass
side of each layer, which ``README.md`` tabulates.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from .tracer import NODE_METHODS, STAGES, Span, Tracer, self_seconds

__all__ = ["LAYER_METRICS", "metric", "ratio", "span_metrics", "dir_usage", "render_table",
           "write_summary"]


def metric(value: float, unit: str, **extra: Any) -> Dict[str, Any]:
    """``{"value": v, "unit": u}`` plus any detail fields (call counts)."""
    return dict(value=value, unit=unit, **extra)


def ratio(numerator: float, base: float) -> Dict[str, Any]:
    """A ratio with its numerator and base; 0 when the base is 0."""
    return metric(numerator / base if base else 0.0, "ratio", numerator=numerator, base=base)


#: every per-layer metric name -> unit, in BENCHMARK.json order
LAYER_METRICS: Dict[str, str] = {}
for _m in NODE_METHODS:
    LAYER_METRICS[f"protocols.{_m}_s"] = "s"
LAYER_METRICS["protocols.calls"] = "count"
for _s in STAGES:
    LAYER_METRICS[f"batch.{_s}_s"] = "s"
for _s in STAGES:
    LAYER_METRICS[f"batch.{_s}_self_s"] = "s"
LAYER_METRICS.update({
    "batch.runs": "count", "batch.rounds": "count", "batch.node_rounds": "count",
    "batch.stage_coverage": "ratio",
    "tape.rounds": "count", "tape.key_hits": "count", "tape.content_hits": "count",
    "tape.unique_topologies": "count", "tape.intern_ratio": "ratio",
    "tape.dense": "count", "tape.bitset": "count", "tape.csr": "count",
    "network.edges_s": "s", "network.edges_calls": "count", "network.edges_per_round": "ratio",
    "encoding.hits": "count", "encoding.misses": "count", "encoding.hit_ratio": "ratio",
    "runner.replicate_s": "s", "runner.self_s": "s",
    "experiments.call_s": "s", "experiments.self_s": "s",
    "causality.s": "s", "causality.calls": "count",
    "cache.get_s": "s", "cache.put_s": "s", "cache.hit": "count", "cache.miss": "count",
    "cache.store": "count", "cache.corrupt": "count", "cache.warm_hit_ratio": "ratio",
    "cache.bytes": "bytes",
    "obs.session_s": "s", "obs.close_s": "s", "obs.bytes": "bytes", "obs.run_bytes": "bytes",
    "obs.events_bytes": "bytes", "obs.spans_bytes": "bytes", "obs.files": "count",
})
for _s in STAGES:
    LAYER_METRICS[f"obs.phase_s.{_s}"] = "s"
LAYER_METRICS.update({
    "wall_s": "s", "node_rounds_per_s": "node-rounds/s", "disk_mb": "MiB",
    "fail_rate": "ratio", "trace.overhead": "ratio",
})


def span_metrics(tracer: Tracer, root: Span) -> Dict[str, Dict[str, Any]]:
    """The metrics the spans under ``root`` and the tracer counters give."""
    spans = tracer.subtree(root)
    own = self_seconds(spans)
    total: Dict[str, float] = {}
    selfs: Dict[str, float] = {}
    count: Dict[str, int] = {}
    calls: Dict[str, List[float]] = {}
    edges_in_stage = 0
    for sp in spans:
        total[sp.name] = total.get(sp.name, 0.0) + sp.duration
        selfs[sp.name] = selfs.get(sp.name, 0.0) + own[sp.id]
        count[sp.name] = count.get(sp.name, 0) + 1
        for key, (n, sec) in sp.calls.items():
            acc = calls.setdefault(key, [0, 0.0])
            acc[0] += n
            acc[1] += sec
        if sp.name == "stage.adversary":
            edges_in_stage += int(sp.calls.get("adversary.edges", (0, 0.0))[0])

    out: Dict[str, Dict[str, Any]] = {}
    for m in NODE_METHODS:
        out[f"protocols.{m}_s"] = metric(calls.get(f"node.{m}", [0, 0.0])[1], "s",
                                         calls=int(calls.get(f"node.{m}", [0, 0.0])[0]))
    out["protocols.calls"] = metric(sum(int(calls.get(f"node.{m}", [0])[0])
                                        for m in NODE_METHODS), "count")
    stage_total = 0.0
    for s in STAGES:
        name = f"stage.{s}"
        stage_total += total.get(name, 0.0)
        out[f"batch.{s}_s"] = metric(total.get(name, 0.0), "s", spans=count.get(name, 0))
    for s in STAGES:
        out[f"batch.{s}_self_s"] = metric(selfs.get(f"stage.{s}", 0.0), "s")
    out["batch.runs"] = metric(tracer.runs, "count")
    out["batch.rounds"] = metric(tracer.rounds, "count")
    out["batch.node_rounds"] = metric(tracer.node_rounds, "count")
    containers = total.get("engine.run", 0.0) + total.get("batch.replicas", 0.0)
    out["batch.stage_coverage"] = ratio(stage_total, containers)

    tape = tracer.tape_totals
    out["tape.rounds"] = metric(tape["rounds"], "count")
    out["tape.key_hits"] = metric(tape["key_hits"], "count")
    out["tape.content_hits"] = metric(tape["content_hits"], "count")
    out["tape.unique_topologies"] = metric(tape["unique_topologies"], "count")
    out["tape.intern_ratio"] = ratio(tape["key_hits"] + tape["content_hits"], tape["rounds"])
    for kind in ("dense", "bitset", "csr"):
        out[f"tape.{kind}"] = metric(tracer.tape_representations.get(kind, 0), "count")

    edges = calls.get("adversary.edges", [0, 0.0])
    out["network.edges_s"] = metric(edges[1], "s")
    out["network.edges_calls"] = metric(int(edges[0]), "count")
    out["network.edges_per_round"] = ratio(edges_in_stage, tracer.rounds)

    out["runner.replicate_s"] = metric(total.get("runner.replicate", 0.0), "s")
    out["runner.self_s"] = metric(selfs.get("runner.replicate", 0.0), "s")
    drivers = [n for n in total if n.startswith("experiments.")]
    out["experiments.call_s"] = metric(sum(total[n] for n in drivers), "s",
                                       calls=sum(count[n] for n in drivers))
    out["experiments.self_s"] = metric(sum(selfs[n] for n in drivers), "s")
    out["causality.s"] = metric(total.get("causality.dynamic_diameter", 0.0), "s")
    out["causality.calls"] = metric(count.get("causality.dynamic_diameter", 0), "count")
    out["cache.get_s"] = metric(total.get("cache.get", 0.0), "s",
                                calls=count.get("cache.get", 0))
    out["cache.put_s"] = metric(total.get("cache.put", 0.0), "s",
                                calls=count.get("cache.put", 0))
    out["obs.close_s"] = metric(total.get("obs.close", 0.0), "s",
                                calls=count.get("obs.close", 0))
    return out


def dir_usage(paths: Iterable[Path]) -> Dict[str, int]:
    """Bytes and file counts under ``paths``, split by session file kind."""
    usage = {"bytes": 0, "files": 0, "run_bytes": 0, "events_bytes": 0, "spans_bytes": 0}
    for root in paths:
        if not root.is_dir():
            continue
        for path in root.rglob("*"):
            if not path.is_file():
                continue
            size = path.stat().st_size
            usage["bytes"] += size
            usage["files"] += 1
            if path.name.startswith("run-") and path.suffix == ".jsonl":
                usage["run_bytes"] += size
            elif path.name == "events.jsonl":
                usage["events_bytes"] += size
            elif path.name == "spans.jsonl":
                usage["spans_bytes"] += size
    return usage


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{int(value)}"
    return f"{value:.6g}"


def render_table(metrics: Dict[str, Dict[str, Any]]) -> str:
    """One line per metric: name, value, unit, and what a ratio divides."""
    lines = []
    for name, m in metrics.items():
        note = ""
        if "base" in m:
            note = f"  ({_fmt(m['numerator'])} / {_fmt(m['base'])})"
        elif name.startswith("batch.") and name.endswith("_s") and not name.endswith("self_s"):
            selfname = name[:-2] + "_self_s"
            if selfname in metrics:
                note = f"  (self {_fmt(metrics[selfname]['value'])} s)"
        lines.append(f"  {name:<28} {_fmt(m['value']):>14} {m['unit']}{note}")
    return "\n".join(lines)


def write_summary(out_dir: Path, header: Dict[str, Any], metrics: Dict[str, Dict[str, Any]],
                  extra: Optional[Dict[str, Any]] = None) -> Path:
    """``layers.json`` + ``layers.txt`` beside the spans file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = dict(header, metrics=metrics, **(extra or {}))
    path = out_dir / "layers.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n")
    title = " ".join(f"{k}={v}" for k, v in header.items())
    (out_dir / "layers.txt").write_text(f"{title}\n{render_table(metrics)}\n")
    return path
