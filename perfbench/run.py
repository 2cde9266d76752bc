#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload thm8 --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the workload body with tracing off until
``--seconds`` of body time have passed (at least three times) and prints
the end-to-end metrics; ``--trace 1`` does the same, then runs the body
once more under the tracer and prints the per-layer metrics, writing
``perfbench/out/<workload>/spans.jsonl`` and ``layers.{json,txt}``.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every output is checked against the reference engine.  The expected
values for the default seed are committed in ``perfbench/expected/``;
for any other seed a child process computes them first, untimed.

The bounded time metrics are CPU time (``time.process_time()``) of the
body: on a shared virtual host the hypervisor takes the CPU away for
2-30% of a run, which moves wall time far more than any bound.  Wall
time is still reported (``wall_s`` in the per-layer set).  ``setup_s``
is the median over three fresh interpreters of the CPU time from process
start until the inputs are built and the expected values are loaded.
``REPRO_*`` environment variables are cleared, so every knob the
workloads do not set explicitly takes its default.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: fewest timed repetitions of the body per run
MIN_REPS = 3
#: fresh interpreters timed for setup_s
SETUP_SAMPLES = 3
#: once --seconds have passed, stop waiting for MIN_REPS completed runs
#: after this many runs of the body have raised
MAX_CRASHES = 3
MIB = 1024.0 * 1024.0

#: the bounded metrics: CPU-time based, because on a shared virtual host
#: the hypervisor's steal moves wall time by far more than the bounds
END_TO_END = {
    "cpu_s": "s",
    "node_rounds_per_cpu_s": "node-rounds/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src`` with a clean environment."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    script_dir = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != script_dir]
    sys.path[:0] = [str(SRC), str(ROOT)]


def _reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS mark for this process (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mib() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Rep:
    wall: float
    cpu: float
    peak_rss: float
    disk: int
    tally: Any


@contextlib.contextmanager
def _child(args: List[str], **kwargs) -> Iterator[subprocess.Popen]:
    """This script in a child process; killed if still running on exit."""
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *args],
                            cwd=str(ROOT), **kwargs)
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def _expected(workload, seed: int, work: Path):
    """(path, expected values): committed for the default seed, else computed."""
    from perfbench.workloads import DEFAULT_SEED, EXPECTED_DIR, load_expected

    committed = EXPECTED_DIR / f"{workload.name}.json"
    if seed == DEFAULT_SEED and committed.is_file():
        expected = load_expected(workload.name, committed)
        if expected.get("seed") == seed:
            return committed, expected
    path = work / "expected.json"
    with _child(["--workload", workload.name, "--seed", str(seed),
                 "--oracle-out", str(path)]) as proc:
        if proc.wait() != 0:
            raise RuntimeError(f"oracle for {workload.name} seed {seed} failed")
    return path, load_expected(workload.name, path)


def _setup_seconds(workload, seed: int, expected_path: Path) -> List[float]:
    """CPU seconds fresh interpreters spend from process start until the
    inputs are ready (each child reports its own ``process_time()``)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        with _child(["--workload", workload.name, "--seed", str(seed),
                     "--setup-sample", str(expected_path)],
                    stdout=subprocess.PIPE, text=True) as proc:
            word, _, seconds = proc.stdout.readline().partition(" ")
            proc.stdout.close()
            if proc.wait() != 0 or word != "ready":
                raise RuntimeError(f"set-up sample for {workload.name} failed")
        samples.append(float(seconds))
    return samples


def _measure(workload, inputs, expected, seconds: float, work: Path):
    """Repeat the body; returns (completed runs, tally of runs that raised).

    A body that raises is a program failure: every operation of that
    run counts as failed, the run is left out of the timings, and
    measuring goes on until ``seconds`` have passed.
    """
    from perfbench.layers import dir_usage
    from perfbench.workloads import Tally

    reps: List[Rep] = []
    crashes = Tally()  # the operations of runs that raised
    crashed_runs = 0
    spent = 0.0
    while spent < seconds or (len(reps) < MIN_REPS and crashed_runs < MAX_CRASHES):
        rep_dir = work / f"rep-{len(reps) + crashed_runs}"
        rep_dir.mkdir()
        gc.collect()
        _reset_peak_rss()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            outputs = workload.run(inputs, rep_dir)
        except Exception:
            if crashed_runs < MAX_CRASHES:
                traceback.print_exc()
            outputs = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        peak = _peak_rss_mib()
        disk = dir_usage([rep_dir])["bytes"]
        tally = workload.check(inputs, outputs, expected)
        shutil.rmtree(rep_dir)
        spent += wall
        if outputs is None:
            crashed_runs += 1
            crashes.attempted += tally.attempted
            crashes.failed += tally.failed
            continue
        del outputs
        reps.append(Rep(wall, cpu, peak, disk, tally))
    if not reps:
        raise RuntimeError(f"every run of {workload.name} raised")
    return reps, crashes


def _traced(workload, inputs, expected, work: Path, reps: List[Rep], crashes, seed: int):
    """One traced run of the body; returns (per-layer metrics, tally).

    A traced run that raises counts as failed and is tried again, up to
    ``MAX_CRASHES`` times in all.
    """
    from perfbench.layers import LAYER_METRICS, dir_usage, metric, ratio, render_table, \
        span_metrics, write_summary
    from perfbench.tracer import STAGES, Tracer
    from perfbench.workloads import Tally
    from repro.cache.store import cache_counters
    from repro.sim.encoding import cache_info

    tally = Tally()
    for attempt in range(1, MAX_CRASHES + 1):
        traced_dir = work / f"traced-{attempt}"
        traced_dir.mkdir()
        tracer = Tracer()
        gc.collect()
        try:
            with tracer.installed(workload.node_classes(), workload.adversary_classes()):
                enc0, cc0 = cache_info(), cache_counters()
                with tracer.span(f"workload.{workload.name}") as body:
                    outputs = workload.run(inputs, traced_dir, span=tracer.span)
                enc1, cc1 = cache_info(), cache_counters()
            break
        except Exception:
            if attempt == MAX_CRASHES:
                raise
            traceback.print_exc()
            lost = workload.check(inputs, None, expected)
            tally.attempted += lost.attempted
            tally.failed += lost.failed
    checked = workload.check(inputs, outputs, expected)
    tally.attempted += checked.attempted
    tally.failed += checked.failed

    metrics = span_metrics(tracer, body)
    hits, misses = enc1["hits"] - enc0["hits"], enc1["misses"] - enc0["misses"]
    metrics["encoding.hits"] = metric(hits, "count")
    metrics["encoding.misses"] = metric(misses, "count")
    metrics["encoding.hit_ratio"] = ratio(hits, hits + misses)
    for event in ("hit", "miss", "store", "corrupt"):
        metrics[f"cache.{event}"] = metric(cc1.get(event, 0) - cc0.get(event, 0), "count")
    sessions = [traced_dir / "cold", traced_dir / "warm"]
    usage = dir_usage(sessions)
    metrics["cache.bytes"] = metric(dir_usage([traced_dir / "cache"])["bytes"], "bytes")
    metrics["obs.bytes"] = metric(usage["bytes"], "bytes")
    metrics["obs.run_bytes"] = metric(usage["run_bytes"], "bytes")
    metrics["obs.events_bytes"] = metric(usage["events_bytes"], "bytes")
    metrics["obs.spans_bytes"] = metric(usage["spans_bytes"], "bytes")
    metrics["obs.files"] = metric(usage["files"], "count")

    passes = getattr(outputs, "passes", None)
    cells = len(expected.get("rows", ()))
    metrics["cache.warm_hit_ratio"] = ratio(passes[1].hits if passes else 0,
                                            cells if passes else 0)
    phase = {}
    for p in passes or ():
        for stage, sec in p.phase_seconds.items():
            phase[stage] = phase.get(stage, 0.0) + sec
    for stage in STAGES:
        metrics[f"obs.phase_s.{stage}"] = metric(phase.get(stage, 0.0), "s")

    extra: Dict[str, Any] = {}
    session_s = 0.0
    if passes:
        # the same cold pass without a session, traced the same way
        plain = Tracer()
        plain_dir = work / "traced-no-session"
        plain_dir.mkdir()
        with plain.installed(workload.node_classes(), workload.adversary_classes()):
            with plain.span("workload.cold-without-session") as cold_plain:
                rows = workload.run_without_session(inputs, plain_dir, span=plain.span)
        tally.attempted += len(rows)
        tally.failed += sum(1 for a, b in zip(json.loads(json.dumps(rows)), expected["rows"])
                            if a != b)
        observe_spans = sorted((sp for sp in tracer.subtree(body) if sp.name == "obs.observe"),
                               key=lambda sp: sp.start)
        cold_with = observe_spans[0].duration if observe_spans else 0.0
        session_s = cold_with - cold_plain.duration
        extra["cold_pass_with_session_s"] = cold_with
        extra["cold_pass_without_session_s"] = cold_plain.duration
    metrics["obs.session_s"] = metric(session_s, "s")

    untraced = statistics.median(r.wall for r in reps)
    metrics["wall_s"] = metric(untraced, "s")
    metrics["node_rounds_per_s"] = metric(reps[0].tally.node_rounds / untraced, "node-rounds/s")
    metrics["disk_mb"] = metric(statistics.median(r.disk for r in reps) / MIB, "MiB")
    attempted = sum(r.tally.attempted for r in reps) + crashes.attempted + tally.attempted
    failed = sum(r.tally.failed for r in reps) + crashes.failed + tally.failed
    metrics["fail_rate"] = ratio(failed, attempted)
    metrics["trace.overhead"] = ratio(body.duration, untraced)
    ordered = {name: metrics[name] for name in LAYER_METRICS}

    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    header = {"workload": workload.name, "seed": seed}
    n_spans = tracer.write(out_dir / "spans.jsonl", header)
    extra.update(spans=n_spans, missing_hooks=tracer.missing,
                 untraced_wall_s=untraced, traced_wall_s=body.duration)
    write_summary(out_dir, header, ordered, extra)
    print(f"per-layer metrics ({workload.name}, seed {seed}, traced run):")
    print(render_table(ordered))
    cov = ordered["batch.stage_coverage"]
    print(f"batch.stage_coverage = {cov['value']:.4f} "
          f"(stage {cov['numerator']:.4f} s / engine-run spans {cov['base']:.4f} s)")
    over = ordered["trace.overhead"]
    print(f"trace.overhead = {over['value']:.4f} "
          f"(traced {over['numerator']:.4f} s / untraced median {over['base']:.4f} s)")
    if tracer.missing:
        print(f"hooks not found (layers report 0): {', '.join(tracer.missing)}")
    print(f"spans: {n_spans} -> {out_dir / 'spans.jsonl'}; summary -> {out_dir / 'layers.json'}")
    return ordered, tally


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal modes, run in child processes
    parser.add_argument("--setup-sample", metavar="EXPECTED", help=argparse.SUPPRESS)
    parser.add_argument("--oracle-out", metavar="PATH",
                        help="compute the expected values with the reference "
                        "engine, write them to PATH and exit")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    _bootstrap()
    from perfbench.workloads import WORKLOADS, load_expected

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_sample:
        workload.prepare(args.seed, load_expected(workload.name, Path(args.setup_sample)))
        print(f"ready {time.process_time()!r}", flush=True)
        return 0
    if args.oracle_out:
        expected = workload.oracle(args.seed)
        Path(args.oracle_out).write_text(json.dumps(expected, indent=1) + "\n")
        return 0

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        expected_path, expected = _expected(workload, args.seed, work)
        setup = [] if args.trace else _setup_seconds(workload, args.seed, expected_path)
        inputs = workload.prepare(args.seed, expected)
        reps, crashes = _measure(workload, inputs, expected, args.seconds, work)
        attempted = sum(r.tally.attempted for r in reps) + crashes.attempted
        failed = sum(r.tally.failed for r in reps) + crashes.failed
        print(f"{workload.name} seed {args.seed}: {len(reps)} untraced runs, wall s "
              + " ".join(f"{r.wall:.4f}" for r in reps)
              + "; cpu s " + " ".join(f"{r.cpu:.4f}" for r in reps))
        if args.trace:
            metrics, tally = _traced(workload, inputs, expected, work, reps, crashes, args.seed)
            attempted += tally.attempted
            failed += tally.failed
        else:
            cpu = statistics.median(r.cpu for r in reps)
            wall = statistics.median(r.wall for r in reps)
            node_rounds = reps[0].tally.node_rounds
            metrics = {
                "cpu_s": cpu,
                "node_rounds_per_cpu_s": node_rounds / cpu,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(r.peak_rss for r in reps),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
            shown = dict(metrics, wall_s={"value": wall, "unit": "s"},
                         node_rounds_per_s={"value": node_rounds / wall, "unit": "node-rounds/s"},
                         disk_mb={"value": statistics.median(r.disk for r in reps) / MIB,
                                  "unit": "MiB"},
                         fail_rate={"value": failed / attempted, "unit": "ratio"})
            for name, m in shown.items():
                print(f"  {name:<22} {m['value']:>16.6g} {m['unit']}")
            print(f"  failed / attempted: {failed} / {attempted}; set-up samples (CPU s): "
                  + " ".join(f"{s:.4f}" for s in setup))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
