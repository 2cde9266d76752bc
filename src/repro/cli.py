"""Command-line interface: run any paper experiment from the shell.

Usage::

    python -m repro list
    python -m repro fig1
    python -m repro thm6 --quick
    python -m repro thm8 --quick --trace-out out/thm8 --metrics
    python -m repro thm8 --quick --cache rw       # result cache (PR 10)
    python -m repro inspect out/thm8/run-0001.jsonl
    python -m repro inspect out/thm8              # whole-session table
    python -m repro audit out/thm6                # proof-ledger checks
    python -m repro bench-diff baseline/ benchmarks/out/
    python -m repro bench-diff baseline/ benchmarks/out/ \\
        --fail-on-regression --tolerance wall=0.4
    python -m repro bench-diff benchmarks/history.jsonl --window 5
    python -m repro profile out/thm8                   # span rollups
    python -m repro report out/thm8 --out report.html  # static HTML page
    python -m repro cache stats                        # result cache
    python -m repro cache verify --sample 3
    python -m repro cache gc --max-bytes 100000000 --max-age-days 30
    python -m repro all --quick --progress

Each experiment command prints the experiment's rendered table (the
same rows the benchmarks assert on).  ``--quick`` shrinks the parameter
grid for a seconds-scale run; defaults match the benchmarks.  The
figure commands (``fig1``/``fig2``/``fig3``) regenerate fixed paper
constructions with no parameter grid, so ``--quick`` is accepted but
changes nothing there.

Execution options (PR 10: one shared option group, resolved into a
single :class:`~repro.sim.config.RunConfig` by
:func:`config_from_args`): ``--backend batch`` routes engine runs
through the vectorized batch backend (bit-identical; see
``docs/PERFORMANCE.md``), ``--workers N`` fans seed sweeps over a
process pool, and ``--cache rw|ro|off`` consults the content-addressed
result cache (``docs/CACHE.md``; default: the ``REPRO_CACHE``
environment variable, else off).

Observability (see ``docs/OBSERVABILITY.md``): ``--metrics`` collects
engine counters and per-phase wall-clock timings and appends them to the
output; ``--trace-out DIR`` additionally persists every engine run as
``run-NNNN.jsonl`` plus the session log ``events.jsonl``;
``--metrics-out FILE`` writes the session registry in OpenMetrics text
format.  ``repro inspect PATH`` summarizes one persisted run (rounds,
bits by node, phase timing, realized dynamic diameter) or a whole
session directory.
``repro audit PATH`` replays the proof-ledger records of persisted
reduction runs and exits nonzero if any Lemma 3/4 spoil budget or the
O(s log N) cut-bit envelope was violated.  ``repro bench-diff OLD NEW``
compares two directories of ``benchmarks/out/EXP-*.json`` sidecars and
flags result drift and wall-time regressions; ``repro bench-diff
HISTORY.jsonl`` judges the benchmark history store's newest record per
experiment against the median of the previous ``--window K`` the same
way (a directory baseline is a history of length one).

Spans and progress (PR 6): every experiment records hierarchical spans
(sweep → cell → run → phase) into the observation session; ``repro
profile SESSION`` rolls them up (self/total by kind, protocol,
adversary, backend; hottest cells) and ``repro report SESSION --out
report.html`` renders one self-contained HTML page.  ``--progress``
streams a live done/total + rate + ETA line to stderr (default: on for
a TTY; ``--no-progress`` disables).  ``repro bench-diff`` grows
``--fail-on-regression`` (CI gate mode) and repeatable ``--tolerance
NAME=FRAC`` per-metric thresholds.

Session log: every persisting session writes one ``events.jsonl``
next to its run files — runs, spans, progress and aggregates, one line
each as they happen.  ``--stream`` (with ``--trace-out``; or
``REPRO_STREAM=1``) makes it durable: every line is fsync'd, a
background thread logs RSS/CPU/GC heartbeats, and rate-limited
checkpoints carry the aggregates, so a killed sweep leaves a loadable
partial session (``inspect``/``profile``/``report`` mark it PARTIAL
instead of failing).  ``repro tail SESSION-DIR`` attaches to a live
session and follows its events (done/total, rates, ETA, retries).
``repro report --baseline`` accepts either a baseline session directory
(metric deltas) or a history file (the bench-diff table, with trend
sparklines).

Result cache: ``repro cache stats`` summarizes the
content-addressed result cache, ``repro cache verify`` re-runs a
sample of cached entries from their stored recipes and asserts
bit-identity, and ``repro cache gc`` prunes it by size and age.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence

from .analysis.experiments import (
    exp_cc_bounds,
    exp_estimate_insensitivity,
    exp_doubling_heuristic,
    exp_exponential_gap,
    exp_fig1,
    exp_fig2,
    exp_fig3,
    exp_known_d_upper_bounds,
    exp_sensitivity,
    exp_thm6_reduction,
    exp_thm7_reduction,
    exp_thm8_leader_election,
)
from .sim.config import BACKENDS, CACHE_MODES, RunConfig

__all__ = ["main", "EXPERIMENTS", "add_execution_options", "config_from_args"]


def _fig1(quick: bool, config: Optional[RunConfig] = None):
    # The figures are fixed paper constructions (no parameter grid), so
    # quick and full runs are identical — the flag is deliberately
    # unused, and there is no engine run to parallelize or re-backend.
    return exp_fig1()


def _fig2(quick: bool, config: Optional[RunConfig] = None):
    return exp_fig2()  # fixed construction; --quick/config no-ops (see _fig1)


def _fig3(quick: bool, config: Optional[RunConfig] = None):
    return exp_fig3()  # fixed construction; --quick/config no-ops (see _fig1)


def _thm6(quick: bool, config: Optional[RunConfig] = None):
    return exp_thm6_reduction(
        q_values=(25,) if quick else (25, 41), seeds=(1,) if quick else (1, 2),
        config=config,
    )


def _thm7(quick: bool, config: Optional[RunConfig] = None):
    return exp_thm7_reduction(
        q_values=(17,) if quick else (17, 25), seeds=(1,) if quick else (1, 2),
        config=config,
    )


def _thm8(quick: bool, config: Optional[RunConfig] = None):
    if quick:
        return exp_thm8_leader_election(
            sizes=(8,), adversaries=("overlap-stars",), seeds=(11,),
            include_line_up_to=0, config=config,
        )
    return exp_thm8_leader_election(config=config)


def _ub(quick: bool, config: Optional[RunConfig] = None):
    return exp_known_d_upper_bounds(
        sizes=(16,) if quick else (16, 32, 64), seeds=(21,) if quick else (21, 22),
        config=config,
    )


def _cc(quick: bool, config: Optional[RunConfig] = None):
    return exp_cc_bounds(n_values=(64, 256) if quick else (64, 256, 1024), config=config)


def _gap(quick: bool, config: Optional[RunConfig] = None):
    return exp_exponential_gap(
        measured_sizes=(16,) if quick else (16, 32, 64),
        seeds=(31,) if quick else (31, 32), config=config,
    )


def _sens(quick: bool, config: Optional[RunConfig] = None):
    if quick:
        return exp_sensitivity(
            n=12, errors=(0.0, 0.45), seeds=(41,), max_rounds=12_000, config=config
        )
    return exp_sensitivity(config=config)


def _est(quick: bool, config: Optional[RunConfig] = None):
    if quick:
        return exp_estimate_insensitivity(
            q_values=(9,), seeds=(1,), late_factor=150, config=config
        )
    return exp_estimate_insensitivity(config=config)


def _heur(quick: bool, config: Optional[RunConfig] = None):
    if quick:
        return exp_doubling_heuristic(
            n=24, thresholds=(0.75,), seeds=(1,), max_rounds=40_000, config=config
        )
    return exp_doubling_heuristic(config=config)


#: command name -> (description, runner(quick, config=None) -> ExperimentResult)
EXPERIMENTS: Dict[str, tuple] = {
    "fig1": ("Figure 1: type-Γ chains under the three adversaries (fixed; no quick grid)", _fig1),
    "fig2": ("Figure 2: Λ centipede cascade (x=y=0) (fixed; no quick grid)", _fig2),
    "fig3": ("Figure 3: Λ centipede (x=2, y=3) (fixed; no quick grid)", _fig3),
    "thm6": ("Theorem 6: the CFLOOD reduction, end to end", _thm6),
    "thm7": ("Theorem 7: the CONSENSUS reduction at boundary N'", _thm7),
    "thm8": ("Theorem 8: diameter-oblivious leader election", _thm8),
    "ub": ("known-D trivial upper bounds", _ub),
    "cc": ("DISJOINTNESSCP communication vs Theorem 1", _cc),
    "gap": ("the headline exponential gap table", _gap),
    "sens": ("the 1/3 estimate-sensitivity sweep", _sens),
    "heur": ("the doubling-guess CFLOOD heuristic", _heur),
    "est": ("N-estimation insensitivity within the horizon", _est),
}


# --------------------------------------------------------------------------
# shared execution options (PR 10): every command that runs engine work
# declares the same flags through this one helper and resolves them into
# a single RunConfig through config_from_args — no per-command copies.
# --------------------------------------------------------------------------

def add_execution_options(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Install the shared execution flags on ``parser`` and return it."""
    group = parser.add_argument_group("execution options")
    group.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan per-seed runs out over N processes (0 = inline; default: "
        "the REPRO_WORKERS environment variable, else 0); results are "
        "identical at any worker count — see docs/PARALLEL.md",
    )
    group.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=None,
        help="execution backend for engine runs: 'reference' (default) or "
        "'batch' (vectorized, bit-identical on every adversary — see "
        "docs/PERFORMANCE.md); default: the REPRO_BACKEND environment "
        "variable, else 'reference'",
    )
    group.add_argument(
        "--cache",
        choices=list(CACHE_MODES),
        default=None,
        help="content-addressed result cache: 'rw' reads and writes, 'ro' "
        "reads only, 'off' disables; default: the REPRO_CACHE environment "
        "variable, else off — see docs/CACHE.md",
    )
    group.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result-cache location (default: the REPRO_CACHE_DIR "
        "environment variable, else ~/.cache/repro)",
    )
    group.add_argument(
        "--progress",
        dest="progress",
        action="store_true",
        default=None,
        help="stream live progress (done/total, rate, ETA, retry events) "
        "to stderr; default: on when stderr is a TTY",
    )
    group.add_argument(
        "--no-progress",
        dest="progress",
        action="store_false",
        help="disable progress streaming even on a TTY",
    )
    group.add_argument(
        "--stream",
        dest="stream",
        action="store_true",
        default=None,
        help="make the session's events.jsonl crash-safe: fsync every "
        "line, log resource heartbeats and checkpoints (requires "
        "--trace-out); default: the REPRO_STREAM environment variable",
    )
    group.add_argument(
        "--no-stream",
        dest="stream",
        action="store_false",
        help="disable durable streaming even when REPRO_STREAM is set",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The single :class:`RunConfig` behind a parsed command line."""
    return RunConfig(
        workers=getattr(args, "workers", None),
        backend=getattr(args, "backend", None),
        cache=getattr(args, "cache", None),
        cache_dir=getattr(args, "cache_dir", None),
    )


def _render_metrics(session) -> str:
    """A compact text dump of a closed session's aggregate metrics."""
    lines = ["-- metrics --"]
    for key, metric in sorted(session.manifest.metrics.items()):
        if metric.get("type") in ("counter", "gauge"):
            lines.append(f"  {key:<40} {metric['value']}")
        elif metric.get("type") == "histogram":
            lines.append(
                f"  {key:<40} count={metric['count']} sum={metric['sum']:.4f}s "
                f"mean={metric['mean'] * 1e3:.3f}ms"
            )
    lines.append(f"  engine runs: {session.num_runs}")
    return "\n".join(lines)


def _run_inspect(paths: Sequence[str]) -> int:
    if len(paths) != 1:
        print("usage: repro inspect <run.jsonl | session-dir>", file=sys.stderr)
        return 2
    from .obs.inspect import inspect_path

    try:
        report = inspect_path(paths[0])
    except FileNotFoundError:
        print(f"repro inspect: no such file or directory: {paths[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro inspect: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0


def _run_audit(paths: Sequence[str]) -> int:
    if len(paths) != 1:
        print("usage: repro audit <run.jsonl | session-dir>", file=sys.stderr)
        return 2
    from .obs.audit import audit_path, render_audit

    try:
        reports, skipped, code = audit_path(paths[0])
    except FileNotFoundError:
        print(f"repro audit: no such file or directory: {paths[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro audit: {exc}", file=sys.stderr)
        return 2
    print(render_audit(reports, skipped, label=paths[0]))
    return code


def _run_bench_diff(
    paths: Sequence[str],
    threshold: float,
    tolerance_specs: Optional[Sequence[str]] = None,
    fail_on_regression: bool = False,
    window: Optional[int] = None,
) -> int:
    if len(paths) not in (1, 2):
        print(
            "usage: repro bench-diff <old-dir> <new-dir> | <history.jsonl>",
            file=sys.stderr,
        )
        return 2
    from .obs.benchdiff import (
        DEFAULT_WINDOW,
        diff_dirs,
        diff_history,
        parse_tolerances,
        read_history,
        render_diff,
    )

    if len(paths) == 1 and window is None:
        window = DEFAULT_WINDOW
    try:
        options = dict(
            threshold=threshold,
            tolerances=parse_tolerances(list(tolerance_specs or ())),
            fail_on_regression=fail_on_regression,
        )
        if len(paths) == 2:
            diffs, code = diff_dirs(paths[0], paths[1], **options)
        else:
            diffs, code = diff_history(read_history(paths[0]), window, **options)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro bench-diff: {exc}", file=sys.stderr)
        return 2
    if not diffs:
        empty = (
            "no EXP-*.json files in either directory" if len(paths) == 2
            else f"no benchmark records in {paths[0]}"
        )
        print(f"repro bench-diff: {empty}", file=sys.stderr)
        return code
    print(render_diff(diffs, threshold=threshold, window=window))
    return code


def _run_profile(paths: Sequence[str], top: int) -> int:
    if len(paths) != 1:
        print("usage: repro profile <session-dir>", file=sys.stderr)
        return 2
    from .obs.profile import profile_session, render_profile

    try:
        profile = profile_session(paths[0], top_k=top)
    except FileNotFoundError as exc:
        print(f"repro profile: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro profile: {exc}", file=sys.stderr)
        return 2
    print(render_profile(profile, top_k=top))
    return 0


def _run_report(
    paths: Sequence[str], out: Optional[str], baseline: Optional[str], top: int
) -> int:
    if len(paths) != 1 or out is None:
        print(
            "usage: repro report <session-dir> --out report.html "
            "[--baseline DIR]",
            file=sys.stderr,
        )
        return 2
    import pathlib

    from .obs.report import write_report

    try:
        out_path = pathlib.Path(out)
        if out_path.parent != pathlib.Path("."):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        written = write_report(paths[0], out_path, baseline=baseline, top_k=top)
    except FileNotFoundError as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        return 2
    print(f"report: {written}")
    return 0


def _run_tail(
    paths: Sequence[str], poll: float, timeout: float, follow: bool, verbose: bool
) -> int:
    if len(paths) != 1:
        print("usage: repro tail <session-dir>", file=sys.stderr)
        return 2
    import pathlib

    from .obs.tail import tail_session

    try:
        return tail_session(
            pathlib.Path(paths[0]),
            sys.stdout,
            follow=follow,
            poll=poll,
            timeout=timeout,
            verbose=verbose,
        )
    except FileNotFoundError as exc:
        print(f"repro tail: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro tail: {exc}", file=sys.stderr)
        return 2


def _run_cache(action: str, args: argparse.Namespace) -> int:
    """The ``repro cache stats|verify|gc`` maintenance commands."""
    from .cache.store import ResultCache, resolve_cache_dir

    cache = ResultCache(resolve_cache_dir(getattr(args, "cache_dir", None)))
    if action == "stats":
        stats = cache.stats()
        print(f"cache: {stats['root']}")
        print(f"  entries     {stats['entries']}")
        print(f"  total bytes {stats['total_bytes']}")
        print(f"  corrupt     {stats['corrupt']}")
        for kind, count in sorted(stats["by_kind"].items()):
            print(f"  kind {kind:<10} {count}")
        return 0
    if action == "verify":
        return _run_cache_verify(cache, args.sample)
    if action == "gc":
        max_age = None
        if args.max_age_days is not None:
            max_age = args.max_age_days * 86400.0
        report = cache.gc(max_bytes=args.max_bytes, max_age_seconds=max_age)
        print(
            f"cache gc: removed {report['removed']} entr"
            f"{'y' if report['removed'] == 1 else 'ies'}, kept "
            f"{report['kept']}, freed {report['bytes_freed']} bytes"
        )
        return 0
    raise AssertionError(f"unknown cache action {action!r}")  # pragma: no cover


def _run_cache_verify(cache, sample: int) -> int:
    """Re-run up to ``sample`` entries per kind; assert bit-identity."""
    from .cache.runcache import verify_entry

    picked: Dict[str, list] = {}
    for _path, entry in cache.iter_entries():
        if entry is None:  # corrupt: gc's problem, not verify's
            continue
        kind = entry.get("kind", "?")
        bucket = picked.setdefault(kind, [])
        if len(bucket) < sample:
            bucket.append(entry)
    if not picked:
        print("cache verify: cache is empty; nothing to check")
        return 0
    counts = {"ok": 0, "mismatch": 0, "skip": 0}
    for kind in sorted(picked):
        for entry in picked[kind]:
            status, detail = verify_entry(entry)
            counts[status] += 1
            line = f"  {status:<8} {kind:<10} {entry['key'][:16]}"
            if detail:
                line += f"  {detail}"
            print(line)
    print(
        f"cache verify: {counts['ok']} ok, {counts['mismatch']} mismatch, "
        f"{counts['skip']} skipped (no replayable recipe)"
    )
    return 1 if counts["mismatch"] else 0


def _write_metrics_out(session, path: str) -> None:
    import pathlib

    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(session.registry.render_openmetrics())
    print(f"metrics: OpenMetrics exposition -> {out}")


def _run_experiments(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Run one experiment (or 'all') under the parsed execution options."""
    if args.stream and args.trace_out is None:
        parser.error("--stream requires --trace-out (streaming needs a session dir)")

    observing = args.metrics or args.trace_out is not None or args.metrics_out is not None
    run_config = config_from_args(args)
    names = sorted(EXPERIMENTS) if args.exp_names is None else args.exp_names

    progress = args.progress if args.progress is not None else sys.stderr.isatty()

    caching = run_config.resolved_cache() != "off"
    if caching:
        from .cache.store import cache_counters

    def _run(name: str, runner, config) -> "object":
        if not progress:
            return runner(args.quick, config=config)
        from .obs.progress import StderrTicker, progress_scope

        with progress_scope(StderrTicker(sys.stderr, label=name)):
            return runner(args.quick, config=config)

    for name in names:
        _desc, runner = EXPERIMENTS[name]
        before = cache_counters() if caching else None
        if observing:
            from .obs.runtime import observe

            trace_dir = None
            if args.trace_out is not None:
                # one subdirectory per experiment when running several
                trace_dir = args.trace_out if len(names) == 1 else f"{args.trace_out}/{name}"
            with observe(trace_dir=trace_dir, label=name, stream=args.stream) as session:
                result = _run(name, runner, run_config)
            result.attach_session(session)
            print(result.render())
            if args.metrics:
                print(_render_metrics(session))
            if trace_dir is not None:
                print(f"traces: {session.num_runs} run(s) -> {trace_dir}/")
            if args.metrics_out is not None:
                # one file per experiment when running several
                out = args.metrics_out
                if len(names) > 1:
                    import pathlib as _pathlib

                    p = _pathlib.Path(out)
                    out = str(p.with_name(f"{p.stem}-{name}{p.suffix or '.prom'}"))
                _write_metrics_out(session, out)
        else:
            result = _run(name, runner, run_config)
            print(result.render())
        if before is not None:
            after = cache_counters()
            parts = ", ".join(
                f"{k}={after[k] - before[k]}"
                for k in sorted(after)
                if after[k] - before[k]
            )
            print(f"cache: {parts or 'no events'}")
        print()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the paper's experiments (The Cost of Unknown "
        "Diameter in Dynamic Networks, SPAA 2016).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    # shared flag groups, declared once (PR 10)
    exec_parent = add_execution_options(argparse.ArgumentParser(add_help=False))
    run_parent = argparse.ArgumentParser(add_help=False)
    run_parent.add_argument(
        "--quick", action="store_true", help="shrink parameter grids for a fast run"
    )
    run_parent.add_argument(
        "--metrics",
        action="store_true",
        help="observe engine runs and print aggregate metrics/timings",
    )
    run_parent.add_argument(
        "--trace-out",
        metavar="DIR",
        default=None,
        help="persist every engine run as JSONL (plus the events.jsonl "
        "session log) under DIR",
    )
    run_parent.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the session's metrics registry as OpenMetrics text "
        "(implies --metrics; per-experiment suffixes under 'all')",
    )

    for name in sorted(EXPERIMENTS):
        sub = subparsers.add_parser(
            name, parents=[run_parent, exec_parent], help=EXPERIMENTS[name][0]
        )
        sub.set_defaults(func=_run_experiments, exp_names=[name])
    sub = subparsers.add_parser(
        "all", parents=[run_parent, exec_parent], help="run every experiment in turn"
    )
    sub.set_defaults(func=_run_experiments, exp_names=None)

    sub = subparsers.add_parser("list", help="enumerate the experiment commands")
    sub.set_defaults(func=lambda parser, args: _cmd_list())

    sub = subparsers.add_parser(
        "inspect", help="summarize a persisted run file or session directory"
    )
    sub.add_argument("paths", nargs="*", default=[], metavar="PATH")
    sub.set_defaults(func=lambda parser, args: _run_inspect(args.paths))

    sub = subparsers.add_parser(
        "audit", help="replay the proof ledgers of persisted reduction runs"
    )
    sub.add_argument("paths", nargs="*", default=[], metavar="PATH")
    sub.set_defaults(func=lambda parser, args: _run_audit(args.paths))

    sub = subparsers.add_parser(
        "bench-diff",
        help="judge benchmark results: two directories of EXP-*.json "
        "sidecars, or a benchmark history .jsonl",
    )
    sub.add_argument(
        "paths", nargs="*", default=[], metavar="PATH",
        help="OLD_DIR NEW_DIR, or one HISTORY.jsonl",
    )
    sub.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="FRAC",
        help="relative wall-time slow-down treated as a regression (default 0.25)",
    )
    sub.add_argument(
        "--tolerance",
        action="append",
        default=None,
        metavar="NAME=FRAC",
        help="per-metric tolerance overriding --threshold (repeatable; "
        "e.g. wall=0.4, phase[delivery]=0.5, speedup=0.2, optionally "
        "scoped EXP-SUB:speedup=0.2)",
    )
    sub.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="gate mode — additionally fail experiments with no baseline "
        "(only-new)",
    )
    sub.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="K",
        help="history file only: judge each experiment's newest record "
        "against the median of the previous K (default 5)",
    )
    sub.set_defaults(func=_cmd_bench_diff)

    sub = subparsers.add_parser("profile", help="roll up a session's spans")
    sub.add_argument("paths", nargs="*", default=[], metavar="SESSION")
    sub.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="how many hottest cells to show (default 10)",
    )
    sub.set_defaults(func=lambda parser, args: _run_profile(args.paths, args.top))

    sub = subparsers.add_parser(
        "report", help="render a session as one self-contained HTML page"
    )
    sub.add_argument("paths", nargs="*", default=[], metavar="SESSION")
    sub.add_argument(
        "--out", metavar="FILE", default=None, help="the HTML output file (required)"
    )
    sub.add_argument(
        "--baseline",
        metavar="DIR",
        default=None,
        help="a baseline session directory to render deltas against, or a "
        "benchmark history .jsonl for the bench-diff table with trend sparklines",
    )
    sub.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="how many hottest cells to show (default 10)",
    )
    sub.set_defaults(
        func=lambda parser, args: _run_report(
            args.paths, args.out, args.baseline, args.top
        )
    )

    sub = subparsers.add_parser(
        "tail", help="follow a live session's events"
    )
    sub.add_argument("paths", nargs="*", default=[], metavar="SESSION-DIR")
    sub.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="interval between reads of events.jsonl (default 0.2)",
    )
    sub.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="give up after this long without the session appearing or "
        "closing (default 10)",
    )
    sub.add_argument(
        "--no-follow",
        dest="follow",
        action="store_false",
        default=True,
        help="dump the events recorded so far and exit instead of following",
    )
    sub.add_argument(
        "--verbose",
        action="store_true",
        help="also show span closes and resource heartbeats",
    )
    sub.set_defaults(
        func=lambda parser, args: _run_tail(
            args.paths, args.poll, args.timeout, args.follow, args.verbose
        )
    )

    sub = subparsers.add_parser(
        "cache", help="result-cache maintenance: stats, verify, gc"
    )
    sub.add_argument(
        "action",
        choices=["stats", "verify", "gc"],
        help="'stats' summarizes the cache, 'verify' re-runs a sample of "
        "entries from their recipes and asserts bit-identity, 'gc' "
        "prunes by size/age",
    )
    sub.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result-cache location (default: the REPRO_CACHE_DIR "
        "environment variable, else ~/.cache/repro)",
    )
    sub.add_argument(
        "--sample",
        type=int,
        default=3,
        metavar="N",
        help="verify: how many entries per kind to replay (default 3)",
    )
    sub.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="gc: prune oldest entries until the cache fits in BYTES",
    )
    sub.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="gc: prune entries older than DAYS days",
    )
    sub.set_defaults(func=lambda parser, args: _run_cache(args.action, args))

    return parser


def _cmd_list() -> int:
    for name in sorted(EXPERIMENTS):
        print(f"  {name:<6} {EXPERIMENTS[name][0]}")
    return 0


def _cmd_bench_diff(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from .obs.benchdiff import DEFAULT_THRESHOLD

    if args.window is not None and len(args.paths) == 2:
        parser.error("bench-diff: --window applies to a history file, not two directories")
    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    return _run_bench_diff(
        args.paths,
        threshold,
        tolerance_specs=args.tolerance,
        fail_on_regression=args.fail_on_regression,
        window=args.window,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(parser, args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
