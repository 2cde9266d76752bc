"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXPERIMENTS, main
from repro.obs.stream import load_session


def _write_log(directory, *events):
    """A session directory whose log holds a well-formed header and then
    ``events`` (dicts, or raw lines)."""
    directory.mkdir(exist_ok=True)
    head = {"type": "stream-start", "format_version": 2, "seq": 1,
            "elapsed": 0.0, "label": "x"}
    (directory / "events.jsonl").write_text(
        "".join(e if isinstance(e, str) else json.dumps(e) + "\n"
                for e in (head, *events))
    )
    return directory / "events.jsonl"


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "EXP-F1" in out and "reference" in out

    @pytest.mark.slow
    @pytest.mark.parametrize("command", sorted(EXPERIMENTS))
    def test_quick_on_every_command(self, command, capsys):
        """--quick must be accepted (and not crash) on every command.

        The figure commands regenerate fixed constructions — --quick is
        a documented no-op there; every other command shrinks its grid.
        """
        assert main([command, "--quick"]) == 0
        out = capsys.readouterr().out
        assert "EXP-" in out

    def test_quick_thm6(self, capsys):
        assert main(["thm6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "EXP-T6" in out

    def test_quick_thm7(self, capsys):
        assert main(["thm7", "--quick"]) == 0
        assert "EXP-T7" in capsys.readouterr().out

    def test_quick_cc(self, capsys):
        assert main(["cc", "--quick"]) == 0
        assert "Thm1 bound" in capsys.readouterr().out

    def test_cache_rerun_is_served_and_verifies(self, tmp_path, capsys):
        """A second identical run is all cache hits with the same table,
        and `repro cache verify` re-executes the stored recipes."""
        argv = ["thm6", "--quick", "--no-progress", "--cache", "rw",
                "--cache-dir", str(tmp_path)]

        def run():
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            cache = [line for line in lines if line.startswith("cache:")]
            table = [line for line in lines
                     if line and not line.startswith(("cache:", "timing:"))]
            assert len(cache) == 1
            return table, cache[0]

        cold_table, cold_cache = run()
        warm_table, warm_cache = run()
        assert "store=" in cold_cache
        assert warm_table == cold_table
        assert "hit=" in warm_cache
        assert "store=" not in warm_cache and "miss=" not in warm_cache
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        assert ", 0 mismatch," in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_every_registered_runner_is_callable(self):
        for name, (desc, runner) in EXPERIMENTS.items():
            assert callable(runner) and desc

    def test_figures_document_no_quick_grid(self):
        for name in ("fig1", "fig2", "fig3"):
            assert "no quick grid" in EXPERIMENTS[name][0]


class TestCliObservability:
    def test_metrics_flag_prints_aggregates(self, capsys):
        assert main(["thm8", "--quick", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "-- metrics --" in out
        assert "rounds_total" in out
        assert "phase_seconds{phase=actions}" in out
        assert "timing:" in out  # the ExperimentResult timing sidecar

    def test_trace_out_writes_manifest_and_runs(self, tmp_path, capsys):
        out_dir = tmp_path / "thm8"
        assert main(["thm8", "--quick", "--trace-out", str(out_dir), "--metrics"]) == 0
        capsys.readouterr()
        manifest = load_session(out_dir).manifest
        assert manifest.label == "thm8"
        assert manifest.runs, "at least one engine run persisted"
        run_files = sorted(out_dir.glob("run-*.jsonl"))
        assert len(run_files) == len(manifest.runs)

        # acceptance: inspect reports rounds / bits / per-node bits and a
        # phase breakdown summing to within 10% of the run's wall time
        from repro.obs.inspect import inspect_run

        report = inspect_run(run_files[0])
        assert report.rounds > 0
        assert report.total_bits > 0
        assert report.bits_by_node
        assert sum(report.bits_by_node.values()) == report.total_bits
        assert report.wall_seconds is not None
        assert sum(report.phase_seconds.values()) >= 0.9 * report.wall_seconds
        assert report.diameter is not None

    def test_inspect_command(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["thm8", "--quick", "--trace-out", str(out_dir)]) == 0
        capsys.readouterr()
        run_file = sorted(out_dir.glob("run-*.jsonl"))[0]
        assert main(["inspect", str(run_file)]) == 0
        out = capsys.readouterr().out
        assert "rounds" in out
        assert "total bits" in out
        assert "realized dynamic D" in out
        assert "phase timing" in out

    def test_inspect_without_path_errors(self, capsys):
        assert main(["inspect"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_inspect_missing_file_errors(self, capsys):
        assert main(["inspect", "no/such/run.jsonl"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_path_rejected_for_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["thm6", "some/file.jsonl"])


class TestCliEdgeCases:
    """Malformed inputs must exit 2 with a message, never a traceback."""

    def test_inspect_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["inspect", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "not an observation session directory" in err

    def test_inspect_partial_session(self, tmp_path, capsys):
        # a closed session's log names a run file that was never written
        session = tmp_path / "partial"
        run = {"seed": 1, "num_nodes": 4, "adversary": "x",
               "trace_file": "run-0001.jsonl"}
        _write_log(session, {"type": "run-complete", "run": run},
                   {"type": "session-close", "runs": 1})
        assert main(["inspect", str(session)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "run-0001.jsonl is listed in events.jsonl" in err
        assert "partial or truncated session" in err

    def test_inspect_malformed_round_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"type": "manifest", "format_version": 2, "num_nodes": 2, '
            '"seed": 1, "adversary": "x"}\n'
            '{"type": "round"}\n'
            '{"type": "summary"}\n'
        )
        assert main(["inspect", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "malformed round line" in err

    def test_inspect_non_jsonl_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert main(["inspect", str(bad)]) == 2
        assert "not valid JSONL" in capsys.readouterr().err

    def test_audit_ledger_missing_format_version(self, tmp_path, capsys):
        bad = tmp_path / "run-0001.jsonl"
        bad.write_text(
            '{"type": "manifest", "kind": "reduction", "num_nodes": 10, '
            '"seed": 1, "adversary": "x"}\n'
            '{"type": "ledger", "kind": "spoiled", "party": "alice", '
            '"round": 1, "count": 0, "budget": 3, "ok": true}\n'
            '{"type": "summary"}\n'
        )
        assert main(["audit", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "format_version" in err
        # a version this reader does not know, or cannot compare, is refused too
        for version, message in (
            ("99", "format_version 99 is newer than this reader (2)"),
            ('"2"', "field 'format_version' must be an integer, got str"),
        ):
            other = tmp_path / "run-0002.jsonl"
            other.write_text(bad.read_text().replace(
                '"kind"', f'"format_version": {version}, "kind"', 1))
            assert main(["audit", str(other)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert f"{other}: {message}" in err

    def test_audit_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "run-0001.jsonl"
        bad.write_text('{"type": "round"}\n')
        assert main(["audit", str(bad)]) == 2
        assert "repro audit:" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["file", "dir"])
    @pytest.mark.parametrize(
        "patch, field",
        [
            (lambda m: 5, "'run_metrics' must be an object, got int"),
            (lambda m: dict(m, phase_seconds=[1, 2]),
             "'run_metrics.phase_seconds' must be an object, got list"),
            (lambda m: dict(m, phase_seconds={"actions": "x"}),
             "'run_metrics.phase_seconds.actions' must be a number, got str"),
            (lambda m: dict(m, wall_seconds="x"),
             "'run_metrics.wall_seconds' must be a number, got str"),
        ],
        ids=["int", "phase-list", "phase-str", "wall-str"],
    )
    def test_inspect_malformed_run_metrics(self, tmp_path, capsys, patch, field, target):
        from repro.network.adversaries import StaticAdversary
        from repro.network.generators import line_edges
        from repro.obs import observe
        from repro.protocols.flooding import TokenFloodNode
        from repro.sim import CoinSource, SynchronousEngine

        ids = [0, 1, 2]
        session = tmp_path / "session"
        with observe(trace_dir=session):
            SynchronousEngine(
                {u: TokenFloodNode(u, source=0) for u in ids},
                StaticAdversary(ids, line_edges(ids)),
                CoinSource(1),
            ).run(3, stop_on_termination=False)
        run_file = session / "run-0001.jsonl"
        lines = run_file.read_text().splitlines()
        summary = json.loads(lines[-1])
        summary["run_metrics"] = patch(summary["run_metrics"])
        lines[-1] = json.dumps(summary)
        run_file.write_text("\n".join(lines) + "\n")
        path = run_file if target == "file" else session
        assert main(["inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"repro inspect: {run_file}: line {len(lines)}: field {field}" in err

    @pytest.mark.parametrize("command", ["inspect", "audit", "profile", "report"])
    @pytest.mark.parametrize("runs", [[5], 5], ids=["list-of-int", "int"])
    def test_malformed_manifest_runs_exit_2(self, tmp_path, capsys, command, runs):
        session = tmp_path / "session"
        log = _write_log(session, {"type": "run-complete", "run": runs})
        argv = [command, str(session)]
        if command == "report":
            argv += ["--out", str(tmp_path / "report.html")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"repro {command}: {log}: line 2: field 'run' must be an object" in err

    @pytest.mark.parametrize("command", ["inspect", "profile", "report", "baseline"])
    @pytest.mark.parametrize("event", ["session-close", "checkpoint"])
    def test_non_object_metrics_entry_read_as_absent(self, tmp_path, capsys,
                                                     command, event):
        session = tmp_path / "session"
        counter = {"type": "counter", "value": 3}
        _write_log(session, {"type": event, "elapsed": 0.5, "wall_seconds": 0.5,
                             "metrics": {"rounds_total": 5, "bits_total": counter}})
        assert load_session(session).manifest.metrics == {"bits_total": counter}
        out = tmp_path / "report.html"
        argv = {
            "inspect": ["inspect", str(session)],
            "profile": ["profile", str(session)],
            "report": ["report", str(session), "--out", str(out)],
            "baseline": ["report", str(session), "--out", str(out),
                         "--baseline", str(session)],
        }[command]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        if command == "baseline":
            assert "bits_total" in out.read_text()
            assert "rounds_total" not in out.read_text()

    @pytest.mark.parametrize("command", ["bench-diff", "report"])
    @pytest.mark.parametrize(
        "record, field",
        [
            ({"timings": 5}, "'timings' must be an object"),
            ({"timings": {"phase_seconds": 5}}, "'timings.phase_seconds' must be an object"),
            ({"summary": [1]}, "'summary' must be an object"),
            ({"timings": {"wall_seconds": "2.0"}}, "'timings.wall_seconds' must be a number"),
            ({"timings": {"phase_seconds": ["actions"]}},
             "'timings.phase_seconds' must be an object"),
            ({"provenance": "host"}, "'provenance' must be an object"),
        ],
        ids=["timings", "phase_seconds", "summary", "wall-str", "phases-list",
             "provenance-str"],
    )
    def test_malformed_history_record_exit_2(self, tmp_path, capsys, command, record, field):
        hist = tmp_path / "history.jsonl"
        hist.write_text(_history_line(1.0, 0) + "\n"
                        + json.dumps({"exp_id": "EXP-X", **record}) + "\n")
        if command == "bench-diff":
            argv = ["bench-diff", str(hist)]
        else:
            session = tmp_path / "session"
            _write_log(session, {"type": "session-close", "runs": 0})
            argv = ["report", str(session), "--out", str(tmp_path / "r.html"),
                    "--baseline", str(hist)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"repro {command}:" in err
        assert f"{hist}: line 2: field {field}" in err

    @pytest.mark.parametrize("command", ["profile", "report"])
    @pytest.mark.parametrize(
        "span, field",
        [({"type": "span"}, "'span.span_id' is missing"),
         ({"type": "span", "span_id": 1, "tags": 5},
          "'span.tags' must be an object, got int"),
         ({"type": "span", "span_id": "z"},
          "'span.span_id' must be an integer, got str")],
        ids=["no-span-id", "tags-not-object", "span-id-not-int"],
    )
    def test_malformed_span_line_exit_2(self, tmp_path, capsys, command, span, field):
        session = tmp_path / "session"
        log = _write_log(session, {"type": "span-close", "span": span})
        argv = [command, str(session)]
        if command == "report":
            argv += ["--out", str(tmp_path / "report.html")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"repro {command}: {log}: line 2: field {field}" in err

    def test_bench_diff_non_object_json(self, tmp_path, capsys):
        old = tmp_path / "old"
        new = tmp_path / "new"
        for d in (old, new):
            d.mkdir()
            (d / "EXP-X.json").write_text("[1, 2, 3]\n")
        assert main(["bench-diff", str(old), str(new)]) == 2
        assert "expected a JSON object" in capsys.readouterr().err

    def test_bench_diff_missing_key_is_reported_not_raised(self, tmp_path, capsys):
        old = tmp_path / "old"
        new = tmp_path / "new"
        for d in (old, new):
            d.mkdir()
        payload = {"exp_id": "EXP-A", "rows": [], "summary": {}, "timings": {}}
        (old / "EXP-A.json").write_text(json.dumps(payload))
        # EXP-A vanished from the new run: exit 1 with an only-old row
        assert main(["bench-diff", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "only-old" in out and "EXP-A" in out

    def test_bench_diff_renamed_key_shows_both_sides(self, tmp_path, capsys):
        old = tmp_path / "old"
        new = tmp_path / "new"
        for d in (old, new):
            d.mkdir()
        (old / "EXP-A.json").write_text(
            json.dumps({"exp_id": "EXP-A", "rows": [], "summary": {}})
        )
        (new / "EXP-B.json").write_text(
            json.dumps({"exp_id": "EXP-B", "rows": [], "summary": {}})
        )
        assert main(["bench-diff", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "only-old" in out and "only-new" in out


class TestCliStreaming:
    """The streaming surface: --stream, tail, and bench-diff's --window."""

    def test_stream_requires_trace_out(self, capsys):
        with pytest.raises(SystemExit):
            main(["thm6", "--quick", "--stream"])
        assert "--stream requires --trace-out" in capsys.readouterr().err

    def test_stream_writes_events_and_links_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "sess"
        assert main(["thm6", "--quick", "--trace-out", str(out_dir),
                     "--stream", "--no-progress"]) == 0
        capsys.readouterr()
        events = [
            json.loads(line)
            for line in (out_dir / "events.jsonl").read_text().splitlines()
        ]
        types = [e["type"] for e in events]
        assert types[0] == "stream-start" and types[-1] == "session-close"
        assert "run-complete" in types and "checkpoint" in types
        assert events[0]["label"] == "thm6"
        assert events[0]["provenance"]["hostname"]
        assert events[-1]["metrics"]

    def test_no_stream_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM", "1")
        out_dir = tmp_path / "sess"
        assert main(["thm6", "--quick", "--trace-out", str(out_dir),
                     "--no-stream", "--no-progress"]) == 0
        capsys.readouterr()
        types = {json.loads(line)["type"]
                 for line in (out_dir / "events.jsonl").read_text().splitlines()}
        assert "run-complete" in types
        assert not types & {"checkpoint", "heartbeat"}

    def test_inspect_shows_provenance(self, tmp_path, capsys):
        out_dir = tmp_path / "sess"
        assert main(["thm6", "--quick", "--trace-out", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "provenance:" in out and "host=" in out

    def test_tail_closed_session(self, tmp_path, capsys):
        for flag in ("--stream", "--no-stream"):
            out_dir = tmp_path / flag
            assert main(["thm6", "--quick", "--trace-out", str(out_dir),
                         flag, "--no-progress"]) == 0
            capsys.readouterr()
            assert main(["tail", str(out_dir), "--no-follow"]) == 0
            out = capsys.readouterr().out
            assert "closed cleanly" in out

    def test_tail_unstreamed_directory_exits_two(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path), "--no-follow"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no events.jsonl" in err

    def test_tail_without_path_errors(self, capsys):
        assert main(["tail"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_window_rejected_with_two_directories(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["thm6", "--window", "3"])
        assert "--window" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["bench-diff", str(tmp_path), str(tmp_path), "--window", "3"])
        assert "--window applies to a history file" in capsys.readouterr().err

    def test_bench_history_command_is_gone(self, tmp_path, capsys):
        # a history file is judged by bench-diff itself
        with pytest.raises(SystemExit) as exc:
            main(["bench-history", str(tmp_path / "history.jsonl")])
        assert exc.value.code == 2
        assert "invalid choice: 'bench-history'" in capsys.readouterr().err


def _history_line(wall, t):
    return json.dumps({
        "exp_id": "EXP-X", "unix_time": t, "provenance": {},
        "backend": "reference", "timings": {"wall_seconds": wall},
        "summary": {"n": 4},
    })


class TestCliBenchHistory:
    """``repro bench-diff HISTORY.jsonl``: the history input shape."""

    def test_steady_history_exits_zero(self, tmp_path, capsys):
        hist = tmp_path / "history.jsonl"
        hist.write_text("\n".join(_history_line(1.0, t) for t in range(5)) + "\n")
        assert main(["bench-diff", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "EXP-X" in out and "ok" in out
        # EXP-SUB's measured speedup moving within tolerance is no drift
        hist.write_text("".join(
            json.dumps({"exp_id": "EXP-SUB", "unix_time": t, "provenance": {"cpu_count": 2},
                        "timings": {"wall_seconds": 25.0},
                        "summary": {"max_speedup": speedup, "cells": 9}}) + "\n"
            for t, speedup in enumerate((4.67, 4.51, 4.80, 4.40))
        ))
        assert main(["bench-diff", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "EXP-SUB" in out and "drift" not in out

    def test_injected_regression_exits_one(self, tmp_path, capsys):
        hist = tmp_path / "history.jsonl"
        lines = [_history_line(1.0, t) for t in range(3)]
        lines.append(_history_line(2.0, 3))  # synthetic 2x slow-down
        hist.write_text("\n".join(lines) + "\n")
        assert main(["bench-diff", str(hist)]) == 1
        out = capsys.readouterr().out
        assert "regression" in out

    def test_threshold_tolerates_regression(self, tmp_path, capsys):
        hist = tmp_path / "history.jsonl"
        lines = [_history_line(1.0, t) for t in range(3)]
        lines.append(_history_line(2.0, 3))
        hist.write_text("\n".join(lines) + "\n")
        assert main(["bench-diff", str(hist), "--threshold", "1.5"]) == 0

    def test_empty_history_exits_two(self, tmp_path, capsys):
        hist = tmp_path / "history.jsonl"
        hist.write_text("")
        assert main(["bench-diff", str(hist)]) == 2
        assert "no benchmark records" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["bench-diff", str(tmp_path / "nope.jsonl")]) == 2
        capsys.readouterr()

    def test_report_baseline_accepts_history_file(self, tmp_path, capsys):
        out_dir = tmp_path / "sess"
        assert main(["thm6", "--quick", "--trace-out", str(out_dir)]) == 0
        capsys.readouterr()
        hist = tmp_path / "history.jsonl"
        hist.write_text("\n".join(_history_line(1.0, t) for t in range(5)) + "\n")
        html = tmp_path / "report.html"
        assert main(["report", str(out_dir), "--out", str(html),
                     "--baseline", str(hist)]) == 0
        capsys.readouterr()
        text = html.read_text()
        assert "EXP-X" in text and "trend" in text.lower()
