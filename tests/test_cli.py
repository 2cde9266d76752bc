"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXPERIMENTS, main


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
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["label"] == "thm8"
        assert manifest["runs"], "at least one engine run persisted"
        run_files = sorted(out_dir.glob("run-*.jsonl"))
        assert len(run_files) == len(manifest["runs"])

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
        # manifest.json names a run file that was never written
        session = tmp_path / "partial"
        session.mkdir()
        (session / "manifest.json").write_text(
            json.dumps(
                {
                    "label": "x",
                    "runs": [
                        {
                            "seed": 1,
                            "num_nodes": 4,
                            "adversary": "x",
                            "trace_file": "run-0001.jsonl",
                        }
                    ],
                }
            )
        )
        assert main(["inspect", str(session)]) == 2
        err = capsys.readouterr().err
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

    def test_audit_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "run-0001.jsonl"
        bad.write_text('{"type": "round"}\n')
        assert main(["audit", str(bad)]) == 2
        assert "repro audit:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["inspect", "audit", "profile", "report"])
    @pytest.mark.parametrize("runs", [[5], 5], ids=["list-of-int", "int"])
    def test_malformed_manifest_runs_exit_2(self, tmp_path, capsys, command, runs):
        session = tmp_path / "session"
        session.mkdir()
        (session / "manifest.json").write_text(json.dumps({"label": "x", "runs": runs}))
        argv = [command, str(session)]
        if command == "report":
            argv += ["--out", str(tmp_path / "report.html")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"repro {command}:" in err and "'runs' must be a list of objects" in err

    @pytest.mark.parametrize("command", ["bench-history", "report"])
    @pytest.mark.parametrize(
        "record, field",
        [
            ({"timings": 5}, "'timings'"),
            ({"timings": {"phase_seconds": 5}}, "'timings.phase_seconds'"),
            ({"summary": [1]}, "'summary'"),
        ],
        ids=["timings", "phase_seconds", "summary"],
    )
    def test_malformed_history_record_exit_2(self, tmp_path, capsys, command, record, field):
        hist = tmp_path / "history.jsonl"
        hist.write_text(_history_line(1.0, 0) + "\n"
                        + json.dumps({"exp_id": "EXP-X", **record}) + "\n")
        if command == "bench-history":
            argv = ["bench-history", str(hist)]
        else:
            session = tmp_path / "session"
            session.mkdir()
            (session / "manifest.json").write_text(json.dumps({"label": "x", "runs": []}))
            argv = ["report", str(session), "--out", str(tmp_path / "r.html"),
                    "--baseline", str(hist)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"repro {command}:" in err
        assert f"{hist}: line 2: field {field} must be an object" in err

    @pytest.mark.parametrize("command", ["profile", "report"])
    @pytest.mark.parametrize(
        "span",
        [{"type": "span"}, {"type": "span", "span_id": 1, "tags": 5},
         {"type": "span", "span_id": "z"}],
        ids=["no-span-id", "tags-not-object", "span-id-not-int"],
    )
    def test_malformed_span_line_exit_2(self, tmp_path, capsys, command, span):
        session = tmp_path / "session"
        session.mkdir()
        (session / "manifest.json").write_text(json.dumps({"label": "x", "runs": []}))
        head = {"type": "manifest", "format_version": 3, "label": "x", "spans": 1}
        (session / "spans.jsonl").write_text(
            json.dumps(head) + "\n" + json.dumps(span) + "\n"
        )
        argv = [command, str(session)]
        if command == "report":
            argv += ["--out", str(tmp_path / "report.html")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"repro {command}: {session / 'spans.jsonl'}: malformed span line (line 2)" in err

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
    """PR 7 surface: --stream, tail, and bench-history."""

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
        assert "run-complete" in types
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["events_file"] == "events.jsonl"
        assert manifest["provenance"]["hostname"]

    def test_no_stream_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM", "1")
        out_dir = tmp_path / "sess"
        assert main(["fig1", "--trace-out", str(out_dir), "--no-stream"]) == 0
        capsys.readouterr()
        assert not (out_dir / "events.jsonl").exists()

    def test_inspect_shows_provenance(self, tmp_path, capsys):
        out_dir = tmp_path / "sess"
        assert main(["thm6", "--quick", "--trace-out", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "provenance:" in out and "host=" in out

    def test_tail_closed_session(self, tmp_path, capsys):
        out_dir = tmp_path / "sess"
        assert main(["thm6", "--quick", "--trace-out", str(out_dir),
                     "--stream", "--no-progress"]) == 0
        capsys.readouterr()
        assert main(["tail", str(out_dir), "--no-follow"]) == 0
        out = capsys.readouterr().out
        assert "closed cleanly" in out

    def test_tail_unstreamed_directory_exits_two(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path), "--no-follow"]) == 2
        assert "REPRO_STREAM" in capsys.readouterr().err

    def test_tail_without_path_errors(self, capsys):
        assert main(["tail"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_window_rejected_off_bench_history(self, capsys):
        with pytest.raises(SystemExit):
            main(["thm6", "--window", "3"])
        assert "--window" in capsys.readouterr().err


def _history_line(wall, t):
    return json.dumps({
        "exp_id": "EXP-X", "unix_time": t, "provenance": {},
        "backend": "reference", "timings": {"wall_seconds": wall},
        "summary": {"n": 4},
    })


class TestCliBenchHistory:
    def test_steady_history_exits_zero(self, tmp_path, capsys):
        hist = tmp_path / "history.jsonl"
        hist.write_text("\n".join(_history_line(1.0, t) for t in range(5)) + "\n")
        assert main(["bench-history", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "EXP-X" in out and "ok" in out

    def test_injected_regression_exits_one(self, tmp_path, capsys):
        hist = tmp_path / "history.jsonl"
        lines = [_history_line(1.0, t) for t in range(3)]
        lines.append(_history_line(2.0, 3))  # synthetic 2x slow-down
        hist.write_text("\n".join(lines) + "\n")
        assert main(["bench-history", str(hist)]) == 1
        out = capsys.readouterr().out
        assert "regression" in out

    def test_threshold_tolerates_regression(self, tmp_path, capsys):
        hist = tmp_path / "history.jsonl"
        lines = [_history_line(1.0, t) for t in range(3)]
        lines.append(_history_line(2.0, 3))
        hist.write_text("\n".join(lines) + "\n")
        assert main(["bench-history", str(hist), "--threshold", "1.5"]) == 0

    def test_empty_history_exits_two(self, tmp_path, capsys):
        hist = tmp_path / "history.jsonl"
        hist.write_text("")
        assert main(["bench-history", str(hist)]) == 2
        assert "no benchmark records" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["bench-history", str(tmp_path / "nope.jsonl")]) == 2
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
