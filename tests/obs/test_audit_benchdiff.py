"""``repro audit`` / ``repro bench-diff``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.audit import audit_path, render_audit, resolve_run_files
from repro.obs.benchdiff import DEFAULT_THRESHOLD, diff_dirs, render_diff


def _exp_json(exp_id, rows, summary=None, wall=None, phases=None, cpu=None):
    timings = {}
    if wall is not None:
        timings = {
            "wall_seconds": wall,
            "engine_runs": 1,
            "phase_seconds": phases or {},
        }
    if cpu is not None:
        timings["cpu_seconds"] = cpu
    return {
        "exp_id": exp_id,
        "title": exp_id,
        "headers": ["a", "b"],
        "rows": rows,
        "summary": summary or {},
        "notes": [],
        "timings": timings,
    }


def _write_dir(path, payloads):
    path.mkdir(parents=True, exist_ok=True)
    for payload in payloads:
        (path / f"{payload['exp_id']}.json").write_text(json.dumps(payload))


class TestBenchDiff:
    def test_identical_dirs_are_ok(self, tmp_path):
        data = [_exp_json("EXP-X1", [[1, 2]], wall=1.0)]
        _write_dir(tmp_path / "old", data)
        _write_dir(tmp_path / "new", data)
        diffs, code = diff_dirs(tmp_path / "old", tmp_path / "new")
        assert code == 0
        assert [d.status for d in diffs] == ["ok"]

    def test_row_drift_flags_and_fails(self, tmp_path):
        _write_dir(tmp_path / "old", [_exp_json("EXP-X1", [[1, 2]], {"s": 3})])
        _write_dir(tmp_path / "new", [_exp_json("EXP-X1", [[1, 9]], {"s": 4})])
        diffs, code = diff_dirs(tmp_path / "old", tmp_path / "new")
        assert code == 1
        assert diffs[0].status == "drift"
        joined = " ".join(diffs[0].details)
        assert "row 0 col 1" in joined and "summary[s]" in joined

    def test_wall_regression_flags(self, tmp_path):
        _write_dir(tmp_path / "old", [_exp_json("EXP-X1", [[1]], wall=1.0)])
        _write_dir(tmp_path / "new", [_exp_json("EXP-X1", [[1]], wall=2.0)])
        diffs, code = diff_dirs(tmp_path / "old", tmp_path / "new")
        assert code == 1
        assert diffs[0].status == "regression"
        assert "wall" in diffs[0].details[0]

    def test_speedup_and_noise_are_ok(self, tmp_path):
        _write_dir(
            tmp_path / "old",
            [
                _exp_json("EXP-F", [[1]], wall=2.0),  # gets faster
                _exp_json("EXP-N", [[1]], wall=0.004),  # too small to judge
            ],
        )
        _write_dir(
            tmp_path / "new",
            [
                _exp_json("EXP-F", [[1]], wall=1.0),
                _exp_json("EXP-N", [[1]], wall=0.040),  # 10x but sub-MIN_SECONDS
            ],
        )
        diffs, code = diff_dirs(tmp_path / "old", tmp_path / "new")
        assert code == 0
        assert [d.status for d in diffs] == ["improved", "ok"]
        assert diffs[0].details == ["wall: 2.000s -> 1.000s (-50%)"]

    def test_cpu_regression_flags(self, tmp_path):
        _write_dir(tmp_path / "old", [_exp_json("EXP-X1", [[1]], wall=1.0, cpu=2.0)])
        _write_dir(tmp_path / "new", [_exp_json("EXP-X1", [[1]], wall=1.0, cpu=3.5)])
        diffs, code = diff_dirs(tmp_path / "old", tmp_path / "new",
                                tolerances={"cpu": 0.60})
        assert code == 1
        assert diffs[0].status == "regression"
        assert diffs[0].details == ["cpu: 2.000s -> 3.500s (+75%)"]

    def test_cpu_under_the_floor_is_skipped(self, tmp_path):
        _write_dir(tmp_path / "old", [_exp_json("EXP-X1", [[1]], wall=1.0, cpu=0.004)])
        _write_dir(tmp_path / "new", [_exp_json("EXP-X1", [[1]], wall=1.0, cpu=0.040)])
        diffs, code = diff_dirs(tmp_path / "old", tmp_path / "new")
        assert code == 0
        assert diffs[0].status == "ok" and diffs[0].details == []

    def test_threshold_is_respected(self, tmp_path):
        _write_dir(tmp_path / "old", [_exp_json("EXP-X1", [[1]], wall=1.0)])
        _write_dir(tmp_path / "new", [_exp_json("EXP-X1", [[1]], wall=1.2)])
        _, code_strict = diff_dirs(tmp_path / "old", tmp_path / "new", threshold=0.1)
        _, code_loose = diff_dirs(tmp_path / "old", tmp_path / "new", threshold=0.5)
        assert code_strict == 1 and code_loose == 0

    def test_only_old_fails_only_new_passes(self, tmp_path):
        _write_dir(tmp_path / "old", [_exp_json("EXP-A", [[1]])])
        _write_dir(tmp_path / "new", [_exp_json("EXP-B", [[1]])])
        diffs, code = diff_dirs(tmp_path / "old", tmp_path / "new")
        statuses = {d.exp_id: d.status for d in diffs}
        assert statuses == {"EXP-A": "only-old", "EXP-B": "only-new"}
        assert code == 1  # a vanished experiment is a failure

        (tmp_path / "old" / "EXP-A.json").unlink()
        _write_dir(tmp_path / "old", [_exp_json("EXP-B", [[1]])])
        diffs, code = diff_dirs(tmp_path / "old", tmp_path / "new")
        assert code == 0  # a brand-new experiment alone is not

    def test_render_mentions_failures(self, tmp_path):
        _write_dir(tmp_path / "old", [_exp_json("EXP-X1", [[1, 2]])])
        _write_dir(tmp_path / "new", [_exp_json("EXP-X1", [[1, 3]])])
        diffs, _ = diff_dirs(tmp_path / "old", tmp_path / "new")
        text = render_diff(diffs, threshold=DEFAULT_THRESHOLD)
        assert "EXP-X1" in text and "drift" in text and "totals:" in text

    def test_empty_dirs_exit_2(self, tmp_path):
        (tmp_path / "old").mkdir()
        (tmp_path / "new").mkdir()
        diffs, code = diff_dirs(tmp_path / "old", tmp_path / "new")
        assert diffs == [] and code == 2

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            diff_dirs(tmp_path / "absent", tmp_path / "absent2")

    @staticmethod
    def _with_headers(rows, headers):
        data = _exp_json("EXP-X1", rows)
        data["headers"] = headers
        return data

    def test_removed_volatile_column_is_one_note(self, tmp_path):
        old = self._with_headers([[1, 0.5, 2], [3, 0.7, 4]], ["a", "vector s", "b"])
        new = self._with_headers([[1, 2], [3, 4]], ["a", "b"])
        _write_dir(tmp_path / "old", [old])
        _write_dir(tmp_path / "new", [new])
        diffs, code = diff_dirs(tmp_path / "old", tmp_path / "new")
        assert code == 0
        assert diffs[0].status == "ok" and diffs[0].details == []
        assert diffs[0].notes == ["column 'vector s' only in the old file"]

    def test_changed_cell_beside_removed_column_is_drift(self, tmp_path):
        old = self._with_headers([[1, 0.5, 2], [3, 0.7, 4]], ["a", "vector s", "b"])
        new = self._with_headers([[1, 9], [3, 4]], ["a", "b"])
        _write_dir(tmp_path / "old", [old])
        _write_dir(tmp_path / "new", [new])
        diffs, code = diff_dirs(tmp_path / "old", tmp_path / "new")
        assert code == 1
        assert diffs[0].status == "drift"
        assert diffs[0].details == ["row 0 col 1 ('b'): 2 -> 9"]

    def test_removed_result_column_is_drift_once(self, tmp_path):
        old = self._with_headers([[1, 2], [3, 4], [5, 6]], ["a", "b"])
        new = self._with_headers([[1], [3], [5]], ["a"])
        _write_dir(tmp_path / "old", [old])
        _write_dir(tmp_path / "new", [new])
        diffs, code = diff_dirs(tmp_path / "old", tmp_path / "new")
        assert code == 1
        assert diffs[0].details == ["column 'b' only in the old file"]


@pytest.mark.slow
class TestCliIntegration:
    def test_thm6_trace_then_audit_ok(self, tmp_path, capsys):
        trace = tmp_path / "t6"
        assert main(["thm6", "--quick", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["audit", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "all ok" in out
        assert "spoiled[alice]" in out and "cut bits" in out
        assert "divergence[" in out

    def test_audit_single_run_file(self, tmp_path, capsys):
        trace = tmp_path / "t6"
        assert main(["thm6", "--quick", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        runs = resolve_run_files(trace)
        assert runs  # manifest-ordered
        assert main(["audit", str(runs[0])]) == 0

    def test_audit_engine_only_session_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "fig1"
        assert main(["fig1", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["audit", str(trace)]) == 2
        assert "nothing to audit" in capsys.readouterr().out
        # reused after a thm6 session: its reduction runs are gone too
        reused = tmp_path / "reused"
        assert main(["thm6", "--quick", "--trace-out", str(reused)]) == 0
        assert main(["fig1", "--trace-out", str(reused)]) == 0
        assert [p.name for p in reused.iterdir()] == ["events.jsonl"]
        capsys.readouterr()
        assert main(["audit", str(reused)]) == 2
        assert "nothing to audit" in capsys.readouterr().out

    def test_audit_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "nope")]) == 2

    def test_report_session_directory(self, tmp_path, capsys):
        trace = tmp_path / "t6"
        assert main(["thm6", "--quick", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "session:" in out and "reduction" in out
        assert "run-0001.jsonl" in out

    def test_bench_diff_cli(self, tmp_path, capsys):
        _write_dir(tmp_path / "old", [_exp_json("EXP-X1", [[1, 2]])])
        _write_dir(tmp_path / "new", [_exp_json("EXP-X1", [[1, 2]])])
        assert main(["bench-diff", str(tmp_path / "old"), str(tmp_path / "new")]) == 0
        assert "ok" in capsys.readouterr().out
        (tmp_path / "new" / "EXP-X1.json").write_text(
            json.dumps(_exp_json("EXP-X1", [[1, 3]]))
        )
        assert main(["bench-diff", str(tmp_path / "old"), str(tmp_path / "new")]) == 1

    def test_bench_diff_wrong_arity(self, capsys):
        assert main(["bench-diff", "just-one"]) == 2

    @pytest.mark.parametrize(
        "field,value,named",
        [("rows", 5, "rows"), ("rows", [5], "rows"), ("headers", "ab", "headers"),
         ("headers", [1], "headers"), ("summary", [1], "summary"),
         ("timings", 3, "timings"),
         ("timings", {"wall_seconds": "2.0"}, "timings.wall_seconds"),
         ("timings", {"cpu_seconds": [2.0]}, "timings.cpu_seconds"),
         ("timings", {"phase_seconds": ["actions"]}, "timings.phase_seconds"),
         ("timings", {"speedup": "3x"}, "timings.speedup")],
        ids=["rows-int", "rows-flat", "headers-str", "headers-ints",
             "summary-list", "timings-int", "wall-str", "cpu-list", "phases-list",
             "speedup-str"],
    )
    def test_bench_diff_malformed_field_exits_2(self, tmp_path, capsys, field, value,
                                                named):
        bad = _exp_json("EXP-X1", [[1, 2]])
        bad[field] = value
        _write_dir(tmp_path / "old", [_exp_json("EXP-X1", [[1, 2]], wall=1.0)])
        _write_dir(tmp_path / "new", [bad])
        assert main(["bench-diff", str(tmp_path / "old"), str(tmp_path / "new")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "EXP-X1.json" in err and f"field {named!r}" in err

    def test_paths_rejected_for_experiments(self):
        with pytest.raises(SystemExit):
            main(["thm6", "some/path"])

    def test_render_audit_label(self, tmp_path, capsys):
        trace = tmp_path / "t6"
        assert main(["thm6", "--quick", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        reports, skipped, _ = audit_path(trace)
        text = render_audit(reports, skipped, label="mylabel")
        assert text.startswith("auditing mylabel")
