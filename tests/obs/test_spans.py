"""Spans, progress, and the session report.

The load-bearing properties:

* **merge equivalence** — a ``REPRO_WORKERS=2`` run reassembles, at
  ingest, into a span tree with exactly the same shape (kind/name
  multiset, single root, no orphans) as the sequential run;
* **zero cost without a session** — no ambient session means ``span``
  yields ``None``, records nothing, and leaves engine results
  bit-identical (trace fingerprints unchanged);
* **v2 compatibility** — a directory of bare run files (a session with
  no spans, like a v2 session's runs) still audits and reports (with
  empty span rollups) cleanly.
"""

from __future__ import annotations

import io
import json
import pathlib
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.adversaries import RandomConnectedAdversary
from repro.obs import observe
from repro.obs.progress import (
    StderrTicker,
    progress_scope,
    report_advance,
    report_begin,
    report_finish,
)
from repro.obs.report import build_report
from repro.obs.runtime import current_session
from repro.obs.spans import current_span, span, span_event
from repro.obs.stream import EVENTS_FILENAME, load_session, read_events_jsonl
from repro.protocols.flooding import GossipMaxNode, TokenFloodNode
from repro.sim.coins import CoinSource
from repro.sim.config import RunConfig
from repro.sim.engine import SynchronousEngine
from repro.sim.factories import BoundNode, Constant, NodeSet
from repro.sim.runner import replicate
from repro.sim.trace import trace_fingerprint


def run_gossip(n=6, rounds=8, seed=5):
    ids = list(range(1, n + 1))
    nodes = {u: GossipMaxNode(u) for u in ids}
    eng = SynchronousEngine(
        nodes, RandomConnectedAdversary(ids, seed=3), CoinSource(seed)
    )
    eng.run(rounds, stop_on_termination=False)
    return eng


def _token_replicate(seeds, workers, backend="reference"):
    ids = tuple(range(6))
    return replicate(
        NodeSet(ids, BoundNode(TokenFloodNode, source=ids[0])),
        Constant(RandomConnectedAdversary(list(ids), seed=7)),
        seeds=seeds,
        config=RunConfig(max_rounds=24, workers=workers, backend=backend),
    )


def _replicate_cell(n, backend):
    """A sweep cell that replicates three seeds on ``backend``."""
    _token_replicate((1, 2, 3), workers=0, backend=backend)
    return {"n": n}


def _shape(spans):
    """Multiset of (kind, name) over the non-event spans."""
    return Counter((sp.kind, sp.name) for sp in spans if sp.kind != "event")


class TestAmbientSpans:
    def test_no_session_yields_none_and_records_nothing(self):
        assert current_session() is None
        with span("cell", "outside") as sp:
            assert sp is None
        assert current_span() is None
        span_event("nothing")  # must not raise

    def test_nesting_parents_and_tags(self):
        with observe() as session:
            with span("sweep", "outer", layers=2) as outer:
                with span("cell", "inner", n=4) as inner:
                    assert current_span() is inner
                    span_event("ping", detail="x")
                assert current_span() is outer
        spans = session.spans.spans
        by_name = {sp.name: sp for sp in spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].tags == {"n": 4}
        assert by_name["outer"].tags == {"layers": 2}
        assert by_name["ping"].kind == "event"
        assert by_name["ping"].parent_id == by_name["inner"].span_id
        assert all(sp.wall_seconds >= 0.0 for sp in spans)

    def test_error_status_on_exception(self):
        with observe() as session:
            with pytest.raises(RuntimeError):
                with span("cell", "boom"):
                    raise RuntimeError("boom")
        (sp,) = session.spans.spans
        assert sp.status == "error"

    def test_engine_runs_synthesize_run_and_phase_spans(self):
        with observe() as session:
            run_gossip(rounds=5)
        spans = session.spans.spans
        kinds = Counter(sp.kind for sp in spans)
        assert kinds["run"] == 1
        assert kinds["phase"] == 5  # the engine's five phases
        run_sp = next(sp for sp in spans if sp.kind == "run")
        assert run_sp.tags["backend"] == "reference"
        assert all(
            sp.parent_id == run_sp.span_id
            for sp in spans
            if sp.kind == "phase"
        )


class TestZeroCostWithoutSession:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_fingerprint_unchanged_by_observation(self, seed):
        bare = run_gossip(seed=seed)
        with observe():
            observed = run_gossip(seed=seed)
        assert trace_fingerprint(bare.trace) == trace_fingerprint(observed.trace)

    def test_replicate_results_unchanged_by_observation(self):
        bare = _token_replicate((1, 2), workers=0)
        with observe() as session:
            observed = _token_replicate((1, 2), workers=0)
        assert [trace_fingerprint(r.trace) for r in bare.runs] == [
            trace_fingerprint(r.trace) for r in observed.runs
        ]
        assert _shape(session.spans.spans)[("replicate", "replicate")] == 1


class TestMergedParallelEqualsSequential:
    """The tentpole property: worker spans graft back losslessly."""

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=2, max_size=4, unique=True,
        )
    )
    def test_replicate_span_tree_shape_identical(self, seeds):
        seeds = tuple(seeds)
        with observe() as seq_session:
            _token_replicate(seeds, workers=0)
        with observe() as par_session:
            _token_replicate(seeds, workers=2)
        seq = seq_session.spans.spans
        par = par_session.spans.spans
        assert _shape(seq) == _shape(par)
        # exact counts: one run + five phases per seed, one replicate root
        kinds = Counter(sp.kind for sp in par)
        assert kinds["replicate"] == 1
        assert kinds["run"] == len(seeds)
        assert kinds["phase"] == 5 * len(seeds)
        for spans in (seq, par):
            ids = {sp.span_id for sp in spans}
            roots = [sp for sp in spans if sp.parent_id is None]
            assert [(r.kind, r.name) for r in roots] == [("replicate", "replicate")]
            assert all(
                sp.parent_id in ids for sp in spans if sp.parent_id is not None
            )
            assert all(sp.wall_seconds >= 0.0 for sp in spans)

    def test_sweep_driver_tree_shape_identical(self, tmp_path):
        from repro.analysis.experiments.protocols import exp_known_d_upper_bounds

        with observe(trace_dir=tmp_path / "seq") as seq_session:
            exp_known_d_upper_bounds(sizes=(8,), seeds=(21,), config=RunConfig(workers=0))
        with observe(trace_dir=tmp_path / "par") as par_session:
            exp_known_d_upper_bounds(sizes=(8,), seeds=(21,), config=RunConfig(workers=2))
        seq = load_session(tmp_path / "seq").spans
        par = load_session(tmp_path / "par").spans
        assert _shape(seq) == _shape(par)
        assert seq_session.num_runs == par_session.num_runs
        roots = [sp for sp in par if sp.parent_id is None]
        assert [(r.kind, r.name) for r in roots] == [("sweep", "EXP-UB")]


class TestPersistence:
    def test_roundtrip_and_format_version(self, tmp_path):
        with observe(trace_dir=tmp_path) as session:
            with span("cell", "c", n=4):
                pass
        header = read_events_jsonl(tmp_path / EVENTS_FILENAME)[0]
        assert header["type"] == "stream-start"
        assert header["format_version"] == 2
        log = load_session(tmp_path)
        assert log.format_version == 2
        assert [sp.as_dict() for sp in log.spans] == [
            sp.as_dict() for sp in session.spans.spans
        ]

    def test_newer_format_version_rejected(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        path.write_text(json.dumps({"type": "stream-start", "format_version": 99}) + "\n")
        with pytest.raises(ValueError, match="format_version 99 is newer"):
            load_session(tmp_path)

    def test_session_writes_spans_sidecar(self, tmp_path):
        """Every span, run and phase spans included, is one span-close line."""
        with observe(trace_dir=tmp_path) as session:
            run_gossip(rounds=4)
        closes = [e for e in read_events_jsonl(tmp_path / EVENTS_FILENAME)
                  if e["type"] == "span-close"]
        assert len(closes) == len(session.spans.spans) == 6
        assert _shape(load_session(tmp_path).spans) == _shape(session.spans.spans)


class TestV2SessionCompat:
    """A directory of bare run files — what a session that recorded no
    spans leaves once its log is gone — keeps working everywhere."""

    @pytest.fixture()
    def v2_session(self, tmp_path):
        with observe(trace_dir=tmp_path):
            run_gossip(rounds=4)
        (tmp_path / EVENTS_FILENAME).unlink()
        return tmp_path

    def test_loads_inspects_audits(self, v2_session):
        from repro.obs.audit import audit_path

        log = load_session(v2_session)
        assert log.partial and log.spans == []
        assert [r.trace_file for r in log.manifest.runs] == ["run-0001.jsonl"]
        report = build_report(v2_session)
        assert "run-0001.jsonl" in report.render()
        # no reduction runs: audit reports "nothing to audit" (2), the
        # same as it would for this session before spans existed
        _reports, skipped, code = audit_path(v2_session)
        assert code == 2
        assert skipped

    def test_profiles_to_empty(self, v2_session):
        profile = build_report(v2_session)
        assert profile.spans == []
        assert "no spans recorded" in profile.render()

    def test_report_renders_without_spans(self, v2_session):
        html = build_report(v2_session).render_html()
        assert "no spans recorded" in html


class TestProfile:
    def test_sweep_attribution_at_least_95_percent(self, tmp_path):
        from repro.analysis.experiments.protocols import exp_known_d_upper_bounds

        with observe(trace_dir=tmp_path):
            exp_known_d_upper_bounds(sizes=(8, 16), seeds=(21,), config=RunConfig(workers=0))
        profile = build_report(tmp_path)
        assert profile.coverage is not None
        assert profile.coverage >= 0.95
        assert profile.hottest_cells
        # one rollup per backend actually used (reference, or batch when
        # the suite runs under REPRO_BACKEND=batch)
        assert profile.by_backend
        assert all(r.count > 0 for r in profile.by_backend.values())
        text = profile.render()
        assert "hottest cells" in text
        assert "coverage:" in text

    def test_self_time_never_exceeds_total(self, tmp_path):
        with observe(trace_dir=tmp_path):
            _token_replicate((1, 2), workers=0)
        profile = build_report(tmp_path)
        for sp in profile.spans:
            if sp.kind == "event":
                continue
            assert 0.0 <= profile.self_seconds[sp.span_id] <= sp.wall_seconds + 1e-9


class TestReport:
    def test_html_is_self_contained(self, tmp_path):
        with observe(trace_dir=tmp_path / "sess"):
            run_gossip(rounds=4)
        html = build_report(tmp_path / "sess").render_html()
        assert html.startswith("<!DOCTYPE html>")
        for forbidden in ("http://", "https://", "<script", "src="):
            assert forbidden not in html
        for section in ("provenance:", "Time by span kind", "Runs"):
            assert section in html

    def test_baseline_deltas_section(self, tmp_path):
        for name in ("base", "cur"):
            with observe(trace_dir=tmp_path / name):
                run_gossip(rounds=4)
        html = build_report(tmp_path / "cur", baseline=tmp_path / "base").render_html()
        assert "Deltas vs baseline" in html
        assert "wall_seconds" in html

    def test_text_report_sections_and_stage_rollup(self, tmp_path):
        from repro.analysis.experiments.protocols import exp_known_d_upper_bounds
        from repro.obs.export import read_trace_jsonl
        from repro.sim.engine import ROUND_STAGES

        with observe(trace_dir=tmp_path / "base"):
            run_gossip(rounds=4)
        with observe(trace_dir=tmp_path / "cur", stream=True, resource_interval=0.01):
            exp_known_d_upper_bounds(sizes=(8,), seeds=(21,), config=RunConfig(workers=0))
            span_event("marker")
            time.sleep(0.2)  # let the sampler log heartbeats
        report = build_report(tmp_path / "cur", baseline=tmp_path / "base", top_k=2)
        text = report.render()
        for section in (
            "session:", "provenance:", "-- runs --", "-- time by span kind --",
            "-- time by protocol --", "-- time by adversary --",
            "-- time by backend (runs) --", "-- time by stage --",
            "-- hottest cells (top 2) --", "-- events --", "-- resources --",
            "-- metrics --", "coverage:", "-- deltas vs baseline",
        ):
            assert section in text, section
        # the stage rollup is the run files' stage clocks, summed
        assert list(report.by_stage) == list(ROUND_STAGES)
        files = sorted((tmp_path / "cur").glob("run-*.jsonl"))
        assert len(report.runs) == len(files) == 5
        for stage in ROUND_STAGES:
            want = sum(read_trace_jsonl(f).phase_seconds[stage] for f in files)
            assert report.by_stage[stage] == pytest.approx(want, rel=1e-9)
            assert stage in text.split("-- time by stage --")[1]

    def test_escapes_user_controlled_strings(self, tmp_path):
        with observe(trace_dir=tmp_path, label="<script>alert(1)</script>"):
            run_gossip(rounds=3)
        html = build_report(tmp_path).render_html()
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html


def _phases(events, phase):
    return [e for e in events if e["phase"] == phase]


class TestProgressReporting:
    def test_replicate_inline_advances_per_seed(self):
        for backend in ("reference", "batch"):
            events = []
            with progress_scope(events.append):
                _token_replicate((1, 2, 3), workers=0, backend=backend)
            begins = _phases(events, "begin")
            assert [(e["total"], e["label"]) for e in begins] == [(3, "replicate")], backend
            assert len(_phases(events, "advance")) == 3, backend
            assert len(_phases(events, "finish")) == len(begins), backend

    def test_replicate_pooled_advances_per_task(self):
        events = []
        with progress_scope(events.append):
            _token_replicate((1, 2), workers=2)
        begins = _phases(events, "begin")
        assert sum(e["total"] for e in begins) >= 2
        assert len(_phases(events, "advance")) >= 2
        assert len(_phases(events, "finish")) == len(begins)

    def test_no_reporter_is_silent(self, capsys):
        _token_replicate((1,), workers=0)
        captured = capsys.readouterr()
        assert captured.err == ""

    @pytest.mark.parametrize("backend", ["reference", "batch"])
    def test_sweep_of_replicates_counts_cells(self, backend):
        from repro.analysis.sweep import cartesian_sweep

        ticker, stream = TestStderrTicker()._ticker()
        with progress_scope(ticker):
            cartesian_sweep(
                {"n": [1, 2], "backend": [backend]}, _replicate_cell,
                config=RunConfig(workers=0),
            )
        # the replicas inside each cell must not count as cells
        painted = stream.getvalue().rstrip("\n").split("\r\x1b[2K")[1:]
        assert painted[-1].startswith("[_replicate_cell] 2/2 cells")
        assert [line.split()[1] for line in painted] == ["0/2", "1/2", "2/2"]


class TestStderrTicker:
    def _ticker(self):
        stream = io.StringIO()
        clock_state = {"t": 0.0}

        def clock():
            clock_state["t"] += 1.0
            return clock_state["t"]

        return StderrTicker(stream, min_interval=0.0, clock=clock), stream

    def test_renders_progress_and_final_line(self):
        ticker, stream = self._ticker()
        with progress_scope(ticker):
            report_begin(2, unit="cells", label="EXP-X")
            report_advance()
            report_advance()
            report_finish()
        text = stream.getvalue()
        assert "[EXP-X] 2/2 cells" in text
        assert text.endswith("\n")

    def test_inner_scopes_do_not_drive_the_line(self):
        ticker, stream = self._ticker()
        with progress_scope(ticker):
            report_begin(2, unit="cells", label="outer")
            report_begin(10, unit="runs", label="inner")  # nested replicate
            report_advance()  # inner completion: ignored by the display
            report_finish()
            report_advance()  # outer completion: counted
            report_finish()
        assert "1/2 cells" in stream.getvalue()
        assert "10" not in stream.getvalue().replace("10.0", "")


class TestCLI:
    def test_profile_command(self, tmp_path, capsys):
        from repro.cli import main

        with observe(trace_dir=tmp_path):
            run_gossip(rounds=4)
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "by span kind" in out
        assert "coverage:" in out

    def test_profile_v2_session(self, tmp_path, capsys):
        from repro.cli import main

        with observe(trace_dir=tmp_path):
            run_gossip(rounds=4)
        (tmp_path / EVENTS_FILENAME).unlink()
        assert main(["report", str(tmp_path)]) == 0
        assert "no spans recorded" in capsys.readouterr().out

    def test_profile_wrong_arity(self, capsys):
        from repro.cli import main

        assert main(["report"]) == 2

    def test_report_command(self, tmp_path, capsys):
        from repro.cli import main

        with observe(trace_dir=tmp_path / "sess"):
            run_gossip(rounds=4)
        out_file = tmp_path / "report.html"
        assert main(["report", str(tmp_path / "sess"), "--html", str(out_file)]) == 0
        assert out_file.read_text().startswith("<!DOCTYPE html>")

    def test_report_requires_out(self, tmp_path, capsys):
        from repro.cli import main

        # a directory that holds no session, and the renamed --out flag
        assert main(["report", str(tmp_path)]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["report", str(tmp_path), "--out", str(tmp_path / "r.html")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_report_top_must_be_positive(self, tmp_path, capsys, top):
        from repro.cli import main

        with observe(trace_dir=tmp_path):
            run_gossip(rounds=4)
        with pytest.raises(SystemExit) as exc:
            main(["report", str(tmp_path), "--top", top])
        assert exc.value.code == 2
        assert "--top" in capsys.readouterr().err

    def test_bench_diff_tolerance_and_gate(self, tmp_path, capsys):
        from repro.cli import main

        old, new = tmp_path / "old", tmp_path / "new"
        old.mkdir(), new.mkdir()
        payload = {"exp_id": "EXP-X", "rows": [], "summary": {},
                   "timings": {"wall_seconds": 1.0}}
        (old / "EXP-X.json").write_text(json.dumps(payload))
        slow = dict(payload, timings={"wall_seconds": 1.5})
        (new / "EXP-X.json").write_text(json.dumps(slow))
        # +50% > default 25% threshold: regression
        assert main(["bench-diff", str(old), str(new)]) == 1
        # per-metric tolerance waives it
        assert main(["bench-diff", str(old), str(new),
                     "--tolerance", "wall=0.6"]) == 0
        # malformed tolerance: usage error
        assert main(["bench-diff", str(old), str(new),
                     "--tolerance", "wall"]) == 2
        # gate mode fails an experiment with no baseline
        (new / "EXP-Y.json").write_text(json.dumps(dict(payload, exp_id="EXP-Y")))
        assert main(["bench-diff", str(old), str(new),
                     "--tolerance", "wall=0.6"]) == 0
        assert main(["bench-diff", str(old), str(new), "--tolerance", "wall=0.6",
                     "--fail-on-regression"]) == 1

    def test_speedup_skip_note_on_cpu_count_mismatch(self, tmp_path, capsys):
        from repro.cli import main

        old, new = tmp_path / "old", tmp_path / "new"
        old.mkdir(), new.mkdir()
        base = {"exp_id": "EXP-PAR", "rows": [], "summary": {}}
        (old / "EXP-PAR.json").write_text(json.dumps(
            dict(base, timings={"wall_seconds": 1.0, "speedup": 3.0, "cpu_count": 4})
        ))
        (new / "EXP-PAR.json").write_text(json.dumps(
            dict(base, timings={"wall_seconds": 1.0, "speedup": 1.0, "cpu_count": 1})
        ))
        assert main(["bench-diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "speedup comparison skipped" in out
        assert "cpu_count 4 -> 1" in out
        # a history whose newest record ran on a 1-CPU host skips it too
        hist = tmp_path / "history.jsonl"
        hist.write_text("".join(
            json.dumps(dict(base, unix_time=t, provenance={"cpu_count": cpus},
                            timings={"wall_seconds": 1.0, "speedup": speedup})) + "\n"
            for t, (cpus, speedup) in enumerate([(4, 3.0), (4, 3.1), (4, 2.9), (1, 1.0)])
        ))
        assert main(["bench-diff", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "speedup comparison skipped" in out
        assert "cpu_count 4 -> 1" in out


class TestParseTolerances:
    def test_parses_scoped_and_plain(self):
        from repro.obs.benchdiff import parse_tolerances

        assert parse_tolerances(["wall=0.4", "EXP-SUB:speedup=0.2"]) == {
            "wall": 0.4,
            "EXP-SUB:speedup": 0.2,
        }
        assert parse_tolerances(None) == {}

    @pytest.mark.parametrize("bad", ["wall", "=0.2", "wall=abc", "wall=-0.1"])
    def test_rejects_malformed(self, bad):
        from repro.obs.benchdiff import parse_tolerances

        with pytest.raises(ValueError):
            parse_tolerances([bad])
