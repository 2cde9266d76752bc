"""Spans, progress, profiling, and the HTML report (PR 6).

The load-bearing properties:

* **merge equivalence** — a ``REPRO_WORKERS=2`` run reassembles, at
  ingest, into a span tree with exactly the same shape (kind/name
  multiset, single root, no orphans) as the sequential run;
* **zero cost without a session** — no ambient session means ``span``
  yields ``None``, records nothing, and leaves engine results
  bit-identical (trace fingerprints unchanged);
* **v2 compatibility** — a session without ``spans.jsonl`` still
  inspects, audits, and profiles (to an empty profile) cleanly.
"""

from __future__ import annotations

import io
import json
import pathlib
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.adversaries import RandomConnectedAdversary
from repro.obs import observe
from repro.obs.profile import profile_session, render_profile
from repro.obs.progress import ProgressReporter, StderrTicker, progress_scope
from repro.obs.report import render_report, write_report
from repro.obs.runtime import current_session
from repro.obs.spans import (
    SPANS_FILENAME,
    Span,
    SpanRecorder,
    current_span,
    read_spans_jsonl,
    session_spans,
    span,
    span_event,
    write_spans_jsonl,
)
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


def _token_replicate(seeds, workers):
    ids = tuple(range(6))
    return replicate(
        NodeSet(ids, BoundNode(TokenFloodNode, source=ids[0])),
        Constant(RandomConnectedAdversary(list(ids), seed=7)),
        seeds=seeds,
        config=RunConfig(max_rounds=24, workers=workers, backend="reference"),
    )


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
            exp_known_d_upper_bounds(sizes=(8,), seeds=(21,), workers=0)
        with observe(trace_dir=tmp_path / "par") as par_session:
            exp_known_d_upper_bounds(sizes=(8,), seeds=(21,), workers=2)
        seq = session_spans(tmp_path / "seq")
        par = session_spans(tmp_path / "par")
        assert _shape(seq) == _shape(par)
        assert seq_session.num_runs == par_session.num_runs
        roots = [sp for sp in par if sp.parent_id is None]
        assert [(r.kind, r.name) for r in roots] == [("sweep", "EXP-UB")]


class TestPersistence:
    def test_roundtrip_and_format_version(self, tmp_path):
        with observe() as session:
            with span("cell", "c", n=4):
                pass
        path = tmp_path / SPANS_FILENAME
        write_spans_jsonl(path, session.spans.spans)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format_version"] == 3
        loaded = read_spans_jsonl(path)
        assert [sp.as_dict() for sp in loaded] == [
            sp.as_dict() for sp in session.spans.spans
        ]

    def test_newer_format_version_rejected(self, tmp_path):
        path = tmp_path / SPANS_FILENAME
        path.write_text(json.dumps({"type": "manifest", "format_version": 99}) + "\n")
        with pytest.raises(ValueError, match="format_version"):
            read_spans_jsonl(path)

    def test_session_writes_spans_sidecar(self, tmp_path):
        with observe(trace_dir=tmp_path) as session:
            run_gossip(rounds=4)
        assert (tmp_path / SPANS_FILENAME).is_file()
        assert session.manifest.spans_file == SPANS_FILENAME
        assert _shape(session_spans(tmp_path)) == _shape(session.spans.spans)


class TestV2SessionCompat:
    """Sessions persisted before spans existed keep working everywhere."""

    @pytest.fixture()
    def v2_session(self, tmp_path):
        with observe(trace_dir=tmp_path):
            run_gossip(rounds=4)
        (tmp_path / SPANS_FILENAME).unlink()
        manifest_path = tmp_path / "manifest.json"
        data = json.loads(manifest_path.read_text())
        data.pop("spans_file", None)
        data.pop("format_version", None)
        manifest_path.write_text(json.dumps(data))
        return tmp_path

    def test_loads_inspects_audits(self, v2_session):
        from repro.obs.audit import audit_path
        from repro.obs.inspect import inspect_session
        from repro.obs.manifest import SessionManifest

        manifest = SessionManifest.load(v2_session / "manifest.json")
        assert manifest.format_version == 2
        assert manifest.spans_file is None
        report = inspect_session(v2_session)
        assert "run-0001.jsonl" in report.render()
        # no reduction runs: audit reports "nothing to audit" (2), the
        # same as it would for this session before spans existed
        _reports, skipped, code = audit_path(v2_session)
        assert code == 2
        assert skipped

    def test_profiles_to_empty(self, v2_session):
        profile = profile_session(v2_session)
        assert profile.spans == []
        assert "no spans recorded" in render_profile(profile)

    def test_report_renders_without_spans(self, v2_session):
        html = render_report(v2_session)
        assert "No spans recorded" in html


class TestProfile:
    def test_sweep_attribution_at_least_95_percent(self, tmp_path):
        from repro.analysis.experiments.protocols import exp_known_d_upper_bounds

        with observe(trace_dir=tmp_path):
            exp_known_d_upper_bounds(sizes=(8, 16), seeds=(21,), workers=0)
        profile = profile_session(tmp_path)
        assert profile.coverage is not None
        assert profile.coverage >= 0.95
        assert profile.hottest_cells
        # one rollup per backend actually used (reference, or batch when
        # the suite runs under REPRO_BACKEND=batch)
        assert profile.by_backend
        assert all(r.count > 0 for r in profile.by_backend.values())
        text = render_profile(profile)
        assert "hottest cells" in text
        assert "coverage:" in text

    def test_self_time_never_exceeds_total(self, tmp_path):
        with observe(trace_dir=tmp_path):
            _token_replicate((1, 2), workers=0)
        profile = profile_session(tmp_path)
        for sp in profile.spans:
            if sp.kind == "event":
                continue
            assert 0.0 <= profile.self_seconds[sp.span_id] <= sp.wall_seconds + 1e-9


class TestReport:
    def test_html_is_self_contained(self, tmp_path):
        with observe(trace_dir=tmp_path / "sess"):
            run_gossip(rounds=4)
        out = write_report(tmp_path / "sess", tmp_path / "report.html")
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        for forbidden in ("http://", "https://", "<script", "src="):
            assert forbidden not in html
        for section in ("Provenance", "Time by span kind", "Runs"):
            assert section in html

    def test_baseline_deltas_section(self, tmp_path):
        for name in ("base", "cur"):
            with observe(trace_dir=tmp_path / name):
                run_gossip(rounds=4)
        html = render_report(tmp_path / "cur", baseline=tmp_path / "base")
        assert "Deltas vs baseline" in html
        assert "wall_seconds" in html

    def test_escapes_user_controlled_strings(self, tmp_path):
        with observe(trace_dir=tmp_path, label="<script>alert(1)</script>"):
            run_gossip(rounds=3)
        html = render_report(tmp_path)
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html


class _Recorder(ProgressReporter):
    def __init__(self):
        self.begins = []
        self.advances = []
        self.events = []
        self.finishes = 0

    def begin(self, total, unit="tasks", label=None):
        self.begins.append((total, unit, label))

    def advance(self, label=None, status="ok"):
        self.advances.append((label, status))

    def event(self, kind, detail):
        self.events.append((kind, detail))

    def finish(self):
        self.finishes += 1


class TestProgressReporting:
    def test_replicate_inline_advances_per_seed(self):
        rec = _Recorder()
        with progress_scope(rec):
            _token_replicate((1, 2, 3), workers=0)
        assert rec.begins and rec.begins[0][0] == 3
        assert len(rec.advances) == 3
        assert rec.finishes == len(rec.begins)

    def test_replicate_pooled_advances_per_task(self):
        rec = _Recorder()
        with progress_scope(rec):
            _token_replicate((1, 2), workers=2)
        assert sum(total for total, _, _ in rec.begins) >= 2
        assert len(rec.advances) >= 2
        assert rec.finishes == len(rec.begins)

    def test_no_reporter_is_silent(self, capsys):
        _token_replicate((1,), workers=0)
        captured = capsys.readouterr()
        assert captured.err == ""


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
        ticker.begin(2, unit="cells", label="EXP-X")
        ticker.advance()
        ticker.advance()
        ticker.finish()
        text = stream.getvalue()
        assert "[EXP-X] 2/2 cells" in text
        assert text.endswith("\n")

    def test_inner_scopes_do_not_drive_the_line(self):
        ticker, stream = self._ticker()
        ticker.begin(2, unit="cells", label="outer")
        ticker.begin(10, unit="runs", label="inner")  # nested replicate
        ticker.advance()  # inner completion: ignored by the display
        ticker.finish()
        ticker.advance()  # outer completion: counted
        ticker.finish()
        assert "1/2 cells" in stream.getvalue()
        assert "10" not in stream.getvalue().replace("10.0", "")

    def test_events_print_as_lines(self):
        ticker, stream = self._ticker()
        ticker.begin(1, label="EXP-X")
        ticker.event("degraded-retry", "worker crash on [seed=3]")
        ticker.advance()
        ticker.finish()
        assert "[EXP-X] degraded-retry: worker crash on [seed=3]\n" in stream.getvalue()


class TestCLI:
    def test_profile_command(self, tmp_path, capsys):
        from repro.cli import main

        with observe(trace_dir=tmp_path):
            run_gossip(rounds=4)
        assert main(["profile", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "by span kind" in out
        assert "coverage:" in out

    def test_profile_v2_session(self, tmp_path, capsys):
        from repro.cli import main

        with observe(trace_dir=tmp_path):
            run_gossip(rounds=4)
        (tmp_path / SPANS_FILENAME).unlink()
        assert main(["profile", str(tmp_path)]) == 0
        assert "no spans recorded" in capsys.readouterr().out

    def test_profile_wrong_arity(self, capsys):
        from repro.cli import main

        assert main(["profile"]) == 2

    def test_report_command(self, tmp_path, capsys):
        from repro.cli import main

        with observe(trace_dir=tmp_path / "sess"):
            run_gossip(rounds=4)
        out_file = tmp_path / "report.html"
        assert main(["report", str(tmp_path / "sess"), "--out", str(out_file)]) == 0
        assert out_file.read_text().startswith("<!DOCTYPE html>")

    def test_report_requires_out(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", str(tmp_path)]) == 2

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
