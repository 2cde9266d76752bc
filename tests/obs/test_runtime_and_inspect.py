"""Observation sessions (ambient capture) and the inspect report."""

from __future__ import annotations

import json

import pytest

from repro.network.adversaries import RandomConnectedAdversary, StaticAdversary
from repro.network.causality import dynamic_diameter
from repro.network.generators import line_edges
from repro.obs import (
    current_session,
    inspect_run,
    load_session,
    observe,
    read_trace_jsonl,
)
from repro.obs.manifest import RunManifest
from repro.protocols.flooding import GossipMaxNode, TokenFloodNode
from repro.sim.coins import CoinSource
from repro.sim.engine import ROUND_STAGES, SynchronousEngine


def run_gossip(n=8, rounds=25, seed=5):
    ids = list(range(1, n + 1))
    nodes = {u: GossipMaxNode(u) for u in ids}
    eng = SynchronousEngine(nodes, RandomConnectedAdversary(ids, seed=3), CoinSource(seed))
    eng.run(rounds, stop_on_termination=False)
    return eng


class TestObserveSession:
    def test_no_session_no_instrumentation(self):
        assert current_session() is None
        eng = run_gossip(rounds=3)
        assert eng._session is None  # finish() hands the run to nobody

    def test_session_captures_every_engine_run(self, tmp_path):
        # stream=False: a session leaves exactly its log and its run
        # files (the streamed listing is asserted in test_stream.py)
        with observe(trace_dir=tmp_path, label="cell", stream=False) as session:
            assert current_session() is session
            run_gossip(rounds=10, seed=1)
            run_gossip(rounds=10, seed=2)
        assert current_session() is None
        assert session.num_runs == 2
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["events.jsonl", "run-0001.jsonl", "run-0002.jsonl"]

        manifest = load_session(tmp_path).manifest
        assert manifest.label == "cell"
        assert [r.seed for r in manifest.runs] == [1, 2]
        assert all(r.adversary == "RandomConnectedAdversary" for r in manifest.runs)
        assert manifest.metrics["rounds_total"]["value"] == 20
        assert manifest.wall_seconds is not None and manifest.wall_seconds > 0

    def test_metrics_only_session_persists_nothing(self):
        with observe() as session:
            run_gossip(rounds=5)
        assert session.num_runs == 1
        assert session.trace_dir is None
        assert session.manifest.metrics["rounds_total"]["value"] == 5

    def test_sessions_nest_innermost_wins(self, tmp_path):
        outer_dir, inner_dir = tmp_path / "outer", tmp_path / "inner"
        with observe(trace_dir=outer_dir) as outer:
            with observe(trace_dir=inner_dir) as inner:
                run_gossip(rounds=4)
            run_gossip(rounds=4)
        assert inner.num_runs == 1
        assert outer.num_runs == 1  # only the run after the inner scope


def _write_log(directory, *events):
    """A session log of the given events, after a well-formed header."""
    head = {"type": "stream-start", "format_version": 2, "seq": 1, "elapsed": 0.0}
    lines = [head, *events]
    (directory / "events.jsonl").write_text(
        "".join(line if isinstance(line, str) else json.dumps(line) + "\n"
                for line in lines)
    )
    return directory / "events.jsonl"


class TestManifestFiles:
    def test_run_manifest_ignores_dropped_keys(self):
        """A run recorded when RunManifest had vectorized_replicas loads."""
        run = RunManifest.from_dict(
            {"seed": 1, "num_nodes": 4, "adversary": "X", "backend": "batch",
             "representation": "dense", "dense_node_limit": 512,
             "vectorized_replicas": True}
        )
        assert run == RunManifest(
            seed=1, num_nodes=4, adversary="X", backend="batch",
            representation="dense", dense_node_limit=512,
        )

    @pytest.mark.parametrize(
        "run, field",
        [([5], "'run' must be an object"), (5, "'run' must be an object"),
         ({"seed": 1}, "'run.num_nodes' is missing")],
        ids=["list", "int", "object"],
    )
    def test_malformed_runs_raise_value_error(self, tmp_path, run, field):
        path = _write_log(tmp_path, {"type": "run-complete", "run": run})
        with pytest.raises(ValueError, match=f"line 2: field {field}") as exc:
            load_session(tmp_path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("text", ["{not json", "[]"], ids=["not-json", "array"])
    def test_non_object_manifest_names_the_file(self, tmp_path, text):
        path = _write_log(tmp_path, text + "\n")
        with pytest.raises(ValueError, match="events.jsonl: line 2: ") as exc:
            load_session(tmp_path)
        assert str(path) in str(exc.value)


class TestInspect:
    def test_report_matches_trace(self, tmp_path):
        with observe(trace_dir=tmp_path):
            eng = run_gossip(n=8, rounds=30, seed=5)
        path = tmp_path / "run-0001.jsonl"
        report = inspect_run(path)
        assert report.rounds == 30
        assert report.total_bits == eng.trace.total_bits()
        assert report.bits_by_node == eng.trace.bits_by_node()
        assert set(report.phase_seconds) == set(ROUND_STAGES)
        # a run's wall time is its stage clock's sum
        assert report.wall_seconds is not None
        assert sum(report.phase_seconds.values()) == pytest.approx(report.wall_seconds)

        text = report.render()
        assert "total bits" in text and "realized dynamic D" in text
        for phase in ROUND_STAGES:
            assert phase in text

    def test_realized_diameter_matches_causality_pass(self, tmp_path):
        ids = list(range(1, 9))
        adv = StaticAdversary(ids, line_edges(ids))
        with observe(trace_dir=tmp_path):
            nodes = {u: TokenFloodNode(u, source=1) for u in ids}
            eng = SynchronousEngine(nodes, adv, CoinSource(2))
            eng.run(20, stop_on_termination=False)
        report = inspect_run(tmp_path / "run-0001.jsonl")
        expected = dynamic_diameter(adv.schedule(20), max_diameter=30)
        assert report.diameter == expected == len(ids) - 1

    def test_inspect_readable_without_metrics(self, tmp_path):
        """Traces written outside a metrics run still inspect cleanly."""
        from repro.obs.export import write_trace_jsonl

        eng = run_gossip(rounds=6)
        path = tmp_path / "bare.jsonl"
        write_trace_jsonl(eng.trace, path, node_ids=eng.node_ids)
        report = inspect_run(path)
        assert report.rounds == 6
        assert report.phase_seconds == {}
        assert "total bits" in report.render()

    def test_jsonl_lines_are_valid_json(self, tmp_path):
        with observe(trace_dir=tmp_path):
            run_gossip(rounds=4)
        lines = (tmp_path / "run-0001.jsonl").read_text().splitlines()
        kinds = [json.loads(line)["type"] for line in lines]
        assert kinds[0] == "manifest" and kinds[-1] == "summary"
        assert kinds[1:-1] == ["round"] * 4

    def test_manifest_run_read_back(self, tmp_path):
        with observe(trace_dir=tmp_path):
            run_gossip(rounds=4, seed=9)
        run = read_trace_jsonl(tmp_path / "run-0001.jsonl")
        assert run.manifest.seed == 9
        assert run.manifest.num_nodes == 8
        assert run.manifest.bandwidth_factor == 24
        assert run.node_ids == tuple(range(1, 9))
        assert run.run_metrics["rounds"] == 4
