"""The engines' stage clock and the session's run-end accounting."""

from __future__ import annotations

import time

import pytest

from repro.network.adversaries import RandomConnectedAdversary, StaticAdversary
from repro.network.generators import line_edges
from repro.obs import inspect_run, observe, read_trace_jsonl
from repro.protocols.flooding import GossipMaxNode, TokenFloodNode
from repro.sim.coins import CoinSource
from repro.sim.config import RunConfig
from repro.sim.engine import ROUND_STAGES, SynchronousEngine
from repro.sim.runner import replicate, run_protocol

RUN_METRICS_KEYS = {
    "rounds", "bits_sent", "messages_delivered", "topology_changes",
    "wall_seconds", "phase_seconds",
}


def make_engine(n=8, seed=5, adversary=None):
    ids = list(range(1, n + 1))
    nodes = {u: GossipMaxNode(u) for u in ids}
    adv = adversary if adversary is not None else RandomConnectedAdversary(ids, seed=3)
    return SynchronousEngine(nodes, adv, CoinSource(seed))


def counter(session, name):
    return session.registry.counter(name).value


class TestEngineHooks:
    def test_counters_match_trace(self):
        with observe() as session:
            trace = make_engine().run(30, stop_on_termination=False)
        assert counter(session, "rounds_total") == trace.rounds == 30
        assert counter(session, "bits_sent_total") == trace.total_bits()
        assert counter(session, "messages_delivered_total") == sum(
            sum(rec.delivered.values()) for rec in trace
        )
        reg = session.manifest.metrics
        assert reg["rounds_total"]["value"] == 30
        assert reg["bits_sent_total"]["value"] == trace.total_bits()
        assert reg["runs_total"]["value"] == 1

    def test_every_phase_observed_every_round(self):
        with observe() as session:
            eng = make_engine()
            eng.run(12, stop_on_termination=False)
        for phase in ROUND_STAGES:
            assert eng.stage_seconds[phase] > 0.0
            # one observation per run, carrying the run's stage total
            hist = session.registry.histogram("phase_seconds", {"phase": phase})
            assert hist.count == 1
            assert hist.sum == eng.stage_seconds[phase]

    def test_phase_sum_close_to_wall(self, tmp_path):
        with observe(trace_dir=tmp_path):
            eng = make_engine(n=16)
            t0 = time.perf_counter()
            eng.run(60, stop_on_termination=False)
            outer = time.perf_counter() - t0
        run = read_trace_jsonl(tmp_path / "run-0001.jsonl")
        # a run's wall time is the sum of its stage seconds
        assert run.wall_seconds > 0
        assert run.wall_seconds == pytest.approx(sum(run.phase_seconds.values()))
        # the five stages partition each step; only loop overhead is left
        assert run.wall_seconds <= outer
        assert run.wall_seconds >= 0.5 * outer

    def test_topology_changes_counted(self, tmp_path):
        ids = list(range(1, 6))
        static = StaticAdversary(ids, line_edges(ids))
        with observe(trace_dir=tmp_path) as session:
            nodes = {u: TokenFloodNode(u, source=1) for u in ids}
            SynchronousEngine(nodes, static, CoinSource(1)).run(
                10, stop_on_termination=False
            )
        # static topology: only the first round registers a "change"
        assert counter(session, "topology_changes_total") == 1
        run = read_trace_jsonl(tmp_path / "run-0001.jsonl")
        assert run.run_metrics["topology_changes"] == 1

    def test_run_metrics_shape(self, tmp_path):
        with observe(trace_dir=tmp_path):
            make_engine().run(5, stop_on_termination=False)
        m = read_trace_jsonl(tmp_path / "run-0001.jsonl").run_metrics
        assert set(m) == RUN_METRICS_KEYS
        assert m["rounds"] == 5
        assert set(m["phase_seconds"]) == set(ROUND_STAGES)
        assert m["wall_seconds"] > 0

    def test_on_run_end_callback_fires(self):
        with observe() as session:
            eng = make_engine()
            eng.step()
            assert session.num_runs == 0  # stepping alone finishes nothing
            eng.run(3, stop_on_termination=False)
        assert session.num_runs == 1
        assert session.manifest.runs[0].seed == eng.coin_source.seed

    def test_render_phases_mentions_all(self, tmp_path):
        with observe(trace_dir=tmp_path):
            make_engine().run(3, stop_on_termination=False)
        text = inspect_run(tmp_path / "run-0001.jsonl").render()
        assert "phase timing" in text
        for phase in ROUND_STAGES:
            assert phase in text
        assert "(engine)" not in text  # wall is the stage sum: no remainder

    def test_disabled_path_has_no_instrumentation(self):
        eng = make_engine()
        assert not hasattr(eng, "instrumentation")
        trace = eng.run(5, stop_on_termination=False)
        assert trace.rounds == 5
        # the clock runs without a session too: one loop for every run
        assert set(eng.stage_seconds) == set(ROUND_STAGES)


class TestRunnerThreading:
    def test_run_protocol_instrumented(self, tmp_path):
        ids = list(range(1, 7))
        with observe(trace_dir=tmp_path) as session:
            run = run_protocol(
                lambda: {u: TokenFloodNode(u, source=1) for u in ids},
                lambda: StaticAdversary(ids, line_edges(ids)),
                RunConfig(seed=2, max_rounds=50),
            )
        assert session.num_runs == 1
        m = read_trace_jsonl(tmp_path / "run-0001.jsonl").run_metrics
        assert m["rounds"] == run.trace.rounds
        assert m["wall_seconds"] > 0
        assert set(m["phase_seconds"]) == set(ROUND_STAGES)

    def test_run_protocol_uninstrumented_has_empty_metrics(self):
        ids = list(range(1, 5))
        run = run_protocol(
            lambda: {u: TokenFloodNode(u, source=1) for u in ids},
            lambda: StaticAdversary(ids, line_edges(ids)),
            RunConfig(seed=2, max_rounds=20),
        )
        # a run carries its result only; timings live in the session
        assert not hasattr(run, "metrics")
        assert not hasattr(run, "wall_seconds")

    def test_replicate_aggregates_shared_registry(self, tmp_path):
        ids = list(range(1, 6))
        with observe(trace_dir=tmp_path) as session:
            summary = replicate(
                lambda: {u: TokenFloodNode(u, source=1) for u in ids},
                lambda: StaticAdversary(ids, line_edges(ids)),
                seeds=(1, 2, 3),
                config=RunConfig(max_rounds=30),
            )
        assert summary.num_runs == 3
        assert counter(session, "runs_total") == 3
        total_rounds = sum(r.trace.rounds for r in summary.runs)
        assert counter(session, "rounds_total") == total_rounds
        walls = [
            read_trace_jsonl(tmp_path / f"run-000{i}.jsonl").wall_seconds
            for i in (1, 2, 3)
        ]
        phases = {
            phase: session.registry.histogram("phase_seconds", {"phase": phase}).sum
            for phase in ROUND_STAGES
        }
        assert sum(walls) > 0
        assert sum(phases.values()) == pytest.approx(sum(walls))
