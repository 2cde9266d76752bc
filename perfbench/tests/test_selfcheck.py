"""Self-check of the benchmark's correctness path.

Each test runs a real workload body on the default seed's committed
inputs, plants one fault, and asserts that the check counts exactly the
planted failures.  Run with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import shutil

import pytest

from perfbench.tracer import STAGES, Tracer
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, load_expected


def _prepared(name):
    workload = WORKLOADS[name]
    expected = load_expected(name)
    return workload, workload.prepare(DEFAULT_SEED, expected), expected


def _plant_wrong_termination(monkeypatch):
    """The first ``BatchEngine.run`` reports a termination one round late."""
    from repro.sim.batch import BatchEngine

    original = BatchEngine.run
    planted = []

    def run(self, *args, **kwargs):
        trace = original(self, *args, **kwargs)
        if not planted:
            planted.append(self)
            trace.termination_round += 1
        return trace

    monkeypatch.setattr(BatchEngine, "run", run)
    return planted


def test_thm8_planted_wrong_result_counts_once(monkeypatch, tmp_path):
    workload, inputs, expected = _prepared("thm8")
    planted = _plant_wrong_termination(monkeypatch)
    tally = workload.check(inputs, workload.run(inputs, tmp_path), expected)
    assert len(planted) == 1
    assert (tally.attempted, tally.failed) == (len(expected["runs"]), 1)


def test_flood_planted_wrong_replica_counts_once(monkeypatch, tmp_path):
    from repro.sim import runner

    workload, inputs, expected = _prepared("flood-large")
    original = runner.run_batch_replicas
    calls = []

    def run_batch_replicas(*args, **kwargs):
        runs = original(*args, **kwargs)
        if not calls:
            outputs = runs[0].trace.outputs
            outputs[min(outputs)] = ("planted",)
        calls.append(len(runs))
        return runs

    monkeypatch.setattr(runner, "run_batch_replicas", run_batch_replicas)
    tally = workload.check(inputs, workload.run(inputs, tmp_path), expected)
    assert calls == [workload.replicas, workload.replicas]
    assert (tally.attempted, tally.failed) == (2 * workload.replicas, 1)


def test_ub_planted_wrong_result_counts_once(monkeypatch, tmp_path):
    """A wrong cold-pass run fails once; the warm pass serves the same
    cached row, so its cell is a hit that matches the cold pass."""
    workload, inputs, expected = _prepared("ub-rerun")
    planted = _plant_wrong_termination(monkeypatch)
    outputs = workload.run(inputs, tmp_path)
    tally = workload.check(inputs, outputs, expected)
    cells = len(expected["rows"])
    assert len(planted) == 1
    assert outputs.passes[1].hits == cells
    assert (tally.attempted, tally.failed) == (2 * cells, 1)


def test_ub_warm_miss_counts_as_failed_cell(tmp_path):
    workload, inputs, expected = _prepared("ub-rerun")
    outputs = workload.run(inputs, tmp_path,
                           between_passes=lambda d: shutil.rmtree(d, ignore_errors=True))
    tally = workload.check(inputs, outputs, expected)
    cells = len(expected["rows"])
    assert outputs.passes[1].misses == cells
    assert (tally.attempted, tally.failed) == (2 * cells, cells)


def test_tracer_spans_each_stage_and_restores_hooks():
    from repro.network.adversaries import StaticAdversary
    from repro.network.generators import line_edges
    from repro.protocols.flooding import TokenFloodNode
    from repro.sim import batch, runner
    from repro.sim.config import RunConfig
    from repro.sim.factories import BoundNode, Constant, NodeSet

    ids = tuple(range(8))
    before = (batch.BatchEngine.step, runner.run_batch_replicas,
              vars(TokenFloodNode).get("on_sent"), TokenFloodNode.action)
    tracer = Tracer()
    with tracer.installed([TokenFloodNode], [StaticAdversary]):
        with tracer.span("root") as root:
            summary = runner.replicate(
                NodeSet(ids, BoundNode(TokenFloodNode, source=0)),
                Constant(StaticAdversary(ids, line_edges(ids))),
                (1, 2), RunConfig(max_rounds=20, backend="batch", workers=0, cache="off"))
    after = (batch.BatchEngine.step, runner.run_batch_replicas,
             vars(TokenFloodNode).get("on_sent"), TokenFloodNode.action)
    assert after == before
    rounds = sum(run.rounds for run in summary.runs)
    stages = sorted((sp for sp in tracer.subtree(root) if sp.name.startswith("stage.")),
                    key=lambda sp: sp.start)
    assert len(stages) == rounds * len(STAGES)
    assert [sp.name for sp in stages[:len(STAGES)]] == [f"stage.{s}" for s in STAGES]
    assert {sp.run for sp in stages} == {1, 2}
    actions = sum(sp.calls.get("node.action", (0,))[0] for sp in stages)
    assert actions == rounds * len(ids)
    assert tracer.tape_totals["rounds"] == rounds
    assert tracer.missing == []



def test_a_run_that_raises_counts_its_operations_as_failed(tmp_path):
    from perfbench import run as harness
    from perfbench.workloads import Tally

    class Flaky:
        name = "flaky"
        calls = 0

        def run(self, inputs, workdir):
            self.calls += 1
            if self.calls == 2:
                raise OSError("planted")
            return ["done"]

        def check(self, inputs, outputs, expected):
            return Tally(attempted=2, failed=0 if outputs else 2, node_rounds=10)

    reps, crashes = harness._measure(Flaky(), None, None, 0.0, tmp_path)
    assert len(reps) == harness.MIN_REPS
    assert all(rep.tally.failed == 0 for rep in reps)
    assert (crashes.attempted, crashes.failed) == (2, 2)


def test_a_body_that_always_raises_stops_after_the_crash_limit(tmp_path):
    from perfbench import run as harness
    from perfbench.workloads import Tally

    class Broken:
        name = "broken"

        def run(self, inputs, workdir):
            raise OSError("planted")

        def check(self, inputs, outputs, expected):
            return Tally(attempted=1, failed=1)

    with pytest.raises(RuntimeError, match="every run of broken raised"):
        harness._measure(Broken(), None, None, 0.0, tmp_path)
