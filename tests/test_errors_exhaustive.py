"""Every exception in ``repro.errors`` is reachable from library code.

A dead error path is a checker that can never fire.  ``TRIGGERS`` maps
each concrete exception class to a minimal scenario that provokes the
*library* (not the test) into raising it; the coverage test asserts the
map and ``repro.errors.__all__`` agree exactly, so adding an exception
without a raise site — or removing its last raise site — fails here.
"""

from __future__ import annotations

import pytest

import repro.errors as errors_module
from repro.errors import (
    BandwidthExceeded,
    ConfigurationError,
    DisconnectedTopology,
    InvalidAction,
    ModelViolation,
    ParallelExecutionError,
    PromiseViolation,
    ProtocolError,
    ReproError,
    SimulationDiverged,
)
from repro.network.adversaries import RandomConnectedAdversary
from repro.protocols.flooding import GossipMaxNode
from repro.sim.coins import CoinSource
from repro.sim.engine import SynchronousEngine

from .faults.injectors import inject_reduction_fault, wire_engine_fault


def _faulted_engine_run(fault: str, at: int, target: int) -> None:
    n = 6
    nodes = {u: GossipMaxNode(u) for u in range(n)}
    adversary = RandomConnectedAdversary(range(n), seed=3)
    coins = CoinSource(11)
    nodes, adversary, coins = wire_engine_fault(
        nodes, adversary, coins, fault, at, target, []
    )
    SynchronousEngine(nodes, adversary, coins).run(10)


def _trigger_bandwidth_exceeded():
    _faulted_engine_run("over-budget", at=2, target=1)


def _trigger_invalid_action():
    _faulted_engine_run("invalid-action", at=2, target=1)


def _trigger_disconnected_topology():
    _faulted_engine_run("disconnect", at=3, target=2)


def _trigger_model_violation():
    # the base class's own raise site: a foreign edge leaving the node set
    _faulted_engine_run("foreign-edge", at=3, target=2)


def _trigger_promise_violation():
    from repro.cc.disjointness import DisjointnessInstance

    DisjointnessInstance((0,), (2,), 5)  # (0, 2) violates the cycle promise


def _trigger_simulation_diverged():
    from repro.cc.disjointness import random_instance
    from repro.core.simulation import TwoPartyReduction

    inst = random_instance(3, 9, seed=1)
    horizon = (inst.q - 1) // 2
    for start in range(2, horizon + 1):
        red = TwoPartyReduction(inst, "T6", GossipMaxNode, seed=7)
        inject_reduction_fault(red, "adversary-perturb", start, [])
        red.run()  # some shift start must trip the Lemma 3/4 bookkeeping


def _trigger_protocol_error():
    from repro.cc.twoparty import Party

    class Stub(Party):
        def turn(self, incoming, rng):  # pragma: no cover - never driven
            return None, None

    Stub(role="carol")


def _trigger_configuration_error():
    from repro.sim.parallel import resolve_workers

    resolve_workers(-1)


def _trigger_parallel_execution_error():
    # A worker exception whose class cannot be rebuilt from a message
    # alone (BandwidthExceeded's 4-argument constructor) degrades to
    # ParallelExecutionError naming the task label — no pool needed.
    from repro.sim.parallel import WorkerFailure

    failure = WorkerFailure(BandwidthExceeded(100, 24, 7, 3), label="seed=3")
    failure.reraise()


TRIGGERS = {
    BandwidthExceeded: _trigger_bandwidth_exceeded,
    InvalidAction: _trigger_invalid_action,
    DisconnectedTopology: _trigger_disconnected_topology,
    ModelViolation: _trigger_model_violation,
    PromiseViolation: _trigger_promise_violation,
    SimulationDiverged: _trigger_simulation_diverged,
    ProtocolError: _trigger_protocol_error,
    ConfigurationError: _trigger_configuration_error,
    ParallelExecutionError: _trigger_parallel_execution_error,
}


class TestNoDeadErrorPaths:
    def test_triggers_cover_public_hierarchy_exactly(self):
        # ReproError is the abstract base — covered via every subclass.
        named = {getattr(errors_module, name) for name in errors_module.__all__}
        assert set(TRIGGERS) | {ReproError} == named

    @pytest.mark.parametrize(
        "exc_class", sorted(TRIGGERS, key=lambda c: c.__name__), ids=lambda c: c.__name__
    )
    def test_library_raises(self, exc_class):
        with pytest.raises(exc_class) as err:
            TRIGGERS[exc_class]()
        assert isinstance(err.value, ReproError)
        assert str(err.value), "error messages must be non-empty"

    def test_model_violation_subclass_raised_as_itself(self):
        # the ModelViolation trigger must raise the *base* (foreign-edge
        # uses it directly), not via one of its subclasses
        with pytest.raises(ModelViolation) as err:
            _trigger_model_violation()
        assert type(err.value) is ModelViolation

    def test_parallel_error_carries_label_and_type(self):
        with pytest.raises(ParallelExecutionError) as err:
            _trigger_parallel_execution_error()
        assert "seed=3" in str(err.value)
        assert "BandwidthExceeded" in str(err.value)
