"""The round-staged protocol interface of both engines.

Every round executes as the same fixed sequence of stages
(``ROUND_STAGES``), and ``step_stages()`` exposes them one by one so an
adaptive adversary's decision can be interposed between vectorized
stages.  These tests pin the interface itself: stage ordering, the
exact per-stage view an adversary observes, partial-consumption
semantics, and error-path parity between the reference and batch
engines.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    BandwidthExceeded,
    DisconnectedTopology,
    InvalidAction,
    ModelViolation,
)
from repro.faults.check import trace_fingerprint
from repro.network.adversaries import Adversary, FunctionAdversary, StaticAdversary
from repro.network.generators import line_edges
from repro.obs.instrumentation import PHASES, Instrumentation
from repro.protocols.flooding import TokenFloodNode
from repro.sim import ROUND_STAGES, StageEvent
from repro.sim.actions import Receive, Send
from repro.sim.batch import BatchEngine, ScheduleTape
from repro.sim.coins import CoinSource
from repro.sim.engine import SynchronousEngine
from repro.sim.node import ProtocolNode

IDS = (0, 1, 2, 3)


def _nodes():
    return {u: TokenFloodNode(u, source=0) for u in IDS}


def _line_adv():
    return StaticAdversary(list(IDS), line_edges(list(IDS)))


def _engines(make_adv, **kwargs):
    """A (reference, batch) engine pair over the same fresh cell."""
    ref = SynchronousEngine(_nodes(), make_adv(), CoinSource(5), **kwargs)
    bat = BatchEngine(_nodes(), make_adv(), CoinSource(5), **kwargs)
    return ref, bat


class RecordingAdversary(Adversary):
    """Adaptive stub: records exactly what each round's view exposes."""

    def __init__(self, node_ids):
        super().__init__(node_ids)
        self.observed = []

    def edges(self, round_, view):
        self.observed.append(
            {
                "round": round_,
                "view_round": view.round,
                "actions": dict(view.actions),
                "node_ids": sorted(view.nodes),
                "trace_rounds": view.trace.rounds,
                "receiving": [u for u in sorted(view.nodes) if view.is_receiving(u)],
                "sending": [u for u in sorted(view.nodes) if view.is_sending(u)],
            }
        )
        return line_edges(sorted(view.nodes))


class TestStageOrdering:
    def test_round_stages_matches_instrumentation_phases(self):
        assert ROUND_STAGES == PHASES

    @pytest.mark.parametrize("engine_cls", [SynchronousEngine, BatchEngine])
    def test_both_engines_declare_the_same_stages(self, engine_cls):
        eng = engine_cls(_nodes(), _line_adv(), CoinSource(5))
        assert tuple(name for name, _ in eng._stages) == ROUND_STAGES

    @pytest.mark.parametrize("engine_cls", [SynchronousEngine, BatchEngine])
    def test_step_stages_yields_in_order_with_growing_state(self, engine_cls):
        eng = engine_cls(_nodes(), _line_adv(), CoinSource(5))
        events = list(eng.step_stages())
        assert [e.stage for e in events] == list(ROUND_STAGES)
        assert all(isinstance(e, StageEvent) for e in events)
        assert all(e.round == 1 for e in events)
        by_stage = {e.stage: e for e in events}
        # edges exist from the adversary stage on, never before
        assert by_stage["actions"].edges is None
        assert by_stage["adversary"].edges == frozenset(line_edges(list(IDS)))
        assert by_stage["validation"].edges == by_stage["adversary"].edges
        # the round record exists from the delivery stage on, never before
        for stage in ("actions", "adversary", "validation"):
            assert by_stage[stage].record is None
        assert by_stage["delivery"].record is not None
        assert by_stage["delivery"].record.round == 1
        assert by_stage["termination"].record is by_stage["delivery"].record

    def test_reference_engine_exposes_committed_actions(self):
        eng = SynchronousEngine(_nodes(), _line_adv(), CoinSource(5))
        events = {e.stage: e for e in eng.step_stages()}
        actions = events["actions"].actions
        assert sorted(actions) == list(IDS)
        assert isinstance(actions[0], Send)  # the informed source sends
        assert all(isinstance(actions[u], Receive) for u in IDS[1:])

    @pytest.mark.parametrize("engine_cls", [SynchronousEngine, BatchEngine])
    def test_partial_consumption_leaves_engine_mid_round(self, engine_cls):
        eng = engine_cls(_nodes(), _line_adv(), CoinSource(5))
        gen = eng.step_stages()
        next(gen)  # actions only
        assert eng.round == 1
        assert eng.trace.rounds == 0  # no record appended yet
        gen.close()
        # a fresh full round still works and appends the next record
        list(eng.step_stages())
        assert eng.round == 2
        assert eng.trace.rounds == 1

    @pytest.mark.parametrize("engine_cls", [SynchronousEngine, BatchEngine])
    def test_step_and_step_stages_produce_identical_traces(self, engine_cls):
        adv = _line_adv
        one = engine_cls(_nodes(), adv(), CoinSource(5))
        two = engine_cls(_nodes(), adv(), CoinSource(5))
        for _ in range(6):
            one.step()
            list(two.step_stages())
        assert trace_fingerprint(one.trace) == trace_fingerprint(two.trace)

    @pytest.mark.parametrize("engine_cls", [SynchronousEngine, BatchEngine])
    def test_instrumentation_observes_every_stage(self, engine_cls):
        instr = Instrumentation()
        eng = engine_cls(_nodes(), _line_adv(), CoinSource(5), instrumentation=instr)
        list(eng.step_stages())
        eng.step()
        assert instr.rounds == 2
        for phase in ROUND_STAGES:
            assert instr.phase_seconds[phase] >= 0.0


class TestAdversaryView:
    @pytest.mark.parametrize("engine_cls", [SynchronousEngine, BatchEngine])
    def test_recording_stub_sees_the_documented_view(self, engine_cls):
        adv = RecordingAdversary(IDS)
        eng = engine_cls(_nodes(), adv, CoinSource(5))
        for _ in range(3):
            eng.step()
        assert [o["round"] for o in adv.observed] == [1, 2, 3]
        for r, obs in enumerate(adv.observed, start=1):
            assert obs["view_round"] == r
            assert obs["node_ids"] == list(IDS)
            # the view carries the trace *before* this round's record
            assert obs["trace_rounds"] == r - 1
            # every node has committed exactly one action
            assert sorted(obs["actions"]) == list(IDS)
            assert sorted(obs["receiving"] + obs["sending"]) == list(IDS)
        # flooding over a line: the source always sends, and the set of
        # senders (informed nodes) grows by one per round
        assert [len(o["sending"]) for o in adv.observed] == [1, 2, 3]

    def test_both_engines_show_the_stub_identical_views(self):
        ref_adv = RecordingAdversary(IDS)
        bat_adv = RecordingAdversary(IDS)
        ref = SynchronousEngine(_nodes(), ref_adv, CoinSource(5))
        bat = BatchEngine(_nodes(), bat_adv, CoinSource(5))
        for _ in range(4):
            ref.step()
            bat.step()
        for ro, bo in zip(ref_adv.observed, bat_adv.observed):
            assert ro["round"] == bo["round"]
            assert ro["actions"] == bo["actions"]
            assert ro["receiving"] == bo["receiving"]
            assert ro["sending"] == bo["sending"]
            assert ro["trace_rounds"] == bo["trace_rounds"]


class _BadActionNode(ProtocolNode):
    def action(self, round_, coins):
        return "neither-send-nor-receive" if round_ == 2 else Receive()

    def on_messages(self, round_, payloads):
        pass


class _ChattyNode(ProtocolNode):
    def action(self, round_, coins):
        return Send(tuple(range(1000)))

    def on_messages(self, round_, payloads):
        pass


def _raise_parity(make_nodes, make_adv, exc_type):
    """Both engines raise the same error, message, and partial trace.

    The batch engine runs at the default dense limit and again at
    ``dense_node_limit=0``, where every topology takes the sparse array
    path (and, for input it cannot vouch for, that path's fallback).
    """
    ref = SynchronousEngine(make_nodes(), make_adv(), CoinSource(5))
    with pytest.raises(exc_type) as ref_exc:
        ref.run(10)
    for limit in (None, 0):
        bat = BatchEngine(
            make_nodes(), make_adv(), CoinSource(5), dense_node_limit=limit
        )
        with pytest.raises(exc_type) as bat_exc:
            bat.run(10)
        assert str(ref_exc.value) == str(bat_exc.value)
        assert ref.round == bat.round
        assert trace_fingerprint(ref.trace) == trace_fingerprint(bat.trace)
    return str(ref_exc.value)


class TestErrorPathParity:
    def test_invalid_action(self):
        def make_nodes():
            nodes = _nodes()
            nodes[2] = _BadActionNode(2)
            return nodes

        msg = _raise_parity(make_nodes, _line_adv, InvalidAction)
        assert "node 2" in msg and "round 2" in msg

    def test_invalid_action_reports_first_bad_uid_in_sorted_order(self):
        def make_nodes():
            nodes = _nodes()
            nodes[3] = _BadActionNode(3)
            nodes[1] = _BadActionNode(1)
            return nodes

        msg = _raise_parity(make_nodes, _line_adv, InvalidAction)
        assert "node 1" in msg

    def test_disconnected_topology(self):
        def edges(round_, view):
            if round_ == 3:
                return [(0, 1), (2, 3)]  # two components
            return line_edges(list(IDS))

        make_adv = lambda: FunctionAdversary(list(IDS), edges)
        msg = _raise_parity(_nodes, make_adv, DisconnectedTopology)
        assert "round 3" in msg

    def test_model_violation_foreign_edge(self):
        def edges(round_, view):
            if round_ == 2:
                return [(0, 99)] + list(line_edges(list(IDS)))
            return line_edges(list(IDS))

        make_adv = lambda: FunctionAdversary(list(IDS), edges)
        msg = _raise_parity(_nodes, make_adv, ModelViolation)
        assert "(0, 99)" in msg

    def test_model_violation_self_loop(self):
        def edges(round_, view):
            if round_ == 2:
                return [(1, 1)] + list(line_edges(list(IDS)))
            return line_edges(list(IDS))

        make_adv = lambda: FunctionAdversary(list(IDS), edges)
        msg = _raise_parity(_nodes, make_adv, ModelViolation)
        assert "self-loop" in msg

    @pytest.mark.parametrize("oblivious", [False, True], ids=["commit", "replay"])
    @pytest.mark.parametrize(
        "bad,named",
        [
            ([(0, 1, 2)], "edge (0, 1, 2) "),
            ([(0,)], "edge (0,) "),
            ([([0], 1)], "edge ([0], 1) "),
            (5, "returned 5,"),
            (None, "returned None,"),
        ],
        ids=["triple", "single", "unhashable-end", "int", "none"],
    )
    def test_model_violation_malformed_edge_set(self, bad, named, oblivious):
        """Malformed adversary output is a ModelViolation naming it, on
        both tape modes, never a bare TypeError/ValueError."""

        def edges(round_, view):
            return bad if round_ == 2 else line_edges(list(IDS))

        make_adv = lambda: FunctionAdversary(list(IDS), edges, oblivious=oblivious)
        msg = _raise_parity(_nodes, make_adv, ModelViolation)
        assert named in msg

    def test_malformed_pair_inside_a_frozenset(self):
        """A frozenset the array path cannot vouch for falls back to the
        reference normalization and its exact message."""
        line = frozenset(line_edges(list(IDS)))

        def edges(round_, view):
            return line | {(1, 2, 3)} if round_ == 2 else line

        make_adv = lambda: FunctionAdversary(list(IDS), edges, oblivious=True)
        msg = _raise_parity(_nodes, make_adv, ModelViolation)
        assert "edge (1, 2, 3) " in msg

    def test_bandwidth_exceeded(self):
        def make_nodes():
            nodes = _nodes()
            nodes[1] = _ChattyNode(1)
            return nodes

        _raise_parity(make_nodes, _line_adv, BandwidthExceeded)

    @pytest.mark.parametrize("engine_cls", [SynchronousEngine, BatchEngine])
    def test_error_surfaces_at_its_stage_in_step_stages(self, engine_cls):
        def edges(round_, view):
            if round_ == 1:
                return [(0, 1), (2, 3)]
            return line_edges(list(IDS))

        eng = engine_cls(_nodes(), FunctionAdversary(list(IDS), edges), CoinSource(5))
        gen = eng.step_stages()
        seen = []
        with pytest.raises(DisconnectedTopology):
            for event in gen:
                seen.append(event.stage)
        # actions and the adversary decision completed; validation raised
        assert seen == ["actions", "adversary"]
