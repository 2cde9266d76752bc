"""Array programs: protocols as numpy state, bit-identical to the nodes.

The batch engine runs TokenFlood, CFLOOD, MaxId, GossipMax,
ConsensusKnownD and CountNodes node sets as arrays
(:mod:`repro.sim.arrays`) when the transcription is exact.  These tests
drive the reference engine and the batch engine in lockstep through
``step_stages()`` and compare, after every stage, the round records and
every synced node field (``informed``, ``informed_round``,
``rounds_seen``, ``best``, ``best_id``, ``best_value``, ``mins``) — the
node-sync contract — and the exceptions, raised at the same stage.  The
selection tests pin which cells take the array path and which keep the
per-node callbacks.
"""

from __future__ import annotations

import pytest

from repro.errors import BandwidthExceeded
from repro.network.adaptive import AdaptiveBlockingAdversary
from repro.network.adversaries import (
    OverlappingStarsAdversary,
    RandomConnectedAdversary,
    StaticAdversary,
    TIntervalAdversary,
)
from repro.network.generators import line_edges
from repro.protocols.cflood import CFloodArrays, CFloodConservativeNode, CFloodKnownDNode
from repro.protocols.consensus import ConsensusArrays, ConsensusKnownDNode
from repro.protocols.flooding import GossipMaxNode, TokenFloodArrays, TokenFloodNode
from repro.protocols.hearfrom import CountNodesArrays, CountNodesNode, HearFromAllNode
from repro.protocols.max_id import MaxArrays, MaxIdNode
from repro.sim.batch import BatchEngine, ScheduleTape, build_engine
from repro.sim.coins import CoinSource
from repro.sim.engine import ROUND_STAGES, SynchronousEngine
from repro.sim.trace import trace_fingerprint

TOKEN_PUSH = {
    "token-flood": lambda ids, src: {u: TokenFloodNode(u, source=src) for u in ids},
    "cflood-known-d": lambda ids, src: {
        u: CFloodKnownDNode(u, source=src, d_param=max(1, len(ids) // 2)) for u in ids
    },
    "cflood-conservative": lambda ids, src: {
        u: CFloodConservativeNode(u, source=src, num_nodes=len(ids)) for u in ids
    },
}

#: the coin-drawing programs (``src`` unused): a few terminate inside
#: the lockstep runs, GossipMax never does
REDUCTIONS = {
    "max-id": lambda ids, src: {u: MaxIdNode(u, total_rounds=20) for u in ids},
    "gossip-max": lambda ids, src: {u: GossipMaxNode(u) for u in ids},
    "consensus-known-d": lambda ids, src: {
        u: ConsensusKnownDNode(u, value=u % 3, total_rounds=20) for u in ids
    },
    "count-n": lambda ids, src: {
        u: CountNodesNode(u, total_rounds=30, components=4) for u in ids
    },
}

PROTOCOLS = {**TOKEN_PUSH, **REDUCTIONS}

#: tape keyword arguments per adjacency form
REPRESENTATIONS = {
    "dense": {},
    "bitset": {"dense_node_limit": 0, "sparse": "bitset"},
    "csr": {"dense_node_limit": 0, "sparse": "csr"},
}

ADVERSARIES = {
    "static-line": lambda ids: StaticAdversary(ids, line_edges(ids)),
    "random": lambda ids: RandomConnectedAdversary(ids, seed=5, extra_edge_prob=0.1),
    "t-interval": lambda ids: TIntervalAdversary(ids, seed=9, interval=3),
    "overlap-stars": lambda ids: OverlappingStarsAdversary(ids),
}


#: every node field an array program writes back
SYNCED_FIELDS = ("informed", "informed_round", "rounds_seen", "best", "best_id",
                 "best_value", "mins")


def _node_state(nodes):
    def field(node, name):  # each value with its type, so 1 and True differ
        value = getattr(node, name, None)
        if isinstance(value, dict):
            return sorted((key, type(v), v) for key, v in value.items())
        return type(value), value

    return {uid: tuple(field(node, name) for name in SYNCED_FIELDS)
            for uid, node in nodes.items()}


def lockstep(make_nodes, make_adversary, max_rounds, representation="dense",
             bandwidth_factor=24, check_connected=True, seed=3, array=True):
    """Run both engines stage by stage; return the shared outcome.

    Asserts equality after every stage and that the batch engine took
    the array path (the per-node path when ``array`` is false).  Returns
    ``("raised", round, stage, exc)`` or ``("done", trace)``.
    """
    ref_nodes, bat_nodes = make_nodes(), make_nodes()
    ref = SynchronousEngine(ref_nodes, make_adversary(), CoinSource(seed),
                            bandwidth_factor=bandwidth_factor,
                            check_connected=check_connected)
    adversary = make_adversary()
    bat = BatchEngine(bat_nodes, adversary, CoinSource(seed),
                      bandwidth_factor=bandwidth_factor, check_connected=check_connected,
                      tape=ScheduleTape(adversary, **REPRESENTATIONS[representation]))
    assert (bat.array_program is not None) is array
    for _ in range(max_rounds):
        ref_stages, bat_stages = ref.step_stages(), bat.step_stages()
        for stage in ROUND_STAGES:
            outcomes = []
            for stages in (ref_stages, bat_stages):
                try:
                    outcomes.append((next(stages), None))
                except Exception as exc:  # the engines must raise alike
                    outcomes.append((None, exc))
            (ref_event, ref_exc), (bat_event, bat_exc) = outcomes
            if ref_exc is not None or bat_exc is not None:
                assert type(bat_exc) is type(ref_exc), (stage, ref_exc, bat_exc)
                assert str(bat_exc) == str(ref_exc)
                return ("raised", ref.round, stage, ref_exc)
            assert bat_event.stage == ref_event.stage == stage
            assert bat_event.edges == ref_event.edges
            assert bat_event.record == ref_event.record, (ref.round, stage)
            assert _node_state(bat_nodes) == _node_state(ref_nodes), (ref.round, stage)
            if bat_event.record is not None:  # token push: each node's own object
                for uid, payload in bat_event.record.sends.items():
                    if hasattr(bat_nodes[uid], "token"):
                        assert payload is bat_nodes[uid].token
        if ref.trace.termination_round is not None:
            break
    assert bat.trace.termination_round == ref.trace.termination_round
    ref_trace, bat_trace = ref.finish(), bat.finish()
    assert bat_trace.outputs == ref_trace.outputs
    assert trace_fingerprint(bat_trace) == trace_fingerprint(ref_trace)
    return ("done", ref_trace)


@pytest.mark.parametrize("first_id", [0, 1], ids=["ids-from-0", "ids-from-1"])
@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
@pytest.mark.parametrize("representation", sorted(REPRESENTATIONS))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_lockstep_matches_reference(protocol, representation, adversary, first_id):
    ids = list(range(first_id, first_id + 11))
    outcome = lockstep(lambda: PROTOCOLS[protocol](ids, ids[4]),
                       lambda: ADVERSARIES[adversary](ids), 60, representation)
    assert outcome[0] == "done"


@pytest.mark.parametrize("representation", sorted(REPRESENTATIONS))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_disconnected_graph_without_the_check(protocol, representation):
    ids = list(range(1, 9))
    halves = line_edges(ids[:4]) | line_edges(ids[4:])
    _, trace = lockstep(lambda: PROTOCOLS[protocol](ids, ids[1]),
                        lambda: StaticAdversary(ids, halves), 20, representation,
                        check_connected=False)
    if protocol in TOKEN_PUSH:
        informed = {u for rec in trace for u in rec.sends}
        assert informed == set(ids[:4])  # the token never crosses the cut


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_run_cut_by_max_rounds(protocol):
    ids = list(range(16))
    _, trace = lockstep(lambda: PROTOCOLS[protocol](ids, 0),
                        lambda: StaticAdversary(ids, line_edges(ids)), 3)
    assert trace.rounds == 3 and trace.termination_round is None


SINGLE_NODE = {
    "token-flood": lambda source: {7: TokenFloodNode(7, source=source, token=5)},
    "cflood-known-d": lambda source: {7: CFloodKnownDNode(7, source, d_param=3, token=5)},
}


@pytest.mark.parametrize("protocol", sorted(SINGLE_NODE))
@pytest.mark.parametrize("source", [7, 8], ids=["source-inside", "source-outside"])
def test_single_node(protocol, source):
    _, trace = lockstep(lambda: SINGLE_NODE[protocol](source),
                        lambda: StaticAdversary([7], []), 5)
    want = {("token-flood", 7): 1, ("token-flood", 8): None,
            ("cflood-known-d", 7): 3, ("cflood-known-d", 8): 1}
    assert trace.termination_round == want[protocol, source]


def test_single_node_default_token_exceeds_the_budget():
    """At N = 1 the budget is 24 bits and ("tok", 7) costs 34."""
    outcome = lockstep(lambda: PROTOCOLS["token-flood"]([7], 7),
                       lambda: StaticAdversary([7], []), 5)
    assert outcome[:3] == ("raised", 1, "delivery")


#: the EXP-UB node classes as built there (HearFromAll runs per node)
SMALL_N_PROTOCOLS = {
    "gossip-max": (lambda ids: {u: GossipMaxNode(u) for u in ids}, True),
    "max-id": (lambda ids: {u: MaxIdNode(u, total_rounds=8) for u in ids}, True),
    "consensus-known-d": (lambda ids: {
        u: ConsensusKnownDNode(u, value=u % 2, total_rounds=8) for u in ids}, True),
    "hear-from-all": (lambda ids: {u: HearFromAllNode(u, d_param=8) for u in ids}, False),
    "count-n": (lambda ids: {u: CountNodesNode(u, total_rounds=200) for u in ids}, True),
}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n, protocol", [(2, p) for p in sorted(SMALL_N_PROTOCOLS)]
                         + [(3, "count-n"), (4, "count-n")])
def test_small_n_messages_exceed_the_budget(n, protocol, seed):
    """At N = 2 the budget is 24 bits, which no message of these classes
    fits; at N = 3 and 4 it is 48 bits, and ("cntN", c, j) reaches 49-51.
    Both engines raise the identical error in the same round, on the
    array path too."""
    ids = list(range(1, n + 1))
    make_nodes, array = SMALL_N_PROTOCOLS[protocol]
    outcome = lockstep(lambda: make_nodes(ids),
                       lambda: StaticAdversary(ids, line_edges(ids)), 200,
                       seed=seed, array=array)
    assert outcome[0] == "raised" and outcome[2] == "delivery"
    assert isinstance(outcome[3], BandwidthExceeded)


@pytest.mark.parametrize("representation", sorted(REPRESENTATIONS))
@pytest.mark.parametrize("protocol", sorted(TOKEN_PUSH))
def test_source_outside_the_node_set(protocol, representation):
    ids = list(range(10))
    _, trace = lockstep(lambda: PROTOCOLS[protocol](ids, 99),
                        lambda: StaticAdversary(ids, line_edges(ids)), 6, representation)
    assert all(not rec.sends for rec in trace)
    # CFLOOD: every node is an observer, so the run ends at once
    assert trace.termination_round == (None if protocol == "token-flood" else 1)


@pytest.mark.parametrize("protocol", sorted(TOKEN_PUSH))
def test_bandwidth_exceeded_matches(protocol):
    ids = list(range(1, 9))

    def make_nodes():
        nodes = PROTOCOLS[protocol](ids, 6)
        for uid in (4, 6, 8):  # several senders in round 1
            nodes[uid].informed = True
        return nodes

    outcome = lockstep(make_nodes, lambda: StaticAdversary(ids, line_edges(ids)), 5,
                       bandwidth_factor=1)
    kind, round_, stage, exc = outcome
    assert (kind, round_, stage) == ("raised", 1, "delivery")
    assert isinstance(exc, BandwidthExceeded) and exc.sender == 4


@pytest.mark.parametrize("representation", sorted(REPRESENTATIONS))
def test_bandwidth_exceeded_names_the_first_sender_over_the_budget(representation):
    """Only the payloads of uids 5-8 exceed the 36-bit budget (72 bits
    against 32-34), so the error names the lowest of them that sent,
    whatever lower uids sent too."""
    ids = list(range(1, 9))

    def make_nodes():
        return {u: MaxIdNode(u, total_rounds=20, value=2 ** 40 + u if u >= 5 else u)
                for u in ids}

    outcome = lockstep(make_nodes, lambda: StaticAdversary(ids, line_edges(ids)), 20,
                       representation, bandwidth_factor=12)
    kind, _, stage, exc = outcome
    assert (kind, stage) == ("raised", "delivery")
    assert exc.sender >= 5 and exc.bits == 72


# -- which cells take the array path --------------------------------------


def _batch_engine(nodes, adversary, **kwargs):
    return build_engine(nodes, adversary, CoinSource(1), backend="batch", **kwargs)


def _line(ids):
    return StaticAdversary(ids, line_edges(ids))


@pytest.mark.parametrize(
    "protocol, program",
    [("token-flood", TokenFloodArrays), ("cflood-known-d", CFloodArrays),
     ("cflood-conservative", CFloodArrays), ("max-id", MaxArrays),
     ("gossip-max", MaxArrays), ("consensus-known-d", ConsensusArrays),
     ("count-n", CountNodesArrays)],
)
def test_eligible_cells_take_the_array_path(protocol, program):
    ids = list(range(6))
    engine = _batch_engine(PROTOCOLS[protocol](ids, 0), _line(ids))
    assert type(engine.array_program) is program


def _drawn_mins(ids, drawn):
    """CountNodes nodes, those in ``drawn`` holding a full ``mins``."""
    nodes = PROTOCOLS["count-n"](ids, 0)
    for uid in drawn:
        nodes[uid].mins = {c: uid - c for c in range(nodes[uid].R)}
    return nodes


def test_count_n_with_every_mins_drawn_takes_the_array_path():
    """A node set built after its first round: no node draws again."""
    ids = list(range(9))
    outcome = lockstep(lambda: _drawn_mins(ids, ids), lambda: _line(ids), 40)
    assert outcome[0] == "done"


def _mixed_classes(ids):
    nodes = PROTOCOLS["cflood-known-d"](ids, 0)
    nodes[ids[-1]] = CFloodConservativeNode(ids[-1], source=0, num_nodes=len(ids))
    return nodes


class _QuietFloodNode(TokenFloodNode):
    """A subclass that changes nothing: still never trusted."""


class _QuietMaxNode(MaxIdNode):
    """A subclass that changes nothing: still never trusted."""


def _one_id_two_values(ids):
    nodes = PROTOCOLS["consensus-known-d"](ids, 0)
    nodes[ids[0]].best_id = ids[-1]  # carries a value ids[-1] does not
    nodes[ids[0]].best_value = nodes[ids[-1]].best_value + 1
    return nodes


PER_NODE_CELLS = {
    "mixed-classes": _mixed_classes,
    "flood-and-cflood": lambda ids: {
        u: (TokenFloodNode(u, source=0) if u % 2 else CFloodKnownDNode(u, 0, d_param=3))
        for u in ids
    },
    "unequal-tokens": lambda ids: {u: TokenFloodNode(u, source=0, token=("t", u))
                                   for u in ids},
    "equal-tokens-of-other-types": lambda ids: {
        u: TokenFloodNode(u, source=0, token=(1,) if u else (True,)) for u in ids
    },
    "list-token": lambda ids: {u: TokenFloodNode(u, source=0, token=[1, 2]) for u in ids},
    "subclass": lambda ids: {u: _QuietFloodNode(u, source=0) for u in ids},
    "max-subclass": lambda ids: {u: _QuietMaxNode(u, total_rounds=20) for u in ids},
    "max-id-and-gossip-max": lambda ids: {
        u: (MaxIdNode(u, total_rounds=20) if u % 2 else GossipMaxNode(u)) for u in ids
    },
    "float-max-value": lambda ids: {u: MaxIdNode(u, total_rounds=20, value=float(u))
                                    for u in ids},
    "unequal-send-probs": lambda ids: {u: GossipMaxNode(u, send_prob=0.25 if u % 2 else 0.5)
                                       for u in ids},
    "one-id-two-values": _one_id_two_values,
    "unequal-components": lambda ids: {
        u: CountNodesNode(u, total_rounds=30, components=4 if u % 2 else 5) for u in ids
    },
    "drawn-and-undrawn-mins": lambda ids: _drawn_mins(ids, ids[::2]),
}


#: cells whose payloads need a wider budget: ("max", 3.0) is 94 bits,
#: over the default 72 at N = 7
BANDWIDTH_FACTORS = {"float-max-value": 48}


@pytest.mark.parametrize("cell", sorted(PER_NODE_CELLS))
def test_ineligible_node_sets_keep_the_per_node_path(cell):
    ids = list(range(7))
    make_nodes = lambda: PER_NODE_CELLS[cell](ids)  # noqa: E731
    factor = BANDWIDTH_FACTORS.get(cell, 24)
    engine = _batch_engine(make_nodes(), _line(ids), bandwidth_factor=factor)
    assert engine.array_program is None
    ref = SynchronousEngine(make_nodes(), _line(ids), CoinSource(1),
                            bandwidth_factor=factor).run(30)
    assert trace_fingerprint(engine.run(30)) == trace_fingerprint(ref)


#: per protocol, a probe on a field its nodes hold: the holders of the
#: information an adaptive blocking adversary keeps from the rest
PROBES = {
    "token-flood": lambda ids: lambda node: node.informed,
    "cflood-known-d": lambda ids: lambda node: node.informed,
    "cflood-conservative": lambda ids: lambda node: node.informed,
    "max-id": lambda ids: lambda node: node.best == max(ids),
    "gossip-max": lambda ids: lambda node: node.best == max(ids),
    "consensus-known-d": lambda ids: lambda node: node.best_id == max(ids),
    "count-n": lambda ids: lambda node: node.estimate >= len(ids) / 2,
}


def test_adaptive_adversary_keeps_the_per_node_path():
    ids = list(range(7))
    line = frozenset(line_edges(ids))

    def run(protocol, backend):
        adversary = AdaptiveBlockingAdversary(ids, probe=PROBES[protocol](ids))
        engine = build_engine(PROTOCOLS[protocol](ids, 3), adversary, CoinSource(1),
                              backend=backend)
        return engine, engine.run(40)

    for protocol in sorted(PROTOCOLS):
        engine, trace = run(protocol, "batch")
        assert engine.tape.incremental and engine.array_program is None, protocol
        # the probe reads node state: the schedule leaves the plain line
        assert any(record.edges != line for record in trace.records), protocol
        ref_trace = run(protocol, "reference")[1]
        assert trace_fingerprint(trace) == trace_fingerprint(ref_trace), protocol


@pytest.mark.parametrize("method", ["action", "on_messages", "on_sent", "output"])
def test_wrapped_method_keeps_the_per_node_path(method, monkeypatch):
    """A tracer-style wrapper around any one method disqualifies the
    class, for every program's node class."""
    ids = list(range(5))
    for protocol in sorted(PROTOCOLS):
        cls = type(PROTOCOLS[protocol](ids, 0)[0])
        original = getattr(cls, method)
        calls = []

        def wrapper(self, *args):  # patched for this iteration only
            calls.append(method)
            return original(self, *args)

        with monkeypatch.context() as patch:
            patch.setattr(cls, method, wrapper)
            engine = _batch_engine(PROTOCOLS[protocol](ids, 0), _line(ids))
            assert engine.array_program is None, protocol
            engine.run(10)
        assert calls, protocol


def test_patched_on_messages_shows_in_the_run(monkeypatch):
    def deaf(self, round_, payloads):
        """Hears nothing: the token never leaves the source."""

    monkeypatch.setattr(TokenFloodNode, "on_messages", deaf)
    ids = list(range(6))
    nodes = PROTOCOLS["token-flood"](ids, 0)
    engine = _batch_engine(nodes, _line(ids))
    assert engine.array_program is None
    trace = engine.run(10)
    assert trace.termination_round is None
    assert [u for u, node in nodes.items() if node.informed] == [0]
    ref = SynchronousEngine(PROTOCOLS["token-flood"](ids, 0), _line(ids), CoinSource(1))
    assert trace_fingerprint(trace) == trace_fingerprint(ref.run(10))


def test_exp_ub_cells_take_the_array_path(monkeypatch):
    """Every batch EXP-UB cell but HEARFROM-N runs an array program."""
    from repro.analysis.experiments import protocols

    programs = {}
    build = protocols.build_engine

    def recording_build(nodes, *args, **kwargs):
        engine = build(nodes, *args, **kwargs)
        programs[type(next(iter(nodes.values())))] = type(engine.array_program)
        return engine

    monkeypatch.setattr(protocols, "build_engine", recording_build)
    for problem in ("CFLOOD", "CONSENSUS", "MAX", "HEARFROM-N", "COUNT-N"):
        rounds, correct = protocols._ub_cell(problem, 16, 21, backend="batch")
        assert correct, problem
    assert programs == {
        CFloodKnownDNode: CFloodArrays, ConsensusKnownDNode: ConsensusArrays,
        MaxIdNode: MaxArrays, HearFromAllNode: type(None),
        CountNodesNode: CountNodesArrays,
    }
