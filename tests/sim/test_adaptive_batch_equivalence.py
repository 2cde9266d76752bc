"""Cross-backend conformance: adaptive adversaries on the batch engine.

The staged round protocol lets the batch engine interpose an adaptive
adversary's per-round decision between its vectorized stages, committing
each topology to an incremental :class:`~repro.sim.batch.ScheduleTape`.
The contract is the same as for oblivious cells: **bit-identical to the
reference engine** — trace fingerprints, total bits, outputs, error
ordering and messages, and session counters.  A Hypothesis
property sweeps protocol × adaptive-adversary × seed cells; directed
tests pin lockstep ``run_batch_replicas`` equivalence, the
first-divergence-round oracle, the engine-backed two-party reduction
adversaries (T6/T7), manifest backend provenance, and the incremental
tape itself.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cc.disjointness import random_instance
from repro.core.composition import theorem6_network, theorem7_network
from repro.errors import ConfigurationError, DisconnectedTopology
from repro.network.adaptive import AdaptiveBlockingAdversary
from repro.network.adversaries import (
    FunctionAdversary,
    RandomConnectedAdversary,
    first_divergence_round,
)
from repro.network.generators import line_edges
from repro.obs import observe
from repro.obs.manifest import RunManifest
from repro.protocols.cflood import cflood_factory
from repro.protocols.flooding import GossipMaxNode, TokenFloodNode
from repro.sim import RunConfig, replicate, run_protocol
from repro.sim.batch import BatchEngine, ScheduleTape, build_engine
from repro.sim.coins import CoinSource
from repro.sim.engine import SynchronousEngine
from repro.sim.factories import BoundNode, NodeSet
from repro.sim.trace import trace_fingerprint

from ..conftest import counters_from_traces, session_counters

ADAPTIVE = ("blocking-flood", "blocking-gossip", "rotating-adaptive")
PROTOCOLS = ("token-flood", "gossip", "cflood-conservative")


def _rotating_edges(round_, view):
    """Adaptive and round-dependent: a line over rotated ids."""
    ids = sorted(view.nodes)
    n = len(ids)
    informed = sum(1 for u in ids if view.nodes[u].output() is not None)
    shift = (round_ + informed) % n
    return line_edges([ids[(i + shift) % n] for i in range(n)])


def _adversary_factory(kind: str, ids):
    """A zero-arg factory building a *fresh* adaptive adversary per call.

    Adaptive families may be stateful (``AdaptiveBlockingAdversary``
    records ``transfer_rounds``), so each engine run must get its own
    instance — sharing one across backends would leak state.
    """
    ids = list(ids)
    if kind == "blocking-flood":
        return lambda: AdaptiveBlockingAdversary(
            ids, probe=lambda n: bool(getattr(n, "informed", False))
        )
    if kind == "blocking-gossip":
        target = max(ids)
        return lambda: AdaptiveBlockingAdversary(
            ids, probe=lambda n: getattr(n, "best", None) == target
        )
    return lambda: FunctionAdversary(ids, _rotating_edges)


def _node_factory(kind: str, ids):
    n = len(ids)
    src = ids[0]
    if kind == "token-flood":
        return NodeSet(ids, BoundNode(TokenFloodNode, source=src))
    if kind == "gossip":
        return NodeSet(ids, BoundNode(GossipMaxNode))
    return NodeSet(ids, cflood_factory(src, num_nodes=n))


def _run_pair(make_nodes, make_adv, seed, max_rounds, **kwargs):
    ref = run_protocol(
        make_nodes, make_adv,
        RunConfig(seed=seed, max_rounds=max_rounds, backend="reference", **kwargs),
    )
    bat = run_protocol(
        make_nodes, make_adv,
        RunConfig(seed=seed, max_rounds=max_rounds, backend="batch", **kwargs),
    )
    return ref, bat


def _assert_identical(ref, bat):
    assert ref.backend == "reference"
    assert bat.backend == "batch"  # adaptive cells must NOT fall back
    assert trace_fingerprint(ref.trace) == trace_fingerprint(bat.trace)
    assert ref.total_bits == bat.total_bits
    assert ref.rounds == bat.rounds
    assert ref.terminated == bat.terminated
    assert ref.outputs == bat.outputs


# -- the property ----------------------------------------------------------


@st.composite
def _cells(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    ids = tuple(range(draw(st.integers(min_value=0, max_value=3)), n + 3))
    protocol = draw(st.sampled_from(PROTOCOLS))
    adversary = draw(st.sampled_from(ADAPTIVE))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return ids, protocol, adversary, seed


@given(_cells())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_adaptive_batch_is_bit_identical(case):
    ids, protocol, adversary, seed = case
    make_nodes = _node_factory(protocol, ids)
    make_adv = _adversary_factory(adversary, ids)
    ref, bat = _run_pair(make_nodes, make_adv, seed, 40)
    _assert_identical(ref, bat)


def test_adaptive_instrumentation_counters_match():
    ids = tuple(range(6))
    make_nodes = _node_factory("gossip", ids)
    make_adv = _adversary_factory("blocking-gossip", ids)
    with observe() as ref_session:
        ref = run_protocol(make_nodes, make_adv, RunConfig(
            seed=11, max_rounds=40, backend="reference"))
    with observe() as bat_session:
        bat = run_protocol(make_nodes, make_adv, RunConfig(
            seed=11, max_rounds=40, backend="batch"))
    _assert_identical(ref, bat)
    counters = session_counters(ref_session)
    assert session_counters(bat_session) == counters
    assert counters == counters_from_traces([ref.trace])
    assert set(ref_session.manifest.metrics) == set(bat_session.manifest.metrics)


def test_adaptive_error_parity_through_run_protocol():
    ids = (0, 1, 2, 3)

    def edges(round_, view):
        if round_ == 4:
            return [(0, 1), (2, 3)]
        return _rotating_edges(round_, view)

    make_nodes = _node_factory("gossip", ids)
    make_adv = lambda: FunctionAdversary(list(ids), edges)
    errors = []
    for backend in ("reference", "batch"):
        with pytest.raises(DisconnectedTopology) as exc:
            run_protocol(make_nodes, make_adv,
                         RunConfig(seed=3, max_rounds=10, backend=backend))
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert "round 4" in errors[0]


# -- lockstep replication --------------------------------------------------


@pytest.mark.parametrize("adversary", ADAPTIVE)
def test_run_batch_replicas_matches_reference_replicate(adversary):
    ids = tuple(range(6))
    make_nodes = _node_factory("token-flood", ids)
    make_adv = _adversary_factory(adversary, ids)
    seeds = list(range(1, 9))
    ref = replicate(make_nodes, make_adv, seeds,
                    RunConfig(max_rounds=40, backend="reference", workers=0))
    bat = replicate(make_nodes, make_adv, seeds,
                    RunConfig(max_rounds=40, backend="batch", workers=0))
    assert len(ref.runs) == len(bat.runs) == len(seeds)
    for r, b in zip(ref.runs, bat.runs):
        _assert_identical(r, b)


# -- first-divergence oracle ------------------------------------------------


def test_first_divergence_oracle_reports_no_divergence():
    """The conformance oracle itself agrees: per-round schedules match."""
    ids = tuple(range(7))
    make_nodes = _node_factory("token-flood", ids)
    make_adv = _adversary_factory("blocking-flood", ids)
    ref, bat = _run_pair(make_nodes, make_adv, 17, 40)
    ref_rounds = {rec.round: rec.edges for rec in ref.trace}
    bat_rounds = {rec.round: rec.edges for rec in bat.trace}
    assert set(ref_rounds) == set(bat_rounds)
    oracle = first_divergence_round(
        lambda r: ref_rounds[r], lambda r: bat_rounds[r], max(ref_rounds)
    )
    assert oracle is None


def test_first_divergence_oracle_detects_a_planted_divergence():
    """Sanity: the oracle is not vacuous — a shifted schedule is caught."""
    ids = list(range(5))
    base = RandomConnectedAdversary(ids, seed=3)
    shifted = lambda r: base.edges(max(1, r - 1), None)
    hit = first_divergence_round(
        lambda r: base.edges(r, None), shifted, 20
    )
    assert hit is not None
    round_, only_a, only_b = hit
    assert round_ >= 2
    assert only_a or only_b


# -- the two-party reduction adversaries (T6/T7) ---------------------------


@pytest.mark.parametrize("mapping", ["T6", "T7"])
def test_reference_adversary_dispatches_to_batch_and_matches(mapping):
    inst = random_instance(3, 9, seed=2)
    net = theorem6_network(inst) if mapping == "T6" else theorem7_network(inst)
    rounds = min(30, net.horizon)

    def run_backend(backend):
        nodes = {uid: GossipMaxNode(uid) for uid in net.node_ids}
        engine = build_engine(
            nodes, net.reference_adversary(), CoinSource(7), backend=backend
        )
        engine.run(rounds, stop_on_termination=False)
        return engine

    ref = run_backend("reference")
    bat = run_backend("batch")
    assert isinstance(ref, SynchronousEngine)
    assert isinstance(bat, BatchEngine)  # adaptive, yet on the fast path
    assert trace_fingerprint(ref.trace) == trace_fingerprint(bat.trace)


@pytest.mark.parametrize("mapping", ["T6", "T7"])
def test_reference_execution_is_backend_invariant(mapping, monkeypatch):
    from repro.core.simulation import run_reference_execution

    inst = random_instance(3, 9, seed=4)

    def run_with(backend):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        return run_reference_execution(
            inst, mapping, lambda uid: GossipMaxNode(uid), seed=5, rounds=20
        )

    ref = run_with("reference")
    bat = run_with("batch")
    assert trace_fingerprint(ref.trace) == trace_fingerprint(bat.trace)


# -- provenance ------------------------------------------------------------


def test_manifest_records_batch_backend_for_adaptive_cells():
    ids = tuple(range(5))
    nodes = dict(_node_factory("token-flood", ids)())
    engine = build_engine(
        nodes, _adversary_factory("blocking-flood", ids)(), CoinSource(9),
        backend="batch",
    )
    engine.run(20)
    manifest = RunManifest.from_engine(engine)
    assert manifest.backend == "batch"


# -- the incremental tape itself -------------------------------------------


class TestIncrementalTape:
    def test_commit_is_strictly_in_order(self):
        adv = _adversary_factory("rotating-adaptive", range(4))()
        tape = ScheduleTape(adv, incremental=True)
        tape.bind(frozenset(range(4)))
        tape.commit(1, line_edges(list(range(4))))
        with pytest.raises(ConfigurationError, match="strictly in order"):
            tape.commit(3, line_edges(list(range(4))))
        with pytest.raises(ConfigurationError, match="strictly in order"):
            tape.commit(1, line_edges(list(range(4))))

    def test_stats_monotonic_and_consistent_while_committing(self):
        ids = list(range(5))
        adv = _adversary_factory("rotating-adaptive", ids)()
        tape = ScheduleTape(adv, incremental=True)
        tape.bind(frozenset(ids))
        schedules = [
            line_edges(ids),
            line_edges(ids[::-1]),           # same normalized content
            line_edges([1, 0, 2, 3, 4]),     # new content
            line_edges(ids),                 # content hit
        ]
        prev = dict(tape.stats)
        for r, edges in enumerate(schedules, start=1):
            tape.commit(r, edges)
            cur = tape.stats
            assert cur["rounds"] == r
            assert cur["committed"] == r
            # monotone: nothing ever decreases
            for key in ("rounds", "committed", "content_hits", "unique_topologies"):
                assert cur[key] >= prev[key], key
            assert cur["content_hits"] + cur["unique_topologies"] == r
            prev = dict(cur)
        assert tape.stats["unique_topologies"] == 2
        assert tape.stats["content_hits"] == 2

    def test_partial_tape_replays_after_mid_run_abort(self):
        ids = tuple(range(6))
        nodes = dict(_node_factory("token-flood", ids)())
        adv = _adversary_factory("blocking-flood", ids)()
        engine = BatchEngine(nodes, adv, CoinSource(13))
        for _ in range(4):
            engine.step()
        # abort mid-run: the committed prefix replays deterministically
        tape = engine.tape
        assert tape.incremental
        assert tape.stats["committed"] == 4
        replayed = [tape.topology(r).edges for r in range(1, 5)]
        assert replayed == [rec.edges for rec in engine.trace]
        with pytest.raises(ConfigurationError, match="no round 5"):
            tape.topology(5)

    def test_zero_cost_for_oblivious_adversaries(self):
        """Replay and incremental construction yield byte-identical tapes."""
        ids = list(range(6))
        adv = RandomConnectedAdversary(ids, seed=21)
        rounds = 15
        replay = ScheduleTape(adv)
        replay.bind(frozenset(ids))
        incremental = ScheduleTape(adv, incremental=True)
        incremental.bind(frozenset(ids))
        for r in range(1, rounds + 1):
            incremental.commit(r, adv.edges(r, None))
        for r in range(1, rounds + 1):
            old = replay.topology(r)
            new = incremental.topology(r)
            assert old.edges == new.edges
            assert old.is_connected() == new.is_connected()
            assert old.kind == new.kind == "dense"
            assert (old.adj == new.adj).all()
        assert replay.stats["unique_topologies"] == (
            incremental.stats["unique_topologies"]
        )

    def test_replay_tape_still_rejects_adaptive_adversaries(self):
        adv = _adversary_factory("rotating-adaptive", range(4))()
        with pytest.raises(ConfigurationError, match="oblivious"):
            ScheduleTape(adv)
