"""The batch backend's contract: bit-identical to the reference engine.

The vectorized :class:`~repro.sim.batch.BatchEngine` exists purely for
throughput — every observable of a run must match the reference engine
exactly: the :func:`~repro.sim.trace.trace_fingerprint` (a sha256
over every round record and output), total bits, termination round, and
outputs.  A Hypothesis property sweeps (protocol × oblivious-adversary ×
seed) cells; directed tests pin the edges — error semantics, adaptive
adversaries, lockstep replication (observed or not), session counters,
parallel workers,
and the schedule tape's interning behaviour.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import BandwidthExceeded, ConfigurationError, DisconnectedTopology
from repro.network.adversaries import (
    FunctionAdversary,
    OverlappingStarsAdversary,
    RandomConnectedAdversary,
    RotatingStarAdversary,
    ShiftingLineAdversary,
    StaticAdversary,
    TIntervalAdversary,
)
from repro.network.generators import line_edges, star_edges
from repro.protocols.cflood import cflood_factory
from repro.protocols.flooding import GossipMaxNode, TokenFloodNode
from repro.sim import RunConfig, replicate, run_protocol
from repro.sim.actions import Receive, Send
from repro.sim.batch import BatchEngine, ScheduleTape, build_engine, run_batch_replicas
from repro.sim.coins import CoinSource
from repro.sim.engine import SynchronousEngine
from repro.sim.factories import BoundNode, Constant, NodeSet
from repro.obs import observe, read_trace_jsonl
from repro.sim.node import ProtocolNode
from repro.sim.trace import trace_fingerprint

from ..conftest import counters_from_traces, session_counters

ADVERSARIES = ("static-line", "schedule", "random", "shifting-line",
               "rotating-star", "overlap-stars", "t-interval")
PROTOCOLS = ("token-flood", "gossip", "cflood-conservative", "cflood-known-d")


def _make_adversary(kind: str, ids, seed: int):
    ids = list(ids)
    if kind == "static-line":
        return StaticAdversary(ids, line_edges(ids))
    if kind == "schedule":
        from repro.network.adversaries import ScheduleAdversary

        return ScheduleAdversary(StaticAdversary(ids, star_edges(ids[0], ids)).schedule(3))
    if kind == "random":
        return RandomConnectedAdversary(ids, seed=seed)
    if kind == "shifting-line":
        return ShiftingLineAdversary(ids, seed=seed, reshuffle_every=2)
    if kind == "rotating-star":
        return RotatingStarAdversary(ids)
    if kind == "overlap-stars":
        return OverlappingStarsAdversary(ids)
    return TIntervalAdversary(ids, seed=seed, interval=3)


def _make_node_factory(kind: str, ids):
    n = len(ids)
    src = ids[0]
    if kind == "token-flood":
        return NodeSet(ids, BoundNode(TokenFloodNode, source=src))
    if kind == "gossip":
        return NodeSet(ids, BoundNode(GossipMaxNode))
    if kind == "cflood-conservative":
        return NodeSet(ids, cflood_factory(src, num_nodes=n))
    return NodeSet(ids, cflood_factory(src, d_param=max(2, n // 2)))


def _run_pair(make_nodes, make_adv, seed, max_rounds, **kwargs):
    """The same cell on both backends; returns (reference, batch) runs."""
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
    assert bat.backend == "batch"
    assert ref.backend == "reference"
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
    adversary = draw(st.sampled_from(ADVERSARIES))
    adv_seed = draw(st.integers(min_value=0, max_value=2**16))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return ids, protocol, adversary, adv_seed, seed


@given(_cells())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_batch_backend_is_bit_identical(case):
    ids, protocol, adversary, adv_seed, seed = case
    make_nodes = _make_node_factory(protocol, ids)
    make_adv = Constant(_make_adversary(adversary, ids, adv_seed))
    max_rounds = 8 * len(ids)
    ref, bat = _run_pair(make_nodes, make_adv, seed, max_rounds)
    _assert_identical(ref, bat)


def test_replicate_lockstep_is_bit_identical():
    ids = tuple(range(10))
    make_nodes = _make_node_factory("token-flood", ids)
    make_adv = Constant(RotatingStarAdversary(list(ids)))
    seeds = [5, 6, 7, 8, 9, 10]
    ref = replicate(make_nodes, make_adv, seeds,
                    RunConfig(max_rounds=60, backend="reference"))
    bat = replicate(make_nodes, make_adv, seeds,
                    RunConfig(max_rounds=60, backend="batch"))
    assert [r.backend for r in bat.runs] == ["batch"] * len(seeds)
    assert [trace_fingerprint(r.trace) for r in ref.runs] == [
        trace_fingerprint(r.trace) for r in bat.runs
    ]
    assert [r.outputs for r in ref.runs] == [r.outputs for r in bat.runs]
    assert [r.total_bits for r in ref.runs] == [r.total_bits for r in bat.runs]


def test_parallel_workers_batch_is_bit_identical(monkeypatch):
    """REPRO_WORKERS=2 + batch backend: chunked pool run, same bits."""
    monkeypatch.setenv("REPRO_WORKERS", "2")
    ids = tuple(range(8))
    make_nodes = _make_node_factory("cflood-conservative", ids)
    make_adv = Constant(TIntervalAdversary(list(ids), seed=4, interval=2))
    seeds = [1, 2, 3, 4, 5]
    ref = replicate(make_nodes, make_adv, seeds,
                    RunConfig(max_rounds=80, backend="reference", workers=0))
    par = replicate(make_nodes, make_adv, seeds,
                    RunConfig(max_rounds=80, backend="batch"))
    assert [trace_fingerprint(r.trace) for r in ref.runs] == [
        trace_fingerprint(r.trace) for r in par.runs
    ]
    assert [r.outputs for r in ref.runs] == [r.outputs for r in par.runs]
    assert [r.backend for r in par.runs] == ["batch"] * len(seeds)


def test_instrumented_replicas_match_lockstep():
    """Observed replicas produce the same bits as unobserved ones."""
    ids = tuple(range(8))
    make_nodes = _make_node_factory("gossip", ids)
    make_adv = Constant(TIntervalAdversary(list(ids), seed=2, interval=2))
    seeds = [4, 5]
    plain = run_batch_replicas(make_nodes, make_adv, seeds, max_rounds=20)
    with observe() as session:
        observed = run_batch_replicas(make_nodes, make_adv, seeds, max_rounds=20)
    for a, b in zip(plain, observed):
        assert trace_fingerprint(a.trace) == trace_fingerprint(b.trace)
    assert session_counters(session) == counters_from_traces(
        run.trace for run in observed
    )


def test_observed_replicas_step_in_lockstep(tmp_path, monkeypatch):
    """An observed cohort runs the same round-major loop as any other."""
    steps = []
    step = BatchEngine.step

    def recording_step(engine):
        record = step(engine)
        steps.append((engine.coin_source.seed, engine.round))
        return record

    monkeypatch.setattr(BatchEngine, "step", recording_step)
    ids = list(range(12))
    seeds = [1, 2, 3]
    with observe(trace_dir=tmp_path) as session:
        summary = replicate(
            NodeSet(ids, BoundNode(TokenFloodNode, source=0)),
            Constant(StaticAdversary(ids, line_edges(ids))),
            seeds,
            RunConfig(max_rounds=40, backend="batch", workers=0),
        )
    rounds = {seed: run.trace.rounds for seed, run in zip(seeds, summary.runs)}
    assert min(rounds.values()) > 1
    assert steps == [
        (seed, r)
        for r in range(1, max(rounds.values()) + 1)
        for seed in seeds
        if r <= rounds[seed]
    ]
    # the session still numbers the runs in seed order
    assert [run.seed for run in session.manifest.runs] == seeds
    for i, seed in enumerate(seeds, 1):
        run = read_trace_jsonl(tmp_path / f"run-{i:04d}.jsonl")
        assert run.manifest.seed == seed
        assert run.wall_seconds > 0
        assert sum(run.phase_seconds.values()) == pytest.approx(run.wall_seconds)


def test_instrumented_runs_match_and_count(monkeypatch):
    ids = tuple(range(7))
    make_nodes = _make_node_factory("token-flood", ids)
    make_adv = Constant(OverlappingStarsAdversary(list(ids)))
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
    ref_snap = ref_session.manifest.metrics
    bat_snap = bat_session.manifest.metrics
    assert set(ref_snap) == set(bat_snap)


# -- adaptive and function adversaries -----------------------------------


def _adaptive_edges(round_, view):
    # reads the view: adaptive by construction
    ids = (0, 1, 2, 3)
    _ = view
    return line_edges(list(ids))


def test_adaptive_adversary_runs_on_batch_backend():
    ids = (0, 1, 2, 3)
    make_nodes = _make_node_factory("token-flood", ids)
    make_adv = Constant(FunctionAdversary(list(ids), _adaptive_edges))
    run = run_protocol(
        make_nodes, make_adv, RunConfig(seed=1, max_rounds=20, backend="batch")
    )
    assert run.backend == "batch"
    assert run.terminated


def test_oblivious_function_adversary_opts_in():
    ids = (0, 1, 2, 3)
    adv = FunctionAdversary(list(ids), _adaptive_edges, oblivious=True)
    make_nodes = _make_node_factory("token-flood", ids)
    ref, bat = _run_pair(make_nodes, Constant(adv), 1, 20)
    _assert_identical(ref, bat)


# -- error semantics -------------------------------------------------------


class _ChattyNode(ProtocolNode):
    def action(self, round_, coins):
        return Send(tuple(range(1000)))

    def on_messages(self, round_, payloads):
        pass


class _SinkNode(ProtocolNode):
    def action(self, round_, coins):
        return Receive()

    def on_messages(self, round_, payloads):
        pass


@pytest.mark.parametrize("backend", ["reference", "batch"])
def test_bandwidth_exceeded_matches(backend):
    ids = [1, 2]
    nodes = {1: _ChattyNode(1), 2: _SinkNode(2)}
    adv = StaticAdversary(ids, [(1, 2)])
    eng = build_engine(nodes, adv, CoinSource(0), backend=backend)
    with pytest.raises(BandwidthExceeded) as exc:
        eng.step()
    assert "node 1" in str(exc.value)


@pytest.mark.parametrize("backend", ["reference", "batch"])
def test_disconnected_topology_matches(backend):
    ids = [1, 2, 3, 4]
    nodes = {u: _SinkNode(u) for u in ids}
    adv = StaticAdversary(ids, [(1, 2), (3, 4)])  # two components
    eng = build_engine(nodes, adv, CoinSource(0), backend=backend)
    with pytest.raises(DisconnectedTopology) as exc:
        eng.step()
    assert "round 1" in str(exc.value)


def test_disconnected_raised_before_bandwidth():
    """Validation precedes delivery: both backends blame the topology."""
    ids = [1, 2, 3, 4]
    nodes = {1: _ChattyNode(1), **{u: _SinkNode(u) for u in ids[1:]}}
    adv = StaticAdversary(ids, [(1, 2), (3, 4)])
    for backend in ("reference", "batch"):
        eng = build_engine(nodes, adv, CoinSource(0), backend=backend)
        with pytest.raises(DisconnectedTopology):
            eng.step()


# -- the schedule tape -----------------------------------------------------


class TestScheduleTape:
    def test_adaptive_adversary_rejected(self):
        adv = FunctionAdversary([0, 1, 2], _adaptive_edges)
        with pytest.raises(ConfigurationError, match="oblivious"):
            ScheduleTape(adv)

    def test_key_interning_on_periodic_schedules(self):
        ids = list(range(6))
        tape = ScheduleTape(RotatingStarAdversary(ids))
        tape.bind(ids)
        for r in range(1, 19):  # 3 full periods of 6
            tape.topology(r)
        assert tape.stats["unique_topologies"] == 6
        assert tape.stats["key_hits"] == 12

    def test_content_interning_without_keys(self):
        # a keyless oblivious adversary replaying the same edge set each
        # round still interns by content
        ids = list(range(4))
        adv = FunctionAdversary(ids, _adaptive_edges, oblivious=True)
        tape = ScheduleTape(adv)
        tape.bind(ids)
        t1 = tape.topology(1)
        t2 = tape.topology(2)
        assert t1 is t2
        assert tape.stats["unique_topologies"] == 1

    def test_dense_vs_sparse_representation(self):
        # above dense_node_limit the tape picks a sparse row form by
        # edge density: a 5-node line (4 edges < 25/128-ish) goes CSR
        ids = list(range(5))
        adv = StaticAdversary(ids, line_edges(ids))
        dense = ScheduleTape(adv)
        dense.bind(ids)
        sparse = ScheduleTape(adv, dense_node_limit=2)
        sparse.bind(ids)
        assert dense.topology(1).kind == "dense"
        assert dense.topology(1).adj is not None
        assert dense.representation == "dense"
        topo = sparse.topology(1)
        assert topo.adj is None
        assert topo.kind in ("bitset", "csr")
        assert (topo.words is not None) == (topo.kind == "bitset")
        assert (topo.indptr is not None) == (topo.kind == "csr")
        assert sparse.representation == topo.kind

    def test_forced_representations_cover_all_kinds(self):
        ids = list(range(5))
        adv = StaticAdversary(ids, line_edges(ids))
        for kind in ("bitset", "csr"):
            tape = ScheduleTape(adv, sparse=kind)
            tape.bind(ids)
            assert tape.topology(1).kind == kind
        for kind in ("scan", "nope"):
            with pytest.raises(ConfigurationError, match="sparse representation"):
                ScheduleTape(adv, sparse=kind)

    def test_bind_rejects_mismatched_node_set(self):
        ids = list(range(4))
        tape = ScheduleTape(StaticAdversary(ids, line_edges(ids)))
        tape.bind(ids)
        with pytest.raises(ConfigurationError):
            tape.bind([0, 1, 2])

    def test_shared_tape_across_engines(self):
        ids = list(range(6))
        adv = TIntervalAdversary(ids, seed=2, interval=4)
        tape = ScheduleTape(adv)
        runs = []
        for seed in (1, 2):
            nodes = {u: TokenFloodNode(u, source=0) for u in ids}
            eng = BatchEngine(nodes, adv, CoinSource(seed), tape=tape)
            runs.append(eng.run(30))
        ref_runs = []
        for seed in (1, 2):
            nodes = {u: TokenFloodNode(u, source=0) for u in ids}
            eng = SynchronousEngine(nodes, adv, CoinSource(seed))
            ref_runs.append(eng.run(30))
        for bat_tr, ref_tr in zip(runs, ref_runs):
            assert trace_fingerprint(bat_tr) == trace_fingerprint(ref_tr)


# -- observability records the backend -------------------------------------


def test_manifest_records_backend(tmp_path):
    from repro.obs.runtime import observe

    ids = tuple(range(5))
    make_nodes = _make_node_factory("token-flood", ids)
    make_adv = Constant(RotatingStarAdversary(list(ids)))
    out = tmp_path / "session"
    with observe(trace_dir=str(out), label="batch-test") as session:
        run_protocol(make_nodes, make_adv,
                     RunConfig(seed=1, max_rounds=30, backend="batch"))
        run_protocol(make_nodes, make_adv,
                     RunConfig(seed=1, max_rounds=30, backend="reference"))
    backends = [r.backend for r in session.manifest.runs]
    assert backends == ["batch", "reference"]

    from repro.obs.stream import load_session

    loaded = load_session(out).manifest
    assert [r.backend for r in loaded.runs] == ["batch", "reference"]
