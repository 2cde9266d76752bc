"""Substrate performance benchmarks, including the EXP-SUB backend table.

Not a paper experiment — these time the simulator itself so regressions
in the hot paths (per-round engine loop, splitmix coin streams, the
vectorized causality pass) are caught.  The numbers also calibrate how
large an N the experiment suite can afford.

EXP-SUB compares engine execution paths on a spread of (protocol ×
adversary) cells — oblivious families on the replay tape and adaptive
families on the incremental tape.  Classic cells time reference vs
batch; the large sparse cells (N=1024/2048 lollipop floods — the
paper's dense-body-plus-long-tail shape) time the dense N x N kernel
against the sparse kernel the batch backend picks above
``DENSE_NODE_LIMIT``, since the reference engine is impractical at that
scale.  Per cell the identical seed set runs on every leg, bit-identity
is asserted (trace fingerprints), and wall times, the speedup over the
cell's baseline, and the adjacency representation are recorded into
``benchmarks/out/EXP-SUB.json`` — the baseline ``repro bench-diff``
tracks.  Correctness is asserted; speedup magnitudes are recorded,
since they are a property of the host as much as of the code.
"""

import time

from repro.analysis.experiments.base import ExperimentResult
from repro.network.adaptive import AdaptiveBlockingAdversary
from repro.network.adversaries import (
    OverlappingStarsAdversary,
    RandomConnectedAdversary,
    RotatingStarAdversary,
    ShiftingLineAdversary,
    StaticAdversary,
    TIntervalAdversary,
)
from repro.network.causality import dynamic_diameter
from repro.network.generators import line_edges
from repro.protocols.consensus import ConsensusKnownDNode
from repro.protocols.flooding import GossipMaxNode, TokenFloodNode
from repro.protocols.hearfrom import CountNodesNode
from repro.sim.batch import run_batch_replicas
from repro.sim.coins import CoinSource
from repro.sim.config import RunConfig
from repro.sim.engine import SynchronousEngine
from repro.sim.factories import BoundNode, Constant, NodeSet
from repro.sim.runner import replicate
from repro.sim.trace import trace_fingerprint


def run_gossip_rounds(n=64, rounds=200, seed=5):
    ids = list(range(1, n + 1))
    nodes = {u: GossipMaxNode(u) for u in ids}
    eng = SynchronousEngine(nodes, RandomConnectedAdversary(ids, seed=3), CoinSource(seed))
    eng.run(rounds, stop_on_termination=False)
    return eng.trace


def test_engine_throughput(benchmark):
    """64 nodes x 200 rounds of randomized gossip (12.8k node-rounds)."""
    trace = benchmark(run_gossip_rounds)
    assert trace.rounds == 200


def test_coin_stream_throughput(benchmark):
    """10k coin-stream constructions + draws (the per-node-round cost)."""
    src = CoinSource(1)

    def draw():
        total = 0
        for uid in range(100):
            for r in range(100):
                c = src.coins(uid, r)
                total += c.bit()
        return total

    result = benchmark(draw)
    assert 0 <= result <= 10_000


def test_causality_diameter_pass(benchmark):
    """Dynamic-diameter measurement on a 96-node random schedule: packed
    uint64 influence rows, one ``np.bitwise_or.reduceat`` step per round."""
    ids = list(range(96))
    sched = RandomConnectedAdversary(ids, seed=7).schedule(16)

    def measure():
        return dynamic_diameter(sched, max_diameter=40)

    d = benchmark(measure)
    assert d is not None and 1 <= d <= 40


# -- EXP-SUB: reference vs batch backend ------------------------------------

_SUB_SEEDS = tuple(range(1, 11))
_SUB_REPS = 2  # best-of, to damp scheduler noise


def _informed_probe(node):
    return bool(getattr(node, "informed", False))


def _best_is_255(node):
    return getattr(node, "best", None) == 255


class FreshBlocking:
    """Zero-arg factory: a *fresh* blocking adversary per call.

    Adaptive adversaries are stateful (``transfer_rounds``), so each
    replica must get its own instance — ``Constant`` would share one.
    Module-level (picklable) so the cells survive a process pool.
    """

    def __init__(self, ids, probe):
        self.ids = list(ids)
        self.probe = probe

    def __call__(self):
        return AdaptiveBlockingAdversary(self.ids, probe=self.probe)


def _sub_cells():
    """(label, make_nodes, make_adversary, max_rounds) comparison cells.

    The spread covers cheap and expensive adversaries, terminating and
    budget-bound protocols, and both tape modes: the T-interval flood
    cells are where the replay tape pays most (the reference engine
    re-runs an RNG-backed edge generator every round, the tape once per
    epoch), and the adaptive-blocking cells exercise the incremental
    tape (the adversary's decision is interposed between vectorized
    stages, so coins/delivery/bit accounting still batch).  The gossip,
    COUNT-N and consensus cells on replay tapes run the batch engine's
    coin-drawing array programs.
    """
    def flood(ids):
        return NodeSet(ids, BoundNode(TokenFloodNode, source=ids[0]))

    def gossip(ids):
        return NodeSet(ids, BoundNode(GossipMaxNode))

    def count_n(ids, rounds):
        return NodeSet(ids, BoundNode(CountNodesNode, total_rounds=rounds))

    def consensus(ids, rounds):
        # EXP-UB's inputs: each node's value is its id's parity
        one = BoundNode(ConsensusKnownDNode, value=1, total_rounds=rounds)
        return NodeSet(ids, BoundNode(ConsensusKnownDNode, value=0, total_rounds=rounds),
                       {u: one for u in ids if u % 2})

    n64 = tuple(range(64))
    n128 = tuple(range(128))
    n256 = tuple(range(256))
    return [
        ("gossip/rotating-star N=64 R=400", gossip(n64),
         Constant(RotatingStarAdversary(n64)), 400),
        ("flood/static-line N=128", flood(n128),
         Constant(StaticAdversary(n128, line_edges(list(n128)))), 200),
        ("flood/shifting-line N=256 e=16 R=300", flood(n256),
         Constant(ShiftingLineAdversary(n256, seed=7, reshuffle_every=16)), 300),
        ("flood/t-interval N=256 T=32 R=200", flood(n256),
         Constant(TIntervalAdversary(n256, seed=9, interval=32)), 200),
        ("gossip/t-interval N=128 T=16 R=150", gossip(n128),
         Constant(TIntervalAdversary(n128, seed=9, interval=16)), 150),
        ("count-n/overlap-stars N=64 R=300", count_n(n64, 300),
         Constant(OverlappingStarsAdversary(n64)), 300),
        ("consensus/t-interval N=128 R=150", consensus(n128, 150),
         Constant(TIntervalAdversary(n128, seed=9, interval=16)), 150),
        ("gossip/adaptive-blocking N=256 R=150", gossip(n256),
         FreshBlocking(n256, _best_is_255), 150),
        ("flood/adaptive-blocking N=128 R=200", flood(n128),
         FreshBlocking(n128, _informed_probe), 200),
    ]


def _sparse_cells():
    """(label, make_nodes, make_adversary, seeds, max_rounds) large cells.

    Lollipop floods: a dense clique body with a long path tail, the
    paper's straggler shape.  The flood crawls the tail one hop per
    round while every clique node sits receiving over a huge neighbor
    set, far beyond what the reference engine can time comfortably, so
    its leg is skipped.  The baseline is the batch engine with the dense
    limit raised to N: one N x N boolean matrix (1 MiB at N=1024, 4 MiB
    at N=2048) and a submatrix gather per round.  The timed leg is the
    packed-bitset kernel the tape picks above ``DENSE_NODE_LIMIT``; the
    two must produce identical traces, and the bitset must not be
    slower, which is the claim the limit rests on.
    """
    from repro.network.generators import lollipop_edges

    def lollipop(n, clique_n):
        ids = tuple(range(n))
        edges = lollipop_edges(list(ids[:clique_n]), list(ids[clique_n:]))
        make_nodes = NodeSet(ids, BoundNode(TokenFloodNode, source=ids[-1]))
        return make_nodes, Constant(StaticAdversary(ids, edges))

    mk1024 = lollipop(1024, 512)
    mk2048 = lollipop(2048, 768)
    return [
        ("flood/lollipop N=1024 k=512 R=60", *mk1024, tuple(range(1, 5)), 60),
        ("flood/lollipop N=2048 k=768 R=60", *mk2048, tuple(range(1, 3)), 60),
    ]


def _best_of(fn):
    best, out = None, None
    for _ in range(_SUB_REPS):
        t0 = time.perf_counter()
        res = fn()
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best, out = dt, res
    return best, out


def _time_backend(make_nodes, make_adv, max_rounds, backend):
    cfg = RunConfig(max_rounds=max_rounds, backend=backend, workers=0)
    return _best_of(lambda: replicate(make_nodes, make_adv, _SUB_SEEDS, cfg))


def _time_replicas(make_nodes, make_adv, seeds, max_rounds, **kwargs):
    return _best_of(
        lambda: run_batch_replicas(
            make_nodes, make_adv, list(seeds), max_rounds=max_rounds, **kwargs
        )
    )


def _fingerprints(runs):
    return [trace_fingerprint(r.trace) for r in runs]


def _traces_identical(a_runs, b_runs):
    """Field-wise trace equality — what the fingerprint digests, minus
    the JSON pass (the lollipop cells carry ~300k edges per round, and
    serializing them would cost 20x the benchmark itself)."""
    return len(a_runs) == len(b_runs) and all(
        a.trace.records == b.trace.records
        and a.trace.termination_round == b.trace.termination_round
        and a.trace.outputs == b.trace.outputs
        for a, b in zip(a_runs, b_runs)
    )


def _run_exp_sub() -> ExperimentResult:
    result = ExperimentResult(
        exp_id="EXP-SUB",
        title=f"Engine execution paths: reference/dense vs batch "
        f"(sequential, best of {_SUB_REPS})",
        headers=["cell", "rounds", "baseline", "base s", "batch s",
                 "speedup", "rep", "bit-identical"],
    )
    speedups = {}
    sparse_speedups = {}
    wall = 0.0
    for label, make_nodes, make_adv, max_rounds in _sub_cells():
        ref_s, ref = _time_backend(make_nodes, make_adv, max_rounds, "reference")
        bat_s, bat = _time_backend(make_nodes, make_adv, max_rounds, "batch")
        wall += ref_s + bat_s
        identical = _fingerprints(ref.runs) == _fingerprints(bat.runs)
        assert all(r.backend == "batch" for r in bat.runs), label
        rep = bat.runs[0].representation or "dense"
        speedup = round(ref_s / bat_s, 2) if bat_s else None
        speedups[label] = speedup
        result.rows.append([
            label, max_rounds, "reference", round(ref_s, 3), round(bat_s, 3),
            speedup, rep, identical,
        ])
    for label, make_nodes, make_adv, seeds, max_rounds in _sparse_cells():
        dense_s, dense = _time_replicas(
            make_nodes, make_adv, seeds, max_rounds,
            dense_node_limit=len(make_nodes.uids),
        )
        bat_s, bat = _time_replicas(make_nodes, make_adv, seeds, max_rounds)
        wall += dense_s + bat_s
        assert dense[0].representation == "dense", label
        identical = _traces_identical(dense, bat)
        speedup = round(dense_s / bat_s, 2) if bat_s else None
        speedups[label] = speedup
        sparse_speedups[label] = speedup
        result.rows.append([
            label, max_rounds, "batch-dense", round(dense_s, 3), round(bat_s, 3),
            speedup, bat[0].representation, identical,
        ])
    result.summary["max_speedup"] = max(speedups.values())
    result.summary["min_speedup"] = min(speedups.values())
    result.summary["sparse_min_speedup"] = min(sparse_speedups.values())
    result.notes.append(
        "identical trace fingerprints are the asserted contract; speedups "
        "are recorded for bench-diff tracking (they depend on the host). "
        "Classic cells measure speedup as reference/batch; the lollipop "
        "cells measure the packed-bitset kernel the tape picks above "
        "DENSE_NODE_LIMIT against the dense N x N kernel on the same cell "
        "(dense_node_limit=N)."
    )
    result.timings.update(wall_seconds=round(wall, 3))
    return result


def test_backend_comparison_table(benchmark, exp_output):
    """EXP-SUB: every execution path bit-identical, wall times recorded."""
    result = benchmark.pedantic(_run_exp_sub, rounds=1, iterations=1)
    exp_output(result)
    assert all(row[7] for row in result.rows), "backends diverged"
    assert result.summary["max_speedup"] is not None
    sparse_rows = [row for row in result.rows if row[2] == "batch-dense"]
    assert len(sparse_rows) >= 2
    assert any("N=2048" in row[0] for row in sparse_rows)
    # above DENSE_NODE_LIMIT the sparse kernel must not be slower than
    # the dense one; measured dense/bitset ratios are 1.1-2.1x
    assert result.summary["sparse_min_speedup"] >= 1.0
