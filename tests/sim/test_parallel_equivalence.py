"""Property test: parallel replicate ≡ sequential replicate, always.

Hypothesis draws random (protocol, adversary, seed list, worker count)
combinations and asserts the parallel run is run-for-run identical to
the sequential one — rounds, total bits, outputs — and that the merged
session metrics agree with the sequential session's on every
deterministic (non-timing) metric.

The pool is expensive to spin up, so ``max_examples`` is deliberately
small; the deadline is disabled for the same reason.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.adversaries import (
    OverlappingStarsAdversary,
    RandomConnectedAdversary,
    ShiftingLineAdversary,
    StaticAdversary,
)
from repro.network.generators import line_edges
from repro.obs import observe
from repro.protocols.cflood import cflood_factory
from repro.protocols.flooding import TokenFloodNode
from repro.sim.config import RunConfig
from repro.sim.factories import BoundNode, Constant, NodeSet
from repro.sim.runner import replicate

from ..conftest import counters_from_traces, session_counters


def _make_adversary(kind: str, ids, seed: int):
    if kind == "random":
        return RandomConnectedAdversary(ids, seed=seed)
    if kind == "stars":
        return OverlappingStarsAdversary(list(ids))
    if kind == "shifting-line":
        return ShiftingLineAdversary(list(ids), seed=seed)
    return StaticAdversary(list(ids), line_edges(list(ids)))


def _make_node_factory(kind: str, ids):
    n = len(ids)
    src = ids[0]
    if kind == "cflood-conservative":
        return NodeSet(ids, cflood_factory(src, num_nodes=n))
    if kind == "cflood-known-d":
        return NodeSet(ids, cflood_factory(src, d_param=max(2, n // 2)))
    return NodeSet(ids, BoundNode(TokenFloodNode, source=src))


@st.composite
def _cases(draw):
    n = draw(st.integers(min_value=4, max_value=10))
    ids = tuple(range(n))
    protocol = draw(
        st.sampled_from(["cflood-conservative", "cflood-known-d", "token-flood"])
    )
    adversary = draw(
        st.sampled_from(["random", "stars", "shifting-line", "static-line"])
    )
    adv_seed = draw(st.integers(min_value=0, max_value=2**16))
    seeds = draw(
        st.lists(st.integers(min_value=0, max_value=2**31), min_size=1, max_size=4)
    )
    workers = draw(st.integers(min_value=1, max_value=3))
    return ids, protocol, adversary, adv_seed, seeds, workers


@given(_cases())
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_parallel_replicate_equals_sequential(case):
    ids, protocol, adversary, adv_seed, seeds, workers = case
    make_nodes = _make_node_factory(protocol, ids)
    make_adv = Constant(_make_adversary(adversary, ids, adv_seed))
    max_rounds = 12 * len(ids)

    with observe() as seq_session:
        seq = replicate(
            make_nodes, make_adv, seeds,
            RunConfig(max_rounds=max_rounds, workers=0),
        )
    with observe() as par_session:
        par = replicate(
            make_nodes, make_adv, seeds,
            RunConfig(max_rounds=max_rounds, workers=workers),
        )

    assert [r.rounds for r in seq.runs] == [r.rounds for r in par.runs]
    assert [r.terminated for r in seq.runs] == [r.terminated for r in par.runs]
    assert [r.total_bits for r in seq.runs] == [r.total_bits for r in par.runs]
    assert [r.outputs for r in seq.runs] == [r.outputs for r in par.runs]
    assert [r.trace.edge_schedule() for r in seq.runs] == [
        r.trace.edge_schedule() for r in par.runs
    ]

    # merged counters equal the sequential session's, and the totals
    # recomputed from the traces; histogram *counts* (not their
    # timing-valued sums) agree too
    counters = session_counters(seq_session)
    assert session_counters(par_session) == counters
    assert counters == counters_from_traces(r.trace for r in seq.runs)
    seq_snap = seq_session.manifest.metrics
    par_snap = par_session.manifest.metrics
    assert set(seq_snap) == set(par_snap)
    for key, metric in seq_snap.items():
        if metric["type"] == "counter":
            assert par_snap[key]["value"] == metric["value"], key
        elif metric["type"] == "histogram":
            assert par_snap[key]["count"] == metric["count"], key
