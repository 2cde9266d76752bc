"""Sparse adjacency edge cases: boundaries, isolation, tiny rounds.

The batch backend picks an adjacency representation per cell — dense
incidence up to ``DENSE_NODE_LIMIT`` nodes, packed-bitset rows or CSR
above it (density-dependent) — and the pick must never be observable:
every representation yields bit-identical traces.  These tests pin the
selection boundary exactly (N at the limit ±1), and drive the sparse
delivery kernels through their degenerate shapes: a node isolated for
several rounds then reconnected, rounds with a single live edge, and
empty rounds, all under ``check_connected=False`` so the model layer
does not mask the kernel behaviour.  The bitset gather is driven from
both sides (one sender, one receiver) and through a round where no
receiver gets anything.  A Hypothesis property holds the tape's array
path (one pass over an already-normalized frozenset, packed-row BFS for
connectivity) and ``RoundTopology(ids, raw)`` to ``_normalize_edges`` +
``_is_connected`` on every input shape.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ModelViolation
from repro.network.adversaries import (
    FunctionAdversary,
    RandomConnectedAdversary,
    StaticAdversary,
)
from repro.network.generators import line_edges, lollipop_edges
from repro.protocols.flooding import GossipMaxNode, TokenFloodNode
from repro.network.topology import (
    DENSE_NODE_LIMIT,
    RoundTopology,
    _is_connected,
    _normalize_edges,
)
from repro.sim.batch import ScheduleTape, build_engine
from repro.sim.coins import CoinSource
from repro.sim.engine import SynchronousEngine
from repro.sim.trace import first_trace_divergence, trace_fingerprint


def _run(make_nodes, make_adv, seed, rounds, *, reference=False, sparse=None,
         **kwargs):
    nodes = make_nodes()
    adversary = make_adv()
    if reference:
        engine = SynchronousEngine(
            nodes, adversary, CoinSource(seed),
            check_connected=kwargs.get("check_connected", True),
        )
    else:
        if sparse is not None:  # a forced kind is a ScheduleTape-only hook
            kwargs["tape"] = ScheduleTape(
                adversary,
                dense_node_limit=kwargs.pop("dense_node_limit", None),
                incremental=not adversary.oblivious,
                sparse=sparse,
            )
        engine = build_engine(
            nodes, adversary, CoinSource(seed), backend="batch", **kwargs
        )
    engine.run(rounds)
    return engine


def _gossip(ids):
    return lambda: {u: GossipMaxNode(u) for u in ids}


def _flood(ids, src):
    return lambda: {u: TokenFloodNode(u, source=src) for u in ids}


# -- selection boundary ----------------------------------------------------


@pytest.mark.parametrize(
    "n,expected_dense",
    [
        (DENSE_NODE_LIMIT - 1, True),
        (DENSE_NODE_LIMIT, True),
        (DENSE_NODE_LIMIT + 1, False),
    ],
    ids=["limit-1", "limit", "limit+1"],
)
def test_dense_node_limit_boundary(n, expected_dense):
    """N <= DENSE_NODE_LIMIT stays dense; one more node goes sparse."""
    ids = list(range(n))
    tape = ScheduleTape(StaticAdversary(ids, line_edges(ids)))
    tape.bind(frozenset(ids))
    tape.topology(1)
    if expected_dense:
        assert tape.representation == "dense"
    else:
        assert tape.representation in ("bitset", "csr")


def test_dense_node_limit_validated():
    ids = list(range(4))
    with pytest.raises(ConfigurationError, match="dense_node_limit"):
        ScheduleTape(StaticAdversary(ids, line_edges(ids)), dense_node_limit=-1)


def test_boundary_bit_identity():
    """Crossing the limit changes the kernel, never the trace."""
    n = DENSE_NODE_LIMIT + 1
    ids = list(range(n))
    make_nodes = _flood(ids, src=n // 2)
    make_adv = lambda: StaticAdversary(ids, line_edges(ids))
    sparse = _run(make_nodes, make_adv, 7, 4)
    dense = _run(make_nodes, make_adv, 7, 4, dense_node_limit=n)
    assert sparse.representation in ("bitset", "csr")
    assert dense.representation == "dense"
    assert first_trace_divergence(dense.trace, sparse.trace) is None
    assert trace_fingerprint(dense.trace) == trace_fingerprint(sparse.trace)


def test_density_steers_bitset_vs_csr():
    """Sparse cells pick by memory: dense graphs bitset, sparse CSR."""
    ids = list(range(24))
    clique = [(u, v) for u in ids for v in ids if u < v]
    dense_tape = ScheduleTape(
        StaticAdversary(ids, clique), dense_node_limit=0
    )
    dense_tape.bind(frozenset(ids))
    dense_tape.topology(1)
    assert dense_tape.representation == "bitset"

    # CSR needs the bitset's n^2/8 bytes to lose to ~16E: a line only
    # gets there past n = 128
    big_ids = list(range(200))
    line_tape = ScheduleTape(
        StaticAdversary(big_ids, line_edges(big_ids)), dense_node_limit=0
    )
    line_tape.bind(frozenset(big_ids))
    line_tape.topology(1)
    assert line_tape.representation == "csr"


# -- degenerate round shapes ----------------------------------------------


def _fingerprints_across_representations(
    make_nodes, make_adv, seed, rounds, check_connected=True
):
    """Trace fingerprint under every representation; must be one value."""
    variants = {
        "dense": dict(),
        "auto-sparse": dict(dense_node_limit=0),
        "bitset": dict(dense_node_limit=0, sparse="bitset"),
        "csr": dict(dense_node_limit=0, sparse="csr"),
    }
    prints = {}
    for name, kwargs in variants.items():
        engine = _run(
            make_nodes, make_adv, seed, rounds,
            check_connected=check_connected, **kwargs,
        )
        prints[name] = trace_fingerprint(engine.trace)
    reference = _run(
        make_nodes, make_adv, seed, rounds,
        reference=True, check_connected=check_connected,
    )
    prints["reference"] = trace_fingerprint(reference.trace)
    return prints


def test_isolated_then_reconnected_node():
    """A node cut off for three rounds, then rejoined, on every kernel."""
    ids = list(range(9))
    connected = line_edges(ids)
    partial = line_edges(ids[:-1])  # node 8 isolated

    def edges(round_, view):
        return partial if round_ <= 3 else connected

    make_adv = lambda: FunctionAdversary(ids, edges, oblivious=True)
    prints = _fingerprints_across_representations(
        _gossip(ids), make_adv, seed=5, rounds=8, check_connected=False
    )
    assert len(set(prints.values())) == 1, prints


def test_single_edge_rounds():
    """Rounds whose whole topology is one live edge."""
    ids = list(range(6))

    def edges(round_, view):
        return [(round_ % 6, (round_ + 1) % 6)]

    make_adv = lambda: FunctionAdversary(ids, edges, oblivious=True)
    prints = _fingerprints_across_representations(
        _gossip(ids), make_adv, seed=11, rounds=10, check_connected=False
    )
    assert len(set(prints.values())) == 1, prints


def test_empty_rounds():
    """Edgeless rounds deliver nothing, identically, on every kernel."""
    ids = list(range(5))
    connected = line_edges(ids)

    def edges(round_, view):
        return [] if round_ % 2 == 0 else connected

    make_adv = lambda: FunctionAdversary(ids, edges, oblivious=True)
    prints = _fingerprints_across_representations(
        _gossip(ids), make_adv, seed=3, rounds=8, check_connected=False
    )
    assert len(set(prints.values())) == 1, prints


def test_force_sparse_matches_force_dense_randomized():
    """dense_node_limit=0 (forced sparse) == forced dense, random graphs."""
    ids = list(range(30))
    make_nodes = _gossip(ids)
    make_adv = lambda: RandomConnectedAdversary(ids, seed=9, extra_edge_prob=0.15)
    forced_sparse = _run(make_nodes, make_adv, 13, 20, dense_node_limit=0)
    forced_dense = _run(make_nodes, make_adv, 13, 20, dense_node_limit=10 ** 6)
    assert forced_sparse.representation in ("bitset", "csr")
    assert forced_dense.representation == "dense"
    assert first_trace_divergence(forced_dense.trace, forced_sparse.trace) is None
    assert trace_fingerprint(forced_dense.trace) == trace_fingerprint(
        forced_sparse.trace
    )


def _gossip_senders(ids, senders):
    """Nodes in ``senders`` send every round; everyone else receives."""
    senders = set(senders)
    return lambda: {
        u: GossipMaxNode(u, send_prob=1.0 if u in senders else 0.0) for u in ids
    }


@pytest.mark.parametrize(
    "senders",
    [[17], [u for u in range(40) if u != 23]],
    ids=["one-sender", "one-receiver"],
)
def test_bitset_gather_sides(senders):
    """Over a clique, one hub sending makes the bitset gather unpack the
    sender row and transpose; everyone but one sink sending makes it
    unpack the sink's row."""
    ids = list(range(40))
    clique = [(u, v) for u in ids for v in ids if u < v]
    make_adv = lambda: StaticAdversary(ids, clique)
    prints = _fingerprints_across_representations(
        _gossip_senders(ids, senders), make_adv, seed=2, rounds=3
    )
    assert len(set(prints.values())) == 1, prints


def test_round_where_no_receiver_gets_a_payload():
    """Senders and receivers in separate components: every receiver is
    handed the empty tuple while both sides are non-empty."""
    ids = list(range(30))
    left, right = ids[:12], ids[12:]
    edges = line_edges(left) | line_edges(right)
    make_adv = lambda: StaticAdversary(ids, edges)
    prints = _fingerprints_across_representations(
        _gossip_senders(ids, left), make_adv, seed=6, rounds=4,
        check_connected=False,
    )
    assert len(set(prints.values())) == 1, prints


# -- the vouched array path vs the reference helpers -----------------------


def _verdict(build):
    """``(edge reprs, connected)`` from ``build()``, or its ModelViolation."""
    try:
        edges, connected = build()
    except ModelViolation as exc:
        return "error", str(exc)
    return sorted(map(repr, edges)), connected


def _reference_verdict(raw, node_ids):
    def build():
        edges = _normalize_edges(raw, node_ids)
        return edges, _is_connected(node_ids, edges)

    return _verdict(build)


def _topology_verdict(make_raw, ids):
    def build():
        topo = RoundTopology(ids, make_raw())
        return topo.edges, topo.is_connected()

    return _verdict(build)


def _tape_verdicts(make_raw, ids, **kwargs):
    """The verdict of a replay tape's topology(1) and of an incremental
    tape's commit(1, ...), each on a fresh input."""
    replay = ScheduleTape(
        FunctionAdversary(ids, lambda r, v: make_raw(), oblivious=True), **kwargs
    )
    incremental = ScheduleTape(FunctionAdversary(ids, None), incremental=True, **kwargs)
    verdicts = []
    for tape in (replay, incremental):
        tape.bind(frozenset(ids))

        def build():
            topo = tape.commit(1, make_raw()) if tape.incremental else tape.topology(1)
            return topo.edges, topo.is_connected()

        verdicts.append(_verdict(build))
    return verdicts


#: a defect spoils a normalized edge list in one way the array path must
#: refuse (and hand to _normalize_edges) or absorb identically
_DEFECTS = (
    "reverse", "duplicate", "self-loop", "stranger", "bool", "float",
    "half", "numpy-int", "triple",
)


@st.composite
def _edge_inputs(draw):
    """(ids, zero-arg factory of one raw edges() value)."""
    n = draw(st.integers(2, 24))
    base = draw(st.sampled_from([0, 0, 0, 5]))  # mostly ids 0..N-1
    ids = list(range(base, base + n))
    node = st.integers(base, base + n - 1)
    pairs = [
        (min(u, v), max(u, v))
        for u, v in draw(st.lists(st.tuples(node, node), max_size=3 * n))
        if u != v
    ]
    for defect in sorted(draw(st.sets(st.sampled_from(_DEFECTS), max_size=2))):
        at = draw(st.integers(0, len(pairs)))
        u = draw(node)
        if pairs and defect in ("reverse", "duplicate", "float", "half", "numpy-int"):
            k = at % len(pairs)
            v, w = pairs[k]
            if defect == "duplicate":
                pairs.insert(at, (w, v))
            else:
                pairs[k] = {
                    "reverse": (w, v),
                    "float": (float(v), w),
                    "half": (v + 0.5, w),
                    "numpy-int": (v, np.int64(w)),
                }[defect]
        elif defect == "self-loop":
            pairs.insert(at, (u, u))
        elif defect == "stranger":
            pairs.insert(at, (u, draw(st.sampled_from([base - 1, base + n, 99]))))
        elif defect == "bool":
            pairs.insert(at, (True, u) if u != 1 else (u, False))
        elif defect == "triple":
            pairs.insert(at, (u, u + 1, u + 2))
    # frozensets twice as often: they are the inputs the array path vouches for
    container = draw(
        st.sampled_from(
            ["frozenset", "frozenset", "set", "list", "generator", "not-iterable"]
        )
    )
    if container == "generator":
        return ids, lambda: (pair for pair in pairs)
    if container == "not-iterable":
        return ids, lambda: len(pairs)
    return ids, lambda: {"frozenset": frozenset, "set": set, "list": list}[
        container
    ](pairs)


_IDS4 = [0, 1, 2, 3]


@given(_edge_inputs(), st.sampled_from(["auto", "bitset", "csr"]))
@example((_IDS4, lambda: frozenset({(0, 1), (True, 2), (2, 3)})), "auto")
@example((_IDS4, lambda: frozenset({(0, 1), (1.0, 2), (2, 3)})), "auto")
@example((_IDS4, lambda: frozenset({(0, 1), (1.5, 2), (2, 3)})), "auto")
@example((_IDS4, lambda: frozenset({(0, 1), (1, np.int64(2)), (2, 3)})), "csr")
@example((_IDS4, lambda: [(0, 1), (1, 2, 3)]), "auto")
@example((_IDS4, lambda: 3), "auto")
def test_array_path_matches_reference_helpers(case, sparse):
    """Every input shape yields the edges and connectivity of
    _normalize_edges + _is_connected, or its error: through both tapes
    (dense_node_limit=0) and through ``RoundTopology(ids, raw)``."""
    ids, make_raw = case
    want = _reference_verdict(make_raw(), frozenset(ids))
    for got in _tape_verdicts(make_raw, ids, dense_node_limit=0, sparse=sparse):
        assert got == want
    assert _topology_verdict(make_raw, ids) == want


def test_normalized_frozenset_is_kept_as_is():
    """The array path stores the adversary's own frozenset, no copy."""
    ids = list(range(200))
    adversary = StaticAdversary(ids, line_edges(ids))
    tape = ScheduleTape(adversary, dense_node_limit=0)
    tape.bind(frozenset(ids))
    topo = tape.topology(1)
    assert topo.kind == "csr"
    assert topo.edges is adversary.edges(1, None)


@pytest.mark.parametrize("broken", [False, True], ids=["intact", "tail-cut"])
def test_bitset_lollipop_connectivity(broken):
    """A bitset lollipop above the dense limit, whole and with one tail
    edge removed: the packed-row BFS agrees with union-find."""
    n, clique = DENSE_NODE_LIMIT + 88, 300
    ids = list(range(n))
    edges = frozenset(lollipop_edges(ids[:clique], ids[clique:]))
    if broken:
        edges -= {(n - 40, n - 39)}
    adversary = StaticAdversary(ids, edges)
    tape = ScheduleTape(adversary)
    tape.bind(frozenset(ids))
    topo = tape.topology(1)
    assert topo.kind == "bitset"
    assert topo.edges is adversary.edges(1, None)
    assert topo.is_connected() is (not broken)
    assert topo.is_connected() == _is_connected(frozenset(ids), edges)
