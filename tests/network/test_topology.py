"""Tests for RoundTopology and the generators."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ModelViolation
from repro.network.generators import (
    binary_tree_edges,
    clique_edges,
    line_edges,
    random_connected_edges,
    random_tree_edges,
    ring_edges,
    star_edges,
)
from repro.network.topology import RoundTopology


class TestRoundTopology:
    def test_normalizes_and_dedups_edges(self):
        t = RoundTopology([1, 2, 3], [(2, 1), (1, 2), (2, 3)])
        assert t.edges == frozenset({(1, 2), (2, 3)})
        assert len(t.edges) == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ModelViolation):
            RoundTopology([1, 2], [(1, 1)])

    def test_rejects_foreign_edge(self):
        with pytest.raises(ModelViolation):
            RoundTopology([1, 2], [(1, 5)])

    def test_adjacency_has_true_diagonal(self):
        """The closed rows the causality analysis reads list every node
        itself first (the paper's self-influence), then its neighbours,
        whichever adjacency form the topology holds."""
        t = RoundTopology([1, 2, 5, 9], [(1, 2), (9, 2)])
        assert t.kind == "dense"
        flat = np.array([0, 1, 1, 3])
        for kind in ("dense", "bitset", "csr"):
            topo = RoundTopology.from_normalized(t.node_ids, t.edges, kind, flat)
            indptr, indices = topo.closed_rows()
            rows = [indices[indptr[i]:indptr[i + 1]].tolist() for i in range(4)]
            assert rows == [[0, 1], [1, 0, 3], [2], [3, 1]], kind

    def test_connectivity(self):
        assert RoundTopology([1, 2, 3], line_edges([1, 2, 3])).is_connected()
        assert not RoundTopology([1, 2, 3], [(1, 2)]).is_connected()
        assert RoundTopology([7], []).is_connected()


class TestGenerators:
    def test_line(self):
        assert line_edges([3, 1, 2]) == {(3, 1), (1, 2)}

    def test_ring(self):
        edges = ring_edges([1, 2, 3])
        assert len(edges) == 3
        degree = Counter(u for edge in edges for u in edge)
        assert degree == {1: 2, 2: 2, 3: 2}

    def test_star(self):
        assert star_edges(5, [1, 2, 5]) == {(5, 1), (5, 2)}

    def test_clique(self):
        assert len(clique_edges(list(range(5)))) == 10

    def test_binary_tree(self):
        edges = binary_tree_edges([0, 1, 2, 3, 4])
        assert edges == {(0, 1), (0, 2), (1, 3), (1, 4)}

    @given(st.integers(1, 40), st.integers(0, 2**32))
    def test_random_tree_is_spanning(self, n, seed):
        ids = list(range(n))
        rng = np.random.default_rng(seed)
        edges = random_tree_edges(ids, rng)
        assert len(edges) == n - 1
        assert RoundTopology(ids, edges).is_connected()

    @given(st.integers(2, 25), st.integers(0, 2**32), st.floats(0.0, 0.5))
    def test_random_connected_is_connected(self, n, seed, p):
        ids = list(range(n))
        rng = np.random.default_rng(seed)
        edges = random_connected_edges(ids, rng, extra_edge_prob=p)
        t = RoundTopology(ids, edges)
        assert t.is_connected()
        assert len(t.edges) >= n - 1


def _scalar_tree(ids, rng):
    """The reference draw: one ``rng.integers(0, i)`` call per node."""
    out = set()
    for i in range(1, len(ids)):
        j = int(rng.integers(0, i))
        out.add((ids[j], ids[i]))
    return out


def _scalar_connected(ids, rng, extra_edge_prob):
    """The reference random connected graph over :func:`_scalar_tree`."""
    order = list(ids)
    perm = rng.permutation(len(order))
    edges = _scalar_tree([order[int(k)] for k in perm], rng)
    if extra_edge_prob > 0.0 and len(order) >= 2:
        iu, ju = np.triu_indices(len(order), k=1)
        mask = rng.random(len(iu)) < extra_edge_prob
        for a, b in zip(iu[mask], ju[mask]):
            u, v = order[int(a)], order[int(b)]
            edges.add((u, v) if u < v else (v, u))
    return edges


_DRAW_SIZES = (1, 2, 3, 8, 31, 32, 64, 100, 520, 1024, 4096)


class TestVectorizedTreeDraw:
    """The one-call parent draw equals the scalar loop it replaced: the
    same edges and the same generator state afterwards, so every later
    draw from the generator (the extra edges, the next epoch's tree) is
    unchanged too."""

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    @pytest.mark.parametrize("n", _DRAW_SIZES)
    def test_tree_matches_scalar_loop(self, n, seed):
        ids = [3 * i + 1 for i in range(n)]
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_tree_edges(ids, got_rng) == _scalar_tree(ids, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    @pytest.mark.parametrize(
        "n, p",
        [(n, p) for n in _DRAW_SIZES for p in (0.0, 0.1) if (n, p) != (4096, 0.1)]
        + [pytest.param(4096, 0.1, marks=pytest.mark.slow)],
    )
    def test_connected_matches_scalar_reference(self, n, p, seed):
        ids = list(range(n))
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_connected_edges(ids, got_rng, extra_edge_prob=p)
        assert got == _scalar_connected(ids, want_rng, p)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
