"""Topology builders: lines, rings, stars, cliques, random trees.

All builders take an explicit sequence of node ids (not just a count), so
that the same generators serve both stand-alone experiments (ids 0..N-1)
and subnetwork composition (arbitrary id blocks).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

import numpy as np

from .._util import require

__all__ = [
    "line_edges",
    "ring_edges",
    "star_edges",
    "clique_edges",
    "random_tree_edges",
    "random_connected_edges",
    "binary_tree_edges",
    "lollipop_edges",
]

Edge = Tuple[int, int]


def line_edges(ids: Sequence[int]) -> Set[Edge]:
    """A path through ``ids`` in the given order."""
    return {(ids[i], ids[i + 1]) for i in range(len(ids) - 1)}


def ring_edges(ids: Sequence[int]) -> Set[Edge]:
    """A cycle through ``ids`` (needs at least 3 ids)."""
    require(len(ids) >= 3, "a ring needs at least 3 nodes")
    edges = line_edges(ids)
    edges.add((ids[-1], ids[0]))
    return edges


def star_edges(center: int, leaves: Sequence[int]) -> Set[Edge]:
    """A star with the given center."""
    return {(center, leaf) for leaf in leaves if leaf != center}


def clique_edges(ids: Sequence[int]) -> Set[Edge]:
    """All pairs."""
    out: Set[Edge] = set()
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            out.add((u, v))
    return out


def binary_tree_edges(ids: Sequence[int]) -> Set[Edge]:
    """A complete binary tree in level order over ``ids``."""
    out: Set[Edge] = set()
    for i in range(1, len(ids)):
        out.add((ids[(i - 1) // 2], ids[i]))
    return out


def lollipop_edges(clique_ids: Sequence[int], path_ids: Sequence[int]) -> Set[Edge]:
    """A clique with a path ("stick") hanging off its last member.

    The canonical straggler topology: most nodes are mutually close, a
    few sit at the end of a long tail.  Confirmed flooding is decided by
    the tail — fractional-coverage heuristics confirm long before the
    tail is served (see :mod:`repro.protocols.doubling`).
    """
    require(len(clique_ids) >= 1 and len(path_ids) >= 1, "both parts must be non-empty")
    edges = clique_edges(clique_ids)
    edges |= line_edges([clique_ids[-1]] + list(path_ids))
    return edges


def random_tree_edges(ids: Sequence[int], rng: np.random.Generator) -> Set[Edge]:
    """A uniform random recursive tree over ``ids``.

    Each node after the first attaches to a uniformly random earlier node
    — connected by construction, expected diameter Theta(log n).
    """
    require(len(ids) >= 1, "a tree needs at least one node")
    if len(ids) == 1:
        return set()
    # one draw per node, each parent uniform over 0..i-1: the same values
    # (and generator state) as one rng.integers(0, i) call per node
    parents = rng.integers(0, np.arange(1, len(ids))).tolist()
    return {(ids[j], ids[i]) for i, j in enumerate(parents, start=1)}


def random_connected_edges(
    ids: Sequence[int], rng: np.random.Generator, extra_edge_prob: float = 0.0
) -> Set[Edge]:
    """A random tree plus independent extra edges with probability ``p``.

    The tree guarantees connectivity; extras thicken the graph.  With
    ``p = 0`` this is exactly :func:`random_tree_edges` over a shuffled
    order (so the tree shape is not biased by the id order).
    """
    order: List[int] = list(ids)
    perm = rng.permutation(len(order))
    shuffled = [order[k] for k in perm.tolist()]
    edges = random_tree_edges(shuffled, rng)
    if extra_edge_prob > 0.0 and len(order) >= 2:
        n = len(order)
        # vectorized Bernoulli over the upper triangle
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(len(iu)) < extra_edge_prob
        for a, b in zip(iu[mask], ju[mask]):
            u, v = order[int(a)], order[int(b)]
            edges.add((u, v) if u < v else (v, u))
    return edges
