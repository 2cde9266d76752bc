"""The causal-influence relation and the dynamic diameter (Section 2).

Definitions (paper): for round r >= 0 and nodes U, V,
``(U, r) -> (V, r+1)`` iff (U, V) is an edge in round r+1 or U = V;
``⇝`` is the transitive closure.  The *dynamic diameter* is the least D
such that for every r and every U, V: ``(U, r) ⇝ (V, r+D)``.

Influence is propagated as packed ``np.uint64`` rows: row j of an
``(N, W)`` array holds one bit per *source*, set once that source has
causally influenced node j.  Eccentricities track every node as its own
source (``W = ceil(N/64)``, :func:`identity_rows`); closures and floods
track one source set as a single bit (``W = 1``, :func:`source_rows`).
One round is one :func:`influence_step`: every node ORs the rows of its
closed neighbourhood — itself and its neighbours in that round — with a
gather plus one ``np.bitwise_or.reduceat`` over the topology's CSR rows
(:meth:`~repro.network.topology.RoundTopology.closed_rows`).  It is the
same step at every N and for every adjacency form, and every influence
loop in the package goes through it.  ``tests/network/test_causality.py``
holds it to the dense boolean matrix product it replaced (an N x N
influence matrix times each round's adjacency) with a Hypothesis
property.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from .dynamic import DynamicSchedule
from .topology import RoundTopology

__all__ = [
    "causal_closure",
    "flood_completion_time",
    "reaches_all_within",
    "dynamic_diameter",
    "eccentricity_from",
    "identity_rows",
    "source_rows",
    "influence_step",
]


def influence_step(topology: RoundTopology, rows: np.ndarray) -> np.ndarray:
    """The influence rows after one more round over ``topology``."""
    indptr, indices = topology.closed_rows()
    return np.bitwise_or.reduceat(rows[indices], indptr[:-1], axis=0)


def identity_rows(n: int) -> np.ndarray:
    """``(n, ceil(n/64))`` rows in which every node has influenced itself."""
    rows = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    i = np.arange(n)
    rows[i, i >> 6] = np.left_shift(np.uint64(1), (i & 63).astype(np.uint64))
    return rows


def source_rows(schedule: DynamicSchedule, sources: Iterable[int]) -> np.ndarray:
    """``(N, 1)`` rows whose one bit marks the nodes in ``sources``."""
    index = {uid: i for i, uid in enumerate(schedule.node_ids)}
    rows = np.zeros((schedule.num_nodes, 1), dtype=np.uint64)
    for uid in sources:
        rows[index[uid]] = 1
    return rows


def causal_closure(
    schedule: DynamicSchedule,
    sources: Iterable[int],
    start_round: int = 0,
    rounds: int = 1,
) -> frozenset:
    """Nodes V with ``(U, start_round) ⇝ (V, start_round + rounds)`` for
    some source U."""
    reached = source_rows(schedule, sources)
    for k in range(1, rounds + 1):
        reached = influence_step(schedule.topology(start_round + k), reached)
    ids = schedule.node_ids
    return frozenset(ids[i] for i in np.flatnonzero(reached[:, 0]))


def flood_completion_time(
    schedule: DynamicSchedule,
    source: int,
    start_round: int = 0,
    max_rounds: Optional[int] = None,
) -> Optional[int]:
    """Rounds until ``source``'s influence (from ``start_round``) covers
    every node, or None if it never does within the budget."""
    n = schedule.num_nodes
    budget = max_rounds if max_rounds is not None else schedule.explicit_rounds + n
    reached = source_rows(schedule, [source])
    for k in range(1, budget + 1):
        new = influence_step(schedule.topology(start_round + k), reached)
        if new.all():
            return k
        if start_round + k >= schedule.explicit_rounds and np.array_equal(new, reached):
            # static tail, influence set stable but incomplete: never completes
            return None
        reached = new
    return None


def eccentricity_from(
    schedule: DynamicSchedule, start_round: int, max_rounds: int
) -> Optional[int]:
    """Least z such that every node's influence at ``start_round`` covers
    all nodes by ``start_round + z`` (None if > max_rounds).

    Propagates all N sources at once, one bit each.
    """
    influence = identity_rows(schedule.num_nodes)
    full = np.bitwise_or.reduce(influence, axis=0)  # every source bit
    for z in range(1, max_rounds + 1):
        influence = influence_step(schedule.topology(start_round + z), influence)
        if (influence == full).all():
            return z
    return None


def _settled_round(schedule: DynamicSchedule) -> int:
    """The first round k from which every topology has the same edges."""
    k = schedule.explicit_rounds
    last = schedule.topology(k).edges
    while k > 1 and schedule.topology(k - 1).edges == last:
        k -= 1
    return k


def dynamic_diameter(
    schedule: DynamicSchedule,
    max_diameter: Optional[int] = None,
    start_rounds: Optional[Sequence[int]] = None,
) -> Optional[int]:
    """The dynamic diameter of a schedule (None if above ``max_diameter``).

    Without explicit ``start_rounds`` it checks starts 0..k-1, where
    round k is the first from which every topology has the same edges
    (the tail repeats the last one).  From any start >= k-1 the
    remaining schedule is one static graph, so every later start repeats
    the eccentricity of start k-1; a static schedule needs one start.
    """
    n = schedule.num_nodes
    cap = max_diameter if max_diameter is not None else schedule.explicit_rounds + n
    starts = (
        list(start_rounds)
        if start_rounds is not None
        else list(range(_settled_round(schedule)))
    )
    if not starts:
        raise ConfigurationError("need at least one start round")
    worst = 0
    for r0 in starts:
        ecc = eccentricity_from(schedule, r0, cap)
        if ecc is None:
            return None
        worst = max(worst, ecc)
    return worst


def reaches_all_within(schedule: DynamicSchedule, start_round: int, d: int) -> bool:
    """True iff every node's influence at ``start_round`` covers all nodes
    within ``d`` rounds."""
    return eccentricity_from(schedule, start_round, d) is not None
