"""Adversaries: per-round topology choosers for the engine.

Every adversary implements ``edges(round_, view)`` where ``view`` is the
engine's :class:`~repro.sim.engine.AdversaryView` (committed actions,
node states, history).  Oblivious adversaries ignore the view; adaptive
ones — like the reference adversary of the lower-bound constructions —
inspect committed actions, which the model permits.

The worst-case schedules here are the standard hard instances for
information spreading in dynamic networks:

* :class:`ShiftingLineAdversary` — a line whose order is re-randomized
  every round; keeps the *per-round* diameter Theta(N) and makes the
  dynamic diameter large.
* :class:`RotatingStarAdversary` — a star whose center rotates; every
  round has static diameter 2 yet the dynamic diameter is Theta(N);
* :class:`OverlappingStarsAdversary` — current + previous center stars;
  dynamic diameter O(1) under total churn, the canonical "small unknown
  D" regime the paper's question is about;
* :class:`TIntervalAdversary` — holds each topology for T rounds
  (the T-interval connectivity model of Kuhn-Lynch-Oshman).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, List, Sequence, Set, Tuple

import numpy as np

from .._util import require, stable_hash64
from .dynamic import DynamicSchedule
from .generators import line_edges, random_connected_edges, star_edges
from .topology import RoundTopology

__all__ = [
    "Adversary",
    "StaticAdversary",
    "ScheduleAdversary",
    "RandomConnectedAdversary",
    "ShiftingLineAdversary",
    "RotatingStarAdversary",
    "OverlappingStarsAdversary",
    "TIntervalAdversary",
    "FunctionAdversary",
    "first_divergence_round",
    "adversary_divergence_round",
]

Edge = Tuple[int, int]


def _norm_edge_set(edges: Iterable[Edge]) -> Set[Edge]:
    return {(u, v) if u < v else (v, u) for u, v in edges}


def first_divergence_round(
    edges_a: Callable[[int], Iterable[Edge]],
    edges_b: Callable[[int], Iterable[Edge]],
    rounds: int,
):
    """First round two per-round edge functions disagree, with the delta.

    Returns ``(round, only_a, only_b)`` — the 1-based round and the
    sorted normalized edges unique to each side — or ``None`` when the
    two schedules agree on every round in ``1..rounds``.  This is the
    primitive behind the proof ledger's ``divergence`` records: the
    reference adversary and a party's belief adversary must agree until
    the disagreement is confined to spoiled territory (Lemma 5), and the
    *round* at which they part is the quantity worth logging.
    """
    for r in range(1, rounds + 1):
        ea = _norm_edge_set(edges_a(r))
        eb = _norm_edge_set(edges_b(r))
        if ea != eb:
            return r, sorted(ea - eb), sorted(eb - ea)
    return None


def adversary_divergence_round(adv_a: "Adversary", adv_b: "Adversary", rounds: int, view=None):
    """:func:`first_divergence_round` over two :class:`Adversary` objects.

    Both are materialized with the same (typically ``None``) view, so
    adaptive adversaries are compared under their oblivious default.
    """
    return first_divergence_round(
        lambda r: adv_a.edges(r, view), lambda r: adv_b.edges(r, view), rounds
    )


class Adversary(ABC):
    """Chooses the topology of each round."""

    #: True iff :meth:`edges` never reads the view — the schedule is a
    #: pure function of the round number, so it can be materialized into
    #: a :class:`~repro.sim.batch.ScheduleTape` and replayed by the batch
    #: backend.  Adaptive families (the default) still run on the batch
    #: backend, via an incremental tape that grows as each round's
    #: topology is committed.  Conservative default: adaptive unless a
    #: family opts in.
    oblivious: bool = False

    def __init__(self, node_ids: Iterable[int]):
        self.node_ids: Tuple[int, ...] = tuple(sorted(set(node_ids)))

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @abstractmethod
    def edges(self, round_: int, view) -> Iterable[Edge]:
        """Edge set for the given 1-based round."""

    def schedule_key(self, round_: int):
        """A hashable key such that equal keys imply equal topologies.

        The schedule tape uses this to skip re-materializing (and
        re-validating) rounds whose topology provably repeats — rotating
        and overlapping stars have period N, static families period 1,
        T-interval families one key per epoch.  ``None`` (the default)
        promises nothing; the tape then interns by edge-set content.
        """
        return None

    def schedule(self, rounds: int, view=None) -> DynamicSchedule:
        """Materialize the first ``rounds`` topologies (oblivious only).

        Adaptive adversaries that actually read the view may refuse this.
        """
        tops = [RoundTopology(self.node_ids, self.edges(r, view)) for r in range(1, rounds + 1)]
        return DynamicSchedule(tops)


class StaticAdversary(Adversary):
    """The same graph every round (a static network)."""

    oblivious = True

    def __init__(self, node_ids: Iterable[int], fixed_edges: Iterable[Edge]):
        super().__init__(node_ids)
        self._edges = frozenset(
            (u, v) if u < v else (v, u) for u, v in fixed_edges
        )

    def schedule_key(self, round_: int):
        return 0  # one topology, every round

    def edges(self, round_: int, view) -> Iterable[Edge]:
        return self._edges


class ScheduleAdversary(Adversary):
    """Plays back a pre-baked :class:`DynamicSchedule`."""

    oblivious = True

    def __init__(self, schedule: DynamicSchedule):
        super().__init__(schedule.node_ids)
        self._schedule = schedule

    def schedule_key(self, round_: int):
        # the tail repeats the last explicit topology
        return min(round_ - 1, self._schedule.explicit_rounds - 1)

    def edges(self, round_: int, view) -> Iterable[Edge]:
        return self._schedule.topology(round_).edges


class FunctionAdversary(Adversary):
    """Wraps an arbitrary ``(round, view) -> edges`` callable.

    Pass ``oblivious=True`` only when ``fn`` provably ignores the view;
    that opts the wrapper into the batch backend's schedule tape.
    """

    def __init__(
        self,
        node_ids: Iterable[int],
        fn: Callable[[int, object], Iterable[Edge]],
        oblivious: bool = False,
    ):
        super().__init__(node_ids)
        self._fn = fn
        self.oblivious = oblivious

    def edges(self, round_: int, view) -> Iterable[Edge]:
        return self._fn(round_, view)


class RandomConnectedAdversary(Adversary):
    """A fresh random connected graph (tree + extras) every round.

    Deterministic in (seed, round): replays identically across runs,
    which keeps replication honest.
    """

    oblivious = True

    def __init__(self, node_ids: Iterable[int], seed: int, extra_edge_prob: float = 0.0):
        super().__init__(node_ids)
        self.seed = seed
        self.extra_edge_prob = extra_edge_prob

    def edges(self, round_: int, view) -> Iterable[Edge]:
        rng = np.random.default_rng(stable_hash64((self.seed, 0xAD, round_)))
        return random_connected_edges(self.node_ids, rng, self.extra_edge_prob)


class ShiftingLineAdversary(Adversary):
    """A line whose node order is re-randomized each round.

    The per-round diameter is N-1; re-shuffling denies protocols any
    stable routing structure.  The dynamic diameter stays Theta(N) in the
    worst case but information still spreads (connectivity holds), making
    this the stress schedule for "unknown, large D".
    """

    oblivious = True

    def __init__(self, node_ids: Iterable[int], seed: int, reshuffle_every: int = 1):
        super().__init__(node_ids)
        require(reshuffle_every >= 1, "reshuffle_every must be >= 1")
        self.seed = seed
        self.reshuffle_every = reshuffle_every

    def schedule_key(self, round_: int):
        return (round_ - 1) // self.reshuffle_every  # one line per epoch

    def _order(self, round_: int) -> List[int]:
        epoch = (round_ - 1) // self.reshuffle_every
        rng = np.random.default_rng(stable_hash64((self.seed, 0x11E, epoch)))
        perm = rng.permutation(len(self.node_ids))
        return [self.node_ids[int(i)] for i in perm]

    def edges(self, round_: int, view) -> Iterable[Edge]:
        return line_edges(self._order(round_))


class RotatingStarAdversary(Adversary):
    """A star whose center advances each round.

    Deceptively hard: every *single* round has static diameter 2, yet the
    dynamic diameter is Theta(N) — a node's influence reaches the current
    center one round after that center has already moved on, so coverage
    only completes when the rotation wraps around.  A clean witness that
    per-round diameter says nothing about the dynamic diameter.
    """

    oblivious = True

    def __init__(self, node_ids: Iterable[int]):
        super().__init__(node_ids)
        require(len(self.node_ids) >= 2, "a star needs at least 2 nodes")

    def schedule_key(self, round_: int):
        return (round_ - 1) % len(self.node_ids)  # period-N rotation

    def edges(self, round_: int, view) -> Iterable[Edge]:
        center = self.node_ids[(round_ - 1) % len(self.node_ids)]
        return star_edges(center, self.node_ids)


class OverlappingStarsAdversary(Adversary):
    """Two overlapping stars: this round's center plus the previous one.

    Keeping yesterday's center attached to everyone closes the gap that
    makes :class:`RotatingStarAdversary` slow: any node's influence holds
    the old center after one round, and the old center still talks to all
    nodes in the next — dynamic diameter O(1) under total edge churn.
    This is the "tiny unknown D" regime the paper's question targets.
    """

    oblivious = True

    def __init__(self, node_ids: Iterable[int]):
        super().__init__(node_ids)
        require(len(self.node_ids) >= 2, "stars need at least 2 nodes")

    def schedule_key(self, round_: int):
        return (round_ - 1) % len(self.node_ids)  # period-N rotation

    def edges(self, round_: int, view) -> Iterable[Edge]:
        n = len(self.node_ids)
        center = self.node_ids[(round_ - 1) % n]
        prev = self.node_ids[(round_ - 2) % n]
        return star_edges(center, self.node_ids) | star_edges(prev, self.node_ids)


class TIntervalAdversary(Adversary):
    """Holds each (random connected) topology stable for T rounds."""

    oblivious = True

    def __init__(self, node_ids: Iterable[int], seed: int, interval: int, extra_edge_prob: float = 0.0):
        super().__init__(node_ids)
        require(interval >= 1, "interval must be >= 1")
        self.seed = seed
        self.interval = interval
        self.extra_edge_prob = extra_edge_prob

    def schedule_key(self, round_: int):
        return (round_ - 1) // self.interval  # one topology per epoch

    def edges(self, round_: int, view) -> Iterable[Edge]:
        epoch = (round_ - 1) // self.interval
        rng = np.random.default_rng(stable_hash64((self.seed, 0x71, epoch)))
        return random_connected_edges(self.node_ids, rng, self.extra_edge_prob)
