"""Carry-over of the lower bound to HEAR-FROM-N-NODES and MAX.

The paper (with details in its full version) notes that the Theorem-6
construction also lower-bounds HEAR-FROM-N-NODES — a designated node
must confirm that all N nodes have causally influenced it — and hence
any *globally sensitive* function such as MAX, whose value a single far
node can flip.

The carry-over rests on a causal fact about the answer-0 composition
that this module measures directly: the far end of the detached Γ-line
cannot causally influence A_Γ within the simulation horizon (the only
route runs through the Λ mounting point, whose influence the cascade
contains).  Therefore, within the horizon:

* A_Γ cannot have heard from all N nodes (HEAR-FROM-N must take
  Ω(q) rounds), and
* if the far line node holds the maximum input, no correct protocol can
  output MAX at A_Γ (the value literally has not reached it).

The answer-1 composition has diameter ≤ 10, so both problems are easy
there — the same dichotomy that powers Theorem 6, hence the same
Ω((N / log N)^(1/4)) bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..cc.disjointness import DisjointnessInstance
from ..network.causality import identity_rows, influence_step
from .composition import theorem6_network

__all__ = ["CarryoverReport", "measure_carryover"]


@dataclass(frozen=True)
class CarryoverReport:
    """Causal facts deciding HFN/MAX hardness on one instance."""

    answer: int
    num_nodes: int
    horizon: int
    #: rounds until the far line node's influence reaches A_Γ (None if
    #: it never does within the probe window, or if there is no line)
    far_to_a_rounds: Optional[int]
    #: rounds until *every* node has influenced A_Γ (what HFN waits for)
    hear_from_all_rounds: Optional[int]

    @property
    def hfn_blocked_within_horizon(self) -> bool:
        """True iff A_Γ provably cannot hear from all N nodes in time."""
        return (
            self.hear_from_all_rounds is None
            or self.hear_from_all_rounds > self.horizon
        )

    @property
    def max_blocked_within_horizon(self) -> bool:
        """True iff a maximum placed on the far line node cannot reach
        A_Γ within the horizon (MAX is globally sensitive)."""
        return self.far_to_a_rounds is None or self.far_to_a_rounds > self.horizon


def measure_carryover(
    instance: DisjointnessInstance, probe_rounds: Optional[int] = None
) -> CarryoverReport:
    """Measure the HFN/MAX-deciding causal quantities for one instance.

    One incremental influence propagation answers both questions: after
    z rounds, bit i of A_Γ's packed row says whether node i's round-0
    state has causally influenced A_Γ.
    """
    net = theorem6_network(instance)
    q = instance.q
    rounds = probe_rounds if probe_rounds is not None else 2 * q + 8
    sched = net.schedule(rounds)
    a_gamma = net.special_nodes()["A_gamma"]
    gamma = net.subnets[0]
    ids = sched.node_ids

    far = gamma.line_far_end() if instance.evaluate() == 0 else None
    n = sched.num_nodes
    influence = identity_rows(n)
    a_row = ids.index(a_gamma)
    far_col = ids.index(far) if far is not None else None
    far_to_a = None
    hear_all = None
    for z in range(1, rounds + 1):
        influence = influence_step(sched.topology(z), influence)
        heard = np.unpackbits(
            influence[a_row].view(np.uint8), bitorder="little", count=n
        )
        if far_to_a is None:
            if far_col is not None:
                if heard[far_col]:
                    far_to_a = z
            elif heard.all():
                # answer-1: the last arrival *is* the farthest node
                far_to_a = z
        if hear_all is None and heard.all():
            hear_all = z
        if far_to_a is not None and hear_all is not None:
            break

    return CarryoverReport(
        answer=instance.evaluate(),
        num_nodes=net.num_nodes,
        horizon=net.horizon,
        far_to_a_rounds=far_to_a,
        hear_from_all_rounds=hear_all,
    )
