"""Ablation studies: break the construction's design choices, watch it fail.

The paper motivates two non-obvious design decisions:

1. **Cascading removals** (Section 5, "one may wonder why we cannot
   simply remove the edges on all these chains at the same time"):
   removing every equal-even chain at round 1 spoils middles deep inside
   each centipede immediately, and their influence reaches A_Λ/B_Λ long
   before the horizon — the containment that makes the two-party
   simulation possible collapses.
2. **The adaptive rules 3/4**: removing the contested edge always at
   t+1 matches Alice's schedule but diverges from Bob's exactly when
   the middle *receives* at t+1 (and vice versa for always-t+2) — the
   adaptive rule is the unique choice consistent with both parties.

This module makes both failures *observable*: it builds the ablated
reference network, runs the paper's (unchanged) party simulators against
it, and reports the first divergence from ground truth; and it measures
how fast spoiled influence escapes under simultaneous removal.  The
companion benchmark (``benchmarks/test_ablations.py``) records that the
paper's construction shows **no** divergence while every ablation does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..cc.disjointness import DisjointnessInstance
from ..network.causality import influence_step, source_rows
from ..sim.actions import Receive, Send
from .composition import CompositionNetwork, theorem6_network
from .gamma import GammaSubnetwork
from .lambda_net import LambdaSubnetwork
from .simulation import OracleFactory, TwoPartyReduction, run_reference_execution

__all__ = [
    "ablated_theorem6_network",
    "Divergence",
    "find_divergence",
    "CascadeEscapeReport",
    "cascade_escape_report",
]


def _norm(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


def ablated_theorem6_network(
    instance: DisjointnessInstance,
    rule34_mode: str = "adaptive",
    rule5_simultaneous: bool = False,
) -> CompositionNetwork:
    """The Theorem-6 composition with ablated reference rules.

    The bridging/id structure is identical to the paper's mapping; only
    the reference adversary's removal schedule changes (the party
    simulators always play the paper's rules — the question is whether
    they can still track this reference).
    """
    n, q = instance.n, instance.q
    gamma = GammaSubnetwork(
        n, q, x=instance.x, y=instance.y, id_base=1, rule34_mode=rule34_mode
    )
    lam = LambdaSubnetwork(
        n,
        q,
        x=instance.x,
        y=instance.y,
        id_base=gamma.id_end,
        rule34_mode=rule34_mode,
        rule5_simultaneous=rule5_simultaneous,
    )
    bridges = {
        _norm(gamma.a_node, lam.a_node),
        _norm(gamma.b_node, lam.b_node),
    }
    if instance.evaluate() == 0:
        bridges.add(_norm(gamma.line_head(), lam.first_mounting_point()))
    return CompositionNetwork(
        instance=instance, subnets=(gamma, lam), bridges=frozenset(bridges), mapping="T6"
    )


@dataclass(frozen=True)
class Divergence:
    """First observed disagreement between a party's simulation and the
    reference execution."""

    party: str
    node: int
    round: int
    kind: str  # "action" | "payload"
    simulated: object
    reference: object


def find_divergence(
    instance: DisjointnessInstance,
    oracle_factory: OracleFactory,
    seed: int,
    rule34_mode: str = "adaptive",
    rule5_simultaneous: bool = False,
    horizon: Optional[int] = None,
) -> Optional[Divergence]:
    """Run the paper's two-party simulation against a (possibly ablated)
    reference network and return the first divergence, or None.

    With the paper's construction (``adaptive``, no simultaneous
    removal) this provably returns None (Lemma 5); the ablations make it
    return a concrete witness.
    """
    T = horizon if horizon is not None else (instance.q - 1) // 2
    net = ablated_theorem6_network(instance, rule34_mode, rule5_simultaneous)
    ref = run_reference_execution(
        instance, "T6", oracle_factory, seed, rounds=T, network=net
    )
    red = TwoPartyReduction(instance, "T6", oracle_factory, seed)
    for r in range(1, T + 1):
        fa = red.alice.step_actions(r)
        fb = red.bob.step_actions(r)
        for party in (red.alice, red.bob):
            for uid in sorted(party.nodes):
                if party.spoil[uid] < r:
                    continue
                act = party.actions_of(uid)
                kind, payload = ref.spies[uid].history[r]
                if isinstance(act, Send):
                    if kind != "send" or payload != act.payload:
                        return Divergence(
                            party.party, uid, r, "action", repr(act), (kind, payload)
                        )
                elif kind != "recv":
                    return Divergence(
                        party.party, uid, r, "action", repr(act), (kind, payload)
                    )
        red.alice.step_delivery(r, fb)
        red.bob.step_delivery(r, fa)
    # payload divergences surface in later rounds' actions (caught above);
    # as a final net, compare observable end state of never-spoiled nodes
    # when the oracle exposes `best` (gossip).  The reference spies hold
    # post-horizon state, so this comparison is only valid at round T.
    for party in (red.alice, red.bob):
        for uid, node in party.nodes.items():
            if party.spoil[uid] > T and hasattr(node, "best"):
                ref_best = getattr(ref.spies[uid].inner, "best", None)
                if node.best != ref_best:
                    return Divergence(
                        party.party, uid, T, "payload", node.best, ref_best
                    )
    return None


@dataclass(frozen=True)
class CascadeEscapeReport:
    """How far spoiled influence travels under a removal schedule."""

    simultaneous: bool
    horizon: int
    rounds_to_reach_a: Optional[int]
    rounds_to_reach_b: Optional[int]

    @property
    def contained(self) -> bool:
        """True iff the spoiled region never reaches A_Λ or B_Λ within
        the horizon — the property the simulation needs."""
        return self.rounds_to_reach_a is None and self.rounds_to_reach_b is None


def cascade_escape_report(
    xi: int = 0,
    yi: int = 0,
    q: int = 13,
    simultaneous: bool = False,
) -> CascadeEscapeReport:
    """Measure spoiled-influence escape for one centipede.

    The spoiled seed is every middle whose chain the reference adversary
    fully detaches at round 1 (under the cascade: only the mounting
    point; under simultaneous removal: every equal-even middle).  We
    propagate its causal closure along the reference schedule and report
    when it first contains A_Λ / B_Λ.
    """
    from ..network.dynamic import DynamicSchedule
    from ..network.topology import RoundTopology

    lam = LambdaSubnetwork(
        1, q, x=(xi,), y=(yi,), rule5_simultaneous=simultaneous
    )
    receiving = lambda uid: True
    tops = [
        RoundTopology(list(lam.node_ids), lam.reference_edges(r, receiving))
        for r in range(1, q + 4)
    ]
    sched = DynamicSchedule(tops)
    if simultaneous:
        seeds = [
            c.mid
            for c in lam.chains
            if c.top_label == c.bottom_label and c.top_label != q - 1
        ]
    else:
        seeds = lam.mounting_points()
    horizon = (q - 1) // 2
    a_row, b_row = sched.node_ids.index(lam.a_node), sched.node_ids.index(lam.b_node)
    reached = source_rows(sched, seeds)
    reach_a = reach_b = None
    for z in range(1, horizon + 1):
        reached = influence_step(sched.topology(z), reached)
        if reach_a is None and reached[a_row, 0]:
            reach_a = z
        if reach_b is None and reached[b_row, 0]:
            reach_b = z
        if reach_a is not None and reach_b is not None:
            break
    return CascadeEscapeReport(
        simultaneous=simultaneous,
        horizon=horizon,
        rounds_to_reach_a=reach_a,
        rounds_to_reach_b=reach_b,
    )
