"""Diameter-dichotomy measurements for the composed networks.

The quantitative backbone of both lower bounds: the Theorem-6 mapping
sends answer-1 instances to dynamic networks of diameter at most 10 and
answer-0 instances to networks where the far line node cannot hear from
A_Γ within the (q-1)/2 horizon (diameter Omega(q)).  This module
measures both, for use by tests and the EXP-T6/EXP-T7 benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cc.disjointness import DisjointnessInstance
from ..network.causality import dynamic_diameter, flood_completion_time
from .composition import (
    CompositionNetwork,
    theorem6_network,
    theorem7_network,
)

__all__ = ["DichotomyReport", "measure_dichotomy", "ANSWER1_DIAMETER_BOUND"]

#: The paper's constant: answer-1 Theorem-6 networks have diameter <= 10.
ANSWER1_DIAMETER_BOUND = 10


@dataclass(frozen=True)
class DichotomyReport:
    """Measured diameter facts for one instance/mapping."""

    mapping: str
    answer: int
    num_nodes: int
    horizon: int
    dynamic_diameter: Optional[int]
    flood_time_from_a: Optional[int]

    @property
    def flood_exceeds_horizon(self) -> bool:
        """True iff A's flood cannot finish within the simulation horizon."""
        return self.flood_time_from_a is None or self.flood_time_from_a > self.horizon


def measure_dichotomy(
    instance: DisjointnessInstance,
    mapping: str = "T6",
    extra_rounds: int = 8,
    receiving_middles: bool = True,
    compute_diameter: bool = True,
    diameter_start_samples: Optional[int] = 12,
) -> DichotomyReport:
    """Measure the dynamic diameter and A-source flood time.

    ``receiving_middles`` fixes the adaptive-rule assumption used to
    materialize the schedule (True = latest removals, the Figure-1
    convention).  ``compute_diameter=False`` skips the diameter pass
    (one packed-row propagation per start round) when only the flood
    time is needed;
    ``diameter_start_samples`` caps the number of start rounds checked
    (evenly spaced; None = all — exact but slow on large N).
    """
    net: CompositionNetwork = (
        theorem6_network(instance) if mapping == "T6" else theorem7_network(instance)
    )
    q = instance.q
    rounds = q + extra_rounds  # all removals have happened; static tail follows
    policy = (lambda uid, r: receiving_middles)
    sched = net.schedule(rounds, receiving_policy=policy)
    cap = 4 * q + 4 * net.num_nodes // max(1, q)
    d = None
    if compute_diameter:
        starts = None
        if diameter_start_samples is not None and rounds + 1 > diameter_start_samples:
            step = max(1, (rounds + 1) // diameter_start_samples)
            starts = sorted(set(list(range(0, rounds + 1, step)) + [0, rounds]))
        d = dynamic_diameter(sched, max_diameter=cap, start_rounds=starts)
    spec = net.special_nodes()
    a_node = spec.get("A_gamma", spec.get("A_lambda"))
    flood = flood_completion_time(sched, a_node, start_round=0, max_rounds=cap)
    return DichotomyReport(
        mapping=mapping,
        answer=instance.evaluate(),
        num_nodes=net.num_nodes,
        horizon=net.horizon,
        dynamic_diameter=d,
        flood_time_from_a=flood,
    )
