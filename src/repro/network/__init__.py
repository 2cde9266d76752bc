"""Dynamic-network substrate: topologies, adversaries, causality analysis.

* :mod:`~repro.network.topology` — one round's graph and its one
  adjacency form, shared by the batch engine's tape and the analysis;
* :mod:`~repro.network.generators` — standard topology builders;
* :mod:`~repro.network.adversaries` — per-round topology choosers, from
  static graphs to worst-case shifting lines and T-interval switchers;
* :mod:`~repro.network.dynamic` — fixed (pre-baked) schedules;
* :mod:`~repro.network.causality` — the (U, r) ⇝ (V, r+z) relation and
  the dynamic-diameter computation of Section 2.
"""

from .adaptive import AdaptiveBlockingAdversary
from .adversaries import (
    Adversary,
    OverlappingStarsAdversary,
    RandomConnectedAdversary,
    RotatingStarAdversary,
    ScheduleAdversary,
    ShiftingLineAdversary,
    StaticAdversary,
    TIntervalAdversary,
)
from .causality import (
    causal_closure,
    dynamic_diameter,
    flood_completion_time,
    reaches_all_within,
)
from .dualgraph import (
    DualGraph,
    DualGraphAdversary,
    RandomDualGraphAdversary,
    as_dual_graph,
)
from .dynamic import DynamicSchedule
from .generators import (
    clique_edges,
    line_edges,
    lollipop_edges,
    random_connected_edges,
    random_tree_edges,
    ring_edges,
    star_edges,
)
from .topology import RoundTopology

__all__ = [
    "RoundTopology",
    "DynamicSchedule",
    "Adversary",
    "AdaptiveBlockingAdversary",
    "StaticAdversary",
    "ScheduleAdversary",
    "RandomConnectedAdversary",
    "ShiftingLineAdversary",
    "RotatingStarAdversary",
    "OverlappingStarsAdversary",
    "TIntervalAdversary",
    "DualGraph",
    "DualGraphAdversary",
    "RandomDualGraphAdversary",
    "as_dual_graph",
    "causal_closure",
    "dynamic_diameter",
    "flood_completion_time",
    "reaches_all_within",
    "line_edges",
    "lollipop_edges",
    "ring_edges",
    "star_edges",
    "clique_edges",
    "random_tree_edges",
    "random_connected_edges",
]
