"""Pre-baked dynamic schedules.

A :class:`DynamicSchedule` is a fixed (oblivious) sequence of round
topologies — the object the lower-bound constructions produce for a given
DISJOINTNESSCP instance, and the object the causality analysis consumes.
Rounds past the end of the sequence repeat the final topology (the
constructions stop changing after round (q-1)/2).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..errors import ConfigurationError
from .topology import RoundTopology

__all__ = ["DynamicSchedule"]


class DynamicSchedule:
    """A fixed sequence of topologies over one node set.

    Round numbering is 1-based to match the paper (`topology(1)` is the
    graph in which the first messages travel).
    """

    def __init__(self, topologies: Sequence[RoundTopology]):
        if not topologies:
            raise ConfigurationError("a schedule needs at least one round topology")
        node_ids = topologies[0].node_ids
        for t in topologies:
            if t.node_ids != node_ids:
                raise ConfigurationError("all rounds must share the same node set")
        self._topologies: List[RoundTopology] = list(topologies)
        self.node_ids = node_ids

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def explicit_rounds(self) -> int:
        """Number of explicitly specified rounds (the tail repeats)."""
        return len(self._topologies)

    def topology(self, round_: int) -> RoundTopology:
        """Topology of the given 1-based round (tail repeats the last)."""
        if round_ < 1:
            raise ConfigurationError(f"rounds are 1-based, got {round_}")
        idx = min(round_ - 1, len(self._topologies) - 1)
        return self._topologies[idx]

    def all_connected(self, rounds: int | None = None) -> bool:
        """True iff every (explicit, or first ``rounds``) topology is connected."""
        upto = rounds if rounds is not None else self.explicit_rounds
        return all(self.topology(r).is_connected() for r in range(1, upto + 1))

    def __iter__(self) -> Iterable[RoundTopology]:
        return iter(self._topologies)

    def __len__(self) -> int:
        return len(self._topologies)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicSchedule(n={self.num_nodes}, explicit_rounds={self.explicit_rounds})"
        )
