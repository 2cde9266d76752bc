"""Doubling-guess confirmed flooding — the natural heuristic, and why it
cannot be a CFLOOD protocol.

The obvious attack on unknown diameter is to guess D' = 1, 2, 4, ...:
flood for D' rounds, then *count* the informed nodes (exponential
minima; N is known — Theorem 6's lower bound allows that!) and confirm
once the count clears a threshold fraction of N.

This works beautifully for *fractional* coverage: the count is cheap and
one-sided.  But CFLOOD demands that **all** N nodes have the token, and
distinguishing "N informed" from "N - 1 informed" by counting needs
relative precision 1/N — Theta(N^2) exponential components, i.e. no
saving at all.  Run with any practical threshold, the heuristic
*premature-confirms* on adversarial schedules: flooding reaches the
threshold fraction phases before it reaches the last straggler.  The
benchmark (EXP-HEUR) measures exactly that failure, which is the
operational content of the Theorem-6 sensitivity result.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from .._util import require
from ..sim.actions import Action, Receive, Send
from ..sim.coins import Coins
from ..sim.node import ProtocolNode
from .counting import (
    default_components,
    draw_exponentials,
    estimate_count,
    merge_min,
)
from .schedule import PhasedSchedule

__all__ = ["CFloodDoublingNode", "DoublingSchedule"]

CONFIRMED = ("cflood", "confirmed")
OBSERVER = ("cflood", "observer")


class DoublingSchedule(PhasedSchedule):
    """Phase k = flood stage (2^k rounds) + count stage (R * flood-ish).

    A pure function of (N, constants): identical on every node.
    """

    stages = ("flood", "count")

    def __init__(self, num_nodes: int, alpha: float = 2.0, components: Optional[int] = None):
        require(num_nodes >= 2, "need at least 2 nodes")
        super().__init__()
        self.num_nodes = num_nodes
        self.alpha = alpha
        self.components = components or default_components(num_nodes)
        self._log = max(1.0, math.log2(num_nodes))

    def flood_budget(self, phase: int) -> int:
        return 2 ** phase

    def count_budget(self, phase: int) -> int:
        per_component = max(4, int(math.ceil(self.alpha * (2 ** phase) * self._log)))
        return self.components * per_component

    def _stage_lengths(self, phase: int) -> Tuple[int, int]:
        return self.flood_budget(phase), self.count_budget(phase)


class CFloodDoublingNode(ProtocolNode):
    """The doubling heuristic (knows N, not D).

    ``threshold`` is the confirmed-coverage fraction; the source outputs
    once a count stage estimates at least ``threshold * N`` informed
    nodes.  With any threshold < 1 this is *not* a correct CFLOOD
    protocol (see module docstring) — which is the point.
    """

    def __init__(
        self,
        uid: int,
        source: int,
        num_nodes: int,
        threshold: float = 0.75,
        token: Any = None,
        alpha: float = 2.0,
        components: Optional[int] = None,
    ):
        super().__init__(uid)
        require(0.0 < threshold <= 1.0, "threshold must be in (0, 1]")
        self.source = source
        self.schedule = DoublingSchedule(num_nodes, alpha=alpha, components=components)
        self.R = self.schedule.components
        self.tau = threshold * num_nodes
        self.token = token if token is not None else ("tok", source)
        self.informed = uid == source
        self.informed_round: Optional[int] = 0 if self.informed else None
        self.confirmed_round: Optional[int] = None
        self._stage_key: Optional[Tuple[int, str]] = None
        self._mins: Dict[int, int] = {}
        self.estimates: List[Tuple[int, float]] = []

    # ------------------------------------------------------------------
    def _enter_stage(self, phase: int, stage: str, coins: Coins, round_: int) -> None:
        prev, self._stage_key = self._stage_key, (phase, stage)
        if prev is not None and prev[1] == "count" and self.uid == self.source:
            est = estimate_count(self._mins, self.R)
            self.estimates.append((prev[0], est))
            if est >= self.tau and self.confirmed_round is None:
                self.confirmed_round = round_ - 1
        if stage == "count":
            self._mins = dict(draw_exponentials(coins, self.R)) if self.informed else {}

    def action(self, round_: int, coins: Coins) -> Action:
        phase, stage, offset, _len = self.schedule.locate(round_)
        if self._stage_key != (phase, stage):
            self._enter_stage(phase, stage, coins, round_)
        if stage == "flood":
            if self.informed:
                return Send(self.token)
            return Receive()
        comp = (offset - 1) % self.R
        if comp in self._mins and coins.bit(0.5):
            return Send(("cnt", comp, self._mins[comp]))
        return Receive()

    def on_messages(self, round_: int, payloads: Tuple[Any, ...]) -> None:
        for p in payloads:
            if p == self.token:
                if not self.informed:
                    self.informed = True
                    self.informed_round = round_
            elif isinstance(p, tuple) and len(p) == 3 and p[0] == "cnt":
                merge_min(self._mins, p[1], p[2])

    def output(self) -> Optional[Any]:
        if self.uid == self.source:
            return CONFIRMED if self.confirmed_round is not None else None
        return OBSERVER
