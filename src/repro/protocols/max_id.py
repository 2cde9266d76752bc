"""MAX with known D: gossip the maximum for a fixed round budget.

The paper's trivial known-D upper bound for globally-sensitive functions
such as MAX: run randomized max-gossip for Theta(D log N) rounds, then
output the best value seen.  Correct w.h.p. against oblivious schedules;
one deterministic variant (always-send by current holders is impossible
for MAX since holders change, so randomization is essential here — this
is exactly where the O(log N) flooding-round factor of the paper's
trivial upper bounds comes from).

:class:`MaxArrays` is the array form of :class:`MaxIdNode` and of
:class:`~repro.protocols.flooding.GossipMaxNode`, which the batch
engine runs instead of the node callbacks when the transcription is
exact (:mod:`repro.sim.arrays`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._util import require
from ..sim.actions import Action, Receive, Send
from ..sim.arrays import ArrayProgram, is_int64, node_methods, merge_heard
from ..sim.coins import Coins, bit_threshold, bits_below, nth_draws
from ..sim.node import ProtocolNode
from .flooding import GossipMaxNode

__all__ = ["MaxIdNode", "MaxArrays", "max_rounds_budget"]


def max_rounds_budget(d_param: int, num_nodes: int, factor: float = 4.0) -> int:
    """The Theta(D log N) round budget used by the known-D protocols."""
    require(d_param >= 1 and num_nodes >= 2, "need D >= 1 and N >= 2")
    return max(1, int(math.ceil(factor * d_param * max(1.0, math.log2(num_nodes)))))


class MaxIdNode(ProtocolNode):
    """Known-D MAX: gossip for ``total_rounds`` rounds, then decide.

    ``value`` defaults to the node id (leader election by max id).
    """

    def __init__(self, uid: int, total_rounds: int, value: Optional[int] = None):
        super().__init__(uid)
        require(total_rounds >= 1, "total_rounds must be >= 1")
        self.total_rounds = total_rounds
        self.value = uid if value is None else value
        self.best = self.value
        self.rounds_seen = 0

    def action(self, round_: int, coins: Coins) -> Action:
        self.rounds_seen = round_
        if coins.bit(0.5):
            return Send(("max", self.best))
        return Receive()

    def on_messages(self, round_: int, payloads: Tuple[Any, ...]) -> None:
        for p in payloads:
            if isinstance(p, tuple) and len(p) == 2 and p[0] == "max":
                self.best = max(self.best, p[1])

    def output(self) -> Optional[Any]:
        return ("max", self.best) if self.rounds_seen >= self.total_rounds else None


class MaxArrays(ArrayProgram):
    """:class:`MaxIdNode` and :class:`GossipMaxNode` as arrays.

    Both send ``("max", best)`` on their round's first coin and keep the
    max they hear, so ``best`` is one int64 array and a receiver's merge
    is ``np.maximum`` over its senders.  MaxId sends w.p. 1/2 and writes
    ``rounds_seen`` (its run completes at the largest ``total_rounds``);
    GossipMax sends w.p. its ``send_prob`` and never completes.
    """

    methods = node_methods(MaxIdNode, GossipMaxNode)
    draws_coins = True
    ranks = True

    @classmethod
    def accepts(cls, nodes: Sequence[ProtocolNode]) -> bool:
        """Every ``best`` is an int64 int; GossipMax nodes share one
        ``send_prob``, an int or a float."""
        if not all(is_int64(node.best) for node in nodes):
            return False
        if type(nodes[0]) is GossipMaxNode:
            p = nodes[0].send_prob
            return type(p) in (int, float) and all(node.send_prob == p for node in nodes)
        return True

    def __init__(self, nodes: List[ProtocolNode]):
        super().__init__(nodes)
        self.best = np.array([node.best for node in nodes], dtype=np.int64)
        counts_rounds = type(nodes[0]) is MaxIdNode
        #: MaxId writes rounds_seen and completes; GossipMax does neither
        self.total_rounds = (
            max(node.total_rounds for node in nodes) if counts_rounds else None
        )
        self.threshold = bit_threshold(0.5 if counts_rounds else nodes[0].send_prob)
        self._memo: Dict[int, Tuple[Any, int]] = {}

    def act(self, round_: int, states: Optional[np.ndarray]) -> np.ndarray:
        if self.total_rounds is not None:
            for node in self.nodes:
                node.rounds_seen = round_
        return bits_below(nth_draws(states, 0), self.threshold)

    def charge(self, send_idx: np.ndarray):
        return self._charged(
            self._memo, self.best[send_idx].tolist(), lambda best: ("max", best)
        )

    def hear(self, round_, recv_idx, send_idx, counts, cols) -> None:
        nodes = self.nodes
        for i, best in zip(*merge_heard(np.maximum, self.best, recv_idx, send_idx,
                                        counts, cols)):
            nodes[i].best = best

    def complete(self, round_: int) -> bool:
        return self.total_rounds is not None and round_ >= self.total_rounds
