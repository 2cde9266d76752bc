"""Flooding primitives.

Two building blocks used all over the upper-bound protocols and as
oracle workloads for the reduction machinery:

* :class:`TokenFloodNode` — deterministic push flooding: informed nodes
  always send the token, uninformed nodes always receive.  The informed
  set then grows *exactly* like the causal closure of the source, so the
  flood completes in exactly D rounds — the cleanest witness of the
  dynamic-diameter definition.
* :class:`GossipMaxNode` — randomized push-pull style gossip: every node
  sends its current best value with probability 1/2 and listens
  otherwise.  Against oblivious schedules a value spreads in O(D log N)
  rounds w.h.p.; the protocol never terminates on its own (drive it with
  a round budget).  Its rich random interleaving of send/receive makes
  it the stress workload for the Lemma-5 simulation tests.

:class:`TokenFloodArrays` is :class:`TokenFloodNode`'s array form, which
the batch engine runs instead of the node callbacks when the
transcription is exact (:mod:`repro.sim.arrays`).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..sim.actions import Action, Receive, Send
from ..sim.arrays import TokenPushProgram, node_methods
from ..sim.coins import Coins
from ..sim.node import ProtocolNode

__all__ = ["TokenFloodNode", "TokenFloodArrays", "GossipMaxNode"]


class TokenFloodNode(ProtocolNode):
    """Deterministic token push (informed send / uninformed receive)."""

    def __init__(self, uid: int, source: int, token: Any = None):
        super().__init__(uid)
        self.source = source
        self.token = token if token is not None else ("tok", source)
        self.informed = uid == source
        self.informed_round: Optional[int] = 0 if self.informed else None

    def action(self, round_: int, coins: Coins) -> Action:
        if self.informed:
            return Send(self.token)
        return Receive()

    def on_messages(self, round_: int, payloads: Tuple[Any, ...]) -> None:
        if payloads and not self.informed:
            self.informed = True
            self.informed_round = round_

    def output(self) -> Optional[Any]:
        return ("informed",) if self.informed else None


class TokenFloodArrays(TokenPushProgram):
    """:class:`TokenFloodNode` as arrays: done once every node is informed."""

    methods = node_methods(TokenFloodNode)

    def complete(self, round_: int) -> bool:
        return bool(self.informed.all())


class GossipMaxNode(ProtocolNode):
    """Randomized max gossip: send best-so-far w.p. ``send_prob``.

    ``value`` defaults to the node id.  ``best`` converges to the global
    maximum; the node never outputs (use as a non-terminating workload
    or embed in a protocol that imposes a round budget).
    """

    def __init__(self, uid: int, value: Optional[int] = None, send_prob: float = 0.5):
        super().__init__(uid)
        self.value = uid if value is None else value
        self.best = self.value
        self.send_prob = send_prob

    def action(self, round_: int, coins: Coins) -> Action:
        if coins.bit(self.send_prob):
            return Send(("max", self.best))
        return Receive()

    def on_messages(self, round_: int, payloads: Tuple[Any, ...]) -> None:
        for p in payloads:
            if isinstance(p, tuple) and len(p) == 2 and p[0] == "max":
                self.best = max(self.best, p[1])

    def output(self) -> Optional[Any]:
        return None
