"""Consensus protocols.

* :class:`OrConsensusNode` — binary consensus with known D,
  *deterministic and exact*: nodes holding 1 push a token (always send),
  nodes holding 0 listen; after D rounds the informed set equals the
  causal closure of the 1-holders, so deciding "informed?" computes OR
  with zero error probability.  The cleanest witness that known D
  removes all difficulty for binary consensus.
* :class:`ConsensusKnownDNode` — the general known-D protocol: gossip
  (max id, its value) for Theta(D log N) rounds, then decide the value
  carried by the largest id seen.  Validity is immediate (the decided
  value is some node's input); agreement holds w.h.p. because every node
  converges to the same maximum within the budget.
* :class:`ConsensusFromLeaderNode` — the reduction CONSENSUS <=
  LEADERELECT used by Theorem 8's corollary: run the Section-7 leader
  election with the node's input riding on the id; decide the elected
  leader's value.  Inherits the leader election's independence from D.

:class:`ConsensusArrays` is :class:`ConsensusKnownDNode`'s array form,
which the batch engine runs instead of the node callbacks when the
transcription is exact (:mod:`repro.sim.arrays`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._util import require
from ..sim.actions import Action, Receive, Send
from ..sim.arrays import ArrayProgram, is_int64, node_methods, merge_heard
from ..sim.coins import Coins, bit_threshold, bits_below, nth_draws
from ..sim.encoding import immutable_payload, types_match
from ..sim.node import ProtocolNode
from .leader_election import LeaderElectNode

__all__ = [
    "OrConsensusNode",
    "ConsensusKnownDNode",
    "ConsensusArrays",
    "ConsensusFromLeaderNode",
]


class OrConsensusNode(ProtocolNode):
    """Deterministic known-D binary OR consensus (exact, zero error)."""

    def __init__(self, uid: int, value: int, d_param: int):
        super().__init__(uid)
        require(value in (0, 1), "binary consensus needs a 0/1 input")
        require(d_param >= 1, "d_param must be >= 1")
        self.value = value
        self.d_param = d_param
        self.informed = value == 1
        self.rounds_seen = 0

    def action(self, round_: int, coins: Coins) -> Action:
        self.rounds_seen = round_
        if self.informed:
            return Send(("or1",))
        return Receive()

    def on_messages(self, round_: int, payloads: Tuple[Any, ...]) -> None:
        if payloads:
            self.informed = True

    def output(self) -> Optional[Any]:
        if self.rounds_seen >= self.d_param:
            return ("decide", 1 if self.informed else 0)
        return None


class ConsensusKnownDNode(ProtocolNode):
    """Known-D consensus by max-id value gossip with a fixed budget."""

    def __init__(self, uid: int, value: int, total_rounds: int):
        super().__init__(uid)
        require(total_rounds >= 1, "total_rounds must be >= 1")
        self.value = value
        self.total_rounds = total_rounds
        self.best_id = uid
        self.best_value = value
        self.rounds_seen = 0

    def action(self, round_: int, coins: Coins) -> Action:
        self.rounds_seen = round_
        if coins.bit(0.5):
            return Send(("cns", self.best_id, self.best_value))
        return Receive()

    def on_messages(self, round_: int, payloads: Tuple[Any, ...]) -> None:
        for p in payloads:
            if isinstance(p, tuple) and len(p) == 3 and p[0] == "cns":
                if p[1] > self.best_id:
                    self.best_id, self.best_value = p[1], p[2]

    def output(self) -> Optional[Any]:
        if self.rounds_seen >= self.total_rounds:
            return ("decide", self.best_value)
        return None


class ConsensusArrays(ArrayProgram):
    """:class:`ConsensusKnownDNode` as arrays.

    A node sends ``("cns", best_id, best_value)`` on its round's first
    coin (w.p. 1/2) and adopts a payload whose id beats its own.  Each
    id carries one value (the selection check), so ``best_id`` is one
    int64 array, a receiver's merge is ``np.maximum`` over its senders'
    ids, and ``best_value`` follows from the id.  The run completes at
    the largest ``total_rounds``.
    """

    methods = node_methods(ConsensusKnownDNode)
    draws_coins = True
    ranks = True

    @classmethod
    def accepts(cls, nodes: Sequence[ProtocolNode]) -> bool:
        """Every ``best_id`` is an int64 int, and the ``(best_id,
        best_value)`` pairs map each id to one value that
        :func:`~repro.sim.encoding.immutable_payload` vouches for."""
        values: Dict[int, Any] = {}
        for node in nodes:
            best_id, value = node.best_id, node.best_value
            if not is_int64(best_id):
                return False
            held = values.setdefault(best_id, value)
            if held is value:
                if not immutable_payload(value):
                    return False
            elif not (types_match(held, value) and held == value):
                return False
        return True

    def __init__(self, nodes: List[ProtocolNode]):
        super().__init__(nodes)
        self.best_id = np.array([node.best_id for node in nodes], dtype=np.int64)
        #: id -> the one value it carries
        self.value_of: Dict[int, Any] = {}
        for node in nodes:
            self.value_of.setdefault(node.best_id, node.best_value)
        self.total_rounds = max(node.total_rounds for node in nodes)
        self.threshold = bit_threshold(0.5)
        self._memo: Dict[int, Tuple[Any, int]] = {}

    def act(self, round_: int, states: Optional[np.ndarray]) -> np.ndarray:
        for node in self.nodes:
            node.rounds_seen = round_
        return bits_below(nth_draws(states, 0), self.threshold)

    def charge(self, send_idx: np.ndarray):
        value_of = self.value_of
        return self._charged(
            self._memo,
            self.best_id[send_idx].tolist(),
            lambda best_id: ("cns", best_id, value_of[best_id]),
        )

    def hear(self, round_, recv_idx, send_idx, counts, cols) -> None:
        nodes, value_of = self.nodes, self.value_of
        for i, best_id in zip(*merge_heard(np.maximum, self.best_id, recv_idx, send_idx,
                                           counts, cols)):
            node = nodes[i]
            node.best_id, node.best_value = best_id, value_of[best_id]

    def complete(self, round_: int) -> bool:
        return round_ >= self.total_rounds


class ConsensusFromLeaderNode(LeaderElectNode):
    """Diameter-oblivious consensus: decide the elected leader's value.

    Needs only the N' estimate (accuracy 1/3 - c), exactly like the
    underlying leader election.
    """

    def output(self) -> Optional[Any]:
        if self.leader is not None and self.leader_value is not None:
            return ("decide", self.leader_value)
        return None
