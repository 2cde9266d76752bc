"""Confirmed flooding (CFLOOD).

The source V must flood a token to all nodes *and know when it is done*
(terminate by outputting a special symbol, correctly only after everyone
holds the token).  Three variants:

* :class:`CFloodKnownDNode` — the trivial known-D protocol: deterministic
  push flooding plus round counting; V confirms at the end of round D.
  One flooding round, zero communication beyond the token.  **Correct
  only when the supplied ``d_param`` really upper-bounds the dynamic
  diameter** — fed a small ``d_param`` on a large-D network it confirms
  too early, which is precisely the failure mode Theorem 6 shows to be
  unavoidable for any fast unknown-D protocol.
* :class:`CFloodConservativeNode` — the forced-pessimism fallback when D
  is unknown: assume D = N - 1 (the worst possible dynamic diameter of a
  connected N-node network).  Always correct; takes N - 1 rounds, i.e.
  (N-1)/D flooding rounds — the poly(N) cost the paper's question is
  about.
* :func:`cflood_factory` — factory helper binding source/params for the
  engine and the reduction machinery.

Non-source nodes output an observer symbol immediately: CFLOOD
termination is *defined* by V's output alone, and this makes the
engine's all-outputs termination detector coincide with it.

:class:`CFloodArrays` is the array form of both node classes, which the
batch engine runs instead of the node callbacks when the transcription
is exact (:mod:`repro.sim.arrays`).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from .._util import require
from ..sim.actions import Action, Receive, Send
from ..sim.arrays import TokenPushProgram, node_methods
from ..sim.coins import Coins
from ..sim.node import ProtocolNode

__all__ = [
    "CFloodKnownDNode",
    "CFloodConservativeNode",
    "CFloodArrays",
    "cflood_factory",
]

CONFIRMED = ("cflood", "confirmed")
OBSERVER = ("cflood", "observer")


class CFloodKnownDNode(ProtocolNode):
    """Known-D confirmed flooding: flood and count ``d_param`` rounds."""

    def __init__(self, uid: int, source: int, d_param: int, token: Any = None):
        super().__init__(uid)
        require(d_param >= 1, "d_param must be >= 1")
        self.source = source
        self.d_param = d_param
        self.token = token if token is not None else ("tok", source)
        self.informed = uid == source
        self.informed_round: Optional[int] = 0 if self.informed else None
        self.rounds_seen = 0

    def action(self, round_: int, coins: Coins) -> Action:
        self.rounds_seen = round_
        if self.informed:
            return Send(self.token)
        return Receive()

    def on_messages(self, round_: int, payloads: Tuple[Any, ...]) -> None:
        if payloads and not self.informed:
            self.informed = True
            self.informed_round = round_

    def output(self) -> Optional[Any]:
        if self.uid == self.source:
            return CONFIRMED if self.rounds_seen >= self.d_param else None
        return OBSERVER


class CFloodConservativeNode(CFloodKnownDNode):
    """Unknown-D confirmed flooding via the pessimistic bound D = N - 1."""

    def __init__(self, uid: int, source: int, num_nodes: int, token: Any = None):
        require(num_nodes >= 2, "need at least 2 nodes")
        super().__init__(uid, source, d_param=num_nodes - 1, token=token)


class CFloodArrays(TokenPushProgram):
    """Both CFLOOD node classes as arrays.

    Every node's ``action`` sets ``rounds_seen`` to the round, so
    ``output()`` is unset only at a source whose ``d_param`` exceeds the
    round: the run completes at the largest source ``d_param`` (at
    round 1 when the source is outside the node set).
    """

    methods = node_methods(CFloodKnownDNode, CFloodConservativeNode)

    def __init__(self, nodes: List[ProtocolNode]):
        super().__init__(nodes)
        self.confirm_round = max(
            (node.d_param for node in nodes if node.uid == node.source), default=0
        )

    def act(self, round_: int, states: Optional[np.ndarray]) -> np.ndarray:
        for node in self.nodes:
            node.rounds_seen = round_
        return self.informed

    def complete(self, round_: int) -> bool:
        return round_ >= self.confirm_round


def cflood_factory(
    source: int, d_param: Optional[int] = None, num_nodes: Optional[int] = None
) -> Callable[[int], ProtocolNode]:
    """Factory for the engine/reduction: known-D if ``d_param`` given,
    conservative otherwise (then ``num_nodes`` is required).

    Returns a :class:`~repro.sim.factories.BoundNode` (not a closure) so
    the factory can cross a process boundary for parallel replication.
    """
    from ..sim.factories import BoundNode

    if d_param is not None:
        return BoundNode(CFloodKnownDNode, source=source, d_param=d_param)
    require(num_nodes is not None, "need d_param or num_nodes")
    return BoundNode(CFloodConservativeNode, source=source, num_nodes=num_nodes)
