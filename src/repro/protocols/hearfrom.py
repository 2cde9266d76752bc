"""HEAR-FROM-N-NODES and estimating N (the full-version toolbox).

* :class:`HearFromAllNode` — with known D the problem is *definitionally*
  trivial: after D rounds, every node's round-0 state has causally
  reached everyone (that is what the dynamic diameter means), so a node
  confirms by counting D rounds: one flooding round.  The node also
  tracks how many distinct ids it has *explicitly* heard (gossip), which
  the tests use to sanity-check the causal claim on real schedules.
* :class:`CountNodesNode` — estimate N with known D: all nodes
  participate in exponential-minimum counting for a Theta(D log N)
  budget, then output the estimate.  This is the paper's "obtaining an
  N' with |N'-N|/N <= 1/3 - c takes O(log N) flooding rounds when D is
  known" — and, combined with Theorem 8, the unknown-diameter cost of
  these problems concentrates entirely in this estimation step.

:class:`CountNodesArrays` is :class:`CountNodesNode`'s array form, which
the batch engine runs instead of the node callbacks when the
transcription is exact (:mod:`repro.sim.arrays`).  HearFromAll keeps
the per-node path: its ``heard_ids`` sets have no scalar reduction.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._util import require
from ..sim.actions import Action, Receive, Send
from ..sim.arrays import ArrayProgram, is_int64, node_methods, merge_heard
from ..sim.coins import Coins, bit_threshold, bits_below, nth_draws
from ..sim.node import ProtocolNode
from .counting import (
    default_components,
    draw_exponentials,
    estimate_count,
    merge_min,
)

__all__ = ["HearFromAllNode", "CountNodesNode", "CountNodesArrays"]


class HearFromAllNode(ProtocolNode):
    """Known-D HEAR-FROM-N-NODES: wait D rounds, gossip ids meanwhile."""

    def __init__(self, uid: int, d_param: int):
        super().__init__(uid)
        require(d_param >= 1, "d_param must be >= 1")
        self.d_param = d_param
        self.rounds_seen = 0
        self.heard_ids = {uid}

    def action(self, round_: int, coins: Coins) -> Action:
        self.rounds_seen = round_
        if coins.bit(0.5):
            return Send(("hf", self.uid))
        return Receive()

    def on_messages(self, round_: int, payloads: Tuple[Any, ...]) -> None:
        for p in payloads:
            if isinstance(p, tuple) and len(p) == 2 and p[0] == "hf":
                self.heard_ids.add(p[1])

    def output(self) -> Optional[Any]:
        return ("heard-all",) if self.rounds_seen >= self.d_param else None


class CountNodesNode(ProtocolNode):
    """Known-D estimate of N via exponential-minimum counting.

    ``total_rounds`` should be at least ``components * Theta(D log N)``;
    use :func:`count_rounds_budget` to derive it.
    """

    def __init__(self, uid: int, total_rounds: int, components: int = 64):
        super().__init__(uid)
        require(total_rounds >= 1 and components >= 2, "bad budget/components")
        self.total_rounds = total_rounds
        self.R = components
        self.mins = None  # drawn on the first action, via the node's coins
        self.rounds_seen = 0

    def action(self, round_: int, coins: Coins) -> Action:
        self.rounds_seen = round_
        if self.mins is None:
            self.mins = dict(draw_exponentials(coins, self.R))
        comp = (round_ - 1) % self.R
        if coins.bit(0.5):
            return Send(("cntN", comp, self.mins[comp]))
        return Receive()

    def on_messages(self, round_: int, payloads: Tuple[Any, ...]) -> None:
        if self.mins is None:  # pragma: no cover - action always precedes
            return
        for p in payloads:
            if isinstance(p, tuple) and len(p) == 3 and p[0] == "cntN":
                merge_min(self.mins, p[1], p[2])

    @property
    def estimate(self) -> float:
        return estimate_count(self.mins or {}, self.R)

    def output(self) -> Optional[Any]:
        if self.rounds_seen >= self.total_rounds:
            return ("count", self.estimate)
        return None


class CountNodesArrays(ArrayProgram):
    """:class:`CountNodesNode` as arrays.

    ``mins`` is the (N, R) int64 array of every node's quantized minima.
    A node's first action draws its R exponentials through its own
    :class:`~repro.sim.coins.Coins` (:func:`draw_exponentials`, once per
    node per run), so that round's send coin is draw R; every later
    round's is draw 0.  Round r sends ``("cntN", c, mins[i, c])`` for
    ``c = (r - 1) mod R`` only, so a receiver's merge is
    ``np.minimum`` over its senders in that one column.  The run
    completes at the largest ``total_rounds``.
    """

    methods = node_methods(CountNodesNode)
    draws_coins = True
    ranks = True

    @classmethod
    def accepts(cls, nodes: Sequence[ProtocolNode]) -> bool:
        """The nodes share one R, and either none has drawn its ``mins``
        or every node holds one int64 int per component ``0..R-1``."""
        components = nodes[0].R
        if type(components) is not int or any(node.R != components for node in nodes):
            return False
        if all(node.mins is None for node in nodes):
            return True
        keys = set(range(components))
        return all(
            type(node.mins) is dict
            and node.mins.keys() == keys
            and all(is_int64(j) for j in node.mins.values())
            for node in nodes
        )

    def __init__(self, nodes: List[ProtocolNode]):
        super().__init__(nodes)
        self.R = nodes[0].R
        #: the (N, R) minima, or None until the first action draws them
        self.mins: Optional[np.ndarray] = None
        if nodes[0].mins is not None:
            self.mins = self._read_mins()
        self.total_rounds = max(node.total_rounds for node in nodes)
        self.threshold = bit_threshold(0.5)
        self.component = 0
        #: per component: quantized min -> (payload, bits)
        self._memo: List[Dict[int, Tuple[Any, int]]] = [{} for _ in range(self.R)]

    def _read_mins(self) -> np.ndarray:
        components = range(self.R)
        return np.array(
            [[node.mins[c] for c in components] for node in self.nodes], dtype=np.int64
        )

    def act(self, round_: int, states: Optional[np.ndarray]) -> np.ndarray:
        draw = 0
        if self.mins is None:
            for node, state in zip(self.nodes, states.tolist()):
                coins = Coins(node.uid, round_, state)
                node.mins = dict(draw_exponentials(coins, self.R))
            self.mins = self._read_mins()
            draw = self.R
        for node in self.nodes:
            node.rounds_seen = round_
        self.component = (round_ - 1) % self.R
        return bits_below(nth_draws(states, draw), self.threshold)

    def charge(self, send_idx: np.ndarray):
        comp = self.component
        return self._charged(
            self._memo[comp],
            self.mins[send_idx, comp].tolist(),
            lambda j: ("cntN", comp, j),
        )

    def hear(self, round_, recv_idx, send_idx, counts, cols) -> None:
        comp, nodes = self.component, self.nodes
        # mins[:, comp] is a view: the merge writes the array in place
        for i, j in zip(*merge_heard(np.minimum, self.mins[:, comp], recv_idx, send_idx,
                                     counts, cols)):
            nodes[i].mins[comp] = j

    def complete(self, round_: int) -> bool:
        return round_ >= self.total_rounds


def count_rounds_budget(d_param: int, num_nodes: int, components: int = 64, factor: float = 3.0) -> int:
    """Round budget for :class:`CountNodesNode`: R * Theta(D log N)."""
    import math

    require(d_param >= 1 and num_nodes >= 2, "need D >= 1 and N >= 2")
    return max(
        components,
        int(math.ceil(components * factor * d_param * max(1.0, math.log2(num_nodes)))),
    )
