"""The Section-7 leader-election protocol: O(polylog) flooding rounds
without knowing the diameter, given an estimate N' of N.

Structure (faithful to the extended abstract's description):

* The protocol proceeds in **phases** k = 1, 2, ... with a doubling
  diameter guess D' = 2^k.  Every node derives the identical global
  stage schedule from the round number, N' and the protocol constants.
* Each phase has four stages:

  1. **disseminate** — randomized flooding of the largest id seen so far
     (piggybacking leader announcements and pending unlock records);
  2. **count-seen** — the candidate V (a node whose own id survived
     stage 1 as its maximum) counts, via exponential-minimum counting,
     how many nodes currently hold V's id as their maximum; V proceeds
     only on a majority (``est >= tau = (3/4) N'``).  This pre-lock count
     is the paper's key device against excessive lock roll-back: w.h.p.
     at most one node per phase ever acquires locks.
  3. **lock** — V floods ``lock(V, k)``; an unlocked node adopts the
     first lock it hears and relays its own lock record; locked nodes
     keep their lock (locks persist across phases until unlocked).
  4. **count-locked** — V counts the nodes locked by V.  On a majority
     V declares itself leader and floods the announcement forever;
     otherwise V schedules ``unlock(V, k)`` records into all future
     stage-1 floods, rolling its locks back.

Correctness: a leader holds locks on more than N/2 nodes (one-sided
counting + the tau algebra in :mod:`~repro.protocols.counting`), and
locks are exclusive, so leaders are unique w.h.p.; once D' >= D, stale
locks have been rolled back, stage 1 makes the globally largest id
everyone's maximum, and both counts succeed — the max id wins.

Complexity: phases until D' >= D double geometrically, each phase costs
O(D' log N') flood rounds plus O(D' R log N') counting rounds with
R = Theta(log N') components, so the total is O(D log^3 N) rounds —
polylogarithmic in flooding rounds, reproducing the *shape* of
Theorem 8 (the paper's pipelined counting saves log factors we do not
chase; see DESIGN.md).
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
    majority_threshold,
    merge_min,
)
from .schedule import PhasedSchedule

__all__ = ["LeaderElectNode", "StageSchedule", "STAGE_NAMES"]

STAGE_NAMES = ("disseminate", "count-seen", "lock", "count-locked")

#: cap on remembered unlock records (w.h.p. at most one per phase is live)
_MAX_UNLOCKS = 8


class StageSchedule(PhasedSchedule):
    """Maps a 1-based round number to (phase, stage, offset, stage_len).

    Identical on every node: a pure function of N' and the constants.
    Stages are reported by index 0..3 (see :data:`STAGE_NAMES`).
    """

    stages = (0, 1, 2, 3)

    def __init__(self, n_estimate: float, alpha: float = 2.0, components: Optional[int] = None):
        require(n_estimate >= 2, "n_estimate must be >= 2")
        super().__init__()
        self.n_estimate = float(n_estimate)
        self.alpha = alpha
        self.components = components or default_components(n_estimate)
        self._log = max(1.0, math.log2(self.n_estimate))

    def flood_budget(self, phase: int) -> int:
        """Stage-1/3 length for phase k: ceil(alpha * 2^k * log2 N')."""
        return max(1, int(math.ceil(self.alpha * (2 ** phase) * self._log)))

    def count_budget(self, phase: int) -> int:
        """Stage-2/4 length: R components, each gossiped every R rounds."""
        return self.components * self.flood_budget(phase)

    def _stage_lengths(self, phase: int) -> Tuple[int, int, int, int]:
        flood, count = self.flood_budget(phase), self.count_budget(phase)
        return flood, count, flood, count

    def rounds_through_phase(self, phase: int) -> int:
        """Total rounds consumed by phases 1..phase."""
        return sum(self.phase_length(k) for k in range(1, phase + 1))


class LeaderElectNode(ProtocolNode):
    """One node of the Section-7 protocol.

    Parameters
    ----------
    n_estimate:
        The estimate N' with ``|N' - N| / N <= 1/3 - c``.
    value:
        Optional payload for consensus-via-leader-election: the leader's
        value rides on the announcement (see
        :class:`~repro.protocols.consensus.ConsensusFromLeaderNode`).
    alpha, components:
        Protocol constants; must match across nodes (they parameterize
        the shared :class:`StageSchedule`).
    """

    def __init__(
        self,
        uid: int,
        n_estimate: float,
        value: int = 0,
        alpha: float = 2.0,
        components: Optional[int] = None,
        skip_seen_count: bool = False,
    ):
        super().__init__(uid)
        self.schedule = StageSchedule(n_estimate, alpha=alpha, components=components)
        self.tau = majority_threshold(n_estimate)
        self.R = self.schedule.components
        self.value = value
        #: ablation: drop the pre-lock majority count ("avoid excessive
        #: lock roll back", Section 7) — every candidate then tries to
        #: lock, multiplying lock acquisitions and unlock traffic
        self.skip_seen_count = skip_seen_count
        #: instrumentation for the ablation study
        self.lock_floods_started = 0
        self.unlocks_issued = 0

        self.best = uid
        self.leader: Optional[int] = None
        self.leader_value: Optional[int] = None
        self.locked: Optional[Tuple[int, int]] = None  # (candidate, phase)
        self.unlock_known: List[Tuple[int, int]] = []
        # phase-local state
        self._stage_key: Optional[Tuple[int, int]] = None
        self.is_candidate = False
        self.seen_majority = False
        self._count_tag: Optional[int] = None
        self._count_mins: Dict[int, int] = {}
        self._pending_action: Optional[Action] = None
        self.elected_round: Optional[int] = None
        self.last_estimates: Dict[str, float] = {}

    # -- stage transitions ----------------------------------------------
    def _enter_stage(self, phase: int, stage: int, coins: Coins, round_: int) -> None:
        prev = self._stage_key
        self._stage_key = (phase, stage)
        if prev is not None:
            self._leave_stage(*prev, round_=round_)
        if stage == 1:  # count-seen begins
            self.is_candidate = self.best == self.uid
            self._count_tag = self.best
            self._count_mins = dict(draw_exponentials(coins, self.R))
        elif stage == 3:  # count-locked begins
            if self.locked is not None:
                self._count_tag = self.locked[0]
                self._count_mins = dict(draw_exponentials(coins, self.R))
            else:
                self._count_tag = self.best
                self._count_mins = {}
        elif stage == 2:  # lock stage begins
            if self.is_candidate and self.seen_majority:
                self.lock_floods_started += 1
                if self.locked is None:
                    self.locked = (self.uid, phase)

    def _leave_stage(self, phase: int, stage: int, round_: int) -> None:
        if stage == 1:  # count-seen ended
            est = estimate_count(self._count_mins, self.R)
            self.last_estimates["seen"] = est
            if self.skip_seen_count:
                self.seen_majority = self.is_candidate
            else:
                self.seen_majority = self.is_candidate and est >= self.tau
        elif stage == 3:  # count-locked ended
            if self.is_candidate and self.seen_majority:
                est = estimate_count(self._count_mins, self.R)
                self.last_estimates["locked"] = est
                if est >= self.tau and self.leader is None:
                    self.leader = self.uid
                    self.leader_value = self.value
                    self.elected_round = round_
                elif est < self.tau:
                    self.unlocks_issued += 1
                    self._remember_unlock((self.uid, phase))
                    if self.locked == (self.uid, phase):
                        self.locked = None

    def _remember_unlock(self, record: Tuple[int, int]) -> None:
        if record not in self.unlock_known:
            self.unlock_known.append(record)
            if len(self.unlock_known) > _MAX_UNLOCKS:
                self.unlock_known.pop(0)
        if self.locked == record:
            self.locked = None

    # -- the round hook ---------------------------------------------------
    def action(self, round_: int, coins: Coins) -> Action:
        phase, stage, offset, _length = self.schedule.locate(round_)
        if self._stage_key != (phase, stage):
            self._enter_stage(phase, stage, coins, round_)

        if self.leader is not None:
            if coins.bit(0.5):
                return Send(("ann", self.leader, self.leader_value))
            return Receive()

        if stage == 0:  # disseminate
            if coins.bit(0.5):
                rec = (0, 0)
                if self.unlock_known:
                    rec = self.unlock_known[round_ % len(self.unlock_known)]
                return Send(("s1", self.best, rec[0], rec[1]))
            return Receive()

        if stage in (1, 3):  # counting stages
            comp = (offset - 1) % self.R
            if comp in self._count_mins and coins.bit(0.5):
                return Send(("cnt", self._count_tag, comp, self._count_mins[comp]))
            return Receive()

        # stage 2: lock flooding
        if self.locked is not None and coins.bit(0.5):
            return Send(("lock", self.locked[0], self.locked[1]))
        return Receive()

    def on_messages(self, round_: int, payloads: Tuple[Any, ...]) -> None:
        for p in payloads:
            if not isinstance(p, tuple) or not p:
                continue
            kind = p[0]
            if kind == "ann" and len(p) == 3:
                if self.leader is None:
                    self.leader, self.leader_value = p[1], p[2]
            elif kind == "s1" and len(p) == 4:
                self.best = max(self.best, p[1])
                if p[2]:
                    self._remember_unlock((p[2], p[3]))
            elif kind == "cnt" and len(p) == 4:
                if p[1] == self._count_tag:
                    merge_min(self._count_mins, p[2], p[3])
            elif kind == "lock" and len(p) == 3:
                if self.locked is None:
                    self.locked = (p[1], p[2])

    def output(self) -> Optional[Any]:
        return ("leader", self.leader) if self.leader is not None else None
