"""The round-to-stage locator shared by the phased protocols.

Both unknown-diameter protocols — the Section-7 leader election
(:class:`~repro.protocols.leader_election.StageSchedule`) and the
doubling-guess heuristic
(:class:`~repro.protocols.doubling.DoublingSchedule`) — run in phases
k = 1, 2, ..., each a fixed sequence of stages whose lengths depend
only on k and the protocol constants.  Every node maps the round number
to its (phase, stage, offset, stage length) once per round, so this
lookup sits on the per-node hot path.

:class:`PhasedSchedule` answers it without searching: stage lengths and
phase starts are computed once per phase, the engine's rising round
sequence hits a cached current-stage window ``[lo, hi)`` in O(1), and
any other round bisects the phase starts.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, List, Sequence, Tuple

from .._util import require

__all__ = ["PhasedSchedule"]


class PhasedSchedule:
    """Maps a 1-based round to ``(phase, stage, offset, stage_len)``.

    Subclasses set :attr:`stages` (the labels :meth:`locate` reports, in
    order) and implement :meth:`_stage_lengths`.  The schedule must be a
    pure function of the round: the cached window is an accelerator,
    never state that changes an answer.
    """

    #: stage labels, in schedule order
    stages: Tuple[Any, ...] = ()

    def __init__(self) -> None:
        #: _starts[k - 1] is the first round of phase k; the last entry
        #: is one past the last phase computed so far
        self._starts: List[int] = [1]
        #: _lengths[k - 1] is phase k's stage lengths
        self._lengths: List[Sequence[int]] = []
        #: the last stage located: (lo, hi, phase, stage, length)
        self._window: Tuple[int, int, int, Any, int] = (0, 0, 0, None, 0)

    def _stage_lengths(self, phase: int) -> Sequence[int]:
        """Lengths of phase ``phase``'s stages, aligned with :attr:`stages`."""
        raise NotImplementedError

    def phase_length(self, phase: int) -> int:
        """Rounds in phase ``phase``: the sum of its stage lengths."""
        return sum(self._stage_lengths(phase))

    def locate(self, round_: int) -> Tuple[int, Any, int, int]:
        """(phase, stage label, 1-based offset in stage, stage length)."""
        lo, hi, phase, stage, length = self._window
        if lo <= round_ < hi:
            return phase, stage, round_ - lo + 1, length
        return self._seek(round_)

    def _seek(self, round_: int) -> Tuple[int, Any, int, int]:
        require(round_ >= 1, "rounds are 1-based")
        starts, lengths = self._starts, self._lengths
        while starts[-1] <= round_:
            phase_lengths = self._stage_lengths(len(starts))
            lengths.append(phase_lengths)
            starts.append(starts[-1] + sum(phase_lengths))
        # phase k spans [starts[k - 1], starts[k])
        phase = bisect_right(starts, round_)
        lo = starts[phase - 1]
        for stage, length in zip(self.stages, lengths[phase - 1]):
            if round_ < lo + length:
                self._window = (lo, lo + length, phase, stage, length)
                return phase, stage, round_ - lo + 1, length
            lo += length
        raise AssertionError("unreachable: stages cover the phase")  # pragma: no cover
