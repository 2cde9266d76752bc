"""The shared phase locator against the per-call searches it replaced.

``reference_stage_locate`` and ``reference_doubling_locate`` are the
``StageSchedule.locate`` and ``DoublingSchedule.locate`` loops as they
stood before :class:`~repro.protocols.schedule.PhasedSchedule`: a fresh
search of the phase table on every call.  The windowed locator must give
the same answer for every schedule and every order of calls — rising
(the engine's order), repeated, backwards, and far jumps.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import require
from repro.errors import ConfigurationError
from repro.protocols.doubling import DoublingSchedule
from repro.protocols.leader_election import StageSchedule


def reference_stage_locate(s: StageSchedule, round_: int) -> Tuple[int, int, int, int]:
    """The pre-locator ``StageSchedule.locate``, over a private start table."""
    require(round_ >= 1, "rounds are 1-based")
    phase_starts: List[int] = [1]
    while phase_starts[-1] <= round_:
        k = len(phase_starts)
        phase_starts.append(phase_starts[-1] + s.phase_length(k))
    k = next(
        i for i in range(len(phase_starts) - 1, 0, -1)
        if phase_starts[i - 1] <= round_ < phase_starts[i]
    )
    off = round_ - phase_starts[k - 1]
    lengths = (
        s.flood_budget(k),
        s.count_budget(k),
        s.flood_budget(k),
        s.count_budget(k),
    )
    for stage, length in enumerate(lengths):
        if off < length:
            return k, stage, off + 1, length
        off -= length
    raise AssertionError("unreachable: offsets cover the phase")


def reference_doubling_locate(s: DoublingSchedule, round_: int) -> Tuple[int, str, int, int]:
    """The pre-locator ``DoublingSchedule.locate``: walk phases from 1."""
    require(round_ >= 1, "rounds are 1-based")
    r = round_
    k = 1
    while r > s.phase_length(k):
        r -= s.phase_length(k)
        k += 1
    f = s.flood_budget(k)
    if r <= f:
        return k, "flood", r, f
    return k, "count", r - f, s.count_budget(k)


def _stage_schedules():
    return st.builds(
        StageSchedule,
        n_estimate=st.floats(min_value=2.0, max_value=5000.0, allow_nan=False),
        alpha=st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
        components=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    )


def _doubling_schedules():
    return st.builds(
        DoublingSchedule,
        num_nodes=st.integers(min_value=2, max_value=5000),
        alpha=st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
        components=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    )


def _schedule_and_reference():
    return st.one_of(
        st.tuples(_stage_schedules(), st.just(reference_stage_locate)),
        st.tuples(_doubling_schedules(), st.just(reference_doubling_locate)),
    )


@st.composite
def _call_orders(draw):
    """A round sequence mixing rising runs, repeats, backward steps and jumps."""
    rounds = [draw(st.integers(min_value=1, max_value=10 ** 6))]
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        last = rounds[-1]
        move = draw(st.sampled_from(("rise", "repeat", "back", "jump")))
        if move == "rise":
            steps = draw(st.integers(min_value=1, max_value=400))
            rounds.extend(range(last + 1, last + 1 + steps))
        elif move == "repeat":
            rounds.extend([last] * draw(st.integers(min_value=1, max_value=3)))
        elif move == "back":
            rounds.append(max(1, last - draw(st.integers(min_value=1, max_value=10 ** 6))))
        else:
            rounds.append(draw(st.integers(min_value=1, max_value=10 ** 6)))
    return rounds


@settings(deadline=None)
@given(pair=_schedule_and_reference(), rounds=_call_orders())
def test_locate_matches_reference_search(pair, rounds):
    schedule, reference = pair
    for r in rounds:
        assert schedule.locate(r) == reference(schedule, r), r


@settings(deadline=None)
@given(pair=_schedule_and_reference(), rounds=_call_orders(),
       bad=st.integers(min_value=-10 ** 6, max_value=0))
def test_nonpositive_rounds_raise_after_window_filled(pair, rounds, bad):
    schedule, reference = pair
    for r in rounds:
        schedule.locate(r)
    with pytest.raises(ConfigurationError, match="1-based"):
        schedule.locate(0)
    with pytest.raises(ConfigurationError, match="1-based"):
        schedule.locate(bad)
    # the failed lookups leave the cached window intact
    assert schedule.locate(rounds[-1]) == reference(schedule, rounds[-1])


@pytest.mark.parametrize("schedule,reference", [
    (StageSchedule(32.0), reference_stage_locate),
    (StageSchedule(6, alpha=0.5, components=3), reference_stage_locate),
    (DoublingSchedule(32), reference_doubling_locate),
    (DoublingSchedule(5, alpha=1.0, components=2), reference_doubling_locate),
])
def test_every_round_of_four_phases_matches(schedule, reference):
    """The engine's order, exhaustively: rounds 1.. through phase 4."""
    end = sum(schedule.phase_length(k) for k in range(1, 5))
    for r in range(1, end + 1):
        assert schedule.locate(r) == reference(schedule, r), r
