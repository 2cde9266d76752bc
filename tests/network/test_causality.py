"""Tests for the causal relation and the dynamic diameter (Section 2).

The package propagates influence as packed ``uint64`` rows; the dense
boolean matrix product it replaced survives here, in :class:`_Dense`,
as the reference a Hypothesis property holds the packed rows to.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.analysis.experiments.protocols import measured_diameter
from repro.network import causality
from repro.network.adversaries import (
    OverlappingStarsAdversary,
    RandomConnectedAdversary,
    RotatingStarAdversary,
    StaticAdversary,
)
from repro.network.causality import (
    causal_closure,
    dynamic_diameter,
    eccentricity_from,
    flood_completion_time,
    reaches_all_within,
)
from repro.network.dynamic import DynamicSchedule
from repro.network.generators import (
    clique_edges,
    line_edges,
    random_tree_edges,
    star_edges,
)
from repro.network.topology import RoundTopology


def static_schedule(ids, edges):
    return DynamicSchedule([RoundTopology(ids, edges)])


class TestStaticDiameters:
    def test_line(self):
        ids = list(range(6))
        assert dynamic_diameter(static_schedule(ids, line_edges(ids))) == 5

    def test_star(self):
        ids = list(range(6))
        assert dynamic_diameter(static_schedule(ids, star_edges(0, ids))) == 2

    def test_clique(self):
        ids = list(range(6))
        assert dynamic_diameter(static_schedule(ids, clique_edges(ids))) == 1

    def test_single_node(self):
        # a lone node influences itself instantly; D = 1 by the
        # "minimum z >= 1 checked" convention of eccentricity_from
        ids = [1]
        sched = static_schedule(ids, [])
        assert eccentricity_from(sched, 0, 3) == 1

    def test_cap_returns_none(self):
        ids = list(range(10))
        sched = static_schedule(ids, line_edges(ids))
        assert dynamic_diameter(sched, max_diameter=3) is None


class TestDynamicSchedules:
    def test_rotating_star_is_slow(self):
        ids = list(range(8))
        d = dynamic_diameter(RotatingStarAdversary(ids).schedule(10))
        assert d == len(ids) - 1  # Theta(N) despite per-round diameter 2

    def test_overlapping_stars_is_fast(self):
        ids = list(range(12))
        d = dynamic_diameter(OverlappingStarsAdversary(ids).schedule(14))
        assert d <= 3

    @given(st.integers(0, 200))
    def test_connected_schedule_diameter_at_most_n_minus_1(self, seed):
        ids = list(range(7))
        sched = RandomConnectedAdversary(ids, seed=seed).schedule(10)
        d = dynamic_diameter(sched, max_diameter=len(ids))
        assert d is not None and 1 <= d <= len(ids) - 1


class TestClosureAndFlood:
    def test_closure_grows_monotonically(self):
        ids = list(range(6))
        sched = static_schedule(ids, line_edges(ids))
        prev = frozenset({0})
        for z in range(1, 6):
            cur = causal_closure(sched, [0], start_round=0, rounds=z)
            assert prev <= cur
            assert len(cur) == z + 1  # one new line node per round
            prev = cur

    def test_flood_completion_matches_eccentricity(self):
        ids = list(range(6))
        sched = static_schedule(ids, line_edges(ids))
        assert flood_completion_time(sched, 0) == 5
        assert flood_completion_time(sched, 3) == 3  # middle node is closer

    def test_flood_never_exceeds_diameter(self):
        ids = list(range(8))
        for seed in range(5):
            sched = RandomConnectedAdversary(ids, seed=seed).schedule(12)
            d = dynamic_diameter(sched, max_diameter=20)
            for src in ids:
                t = flood_completion_time(sched, src, max_rounds=20)
                assert t is not None and t <= d

    def test_flood_incomplete_on_disconnected_static(self):
        ids = [1, 2, 3]
        sched = DynamicSchedule([RoundTopology(ids, [(1, 2)])])
        assert flood_completion_time(sched, 1, max_rounds=10) is None

    def test_reaches_all_within(self):
        ids = list(range(5))
        sched = static_schedule(ids, line_edges(ids))
        assert reaches_all_within(sched, 0, 4)
        assert not reaches_all_within(sched, 0, 3)


class TestDynamicScheduleContainer:
    def test_rounds_one_based_and_tail_repeat(self):
        ids = [1, 2, 3]
        t1 = RoundTopology(ids, [(1, 2), (2, 3)])
        t2 = RoundTopology(ids, [(1, 3), (2, 3)])
        sched = DynamicSchedule([t1, t2])
        assert sched.topology(1) is t1
        assert sched.topology(2) is t2
        assert sched.topology(9) is t2

    def test_round_zero_rejected(self):
        ids = [1, 2]
        sched = static_schedule(ids, [(1, 2)])
        with pytest.raises(Exception):
            sched.topology(0)

    def test_mixed_node_sets_rejected(self):
        t1 = RoundTopology([1, 2], [(1, 2)])
        t2 = RoundTopology([1, 3], [(1, 3)])
        with pytest.raises(Exception):
            DynamicSchedule([t1, t2])

    def test_all_connected(self):
        ids = [1, 2, 3]
        good = static_schedule(ids, line_edges(ids))
        assert good.all_connected()
        bad = DynamicSchedule([RoundTopology(ids, [(1, 2)])])
        assert not bad.all_connected()


class TestStartRounds:
    def _starts(self, monkeypatch, sched, **kwargs):
        """dynamic_diameter's answer and the start rounds it checked."""
        seen = []
        ecc = causality.eccentricity_from

        def record(schedule, start_round, max_rounds):
            seen.append(start_round)
            return ecc(schedule, start_round, max_rounds)

        monkeypatch.setattr(causality, "eccentricity_from", record)
        d = dynamic_diameter(sched, max_diameter=20, **kwargs)
        return d, seen

    def test_static_schedule_probes_one_start(self, monkeypatch):
        ids = list(range(6))
        sched = StaticAdversary(ids, line_edges(ids)).schedule(12)
        assert self._starts(monkeypatch, sched) == (5, [0])

    def test_starts_stop_at_the_last_change(self, monkeypatch):
        """Rounds 3..5 repeat one edge set: starts 0, 1 and 2 cover it."""
        ids = list(range(5))
        a, b = line_edges(ids), star_edges(0, ids)
        sched = DynamicSchedule(
            [RoundTopology(ids, edges) for edges in (a, b, a, a, a)]
        )
        d, seen = self._starts(monkeypatch, sched)
        assert seen == [0, 1, 2]
        assert d == _Dense(sched).dynamic_diameter(max_diameter=20)

    def test_explicit_starts_are_honoured(self, monkeypatch):
        ids = list(range(4))
        sched = StaticAdversary(ids, line_edges(ids)).schedule(5)
        assert self._starts(monkeypatch, sched, start_rounds=[3, 1]) == (3, [3, 1])


# -- the dense matrix-product reference ------------------------------------


class _Dense:
    """The dense propagation the packed rows replaced: an N x N boolean
    influence matrix multiplied by each round's adjacency (with a True
    diagonal), and the start-round rule 0..explicit_rounds."""

    def __init__(self, schedule):
        self.schedule = schedule
        self.index = {uid: i for i, uid in enumerate(schedule.node_ids)}
        self._adj = {}

    def adjacency(self, round_):
        topo = self.schedule.topology(round_)
        adj = self._adj.get(id(topo))
        if adj is None:
            adj = np.eye(len(self.index), dtype=bool)
            for u, v in topo.edges:
                iu, iv = self.index[u], self.index[v]
                adj[iu, iv] = adj[iv, iu] = True
            self._adj[id(topo)] = adj
        return adj

    def causal_closure(self, sources, start_round=0, rounds=1):
        reached = np.zeros(len(self.index), dtype=bool)
        for uid in sources:
            reached[self.index[uid]] = True
        for k in range(1, rounds + 1):
            reached = self.adjacency(start_round + k) @ reached
        ids = self.schedule.node_ids
        return frozenset(ids[i] for i in np.nonzero(reached)[0])

    def flood_completion_time(self, source, start_round=0, max_rounds=None):
        sched = self.schedule
        n = sched.num_nodes
        budget = max_rounds if max_rounds is not None else sched.explicit_rounds + n
        reached = np.zeros(n, dtype=bool)
        reached[self.index[source]] = True
        for k in range(1, budget + 1):
            new = self.adjacency(start_round + k) @ reached
            if new.all():
                return k
            if (new == reached).all() and start_round + k >= sched.explicit_rounds:
                return None
            reached = new
        return None

    def eccentricity_from(self, start_round, max_rounds):
        influence = np.eye(len(self.index), dtype=bool)
        for z in range(1, max_rounds + 1):
            influence = self.adjacency(start_round + z) @ influence
            if influence.all():
                return z
        return None

    def dynamic_diameter(self, max_diameter=None):
        sched = self.schedule
        cap = max_diameter if max_diameter is not None else sched.explicit_rounds + sched.num_nodes
        worst = 0
        for r0 in range(0, sched.explicit_rounds + 1):
            ecc = self.eccentricity_from(r0, cap)
            if ecc is None:
                return None
            worst = max(worst, ecc)
        return worst


#: node counts on both sides of the 64- and 128-bit word boundaries
_BOUNDARY_NS = [1, 2, 63, 64, 65, 127, 128, 129, 130]


def _in_form(topo, kind):
    """The same topology built in the given adjacency form."""
    index = {uid: i for i, uid in enumerate(topo.node_ids)}
    flat = np.array([index[u] for uv in topo.edges for u in uv], dtype=np.intp)
    return RoundTopology.from_normalized(topo.node_ids, topo.edges, kind, flat)


@st.composite
def _schedules(draw):
    """Small random schedules: trees, lines, sparse random graphs (often
    disconnected) and empty rounds, with repeated rounds and tails, each
    round in a drawn adjacency form (its closed rows are built from it)."""
    n = draw(st.one_of(st.integers(1, 130), st.sampled_from(_BOUNDARY_NS)))
    base = draw(st.sampled_from([0, 1, 9]))
    ids = list(range(base, base + n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tops = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["dense", "bitset", "csr"]))
        if tops and draw(st.booleans()):  # repeat the previous round's edges
            tops.append(_in_form(tops[-1], kind))
            continue
        shape = draw(st.sampled_from(["tree", "line", "random", "empty"]))
        if shape == "tree":
            edges = random_tree_edges(ids, rng)
        elif shape == "line":
            edges = line_edges([ids[i] for i in rng.permutation(n)])
        elif shape == "random":
            p = draw(st.floats(0.0, 4.0 / n))
            edges = [
                (u, v) for i, u in enumerate(ids) for v in ids[i + 1:] if rng.random() < p
            ]
        else:
            edges = []
        tops.append(_in_form(RoundTopology(ids, edges), kind))
    return DynamicSchedule(tops)


class TestPackedMatchesDenseReference:
    @given(_schedules(), st.integers(1, 12), st.integers(0, 6), st.data())
    @example(static_schedule([1], []), 3, 0, None)
    def test_packed_rows_match_matrix_products(self, sched, cap, start, data):
        dense = _Dense(sched)
        assert eccentricity_from(sched, start, cap) == dense.eccentricity_from(start, cap)
        assert dynamic_diameter(sched, max_diameter=cap) == dense.dynamic_diameter(cap)
        ids = sched.node_ids
        if data is None:  # the explicit N=1 example
            sources, rounds, src = ids, 2, ids[0]
        else:
            sources = data.draw(st.lists(st.sampled_from(ids), max_size=3))
            rounds = data.draw(st.integers(0, 6))
            src = data.draw(st.sampled_from(ids))
        assert causal_closure(sched, sources, start, rounds) == dense.causal_closure(
            sources, start, rounds
        )
        assert flood_completion_time(sched, src, start) == dense.flood_completion_time(
            src, start
        )
        assert flood_completion_time(
            sched, src, start, max_rounds=cap
        ) == dense.flood_completion_time(src, start, max_rounds=cap)


@pytest.mark.slow
class TestScale:
    """measured_diameter at sizes the dense product could not reach."""

    def test_static_line_2048(self):
        ids = list(range(2048))
        assert measured_diameter(StaticAdversary(ids, line_edges(ids))) == 2047

    def test_random_connected_256_matches_dense_reference(self):
        adv = RandomConnectedAdversary(list(range(1, 257)), seed=1)
        want = _Dense(adv.schedule(48)).dynamic_diameter(max_diameter=48 + 256)
        assert measured_diameter(adv) == want
