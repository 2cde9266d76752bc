"""Tests for the dual graph model and the paper's carry-over claim."""

from __future__ import annotations

import pytest

from repro.cc.disjointness import random_instance
from repro.core.composition import theorem6_network, theorem7_network
from repro.errors import ConfigurationError, ModelViolation
from repro.network.causality import dynamic_diameter, flood_completion_time
from repro.network.dualgraph import (
    DualGraph,
    DualGraphAdversary,
    RandomDualGraphAdversary,
    as_dual_graph,
)
from repro.network.generators import clique_edges, line_edges
from repro.network.topology import RoundTopology

IDS = tuple(range(1, 9))


def make_dual():
    return DualGraph(
        node_ids=IDS,
        reliable=frozenset(line_edges(list(IDS))),
        potential=frozenset(clique_edges(list(IDS))),
    )


class TestDualGraph:
    def test_reliable_must_be_subset(self):
        with pytest.raises(ConfigurationError):
            DualGraph(IDS, frozenset({(1, 3)}), frozenset({(1, 2)}))

    def test_unreliable_complement(self):
        d = make_dual()
        assert d.unreliable == d.potential - d.reliable
        assert d.reliable_connected()

    def test_admits(self):
        d = make_dual()
        assert d.admits(d.reliable)
        assert d.admits(d.potential)
        assert d.admits(set(d.reliable) | {(1, 5)})
        assert not d.admits(set(d.reliable) - {(1, 2)})  # dropped reliable
        assert not d.admits(set(d.reliable) | {(1, 99)})  # foreign edge

    def test_admits_schedule(self):
        d = make_dual()
        good = [d.reliable, set(d.reliable) | {(2, 7)}]
        assert d.admits_schedule(good)
        assert not d.admits_schedule([set()])


class TestDualGraphAdversaries:
    def test_default_withholds_everything(self):
        adv = DualGraphAdversary(make_dual())
        assert set(adv.edges(1, None)) == set(make_dual().reliable)

    def test_requires_connected_reliable(self):
        bad = DualGraph(IDS, frozenset({(1, 2)}), frozenset(clique_edges(list(IDS))))
        with pytest.raises(ConfigurationError):
            DualGraphAdversary(bad)

    def test_chooser_validated(self):
        adv = DualGraphAdversary(make_dual(), chooser=lambda r, v: {(1, 2)})
        # (1,2) is reliable, not unreliable: the chooser overstepped
        with pytest.raises(ModelViolation):
            adv.edges(1, None)

    def test_random_activation_legal_and_varied(self):
        d = make_dual()
        adv = RandomDualGraphAdversary(d, seed=5, p=0.5)
        rounds = [frozenset(adv.edges(r, None)) for r in range(1, 8)]
        assert d.admits_schedule(rounds)
        assert len(set(rounds)) > 1  # actually varies

    def test_unreliable_edges_speed_up_flooding(self):
        d = make_dual()
        slow = DualGraphAdversary(d).schedule(12)
        fast = RandomDualGraphAdversary(d, seed=3, p=1.0).schedule(12)
        t_slow = flood_completion_time(slow, 1, max_rounds=20)
        t_fast = flood_completion_time(fast, 1, max_rounds=20)
        assert t_fast < t_slow == len(IDS) - 1


class TestLowerBoundConstructionsAreDualGraphs:
    """The paper: 'all our results extend to the dual graph model
    without any modification' — the constructions *are* dual-graph
    executions."""

    @pytest.mark.parametrize("value", [0, 1])
    def test_theorem6_schedule_is_legal_dual_execution(self, value):
        inst = random_instance(3, 9, seed=2, value=value)
        net = theorem6_network(inst)
        dual = as_dual_graph(net)
        sched = net.schedule(9 + 2)
        assert dual.admits_schedule(t.edges for t in sched)
        # with middles sending (the other adaptive resolution) too
        sched2 = net.schedule(9 + 2, receiving_policy=lambda uid, r: False)
        assert dual.admits_schedule(t.edges for t in sched2)

    @pytest.mark.parametrize("value", [0, 1])
    def test_theorem7_schedule_is_legal_dual_execution(self, value):
        inst = random_instance(2, 9, seed=4, value=value)
        net = theorem7_network(inst)
        dual = as_dual_graph(net)
        assert dual.admits_schedule(t.edges for t in net.schedule(9 + 2))

    def test_reliable_part_carries_the_structure(self):
        inst = random_instance(3, 9, seed=2, value=1)
        net = theorem6_network(inst)
        dual = as_dual_graph(net)
        gamma, lam = net.subnets
        # the permanent spokes, Λ mid-lines and bridges are reliable
        assert gamma.spoke_edges() <= dual.reliable
        assert lam.spoke_edges() <= dual.reliable
        assert lam.line_edges() <= dual.reliable
        assert net.bridges <= dual.reliable
        # the removable chain edges are the unreliable ones
        assert dual.unreliable
        assert dual.reliable_connected()

    def test_answer1_dual_still_small_diameter(self):
        inst = random_instance(2, 9, seed=5, value=1)
        net = theorem6_network(inst)
        dual = as_dual_graph(net)
        # even the all-withholding dual adversary keeps D small on
        # answer-1 instances: the reliable skeleton suffices
        adv = DualGraphAdversary(dual)
        d = dynamic_diameter(adv.schedule(12), max_diameter=30)
        assert d is not None and d <= 10
