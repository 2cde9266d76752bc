"""Shared fixtures, markers, and hypothesis strategies for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.cc.disjointness import DisjointnessInstance, allowed_pairs

# Hypothesis profiles (select with HYPOTHESIS_PROFILE, default "repro"):
#   repro    local development — fast, random exploration
#   ci       pull requests — derandomized, so a red PR is reproducibly red
#   ci-main  pushes to main — derandomized but wider (more examples)
_COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("repro", max_examples=40, **_COMMON)
settings.register_profile("ci", max_examples=40, derandomize=True, **_COMMON)
settings.register_profile("ci-main", max_examples=120, derandomize=True, **_COMMON)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


def pytest_collection_modifyitems(config, items):
    """Auto-apply the tier marker (see pyproject ``[tool.pytest.ini_options]``).

    Everything not explicitly ``slow`` is ``tier1`` — so ``-m tier1``
    and ``-m "not slow"`` select the same fast PR gate.
    """
    for item in items:
        if "slow" not in item.keywords:
            item.add_marker(pytest.mark.tier1)


def odd_q(min_q: int = 3, max_q: int = 13):
    """Strategy: odd q in [min_q, max_q]."""
    return st.integers(min_q // 2, (max_q - 1) // 2).map(lambda t: 2 * t + 1)


@st.composite
def disjointness_instances(draw, min_n=1, max_n=6, min_q=3, max_q=11, value=None):
    """Strategy: promise-satisfying DISJOINTNESSCP instances."""
    q = draw(odd_q(min_q, max_q))
    n = draw(st.integers(min_n, max_n))
    pairs = allowed_pairs(q)
    non_zero = [p for p in pairs if p != (0, 0)]
    if value == 0:
        witness = draw(st.integers(0, n - 1))
        chosen = [
            (0, 0) if i == witness else draw(st.sampled_from(pairs))
            for i in range(n)
        ]
    elif value == 1:
        chosen = [draw(st.sampled_from(non_zero)) for _ in range(n)]
    else:
        chosen = [draw(st.sampled_from(pairs)) for _ in range(n)]
    x = tuple(p[0] for p in chosen)
    y = tuple(p[1] for p in chosen)
    return DisjointnessInstance(x, y, q)


@pytest.fixture
def fig1_instance() -> DisjointnessInstance:
    """The Figure-1 instance: n=4, q=5, x=3110, y=2200."""
    return DisjointnessInstance.from_strings("3110", "2200", 5)


@pytest.fixture
def small_ids():
    return list(range(1, 9))


#: the counters a finished engine run adds to its observation session
SESSION_COUNTERS = (
    "rounds_total",
    "bits_sent_total",
    "messages_delivered_total",
    "topology_changes_total",
    "runs_total",
)


def session_counters(session) -> dict:
    """The :data:`SESSION_COUNTERS` values of an observation session."""
    return {name: session.registry.counter(name).value for name in SESSION_COUNTERS}


def counters_from_traces(traces) -> dict:
    """The :data:`SESSION_COUNTERS`, recomputed from the traces alone."""
    totals = dict.fromkeys(SESSION_COUNTERS, 0)
    for trace in traces:
        totals["runs_total"] += 1
        totals["rounds_total"] += trace.rounds
        totals["bits_sent_total"] += trace.total_bits()
        last_edges = None
        for record in trace:
            totals["messages_delivered_total"] += sum(record.delivered.values())
            totals["topology_changes_total"] += record.edges != last_edges
            last_edges = record.edges
    return totals
