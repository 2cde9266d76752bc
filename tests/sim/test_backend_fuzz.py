"""Differential fuzzing: every backend variant is bit-identical.

Drives ``tools/fuzz_backends.py`` — Hypothesis draws random (protocol,
adversary, N, seeds, rounds) cells and every variant of the execution
stack (reference, batch, forced-sparse batch) must
agree on fingerprints, bit totals, rounds, and outputs.  A planted
divergence confirms the lockstep diagnosis names the exact round and
stage, so a real future divergence arrives pre-bisected.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

_TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "fuzz_backends.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("fuzz_backends", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("fuzz_backends", module)
    spec.loader.exec_module(module)
    return module


fb = _load_tool()


# -- cell strategy ----------------------------------------------------------

def _cells():
    """Random cells mirroring fuzz_backends.random_cell, Hypothesis-driven."""

    @st.composite
    def build(draw):
        protocol = draw(st.sampled_from(fb.PROTOCOLS))
        adversary = draw(st.sampled_from(fb.adversary_pool(protocol)))
        n = draw(st.integers(min_value=3, max_value=10))
        adv_seed = draw(st.integers(min_value=0, max_value=2 ** 16))
        k = draw(st.integers(min_value=1, max_value=3))
        start = draw(st.integers(min_value=0, max_value=2 ** 20))
        max_rounds = draw(st.integers(min_value=4, max_value=3 * n))
        return fb.Cell(
            name=f"hyp/{protocol}/{adversary}/n{n}",
            protocol=protocol,
            adversary=adversary,
            n=n,
            adv_seed=adv_seed,
            seeds=tuple(range(start, start + k)),
            max_rounds=max_rounds,
        )

    return build()


@settings(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cell=_cells())
def test_all_variants_bit_identical(cell):
    problems = fb.compare_cell(cell)
    assert problems == [], "\n".join(problems)


def test_fixed_corpus_smoke():
    """A deterministic handful of cells (fuzz CLI's own RNG), PR-sized."""
    problems, _ = fb.fuzz(4, rng_seed=2026, max_nodes=12)
    assert problems == [], "\n".join(problems)


# -- the divergence oracle --------------------------------------------------

_CLEAN_CELL = fb.Cell(
    name="diag/clean",
    protocol="gossip",
    adversary="t-interval",
    n=8,
    adv_seed=5,
    seeds=(3,),
    max_rounds=12,
)


def test_diagnose_clean_cell_is_none():
    assert fb.diagnose_divergence(_CLEAN_CELL, 3, "batch") is None
    assert fb.diagnose_divergence(_CLEAN_CELL, 3, "batch-sparse") is None


def test_diagnose_names_round_and_stage(monkeypatch):
    """A planted batch-only topology corruption is located exactly.

    Dropping one committed edge in round 3 of the batch engine's
    adversary stage must be reported as a round-3 ``adversary``-stage
    divergence — not merely as "fingerprints differ".
    """
    from repro.sim.batch import BatchEngine

    original = BatchEngine._stage_adversary

    def corrupted(self, state):
        original(self, state)
        if state.round == 3 and state.edges:
            state.edges = frozenset(sorted(state.edges)[1:])

    monkeypatch.setattr(BatchEngine, "_stage_adversary", corrupted)
    cell = fb.Cell(
        name="diag/planted",
        protocol="gossip",
        adversary="static-line",
        n=7,
        adv_seed=0,
        seeds=(1,),
        max_rounds=10,
    )
    where = fb.diagnose_divergence(cell, 1, "batch")
    assert where is not None
    assert "round 3" in where
    assert "'adversary'" in where


def test_compare_cell_reports_diagnosis(monkeypatch):
    """compare_cell folds the round+stage location into its report."""
    from repro.sim.batch import BatchEngine

    original = BatchEngine._stage_adversary

    def corrupted(self, state):
        original(self, state)
        if state.round == 2 and state.edges:
            state.edges = frozenset(sorted(state.edges)[1:])

    monkeypatch.setattr(BatchEngine, "_stage_adversary", corrupted)
    cell = fb.Cell(
        name="diag/report",
        protocol="gossip",
        adversary="static-line",
        n=6,
        adv_seed=0,
        seeds=(2,),
        max_rounds=8,
    )
    problems = fb.compare_cell(cell, variants=("reference", "batch"))
    assert problems, "planted divergence must be detected"
    assert any("round 2" in p and "'adversary'" in p for p in problems)


# -- a raise is a compared outcome -----------------------------------------

#: seed 2 sends ("cntN", c, j) at 50 bits against N=3's 48-bit budget
#: in round 4; seed 1 terminates first
_RAISING_CELL = fb.Cell(
    name="raise/count-n/n3",
    protocol="count-n",
    adversary="static-line",
    n=3,
    adv_seed=0,
    seeds=(1, 2),
    max_rounds=40,
)


def test_identical_raise_is_a_compared_outcome():
    results = {variant: fb.run_cell(_RAISING_CELL, variant) for variant in fb.VARIANTS}
    for terminated, raised in results.values():
        assert terminated["terminated"] and "raised" not in terminated
        assert raised["raised"][0] == "BandwidthExceeded" and raised["raised"][2] == 4
    assert results["batch"] == results["reference"] == results["batch-sparse"]
    assert fb.compare_cell(_RAISING_CELL) == []


def test_raise_on_one_variant_is_a_diagnosed_divergence(monkeypatch):
    """A batch-only raise is a divergence named at its round and stage."""
    from repro.errors import DisconnectedTopology
    from repro.sim.batch import BatchEngine

    original = BatchEngine._stage_validation

    def failing(self, state):
        if state.round == 3:
            raise DisconnectedTopology("planted")
        original(self, state)

    monkeypatch.setattr(BatchEngine, "_stage_validation", failing)
    problems = fb.compare_cell(_CLEAN_CELL, variants=("reference", "batch"))
    assert len(problems) == 1
    assert "raised" in problems[0] and "round 3" in problems[0]
    assert "'validation'" in problems[0]


def test_raise_only_in_lockstep_is_a_divergence(monkeypatch):
    """A lockstep raise that no seed repeats alone is reported, not
    replaced by the seeds' clean solo runs."""

    def crashing(*args, **kwargs):
        raise RuntimeError("planted lockstep fault")

    monkeypatch.setattr(fb, "run_batch_replicas", crashing)
    [outcome] = fb.run_cell(_CLEAN_CELL, "batch")
    assert outcome["replicas_raised"] == ("RuntimeError", "planted lockstep fault")
    problems = fb.compare_cell(_CLEAN_CELL, variants=("reference", "batch"))
    assert len(problems) == 1 and "replicas_raised" in problems[0]


# -- adaptive cells ---------------------------------------------------------

@pytest.mark.parametrize("protocol", fb.PROTOCOLS)
def test_blocking_adversary_reads_the_protocols_state(protocol):
    """Every protocol's blocking adversary probes a field its nodes hold,
    so its schedule leaves the plain line it falls back to."""
    from repro.network.generators import line_edges
    from repro.sim.coins import CoinSource
    from repro.sim.engine import SynchronousEngine

    ids = tuple(range(7))
    [kind] = set(fb.adversary_pool(protocol)) & set(fb.ADAPTIVE_ADVERSARIES)
    adversary = fb.make_adversary_factory(kind, ids, 0)()
    engine = SynchronousEngine(fb.make_node_factory(protocol, ids)(), adversary,
                               CoinSource(1))
    engine.run(14)
    line = frozenset(line_edges(list(ids)))
    assert any(record.edges != line for record in engine.trace.records)


# -- CLI --------------------------------------------------------------------

def test_cli_smoke(capsys):
    assert fb.main(["--iterations", "2", "--seed", "11", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "all bit-identical" in out and "raised identically on every variant" in out


def test_cli_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown variant"):
        fb.run_cell(_CLEAN_CELL, "turbo")
