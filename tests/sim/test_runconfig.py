"""RunConfig facade: round-trips, backend resolution, the removed shim.

The facade's contract is twofold: (a) a ``RunConfig`` threads identically
through ``run_protocol``/``replicate``/``cartesian_sweep``, and (b) the
pre-RunConfig call styles — individual values positionally or by keyword,
which deprecation-warned for four PRs — are now *removed*: they raise
:class:`~repro.errors.ConfigurationError` naming the exact
``config=RunConfig(...)`` replacement.  Both halves are pinned here.
"""

from __future__ import annotations

import warnings

import pytest

from repro.errors import ConfigurationError
from repro.network.adversaries import StaticAdversary
from repro.network.generators import line_edges
from repro.protocols.flooding import TokenFloodNode
from repro.sim import (
    BACKEND_ENV,
    BACKENDS,
    RunConfig,
    replicate,
    resolve_backend,
    run_protocol,
)
from repro.analysis.sweep import cartesian_sweep

IDS = tuple(range(6))


def _make_nodes():
    return {i: TokenFloodNode(i, source=0) for i in IDS}


def _make_adv():
    return StaticAdversary(IDS, line_edges(list(IDS)))


# -- the value object ------------------------------------------------------


class TestRunConfig:
    def test_round_trip_as_dict(self):
        cfg = RunConfig(seed=7, max_rounds=50, bandwidth_factor=48,
                        check_connected=False, backend="batch", workers=2)
        assert RunConfig.from_dict(cfg.as_dict()) == cfg

    def test_from_dict_ignores_unknown_keys(self):
        cfg = RunConfig.from_dict({"seed": 1, "max_rounds": 2, "novel_field": True})
        assert cfg == RunConfig(seed=1, max_rounds=2)

    def test_from_dict_ignores_dropped_fields(self):
        """Configs recorded when vector_replicas/dense_node_limit were
        RunConfig fields still load."""
        cfg = RunConfig.from_dict(
            {"seed": 1, "max_rounds": 2, "vector_replicas": True,
             "dense_node_limit": 64}
        )
        assert cfg == RunConfig(seed=1, max_rounds=2)

    def test_evolve_replaces_fields(self):
        base = RunConfig(seed=1, max_rounds=10)
        assert base.evolve(seed=2) == RunConfig(seed=2, max_rounds=10)
        assert base.seed == 1  # frozen original untouched

    def test_default_bandwidth_factor_sourced_from_messages(self):
        from repro.sim.messages import DEFAULT_BANDWIDTH_FACTOR

        assert RunConfig().bandwidth_factor == DEFAULT_BANDWIDTH_FACTOR

    def test_invalid_backend_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            RunConfig(backend="vectorized")

    def test_resolved_backend_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "batch")
        assert RunConfig(backend="reference").resolved_backend() == "reference"

    def test_resolved_backend_env_applies(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "batch")
        assert RunConfig().resolved_backend() == "batch"
        monkeypatch.delenv(BACKEND_ENV)
        assert RunConfig().resolved_backend() == "reference"

    def test_resolve_backend_rejects_bad_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "gpu")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend(None)

    def test_backends_registry(self):
        assert BACKENDS == ("reference", "batch")


# -- the removed legacy call styles ----------------------------------------


class TestLegacyShim:
    def test_run_protocol_config_style_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run = run_protocol(
                _make_nodes, _make_adv, RunConfig(seed=3, max_rounds=30)
            )
        assert run.terminated

    def test_run_protocol_legacy_positional_raises_with_replacement(self):
        with pytest.raises(ConfigurationError, match="was.*removed") as exc:
            run_protocol(_make_nodes, _make_adv, 3, 30)
        # the error spells out the exact RunConfig replacement
        assert "run_protocol" in str(exc.value)
        assert "config=RunConfig(max_rounds=30, seed=3)" in str(exc.value)

    def test_run_protocol_legacy_keywords_raise_with_replacement(self):
        with pytest.raises(ConfigurationError, match="was.*removed") as exc:
            run_protocol(
                _make_nodes, _make_adv, seed=3, max_rounds=30, bandwidth_factor=48
            )
        assert (
            "config=RunConfig(bandwidth_factor=48, max_rounds=30, seed=3)"
            in str(exc.value)
        )

    def test_replicate_legacy_keywords_raise_with_replacement(self):
        with pytest.raises(ConfigurationError, match="was.*removed") as exc:
            replicate(_make_nodes, _make_adv, [1, 2], max_rounds=30)
        assert "replicate" in str(exc.value)
        assert "config=RunConfig(max_rounds=30)" in str(exc.value)

    def test_cartesian_sweep_legacy_workers_raises_with_replacement(self):
        def cell(a):
            return {"b": a + 1}

        with pytest.raises(ConfigurationError, match="was.*removed") as exc:
            cartesian_sweep({"a": [1, 2]}, cell, workers=0)
        assert "cartesian_sweep" in str(exc.value)
        assert "config=RunConfig(workers=0)" in str(exc.value)

    def test_config_plus_legacy_is_ambiguous(self):
        with pytest.raises(ConfigurationError, match="not both"):
            run_protocol(
                _make_nodes, _make_adv, RunConfig(seed=3), max_rounds=30
            )

    def test_unknown_keyword_raises_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_protocol(_make_nodes, _make_adv, seed=3, max_rounds=30, turbo=True)

    def test_duplicate_positional_and_keyword_raises(self):
        with pytest.raises(TypeError, match="multiple values"):
            run_protocol(_make_nodes, _make_adv, 3, seed=4, max_rounds=30)

    def test_too_many_positionals_raises(self):
        with pytest.raises(TypeError, match="at most"):
            run_protocol(_make_nodes, _make_adv, 3, 30, 24, True, False, None, 0, 99)


# -- threading through the drivers -----------------------------------------


class TestConfigThreading:
    def test_run_protocol_requires_seed_and_max_rounds(self):
        with pytest.raises(ConfigurationError):
            run_protocol(_make_nodes, _make_adv, RunConfig(max_rounds=30))
        with pytest.raises(ConfigurationError):
            run_protocol(_make_nodes, _make_adv, RunConfig(seed=3))

    def test_backend_recorded_on_runs(self):
        ref = run_protocol(
            _make_nodes, _make_adv, RunConfig(seed=3, max_rounds=30, backend="reference")
        )
        bat = run_protocol(
            _make_nodes, _make_adv, RunConfig(seed=3, max_rounds=30, backend="batch")
        )
        assert ref.backend == "reference"
        assert bat.backend == "batch"
        assert ref.outputs == bat.outputs

    def test_env_backend_applies_to_run_protocol(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "batch")
        run = run_protocol(_make_nodes, _make_adv, RunConfig(seed=3, max_rounds=30))
        assert run.backend == "batch"

    def test_replicate_backend_recorded(self):
        summary = replicate(
            _make_nodes, _make_adv, [1, 2, 3], RunConfig(max_rounds=30, backend="batch")
        )
        assert [r.backend for r in summary.runs] == ["batch"] * 3
