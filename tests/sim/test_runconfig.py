"""RunConfig facade: round-trips, backend resolution, the config slot.

The facade's contract is twofold: (a) a ``RunConfig`` threads identically
through ``run_protocol``/``replicate``/``cartesian_sweep``, and (b) those
drivers take nothing else: a ``config`` of another type is a
:class:`~repro.errors.ConfigurationError` naming that type, and stray
arguments are Python's own ``TypeError``.  Both halves are pinned here.
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
        """Configs recorded when vector_replicas/dense_node_limit/
        instrument/registry were RunConfig fields still load."""
        cfg = RunConfig.from_dict(
            {"seed": 1, "max_rounds": 2, "vector_replicas": True,
             "dense_node_limit": 64, "instrument": True, "registry": None}
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


# -- the config slot --------------------------------------------------------


def _cell(a):
    return {"b": a + 1}


#: each driver with its cell bound, and a config it runs under
DRIVERS = {
    "run_protocol": (
        lambda *args, **kw: run_protocol(_make_nodes, _make_adv, *args, **kw),
        RunConfig(seed=3, max_rounds=30),
    ),
    "replicate": (
        lambda *args, **kw: replicate(_make_nodes, _make_adv, [1, 2], *args, **kw),
        RunConfig(max_rounds=30, workers=0),
    ),
    "cartesian_sweep": (
        lambda *args, **kw: cartesian_sweep({"a": [1, 2]}, _cell, *args, **kw),
        RunConfig(workers=0),
    ),
}


class TestConfigSlot:
    @pytest.mark.parametrize("driver", list(DRIVERS))
    def test_drivers_accept_only_a_run_config(self, driver):
        call, config = DRIVERS[driver]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            call(config)
        with pytest.raises(ConfigurationError, match=f"^{driver}: .* got int$"):
            call(3)
        with pytest.raises(ConfigurationError, match="got dict"):
            call(config.as_dict())
        with pytest.raises(TypeError, match="positional argument"):
            call(config, 30)
        with pytest.raises(TypeError, match="unexpected keyword argument 'max_rounds'"):
            call(config, max_rounds=30)


class TestLegacyShim:
    """The call styles removed in favour of ``RunConfig`` stay rejected.

    No shim spells out a replacement call any more: a non-config in the
    config slot is a ``ConfigurationError`` that names ``RunConfig``, and
    every other old style is an ordinary argument ``TypeError``.
    """

    def test_run_protocol_config_style_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run = run_protocol(
                _make_nodes, _make_adv, RunConfig(seed=3, max_rounds=30)
            )
        assert run.terminated

    def test_run_protocol_legacy_positional_raises_with_replacement(self):
        with pytest.raises(
            ConfigurationError,
            match="^run_protocol: config must be a RunConfig, got int$",
        ):
            run_protocol(_make_nodes, _make_adv, 3)
        with pytest.raises(TypeError, match="positional argument"):
            run_protocol(_make_nodes, _make_adv, 3, 30)

    def test_run_protocol_legacy_keywords_raise_with_replacement(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'seed'"):
            run_protocol(
                _make_nodes, _make_adv, seed=3, max_rounds=30, bandwidth_factor=48
            )

    def test_config_plus_legacy_is_ambiguous(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'max_rounds'"):
            run_protocol(
                _make_nodes, _make_adv, RunConfig(seed=3), max_rounds=30
            )

    def test_unknown_keyword_raises_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_protocol(
                _make_nodes, _make_adv, RunConfig(seed=3, max_rounds=30), turbo=True
            )

    def test_duplicate_positional_and_keyword_raises(self):
        with pytest.raises(TypeError, match="multiple values"):
            run_protocol(
                _make_nodes, _make_adv, RunConfig(seed=3), config=RunConfig(seed=4)
            )

    def test_too_many_positionals_raises(self):
        with pytest.raises(TypeError, match="positional arguments but 10 were given"):
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
