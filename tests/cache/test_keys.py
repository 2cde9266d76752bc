"""Property tests for the content-addressed cache keys (PR 10).

The key contract: a key is a pure function of the *semantic* run
identity — the :data:`SEMANTIC_CONFIG_FIELDS` subset of ``RunConfig``
plus the tokenized cell parts — and of nothing else.  Hypothesis pins
the three halves of that contract: stability (``as_dict``/``from_dict``
round-trips and dict insertion order do not move the key), sensitivity
(every semantic field flip moves it), and blindness (every execution
knob — backend, workers, the cache settings themselves — leaves it
alone, which is what lets reference and batch
runs share entries).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.key import (
    SEMANTIC_CONFIG_FIELDS,
    UncacheableError,
    cache_key,
    cache_token,
    semantic_config,
)
from repro.sim.config import RunConfig


def semantic_configs():
    """Strategy: RunConfigs varying only in the semantic fields."""
    return st.builds(
        RunConfig,
        seed=st.one_of(st.none(), st.integers(0, 10_000)),
        max_rounds=st.one_of(st.none(), st.integers(1, 100_000)),
        bandwidth_factor=st.integers(1, 128),
        check_connected=st.booleans(),
    )


def _module_fn(x):
    """A module-level function: tokenizable by qualified name."""
    return x


class TestKeyStability:
    @given(cfg=semantic_configs())
    @settings(max_examples=40)
    def test_as_dict_round_trip_preserves_key(self, cfg):
        round_tripped = RunConfig.from_dict(cfg.as_dict())
        assert cache_key("run", cfg, {"p": 1}) == cache_key(
            "run", round_tripped, {"p": 1}
        )

    @given(
        cfg=semantic_configs(),
        pairs=st.lists(
            st.tuples(st.text(min_size=1, max_size=8), st.integers(-100, 100)),
            min_size=2,
            max_size=6,
            unique_by=lambda kv: kv[0],
        ),
    )
    @settings(max_examples=40)
    def test_dict_insertion_order_is_irrelevant(self, cfg, pairs):
        forward = dict(pairs)
        backward = dict(reversed(pairs))
        assert cache_key("cell", cfg, forward) == cache_key("cell", cfg, backward)

    def test_none_config_means_default_config(self):
        assert semantic_config(None) == semantic_config(RunConfig())
        assert cache_key("run", None, {}) == cache_key("run", RunConfig(), {})


class TestKeySensitivity:
    @given(cfg=semantic_configs())
    @settings(max_examples=40)
    def test_every_semantic_field_flip_moves_the_key(self, cfg):
        base = cache_key("run", cfg, {"p": 1})
        flips = {
            "seed": (cfg.seed or 0) + 1,
            "max_rounds": (cfg.max_rounds or 0) + 1,
            "bandwidth_factor": cfg.bandwidth_factor + 1,
            "check_connected": not cfg.check_connected,
        }
        assert set(flips) == set(SEMANTIC_CONFIG_FIELDS)
        for field, new_value in flips.items():
            assert cache_key("run", cfg.evolve(**{field: new_value}), {"p": 1}) != base

    def test_kind_namespaces_the_key(self):
        assert cache_key("run", None, {"p": 1}) != cache_key("cell", None, {"p": 1})

    def test_parts_move_the_key(self):
        assert cache_key("cell", None, {"p": 1}) != cache_key("cell", None, {"p": 2})


class TestKeyBlindness:
    @given(
        cfg=semantic_configs(),
        backend=st.sampled_from([None, "reference", "batch"]),
        workers=st.one_of(st.none(), st.integers(0, 8)),
        cache=st.sampled_from([None, "rw", "ro", "off"]),
    )
    @settings(max_examples=40)
    def test_execution_knobs_never_move_the_key(
        self, cfg, backend, workers, cache
    ):
        base = cache_key("run", cfg, {"p": 1})
        knobbed = cfg.evolve(
            backend=backend,
            workers=workers,
            cache=cache,
            cache_dir="/tmp/somewhere-else",
        )
        assert cache_key("run", knobbed, {"p": 1}) == base


class TestCacheToken:
    def test_tuple_and_list_are_distinct(self):
        assert cache_token((1, 2)) != cache_token([1, 2])

    def test_set_tokens_are_order_free(self):
        assert cache_token({3, 1, 2}) == cache_token({2, 3, 1})

    def test_float_tokens_are_bit_exact(self):
        assert cache_token(0.1) != cache_token(0.1 + 1e-17 + 1e-16)
        assert cache_token(1.0) != cache_token(1)

    def test_named_functions_token_by_qualified_name(self):
        token = cache_token(_module_fn)
        assert token[0] == "fn"
        assert token[2].endswith("_module_fn")

    def test_lambdas_are_uncacheable(self):
        with pytest.raises(UncacheableError):
            cache_token(lambda x: x)

    def test_bound_methods_are_uncacheable(self):
        with pytest.raises(UncacheableError):
            cache_token("abc".upper)

    def test_stateless_opaque_objects_are_uncacheable(self):
        class Opaque:
            __slots__ = ()

        with pytest.raises(UncacheableError):
            cache_token(Opaque())
