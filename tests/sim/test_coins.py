"""Tests for the deterministic coin streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.coins import Coins, CoinSource, bit_threshold, bits_below, nth_draws


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = CoinSource(7).coins(3, 5)
        b = CoinSource(7).coins(3, 5)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_distinct_nodes_distinct_streams(self):
        a = CoinSource(7).coins(3, 5)
        b = CoinSource(7).coins(4, 5)
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_distinct_rounds_distinct_streams(self):
        a = CoinSource(7).coins(3, 5)
        b = CoinSource(7).coins(3, 6)
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_distinct_seeds_distinct_streams(self):
        a = CoinSource(7).coins(3, 5)
        b = CoinSource(8).coins(3, 5)
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_fork_independent(self):
        src = CoinSource(7)
        assert src.fork(1).seed != src.seed
        assert src.fork(1).seed == src.fork(1).seed
        assert src.fork(1).seed != src.fork(2).seed


class TestDistributions:
    @given(st.integers(0, 2**32), st.integers(1, 1000), st.integers(1, 1000))
    def test_uniform_in_range(self, seed, node, rnd):
        c = CoinSource(seed).coins(node, rnd)
        for _ in range(5):
            assert 0.0 <= c.uniform() < 1.0

    @given(st.integers(0, 2**32))
    def test_exponential_positive(self, seed):
        c = CoinSource(seed).coins(1, 1)
        for _ in range(5):
            assert c.exponential(1.0) > 0.0

    @given(st.integers(0, 2**32), st.integers(2, 100))
    def test_randint_in_range(self, seed, n):
        c = CoinSource(seed).coins(1, 1)
        for _ in range(5):
            assert 0 <= c.randint(n) < n

    def test_bit_bias(self):
        c = CoinSource(123).coins(1, 1)
        heads = sum(c.bit(0.8) for _ in range(2000))
        assert 1450 <= heads <= 1750  # ~0.8 of 2000 with slack

    def test_exponential_mean(self):
        c = CoinSource(5).coins(2, 2)
        draws = [c.exponential(4.0) for _ in range(4000)]
        mean = sum(draws) / len(draws)
        assert 0.2 < mean < 0.3  # Exp(4) has mean 0.25


class TestVectorizedDraws:
    """The array twins batch engines draw every node's coins with."""

    @staticmethod
    def _scalar(state, k):
        coins = Coins(0, 0, state)
        for _ in range(k):
            coins._next()
        return coins

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=8),
           st.integers(0, 70), st.floats(0.0, 1.0))
    def test_kth_draw_and_bit_match_the_scalar_stream(self, states, k, p):
        draws = nth_draws(np.array(states, dtype=np.uint64), k)
        assert draws.dtype == np.uint64
        assert draws.tolist() == [self._scalar(s, k)._next() for s in states]
        for prob in (0.5, p):
            bits = bits_below(draws, bit_threshold(prob))
            assert bits.tolist() == [self._scalar(s, k).bit(prob) for s in states]

    @pytest.mark.parametrize("z, below", [(2 ** 63 - 513, True), (2 ** 63 - 512, False),
                                          (2 ** 63 - 1, False)])
    def test_half_threshold_matches_float_rounding(self, z, below):
        """z * 2**-64 rounds z to a double: 2**63 - 512 reads as 0.5."""
        assert (z * 2.0 ** -64 < 0.5) is below
        assert bit_threshold(0.5) == 2 ** 63 - 512
        draws = np.array([z], dtype=np.uint64)
        assert bits_below(draws, bit_threshold(0.5)).tolist() == [below]

    @pytest.mark.parametrize("p, threshold", [(0.0, 0), (-1.0, 0), (float("nan"), 0),
                                              (2.0, 2 ** 64), (1, 2 ** 64 - 1024)])
    def test_threshold_edges(self, p, threshold):
        assert bit_threshold(p) == threshold
        draws = np.array([0, 2 ** 64 - 1025, 2 ** 64 - 1], dtype=np.uint64)
        want = [z * 2.0 ** -64 < p for z in draws.tolist()]
        assert bits_below(draws, threshold).tolist() == want
