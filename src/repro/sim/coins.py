"""Deterministic coin streams for nodes.

The reduction of Section 3 needs *public coins*: the reference execution
and Alice's and Bob's partial simulations must all see exactly the same
coin flips for every (node, round) pair, even though they instantiate
separate node objects.  We therefore derive an independent PRNG stream
per (seed, node_id, round) with a stable integer mix — no Python ``hash``
(randomized per process) and no global stream whose consumption order
could differ between the full and the partial simulations.

The generator is splitmix64 seeded by an FNV-style mix of
(seed, node_id, round).  A protocol draws a handful of coins per round,
and the engine constructs one ``Coins`` per (node, round): constructing a
``numpy`` Generator here (~20 µs) dominated whole-simulation profiles,
while splitmix64 stepping is a few hundred nanoseconds of pure Python —
the classic "optimize the measured bottleneck" trade.

The batch engine's array programs draw every node's coin of a round at
once: :func:`nth_draws` is the array twin of :meth:`Coins._next` over
the (N,) uint64 stream states the engine folds, and :func:`bits_below`
with :func:`bit_threshold` is :meth:`Coins.bit` on those draws, exact
to the float rounding of the scalar comparison.
"""

from __future__ import annotations

import math

import numpy as np

from .._util import stable_hash64

__all__ = ["Coins", "CoinSource", "nth_draws", "bit_threshold", "bits_below"]

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_INV_2_64 = 1.0 / 2.0 ** 64
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class Coins:
    """The coin flips available to one node in one round.

    A deterministic splitmix64 stream; draws must happen in a fixed
    order (the stream is sequential), and all of a node's draws in a
    round come from this object.
    """

    __slots__ = ("node_id", "round", "_state")

    def __init__(self, node_id: int, round_: int, state: int):
        self.node_id = node_id
        self.round = round_
        self._state = state & _MASK

    def _next(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def bit(self, p: float = 0.5) -> bool:
        """One biased coin: True with probability ``p``."""
        return self._next() * _INV_2_64 < p

    def uniform(self) -> float:
        """A uniform draw from [0, 1)."""
        return self._next() * _INV_2_64

    def exponential(self, rate: float = 1.0) -> float:
        """An Exp(rate) draw (used by the counting subroutine)."""
        u = self._next() * _INV_2_64
        # 1 - u in (0, 1]: log argument never 0
        return -math.log(1.0 - u) / rate

    def randint(self, n: int) -> int:
        """A uniform integer in [0, n) (modulo bias < 2^-50 for sane n)."""
        return self._next() % n


def nth_draws(states: np.ndarray, k: int) -> np.ndarray:
    """The ``k``-th (0-based) :meth:`Coins._next` output of every stream.

    ``states`` holds each stream's starting state as uint64; the result
    is the (N,) uint64 array of the outputs a fresh :class:`Coins` per
    state returns on its ``k + 1``-th call.  uint64 arithmetic wraps
    modulo 2^64, exactly like the scalar masks.
    """
    z = states + np.uint64((k + 1) * _GAMMA & _MASK)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def bit_threshold(p: float) -> int:
    """The count T of 64-bit draws ``z`` that :meth:`Coins.bit` reads as True.

    ``z * 2**-64 < p`` rounds ``z`` to a double first, so it is not
    ``z < p * 2**64``: at ``p = 0.5`` every ``z >= 2**63 - 512`` rounds
    up to ``2**63`` and reads False.  The comparison is monotone in
    ``z``, so its True draws are exactly ``[0, T)``; bisecting on the
    scalar comparison itself finds T for any ``p``.
    """
    lo, hi = 0, 1 << 64
    while lo < hi:
        mid = (lo + hi) // 2
        if mid * _INV_2_64 < p:
            lo = mid + 1
        else:
            hi = mid
    return lo


def bits_below(draws: np.ndarray, threshold: int) -> np.ndarray:
    """:meth:`Coins.bit` of each draw, given ``threshold = bit_threshold(p)``."""
    if threshold == 0:
        return np.zeros(len(draws), dtype=bool)
    return draws <= np.uint64(threshold - 1)


class CoinSource:
    """Derives per-(node, round) coin streams from one public seed.

    Two ``CoinSource`` instances with the same seed produce identical
    streams, which is what makes the two-party simulation of Lemma 5
    possible: Alice, Bob, and the reference adversary all construct their
    own ``CoinSource(seed)`` and stay in perfect agreement.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def coins(self, node_id: int, round_: int) -> Coins:
        """The coin stream of ``node_id`` in round ``round_``."""
        return Coins(node_id, round_, stable_hash64((self.seed, node_id, round_)))

    def fork(self, label: int) -> "CoinSource":
        """An independent source, e.g. for adversary-internal randomness.

        Forked sources never collide with node coin streams because the
        label is folded with a distinct tag.
        """
        return CoinSource(stable_hash64((self.seed, 0x5EED, label)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CoinSource(seed={self.seed})"
