"""The vectorized batch backend: a drop-in fast path for the engine.

:class:`~repro.sim.engine.SynchronousEngine` is the executable
definition of the model — one readable Python loop per round.  That
clarity costs throughput: every round re-asks the adversary for edges,
re-normalizes and re-validates them, re-derives a coin stream per node
with a tuple hash, and re-encodes every payload for bit accounting and
delivery ordering.  For *oblivious* adversaries — schedules that are a
pure function of the round number, which is every worst-case family the
experiments sweep — all of that is redundant work.

This module removes the redundancy without touching semantics:

* :class:`ScheduleTape` materializes an oblivious adversary's schedule
  lazily into interned topologies: each *unique* edge set is normalized,
  connectivity-checked, and turned into a numpy adjacency matrix exactly
  once.  Families advertise repetition through
  :meth:`~repro.network.adversaries.Adversary.schedule_key` (rotating
  stars have period N, static families period 1, T-interval one key per
  epoch); rounds without a key are interned by edge-set content.  For
  *adaptive* adversaries the tape runs in **incremental mode**: it
  cannot pre-materialize anything (the next topology may depend on the
  round's committed actions), so the engine commits each round's edge
  set as the adversary chooses it and the tape interns by content —
  normalization, connectivity, and the adjacency matrix are still paid
  once per *unique* topology, not once per round.  Above the dense
  limit a topology's bitset or CSR form comes from one ``np.fromiter``
  pass over the adversary's edge set.  A frozenset that is already
  normalized (static and pre-baked schedules return one) is checked on
  those arrays and kept as the topology's edges, with no normalized
  copy; a bitset's connectivity verdict is a BFS over its packed rows.
* :class:`BatchEngine` runs the same five-stage round protocol as the
  reference engine (:data:`~repro.sim.engine.ROUND_STAGES`) with the
  within-stage work vectorized: all N coin states per round come from
  one vectorized FNV fold instead of N tuple hashes, CONGEST bits are
  charged from the process-global
  :func:`~repro.sim.encoding.interned_encoding` cache, and delivery
  resolves with one boolean sub-matrix per round instead of
  per-receiver list scans (for a bitset, unpacked from the rows of
  whichever side is smaller, receivers or senders).  An adaptive
  adversary's decision is a per-round scalar stage *between* those
  vectorized stages — it sees the identical
  :class:`~repro.sim.engine.AdversaryView` the reference engine would
  build.
* :func:`run_batch_replicas` runs K same-cell replicas in lockstep,
  observed or not.
  Oblivious replicas share one tape (and one adversary instance), so
  :func:`~repro.sim.runner.replicate` amortizes schedule materialization
  across seeds within a worker; adaptive replicas each get a fresh
  adversary and incremental tape (adaptive adversaries are stateful —
  sharing one would entangle the replicas), matching the reference
  path's per-seed factories.

Equality with the reference engine is **bit-identical**, not
approximate: the same :class:`~repro.sim.trace.RoundRecord` objects, the
same delivery order (payloads sorted by canonical encoding with the
sender id as tie-break), the same error types with the same messages,
the same termination bookkeeping.  Hypothesis properties pin the trace
fingerprint, bit totals, and outputs of both backends to each other —
``tests/sim/test_batch_equivalence.py`` for oblivious families,
``tests/sim/test_adaptive_batch_equivalence.py`` for adaptive ones.

There is no fallback to the reference engine: every adversary runs on
one fixed node set, which the tape binds at the first engine.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from .._util import require
from ..errors import (
    BandwidthExceeded,
    ConfigurationError,
    DisconnectedTopology,
    InvalidAction,
)
from .actions import Receive, Send
from .coins import Coins, CoinSource
from .encoding import EncodingMemo
from .engine import (
    AdversaryView,
    RoundDriver,
    _is_connected,
    _normalize_edges,
    _RoundState,
)
from .messages import DEFAULT_BANDWIDTH_FACTOR
from .node import ProtocolNode
from .trace import RoundRecord

__all__ = [
    "ScheduleTape",
    "BatchEngine",
    "run_batch_replicas",
    "build_engine",
    "DENSE_NODE_LIMIT",
    "SPARSE_REPRESENTATIONS",
]

Edge = Tuple[int, int]

#: Above this many nodes the tape stops building dense adjacency
#: matrices (N x N booleans per unique topology) and switches to sparse
#: rows — packed ``np.uint64`` bitsets for dense edge sets, CSR index
#: arrays for sparse ones — so delivery stays a vectorized submatrix
#: gather at N in the thousands.  ``dense_node_limit=`` on the tape,
#: the engine or :func:`run_batch_replicas` overrides it; ``0`` forces
#: the sparse path everywhere.
DENSE_NODE_LIMIT = 512

#: sparse-representation requests accepted by :class:`ScheduleTape`:
#: ``auto`` picks per topology by edge density; the others force one
#: kind, a hook only tests use.
SPARSE_REPRESENTATIONS: Tuple[str, ...] = ("auto", "bitset", "csr")

#: packed-bitset rows decode via little-endian ``np.unpackbits``; on a
#: big-endian host the auto selector simply never picks them
_LITTLE_ENDIAN = sys.byteorder == "little"

_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv_fold(h: int, part: int) -> int:
    """One exact :func:`~repro._util.stable_hash64` folding step."""
    value = part & _MASK64 if part >= 0 else (-part * 2 + 1)
    while True:
        h ^= value & _MASK64
        h = (h * _FNV_PRIME) & _MASK64
        value >>= 64
        if value == 0:
            break
    return h


class _Unvouched(Exception):
    """An edge set the array path cannot vouch for (see _int_endpoints)."""


def _int_endpoints(edges: FrozenSet[Any]) -> Iterator[int]:
    """``u0, v0, u1, v1, ...`` of an edge set made only of int pairs.

    Raises :class:`_Unvouched` at the first element that is not a
    2-tuple of exact ``int`` ids (bool, float and numpy scalars included),
    so the caller can hand the whole set to ``_normalize_edges`` instead.
    """
    for uv in edges:
        if type(uv) is not tuple or len(uv) != 2:
            raise _Unvouched
        u, v = uv
        if type(u) is not int or type(v) is not int:
            raise _Unvouched
        yield u
        yield v


def _bitset_connected(words: np.ndarray) -> bool:
    """Connectivity from packed adjacency rows: a BFS from node 0.

    ``seen`` and ``frontier`` are python-int bitsets over the node
    indices.  A level with one frontier node (every level along a path)
    reads that node's row directly; a wider level ORs its rows in one
    numpy reduction.  So a long tail costs about a microsecond per
    level, not a per-edge walk.
    """
    n, width = words.shape
    if n <= 1:
        return True
    seen = frontier = 1
    while frontier:
        if frontier & (frontier - 1):
            bits = np.frombuffer(frontier.to_bytes(width * 8, "little"), np.uint8)
            members = np.flatnonzero(np.unpackbits(bits, bitorder="little"))
            reach = np.bitwise_or.reduce(words[members], axis=0)
        else:
            reach = words[frontier.bit_length() - 1]
        frontier = int.from_bytes(reach.tobytes(), "little") & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


class _Topology:
    """One unique materialized topology: edges + its derived delivery form.

    Exactly one representation is populated, named by ``kind``:

    ``dense``
        ``adj`` — an N x N boolean matrix; delivery is one
        ``np.ix_`` submatrix.  Default at or below the dense limit.
    ``bitset``
        ``words`` — packed adjacency rows, ``(N, ceil(N/64))`` of
        ``np.uint64``; delivery unpacks the rows of whichever side of
        the symmetric adjacency is smaller — the receivers, or the
        senders (then transposed) — and reuses the dense tail.  The
        connectivity verdict is a BFS over the same rows.  Chosen above
        the limit when the edge set is dense enough that packed rows
        cost no more memory than CSR.
    ``csr``
        ``indptr``/``indices`` — sorted neighbor index arrays;
        delivery is one vectorized gather + lexsort over the receiver
        adjacency lists.  Chosen above the limit for sparse edge sets
        (the constant-degree lower-bound instances).

    ``edges`` is the normalized edge frozenset the round records; for a
    bitset or CSR topology read from an already-normalized frozenset it
    is that very object.
    """

    __slots__ = (
        "edges",
        "connected",
        "kind",
        "adj",
        "words",
        "indptr",
        "indices",
    )

    def __init__(self, edges: FrozenSet[Edge], kind: str):
        self.edges = edges
        self.connected = False
        self.kind = kind
        self.adj: Optional[np.ndarray] = None
        self.words: Optional[np.ndarray] = None
        self.indptr: Optional[np.ndarray] = None
        self.indices: Optional[np.ndarray] = None


class ScheduleTape:
    """A schedule, interned topology by topology.

    Two modes, one interning machinery:

    **Replay mode** (default) serves an *oblivious* adversary's schedule
    lazily: experiments run for up to ~10^5 rounds, so the tape
    materializes rounds on demand via :meth:`topology` and only ever
    *stores* unique topologies.  Two interning levels:

    1. :meth:`~repro.network.adversaries.Adversary.schedule_key` — the
       family's own statement that a round repeats an earlier one; a key
       hit skips the ``edges()`` call entirely.
    2. edge-set content — rounds without a key still share their
       materialized form (normalized edges, connectivity verdict,
       adjacency matrix) with any earlier round that produced the same
       edge set.

    **Incremental mode** (``incremental=True``) serves an *adaptive*
    adversary: nothing can be pre-materialized (the next topology may
    depend on the round view), so the engine :meth:`commit`\\ s each
    round's chosen edge set as the round runs.  Commits intern by
    content — an adaptive adversary that holds a topology across rounds
    pays normalization, connectivity, and matrix construction once per
    *unique* topology, exactly like replay mode — and the tape remembers
    the per-round assignment, so after a mid-run abort the committed
    prefix replays through :meth:`topology`.  Committing is strictly
    in-order (round ``committed + 1`` next); ``stats["committed"]``
    tracks the frontier.

    A replay tape may back many engines (that is the point — see
    :func:`run_batch_replicas`), as long as they share one node set; the
    tape binds to the first engine's node ids and rejects mismatches.
    An incremental tape records one specific execution and belongs to
    one engine.
    """

    def __init__(
        self,
        adversary: Any,
        dense_node_limit: Optional[int] = None,
        incremental: bool = False,
        sparse: str = "auto",
    ):
        if sparse not in SPARSE_REPRESENTATIONS:
            raise ConfigurationError(
                f"unknown sparse representation {sparse!r}; expected one of "
                f"{', '.join(SPARSE_REPRESENTATIONS)}"
            )
        if dense_node_limit is None:
            dense_node_limit = DENSE_NODE_LIMIT
        elif dense_node_limit < 0:
            raise ConfigurationError(
                f"dense_node_limit must be >= 0, got {dense_node_limit}"
            )
        if not incremental and not getattr(adversary, "oblivious", False):
            raise ConfigurationError(
                f"cannot tape this adversary for replay: "
                f"{type(adversary).__name__} is adaptive (oblivious=False), so "
                f"its topology may depend on the round view, which a "
                f"pre-materialized schedule tape cannot replay; the batch "
                f"engine runs adaptive adversaries on an incremental tape "
                f"(ScheduleTape(..., incremental=True)) instead"
            )
        self.adversary = adversary
        self.dense_node_limit = dense_node_limit
        self.incremental = incremental
        self.sparse = sparse
        self._node_ids: Optional[FrozenSet[int]] = None
        self._uid_index: Dict[int, int] = {}
        #: the bound ids are exactly 0..N-1, so an id is its own dense
        #: index — the precondition of the vouched array path
        self._ids_are_indices = False
        self._by_key: Dict[Any, _Topology] = {}
        self._by_content: Dict[FrozenSet[Edge], _Topology] = {}
        #: incremental mode: round -> interned topology, as committed
        self._by_round: Dict[int, _Topology] = {}
        #: representation kind -> number of unique topologies built as it
        self.representations: Dict[str, int] = {}
        #: materialization counters (tests + docs/PERFORMANCE.md)
        self.stats: Dict[str, int] = {
            "rounds": 0,
            "key_hits": 0,
            "content_hits": 0,
            "unique_topologies": 0,
            "committed": 0,
        }

    def bind(self, node_ids: FrozenSet[int]) -> None:
        """Fix the node set this tape validates against (idempotent)."""
        node_ids = frozenset(node_ids)
        if self._node_ids is None:
            self._node_ids = node_ids
            uids = sorted(node_ids)
            self._uid_index = {uid: i for i, uid in enumerate(uids)}
            self._ids_are_indices = uids == list(range(len(uids)))
        elif self._node_ids != node_ids:
            raise ConfigurationError(
                "schedule tape is already bound to a different node set; "
                "tapes are shareable only across same-cell replicas"
            )

    @property
    def uid_index(self) -> Dict[int, int]:
        """uid -> dense index map (sorted-uid order); bound node set only."""
        return self._uid_index

    def topology(self, round_: int) -> _Topology:
        """The (interned) topology of the given 1-based round.

        Replay mode materializes on demand; incremental mode serves the
        committed prefix (this is the partial-tape replay after a
        mid-run abort) and refuses rounds the adversary never chose.
        """
        if self._node_ids is None:
            raise ConfigurationError("bind() the tape to a node set first")
        if self.incremental:
            topo = self._by_round.get(round_)
            if topo is None:
                raise ConfigurationError(
                    f"incremental tape has no round {round_}: only rounds "
                    f"1..{self.stats['committed']} were committed"
                )
            return topo
        self.stats["rounds"] += 1
        key = self.adversary.schedule_key(round_)
        if key is not None:
            topo = self._by_key.get(key)
            if topo is not None:
                self.stats["key_hits"] += 1
                return topo
        topo = self._intern(self.adversary.edges(round_, None))
        if key is not None:
            self._by_key[key] = topo
        return topo

    def commit(self, round_: int, edges: Any) -> _Topology:
        """Intern and record one round's adversary-chosen edge set.

        The engine calls this from the adversary stage with whatever
        ``adversary.edges(round_, view)`` returned; normalization errors
        (:class:`~repro.errors.ModelViolation`) surface here, exactly
        where the reference engine raises them.  Strictly in-order:
        round ``committed + 1`` or a :class:`ConfigurationError`.
        """
        if not self.incremental:
            raise ConfigurationError(
                "commit() requires an incremental tape; replay tapes "
                "materialize through topology()"
            )
        if self._node_ids is None:
            raise ConfigurationError("bind() the tape to a node set first")
        committed = self.stats["committed"]
        if round_ != committed + 1:
            raise ConfigurationError(
                f"incremental tape commits rounds strictly in order: "
                f"expected round {committed + 1}, got {round_}"
            )
        self.stats["rounds"] += 1
        topo = self._intern(edges)
        self._by_round[round_] = topo
        self.stats["committed"] = round_
        return topo

    @property
    def representation(self) -> Optional[str]:
        """The kind most unique topologies used (None before the first)."""
        reps = self.representations
        if not reps:
            return None
        return max(sorted(reps), key=reps.__getitem__)

    def _representation_for(self, n: int, num_edges: int) -> str:
        """Pick the delivery form for one topology (forced or by density).

        Above the dense limit the choice is memory-proportional: packed
        bitset rows cost ~N^2/8 bytes per unique topology, CSR costs
        ~16E bytes, so bitsets win once E >= N^2/128 — the random/
        T-interval families with extra edges — while constant-degree
        instances (E = O(N)) stay CSR.
        """
        if self.sparse != "auto":
            return self.sparse
        if n <= self.dense_node_limit:
            return "dense"
        if _LITTLE_ENDIAN and num_edges * 128 >= n * n:
            return "bitset"
        return "csr"

    def _intern(self, raw: Any) -> _Topology:
        """The interned topology for one round's ``edges()`` result.

        A set :meth:`_vouched_indices` accepts is already normalized:
        it becomes ``topo.edges`` itself, and the endpoint array read
        while vouching builds its adjacency.  Anything else goes through
        :func:`~repro.sim.engine._normalize_edges` first, which also
        raises the reference engine's exact error.
        """
        flat = self._vouched_indices(raw)
        edges = raw if flat is not None else _normalize_edges(raw, self._node_ids)
        topo = self._by_content.get(edges)
        if topo is not None:
            self.stats["content_hits"] += 1
            return topo
        topo = self._materialize(edges, flat)
        self._by_content[edges] = topo
        self.stats["unique_topologies"] += 1
        return topo

    def _vouched_indices(self, raw: Any) -> Optional[np.ndarray]:
        """Endpoint indices ``u0, v0, u1, v1, ...`` of a normalized set.

        Only a frozenset headed for bitset or CSR over ids ``0..N-1``
        qualifies (there an id is its own index).  One ``np.fromiter``
        pass reads the endpoints through :func:`_int_endpoints`; the
        arrays then confirm ``u < v`` (no self-loop, no reversed pair)
        and that every id is a node.  ``None`` when any check fails.
        """
        n = len(self._node_ids)
        if (
            type(raw) is not frozenset
            or not self._ids_are_indices
            or self._representation_for(n, len(raw)) not in ("bitset", "csr")
        ):
            return None
        try:
            flat = np.fromiter(_int_endpoints(raw), dtype=np.intp, count=2 * len(raw))
        except (_Unvouched, OverflowError):
            return None
        if len(flat) and not (
            np.all(flat[0::2] < flat[1::2]) and flat.min() >= 0 and flat.max() < n
        ):
            return None
        return flat

    def _materialize(
        self, edges: FrozenSet[Edge], flat: Optional[np.ndarray] = None
    ) -> _Topology:
        """Build one unique topology's delivery form and connectivity.

        ``flat`` is the endpoint index array when the set was vouched
        for; otherwise it is read here through the uid index.  Bitsets
        take their connectivity verdict from a BFS over the packed rows;
        the other kinds from union-find over the edges (a BFS over CSR
        rows would pay one numpy level per node along a path).
        """
        n = len(self._node_ids)
        kind = self._representation_for(n, len(edges))
        topo = _Topology(edges, kind)
        self.representations[kind] = self.representations.get(kind, 0) + 1
        if flat is None:
            idx = self._uid_index
            flat = np.fromiter(
                (idx[u] for uv in edges for u in uv),
                dtype=np.intp,
                count=2 * len(edges),
            )
        # Symmetrized endpoint index arrays: row i is adjacent to col j
        # for every directed copy of every undirected edge.
        rows = np.concatenate([flat[0::2], flat[1::2]])
        cols = np.concatenate([flat[1::2], flat[0::2]])
        if kind == "dense":
            adj = np.zeros((n, n), dtype=bool)
            adj[rows, cols] = True
            topo.adj = adj
        elif kind == "bitset":
            words = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
            np.bitwise_or.at(
                words,
                (rows, cols >> 6),
                np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64)),
            )
            topo.words = words
        else:  # csr
            order = np.lexsort((cols, rows))
            counts = np.bincount(rows, minlength=n)
            topo.indptr = np.concatenate(
                (np.zeros(1, dtype=np.intp), np.cumsum(counts, dtype=np.intp))
            )
            topo.indices = cols[order]
        if kind == "bitset":
            topo.connected = _bitset_connected(topo.words)
        else:
            topo.connected = _is_connected(self._node_ids, edges)
        return topo


def _unpack_rows(words: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Packed adjacency rows ``idx`` as an ``(len(idx), N)`` 0/1 matrix."""
    return np.unpackbits(
        words[idx].view(np.uint8), axis=1, bitorder="little", count=len(words)
    )


def _csr_delivery(
    indptr: np.ndarray,
    indices: np.ndarray,
    recv_idx: np.ndarray,
    send_idx: np.ndarray,
    n: int,
) -> Tuple[List[int], List[int]]:
    """Per-receiver sender ranks via one flat gather over CSR rows.

    Returns exactly what the dense incidence path derives: per-receiver
    delivery counts (receiver order) and the concatenated sender ranks
    grouped by receiver, each group ascending — i.e. the row-major
    ``np.nonzero`` of the incidence submatrix, without building it.
    """
    rank = np.full(n, -1, dtype=np.intp)
    rank[send_idx] = np.arange(len(send_idx), dtype=np.intp)
    starts = indptr[recv_idx]
    lens = indptr[recv_idx + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return [0] * len(recv_idx), []
    # flat[k] walks receiver recv_idx[g]'s CSR slice for each group g:
    # a global arange minus each group's exclusive prefix, plus its
    # CSR start offset.
    prefix = np.cumsum(lens) - lens
    flat = np.arange(total, dtype=np.intp) + np.repeat(starts - prefix, lens)
    rk = rank[indices[flat]]
    grp = np.repeat(np.arange(len(recv_idx), dtype=np.intp), lens)
    valid = rk >= 0  # neighbors that sent this round
    rkv = rk[valid]
    grpv = grp[valid]
    order = np.lexsort((rkv, grpv))  # by receiver, then sender rank
    counts = np.bincount(grpv, minlength=len(recv_idx)).tolist()
    return counts, rkv[order].tolist()


class BatchEngine(RoundDriver):
    """Drop-in vectorized engine — oblivious *and* adaptive adversaries.

    Same constructor shape, trace, error types and stage clock as
    :class:`~repro.sim.engine.SynchronousEngine`, and the same
    ``step()``/``step_stages()``/``run()``/``finish()`` drivers, which
    both inherit from :class:`~repro.sim.engine.RoundDriver`; see the
    reference engine for the model semantics.  Extra parameters:
    ``tape``, a shared :class:`ScheduleTape` (one is built from the
    adversary when absent: a replay tape for oblivious adversaries, an
    incremental one for adaptive adversaries); and ``dense_node_limit``,
    forwarded to that implicit tape (ignored when ``tape`` is given — a
    shared tape already fixed its representation policy).

    Adaptive mode runs the identical five-stage round: the actions stage
    additionally materializes the committed-actions mapping, the
    adversary stage hands the adversary the same
    :class:`~repro.sim.engine.AdversaryView` the reference engine would
    build and commits the chosen edge set to the incremental tape; coin
    folds, bit accounting, and delivery stay vectorized around it.

    Selection is via ``RunConfig(backend="batch")`` on the runner layer.
    """

    backend = "batch"

    def __init__(
        self,
        nodes: Dict[int, ProtocolNode],
        adversary: Any,
        coin_source: CoinSource,
        bandwidth_factor: int = DEFAULT_BANDWIDTH_FACTOR,
        check_connected: bool = True,
        tape: Optional[ScheduleTape] = None,
        dense_node_limit: Optional[int] = None,
    ):
        super().__init__(nodes, adversary, coin_source, bandwidth_factor, check_connected)
        if tape is None:
            tape = ScheduleTape(
                adversary,
                dense_node_limit=dense_node_limit,
                incremental=not getattr(adversary, "oblivious", False),
            )
        self.tape = tape
        #: adaptive mode: the engine writes the tape round by round and
        #: must build the committed-actions view the adversary reads
        self._incremental = tape.incremental
        tape.bind(self.node_ids)
        self._uids = sorted(self.nodes)
        self._node_list = [self.nodes[uid] for uid in self._uids]
        #: uids double as dense indices when they are already 0..N-1 —
        #: the overwhelmingly common layout — letting delivery build its
        #: index arrays straight from uid lists.
        self._contiguous = self._uids == list(range(len(self._uids)))
        # Identity-keyed payload->encoding memo (see EncodingMemo for
        # the soundness argument).
        self._encoding_memo = EncodingMemo()
        # Vectorized coin-state derivation: stable_hash64((seed, uid, r))
        # folds left to right, so h(seed) is a run constant and
        # h(seed, uid) a per-node constant; per round one uint64 vector
        # op finishes the fold.  uids outside [0, 2^64) need multi-chunk
        # folding — rare enough to take the exact scalar path instead.
        h_seed = _fnv_fold(_FNV_OFFSET, coin_source.seed)
        if all(0 <= uid < 2 ** 64 for uid in self._uids):
            uid_arr = np.array(self._uids, dtype=np.uint64)
            self._h_seed_uid: Optional[np.ndarray] = (
                (np.uint64(h_seed) ^ uid_arr) * np.uint64(_FNV_PRIME)
            )
        else:  # pragma: no cover - exotic uid ranges
            self._h_seed_uid = None

    # ------------------------------------------------------------------
    @property
    def representation(self) -> Optional[str]:
        """Adjacency representation the tape used (None before round 1)."""
        return self.tape.representation

    @property
    def dense_node_limit(self) -> int:
        """The dense-adjacency cutoff this engine's tape runs under."""
        return self.tape.dense_node_limit

    def _coin_states(self, round_: int) -> List[int]:
        """splitmix64 seeds for every node this round, in uid order."""
        if self._h_seed_uid is not None and 1 <= round_ < 2 ** 64:
            states = (self._h_seed_uid ^ np.uint64(round_)) * np.uint64(_FNV_PRIME)
            return states.tolist()
        source = self.coin_source  # pragma: no cover - exotic uid ranges
        return [
            _fnv_fold(_fnv_fold(_fnv_fold(_FNV_OFFSET, source.seed), uid), round_)
            for uid in self._uids
        ]

    # -- the staged round protocol (vectorized within stages) ----------

    def _stage_actions(self, state: _RoundState) -> None:
        """(1)+(2): vectorized coins, committed actions in id order.

        Classification (send vs receive) is fused in — a replay tape
        never reads the committed-action view, so the reference engine's
        intermediate actions dict buys nothing there.  Adaptive mode
        builds it alongside: the adversary stage needs the exact view.
        """
        r = state.round
        states = self._coin_states(r)
        send_uids: List[int] = []
        send_payloads: List[Any] = []
        receiver_list: List[int] = []
        append_send_uid = send_uids.append
        append_payload = send_payloads.append
        append_receiver = receiver_list.append
        actions: Optional[Dict[int, Any]] = {} if self._incremental else None
        for uid, coin_state, node in zip(self._uids, states, self._node_list):
            action = node.action(r, Coins(uid, r, coin_state))
            cls = action.__class__
            if cls is Send:
                append_send_uid(uid)
                append_payload(action.payload)
            elif cls is Receive:
                append_receiver(uid)
            elif isinstance(action, Send):  # subclassed action types
                append_send_uid(uid)
                append_payload(action.payload)
            elif isinstance(action, Receive):
                append_receiver(uid)
            else:
                raise InvalidAction(
                    f"node {uid} returned {action!r} from action() in round {r}"
                )
            if actions is not None:
                actions[uid] = action
        state.send_uids = send_uids
        state.send_payloads = send_payloads
        state.receiver_list = receiver_list
        state.actions = actions

    def _stage_adversary(self, state: _RoundState) -> None:
        """(3): replay the tape, or let the adaptive adversary commit.

        Adaptive mode hands the adversary the identical
        :class:`~repro.sim.engine.AdversaryView` the reference engine
        builds — committed actions, live nodes, the trace so far — and
        commits its choice to the incremental tape, which interns by
        content so repeated topologies still skip normalization,
        connectivity, and matrix construction.
        """
        r = state.round
        if self._incremental:
            view = AdversaryView(
                round=r, actions=state.actions, nodes=self.nodes, trace=self.trace
            )
            state.view = view
            topo = self.tape.commit(r, self.adversary.edges(r, view))
        else:
            topo = self.tape.topology(r)
        state.topo = topo
        state.edges = topo.edges

    def _stage_validation(self, state: _RoundState) -> None:
        """Validation: the verdict was computed once per unique topology."""
        if self.check_connected and not state.topo.connected:
            raise DisconnectedTopology(
                f"round {state.round}: adversary topology is disconnected"
            )

    def _delivery_indices(
        self, receiver_list: List[int], sorted_uids: List[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(receiver, sender) dense index arrays for the incidence gather."""
        if self._contiguous:
            return (
                np.array(receiver_list, dtype=np.intp),
                np.array(sorted_uids, dtype=np.intp),
            )
        idx = self.tape.uid_index
        return (
            np.fromiter(
                (idx[u] for u in receiver_list),
                dtype=np.intp,
                count=len(receiver_list),
            ),
            np.fromiter(
                (idx[u] for u in sorted_uids),
                dtype=np.intp,
                count=len(sorted_uids),
            ),
        )

    def _stage_delivery(self, state: _RoundState) -> None:
        """(4): delivery.  Encodings and CONGEST bits come from the
        identity memo (payload objects repeat across rounds), falling
        back to the process-global interned cache."""
        r = state.round
        topo = state.topo
        edges = state.edges
        send_uids = state.send_uids
        send_payloads = state.send_payloads
        receiver_list = state.receiver_list
        lookup = self._encoding_memo.lookup
        encodings: List[bytes] = []
        bits_list: List[int] = []
        append_enc = encodings.append
        append_bits = bits_list.append
        for payload in send_payloads:
            enc, nbits = lookup(payload)
            append_enc(enc)
            append_bits(nbits)
        budget = self.budget
        if bits_list and max(bits_list) > budget:
            for uid, nbits in zip(send_uids, bits_list):  # first, in uid order
                if nbits > budget:
                    raise BandwidthExceeded(nbits, budget, uid, r)
        sends: Dict[int, Any] = dict(zip(send_uids, send_payloads))
        bits: Dict[int, int] = dict(zip(send_uids, bits_list))

        # Global sender order by (encoding, uid): per-receiver delivery
        # order is a sorted *subsequence* of it, so sorting once replaces
        # the reference engine's per-receiver sort.  Unique uids break
        # every encoding tie, so the payloads are never compared.
        triples = sorted(zip(encodings, send_uids, send_payloads))
        sorted_uids = [t[1] for t in triples]
        sorted_payloads = [t[2] for t in triples]

        delivered: Dict[int, int] = {}
        nodes = self.nodes
        if not receiver_list or not send_uids:
            for uid in receiver_list:
                delivered[uid] = 0
                nodes[uid].on_messages(r, ())
        else:
            recv_idx, send_idx = self._delivery_indices(receiver_list, sorted_uids)
            if topo.indptr is not None:  # csr
                counts, cols = _csr_delivery(
                    topo.indptr, topo.indices, recv_idx, send_idx, len(self._uids)
                )
            else:
                if topo.adj is not None:
                    incidence = topo.adj[np.ix_(recv_idx, send_idx)]
                elif len(send_idx) < len(recv_idx):
                    # bitset, fewer senders: the adjacency is symmetric,
                    # so unpack the sender rows and transpose
                    incidence = _unpack_rows(topo.words, send_idx)[:, recv_idx].T
                else:  # bitset: unpack only the receiver rows
                    incidence = _unpack_rows(topo.words, recv_idx)[:, send_idx]
                counts = incidence.sum(axis=1, dtype=np.intp).tolist()
                cols = np.nonzero(incidence)[1].tolist()  # row-major: grouped
            getter = sorted_payloads.__getitem__
            pos = 0
            for uid, count in zip(receiver_list, counts):
                delivered[uid] = count
                if count:
                    end = pos + count
                    nodes[uid].on_messages(r, tuple(map(getter, cols[pos:end])))
                    pos = end
                else:
                    nodes[uid].on_messages(r, ())
        for uid in send_uids:
            nodes[uid].on_sent(r)

        record = RoundRecord(
            round=r,
            edges=edges,
            sends=sends,
            bits=bits,
            receivers=frozenset(receiver_list),
            delivered=delivered,
        )
        self.trace.append(record)
        state.record = record

    def _stage_termination(self, state: _RoundState) -> None:
        """(5): termination bookkeeping (same polling as the reference:
        every node's output() is read every round)."""
        if self.trace.termination_round is None:
            outs = [node.output() for node in self._node_list]
            complete = True
            for out in outs:
                if out is None:
                    complete = False
                    break
            if complete:
                self.trace.termination_round = state.round
                self.trace.outputs = dict(zip(self._uids, outs))


def build_engine(
    nodes: Dict[int, ProtocolNode],
    adversary: Any,
    coin_source: CoinSource,
    bandwidth_factor: int = DEFAULT_BANDWIDTH_FACTOR,
    check_connected: bool = True,
    backend: str = "reference",
    tape: Optional[ScheduleTape] = None,
    dense_node_limit: Optional[int] = None,
):
    """Construct the engine a resolved backend name asks for.

    ``backend="batch"`` serves oblivious adversaries from a replay tape
    and adaptive ones from an incremental tape.  This is the single
    dispatch point the runner, the analysis drivers, and the tests
    share.  ``dense_node_limit`` shapes the implicit tape's adjacency
    representation (ignored with an explicit ``tape``, and by the
    reference engine, which has no materialized adjacency at all).
    """
    from .engine import SynchronousEngine

    if backend == "batch":
        return BatchEngine(
            nodes,
            adversary,
            coin_source,
            bandwidth_factor=bandwidth_factor,
            check_connected=check_connected,
            tape=tape,
            dense_node_limit=dense_node_limit,
        )
    if backend != "reference":
        raise ConfigurationError(f"unknown backend {backend!r}")
    return SynchronousEngine(
        nodes,
        adversary,
        coin_source,
        bandwidth_factor=bandwidth_factor,
        check_connected=check_connected,
    )


def run_batch_replicas(
    make_nodes: Callable[[], Dict[int, ProtocolNode]],
    make_adversary: Callable[[], Any],
    seeds,
    *,
    max_rounds: int,
    bandwidth_factor: int = DEFAULT_BANDWIDTH_FACTOR,
    check_connected: bool = True,
    dense_node_limit: Optional[int] = None,
) -> List[Any]:
    """Run one cell's replicas on the batch engine; list of ``ProtocolRun``.

    Oblivious cells share one adversary instance and one replay
    :class:`ScheduleTape` across every seed (oblivious adversaries are
    stateless functions of the round, so sharing is sound and amortizes
    materialization).  Adaptive cells instead give every seed its own
    fresh adversary (``make_adversary()``) and its own incremental tape,
    because an adaptive adversary may carry per-run state and its
    per-round decisions depend on that run's view — exactly matching the
    reference ``replicate`` semantics.  In both modes the replicas
    advance in lockstep — round 1 of every replica, then round 2 — so a
    shared tape materializes each round at most once even when replicas
    terminate at different times.  Under an observation session too:
    each engine's stage clock times its own stages, so the measured
    loop is the one every sweep runs.  The engines are finished in
    seed order afterwards, which keeps the session's run numbering and
    span tree in seed order.  ``dense_node_limit`` shapes every tape's
    adjacency representation.
    """
    from .runner import ProtocolRun

    require(max_rounds is not None and max_rounds >= 0, "max_rounds must be >= 0")
    seeds = list(seeds)
    adversary = make_adversary()
    oblivious = bool(getattr(adversary, "oblivious", False))
    shared_tape = (
        ScheduleTape(adversary, dense_node_limit=dense_node_limit)
        if oblivious
        else None
    )
    engines: List[BatchEngine] = []
    for seed in seeds:
        if oblivious:
            adv, tape = adversary, shared_tape
        else:
            # A fresh adversary per seed: adaptive families may be
            # stateful, and each run's view drives its own tape.
            adv = adversary if not engines else make_adversary()
            tape = ScheduleTape(adv, dense_node_limit=dense_node_limit, incremental=True)
        engines.append(
            BatchEngine(
                make_nodes(),
                adv,
                CoinSource(seed),
                bandwidth_factor=bandwidth_factor,
                check_connected=check_connected,
                tape=tape,
            )
        )
    from ..obs.progress import current_reporter
    from ..obs.spans import span_event

    reporter = current_reporter()
    active = list(engines) if max_rounds > 0 else []
    while active:
        still_running: List[BatchEngine] = []
        for engine in active:
            engine.step()
            if engine.trace.termination_round is None and engine.round < max_rounds:
                still_running.append(engine)
            elif reporter is not None:
                reporter.advance()
        active = still_running
    for engine in engines:  # seed order: the session numbers runs as it sees them
        engine.finish()
    # How well the tape(s) amortized: one event span per chunk, so
    # `repro profile` can report interning effectiveness per cell.  For
    # adaptive cells the per-engine incremental tapes are aggregated.
    if shared_tape is not None:
        span_event(
            "tape-stats",
            replicas=len(engines),
            representation=shared_tape.representation,
            **shared_tape.stats,
        )
    else:
        agg: Dict[str, int] = {}
        reps: Dict[str, int] = {}
        for engine in engines:
            for key, value in engine.tape.stats.items():
                agg[key] = agg.get(key, 0) + value
            rep = engine.tape.representation
            if rep is not None:
                reps[rep] = reps.get(rep, 0) + 1
        representation = (
            max(sorted(reps), key=reps.__getitem__) if reps else None
        )
        span_event(
            "tape-stats",
            replicas=len(engines),
            representation=representation,
            **agg,
        )
    runs: List[Any] = []
    for engine in engines:
        trace = engine.trace
        terminated = trace.termination_round is not None
        rounds = trace.termination_round if terminated else trace.rounds
        runs.append(
            ProtocolRun(
                trace=trace,
                terminated=terminated,
                rounds=rounds,
                outputs=trace.outputs,
                backend="batch",
                representation=engine.representation,
            )
        )
    return runs
