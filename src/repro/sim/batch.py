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
  lazily into interned topologies: each *unique* edge set becomes one
  :class:`~repro.network.topology.RoundTopology` — normalized,
  connectivity-checked, and given its one adjacency form (dense,
  bitset or CSR) exactly once.  Families advertise repetition through
  :meth:`~repro.network.adversaries.Adversary.schedule_key` (rotating
  stars have period N, static families period 1, T-interval one key per
  epoch); rounds without a key are interned by edge-set content.  For
  *adaptive* adversaries the tape runs in **incremental mode**: it
  cannot pre-materialize anything (the next topology may depend on the
  round's committed actions), so the engine commits each round's edge
  set as the adversary chooses it and the tape interns by content —
  normalization, connectivity, and the adjacency form are still paid
  once per *unique* topology, not once per round.  A frozenset over
  ids ``0..N-1`` headed for bitset or CSR is vouched for by one
  ``np.fromiter`` pass and kept as the topology's edges, with no
  normalized copy.  The builders live in :mod:`repro.network.topology`;
  the tape adds only interning and its representation policy.
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
  build.  On a replay tape, a node set whose transcription is exact
  runs as an *array program* (:mod:`repro.sim.arrays`: token push,
  MAX, CONSENSUS, COUNT-N): no node callbacks at all, the send mask is
  an array (coins drawn by :func:`~repro.sim.coins.nth_draws` over the
  same fold), and delivery reduces over the same kernel
  (:func:`_incidence`).
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

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .._util import require
from ..errors import (
    BandwidthExceeded,
    ConfigurationError,
    DisconnectedTopology,
    InvalidAction,
)
from ..network.topology import (
    DENSE_NODE_LIMIT,
    SPARSE_REPRESENTATIONS,
    RoundTopology,
    _endpoint_indices,
    _normalize_edges,
    _vouched_indices,
    representation_for,
)
from .actions import Receive, Send
from .arrays import ArrayProgram, select_program
from .coins import Coins, CoinSource
from .encoding import EncodingMemo
from .engine import AdversaryView, RoundDriver, _RoundState
from .messages import DEFAULT_BANDWIDTH_FACTOR
from .node import ProtocolNode
from .trace import RoundRecord

__all__ = [
    "ScheduleTape",
    "BatchEngine",
    "run_batch_replicas",
    "build_engine",
]

Edge = Tuple[int, int]

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
       :class:`~repro.network.topology.RoundTopology` (normalized
       edges, connectivity verdict, adjacency form) with any earlier
       round that produced the same edge set.

    **Incremental mode** (``incremental=True``) serves an *adaptive*
    adversary: nothing can be pre-materialized (the next topology may
    depend on the round view), so the engine :meth:`commit`\\ s each
    round's chosen edge set as the round runs.  Commits intern by
    content — an adaptive adversary that holds a topology across rounds
    pays normalization, connectivity, and adjacency construction once per
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
        #: the bound ids in sorted order, shared by every topology built
        self._uids: Tuple[int, ...] = ()
        self._uid_index: Dict[int, int] = {}
        #: the bound ids are exactly 0..N-1, so an id is its own dense
        #: index — the precondition of the vouched array path
        self._ids_are_indices = False
        self._by_key: Dict[Any, RoundTopology] = {}
        self._by_content: Dict[FrozenSet[Edge], RoundTopology] = {}
        #: incremental mode: round -> interned topology, as committed
        self._by_round: Dict[int, RoundTopology] = {}
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
            self._uids = tuple(sorted(node_ids))
            self._uid_index = {uid: i for i, uid in enumerate(self._uids)}
            self._ids_are_indices = self._uids == tuple(range(len(self._uids)))
        elif self._node_ids != node_ids:
            raise ConfigurationError(
                "schedule tape is already bound to a different node set; "
                "tapes are shareable only across same-cell replicas"
            )

    @property
    def uid_index(self) -> Dict[int, int]:
        """uid -> dense index map (sorted-uid order); bound node set only."""
        return self._uid_index

    def topology(self, round_: int) -> RoundTopology:
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

    def commit(self, round_: int, edges: Any) -> RoundTopology:
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

    def _kind(self, num_edges: int) -> str:
        """This tape's adjacency form for a topology with ``num_edges``."""
        return representation_for(
            len(self._uids), num_edges, self.dense_node_limit, self.sparse
        )

    def _intern(self, raw: Any) -> RoundTopology:
        """The interned topology for one round's ``edges()`` result.

        A frozenset over ids ``0..N-1`` headed for bitset or CSR is read
        by one ``np.fromiter`` pass (``_vouched_indices``); when the pass
        vouches for it, the set is already normalized, so it becomes
        ``topo.edges`` itself and its endpoint array builds the rows.
        Anything else goes through ``_normalize_edges`` first, which also
        raises the reference engine's exact error.
        """
        flat = None
        if (
            type(raw) is frozenset
            and self._ids_are_indices
            and self._kind(len(raw)) != "dense"
        ):
            flat = _vouched_indices(raw, len(self._uids))
        edges = raw if flat is not None else _normalize_edges(raw, self._node_ids)
        topo = self._by_content.get(edges)
        if topo is not None:
            self.stats["content_hits"] += 1
            return topo
        if flat is None:
            flat = _endpoint_indices(edges, self._uid_index)
        kind = self._kind(len(edges))
        topo = RoundTopology.from_normalized(self._uids, edges, kind, flat)
        self.representations[kind] = self.representations.get(kind, 0) + 1
        self._by_content[edges] = topo
        self.stats["unique_topologies"] += 1
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
    ranks: bool,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """:func:`_incidence` over CSR rows: one flat gather, no submatrix."""
    rank = np.full(n, -1, dtype=np.intp)
    rank[send_idx] = np.arange(len(send_idx), dtype=np.intp)
    starts = indptr[recv_idx]
    lens = indptr[recv_idx + 1] - starts
    total = int(lens.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.intp) if ranks else None
        return np.zeros(len(recv_idx), dtype=np.intp), empty
    # flat[k] walks receiver recv_idx[g]'s CSR slice for each group g:
    # a global arange minus each group's exclusive prefix, plus its
    # CSR start offset.
    prefix = np.cumsum(lens) - lens
    flat = np.arange(total, dtype=np.intp) + np.repeat(starts - prefix, lens)
    rk = rank[indices[flat]]
    grp = np.repeat(np.arange(len(recv_idx), dtype=np.intp), lens)
    valid = rk >= 0  # neighbors that sent this round
    grpv = grp[valid]
    counts = np.bincount(grpv, minlength=len(recv_idx))
    if not ranks:
        return counts, None
    rkv = rk[valid]
    order = np.lexsort((rkv, grpv))  # by receiver, then sender rank
    return counts, rkv[order]


def _incidence(
    topo: RoundTopology,
    recv_idx: np.ndarray,
    send_idx: np.ndarray,
    n: int,
    ranks: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Who hears whom this round, from the topology's one adjacency form.

    Returns ``(counts, cols)``: ``counts[g]`` is how many of the senders
    ``send_idx`` neighbour receiver ``recv_idx[g]``, and ``cols`` holds
    those senders' positions in ``send_idx``, grouped by receiver, each
    group ascending — the row-major ``np.nonzero`` of the receiver x
    sender incidence submatrix.  ``ranks=False`` returns only the counts
    (``cols`` is None): what an array program needs.  Both batch paths
    deliver through this one kernel.
    """
    if topo.indptr is not None:  # csr
        return _csr_delivery(topo.indptr, topo.indices, recv_idx, send_idx, n, ranks)
    if topo.adj is not None:
        incidence = topo.adj[np.ix_(recv_idx, send_idx)]
    elif len(send_idx) < len(recv_idx):
        # bitset, fewer senders: the adjacency is symmetric, so unpack
        # the sender rows and transpose
        incidence = _unpack_rows(topo.words, send_idx)[:, recv_idx].T
    else:  # bitset: unpack only the receiver rows
        incidence = _unpack_rows(topo.words, recv_idx)[:, send_idx]
    counts = incidence.sum(axis=1, dtype=np.intp)
    return counts, (np.nonzero(incidence)[1] if ranks else None)  # row-major: grouped


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

    On a replay tape, :func:`~repro.sim.arrays.select_program` may hand
    the engine an :attr:`array_program`; its ``_array_*`` stages then
    replace actions, delivery and termination, for every program alike.
    Nothing else selects the path: no parameter, option or size
    threshold.

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
        #: the array program running this node set as numpy state, or
        #: None for the per-node path (repro.sim.arrays decides; replay
        #: tapes only, since an adaptive adversary reads the committed
        #: actions an array program never builds)
        self.array_program: Optional[ArrayProgram] = (
            None if self._incremental else select_program(self._uids, self._node_list)
        )
        if self.array_program is not None:
            # the array stages replace actions, delivery and termination;
            # the tape's adversary and validation stages serve both paths
            self._stages = tuple(
                (name, getattr(type(self), "_array_" + name, stage))
                for name, stage in self._stages
            )
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

    def _coin_states(self, round_: int) -> np.ndarray:
        """splitmix64 seeds for every node this round, in uid order,
        as an (N,) uint64 array."""
        if self._h_seed_uid is not None and 1 <= round_ < 2 ** 64:
            return (self._h_seed_uid ^ np.uint64(round_)) * np.uint64(_FNV_PRIME)
        source = self.coin_source  # pragma: no cover - exotic uid ranges
        return np.array(
            [
                _fnv_fold(_fnv_fold(_fnv_fold(_FNV_OFFSET, source.seed), uid), round_)
                for uid in self._uids
            ],
            dtype=np.uint64,
        )

    # -- the staged round protocol (vectorized within stages) ----------

    def _stage_actions(self, state: _RoundState) -> None:
        """(1)+(2): vectorized coins, committed actions in id order.

        Classification (send vs receive) is fused in — a replay tape
        never reads the committed-action view, so the reference engine's
        intermediate actions dict buys nothing there.  Adaptive mode
        builds it alongside: the adversary stage needs the exact view.
        """
        r = state.round
        states = self._coin_states(r).tolist()
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
        connectivity, and adjacency construction.
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
        if self.check_connected and not state.topo.is_connected():
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
        for uid, payload in zip(send_uids, send_payloads):
            enc, nbits = lookup(uid, payload)
            append_enc(enc)
            append_bits(nbits)
        self._check_budget(send_uids, bits_list, r)
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
            count_arr, col_arr = _incidence(topo, recv_idx, send_idx, len(self._uids))
            counts = count_arr.tolist()
            cols = col_arr.tolist()
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

    def _check_budget(self, send_uids: List[int], bits_list, r: int) -> None:
        """Raise for the first sender, in uid order, over the CONGEST budget."""
        budget = self.budget
        if bits_list and max(bits_list) > budget:
            for uid, nbits in zip(send_uids, bits_list):
                if nbits > budget:
                    raise BandwidthExceeded(nbits, budget, uid, r)

    # -- the array-program path (repro.sim.arrays) ---------------------

    def _uids_at(self, positions: List[int]) -> List[int]:
        """The uids at dense ``positions`` (sorted-uid order)."""
        if self._contiguous:
            return positions
        return list(map(self._uids.__getitem__, positions))

    def _array_actions(self, state: _RoundState) -> None:
        """(1)+(2): the program's send mask, from the round's coin
        states when it draws coins (none are folded otherwise)."""
        program = self.array_program
        r = state.round
        send = program.act(r, self._coin_states(r) if program.draws_coins else None)
        state.send_idx = send.nonzero()[0]
        state.recv_idx = (~send).nonzero()[0]

    def _array_delivery(self, state: _RoundState) -> None:
        """(4): the senders' payloads and bits from the program, the
        incidence (counts only, unless the program reduces over its
        senders), and the program's reduction with node write-back."""
        r = state.round
        program = self.array_program
        send_idx, recv_idx = state.send_idx, state.recv_idx
        send_uids = self._uids_at(send_idx.tolist())
        receiver_list = self._uids_at(recv_idx.tolist())
        sends: Dict[int, Any] = {}
        bits: Dict[int, int] = {}
        if send_uids:
            payloads, bits_list = program.charge(send_idx)
            self._check_budget(send_uids, bits_list, r)
            sends = dict(zip(send_uids, payloads))
            bits = dict(zip(send_uids, bits_list))
        if sends and receiver_list:
            counts, cols = _incidence(
                state.topo, recv_idx, send_idx, len(self._uids), ranks=program.ranks
            )
            delivered = dict(zip(receiver_list, counts.tolist()))
            program.hear(r, recv_idx, send_idx, counts, cols)
        else:
            delivered = dict.fromkeys(receiver_list, 0)
        record = RoundRecord(
            round=r,
            edges=state.edges,
            sends=sends,
            bits=bits,
            receivers=frozenset(receiver_list),
            delivered=delivered,
        )
        self.trace.append(record)
        state.record = record

    def _array_termination(self, state: _RoundState) -> None:
        """(5): the program's reduction decides; the outputs are read
        from the (synchronized) nodes once, in the terminating round."""
        trace = self.trace
        if trace.termination_round is None and self.array_program.complete(state.round):
            trace.termination_round = state.round
            trace.outputs = {
                uid: node.output() for uid, node in zip(self._uids, self._node_list)
            }

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
    span tree in seed order.  The replicas are one ``replicate``
    progress scope, advanced as each replica stops.
    ``dense_node_limit`` shapes every tape's adjacency representation.
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
    from ..obs.progress import report_advance, report_begin, report_finish
    from ..obs.spans import span_event

    active = list(engines) if max_rounds > 0 else []
    report_begin(len(engines), unit="runs", label="replicate")
    try:
        while active:
            still_running: List[BatchEngine] = []
            for engine in active:
                engine.step()
                if engine.trace.termination_round is None and engine.round < max_rounds:
                    still_running.append(engine)
                else:
                    report_advance()
            active = still_running
    finally:
        report_finish()
    for engine in engines:  # seed order: the session numbers runs as it sees them
        engine.finish()
    # How well the tape(s) amortized: one event span per chunk, so
    # `repro report` can count interning effectiveness per cell.  For
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
