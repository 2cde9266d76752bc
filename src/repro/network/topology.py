"""One round's topology: the one place an edge set becomes adjacency.

:class:`RoundTopology` turns an adversary's edge iterable into the
normalized edge frozenset the trace records (through
:func:`_normalize_edges`, the reference engine's own check), a
connectivity verdict (:func:`_is_connected`, the reference engine's
union-find oracle, or a BFS over packed bitset rows), and exactly one
adjacency form picked by :func:`representation_for`: a dense N x N
matrix up to :data:`DENSE_NODE_LIMIT` nodes, packed ``np.uint64`` rows
or CSR arrays above it.  The batch engine's schedule tape interns one
per unique edge set and delivers over its arrays; the causality
analysis propagates over :meth:`RoundTopology.closed_rows`, built on
first use.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

import numpy as np

from ..errors import ModelViolation

__all__ = [
    "RoundTopology",
    "representation_for",
    "DENSE_NODE_LIMIT",
    "SPARSE_REPRESENTATIONS",
]

Edge = Tuple[int, int]

#: Above this many nodes a topology stops building dense adjacency
#: matrices (N x N booleans per unique topology) and switches to sparse
#: rows — packed ``np.uint64`` bitsets for dense edge sets, CSR index
#: arrays for sparse ones — so delivery stays a vectorized submatrix
#: gather at N in the thousands.  ``dense_node_limit=`` on the schedule
#: tape, the engine or ``run_batch_replicas`` overrides it; ``0`` forces
#: the sparse path everywhere.
DENSE_NODE_LIMIT = 512

#: sparse-representation requests accepted by :func:`representation_for`:
#: ``auto`` picks per topology by edge density; the others force one
#: kind, a hook only tests use.
SPARSE_REPRESENTATIONS: Tuple[str, ...] = ("auto", "bitset", "csr")

#: packed-bitset rows decode via little-endian ``np.unpackbits``; on a
#: big-endian host the auto selector simply never picks them
_LITTLE_ENDIAN = sys.byteorder == "little"


def _normalize_edges(edges, node_ids: FrozenSet[int]) -> FrozenSet[Edge]:
    """Normalize to u < v tuples and validate endpoints.

    Anything that is not an iterable of pairs of node ids raises
    :class:`~repro.errors.ModelViolation` naming the offending value.
    """
    try:
        pairs = iter(edges)
    except TypeError:
        raise ModelViolation(
            f"adversary returned {edges!r}, not an iterable of edges"
        ) from None
    normalized = set()
    for edge in pairs:
        try:
            u, v = edge
            if u == v:
                raise ModelViolation(f"self-loop on node {u}")
            if u not in node_ids or v not in node_ids:
                raise ModelViolation(f"edge ({u}, {v}) leaves the node set")
        except (TypeError, ValueError):  # not a pair, or an unhashable end
            raise ModelViolation(f"edge {edge!r} is not a pair of node ids") from None
        normalized.add((u, v) if u < v else (v, u))
    return frozenset(normalized)


def _is_connected(node_ids: FrozenSet[int], edges: FrozenSet[Edge]) -> bool:
    """Union-find connectivity check over the given node set."""
    if len(node_ids) <= 1:
        return True
    parent = {uid: uid for uid in node_ids}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    components = len(node_ids)
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components == 1


def representation_for(
    n: int,
    num_edges: int,
    dense_node_limit: int = DENSE_NODE_LIMIT,
    sparse: str = "auto",
) -> str:
    """Pick the adjacency form of one topology (forced or by density).

    Above the dense limit the choice is memory-proportional: packed
    bitset rows cost ~N^2/8 bytes per unique topology, CSR costs ~16E
    bytes, so bitsets win once E >= N^2/128 — the random/T-interval
    families with extra edges — while constant-degree instances
    (E = O(N)) stay CSR.
    """
    if sparse != "auto":
        return sparse
    if n <= dense_node_limit:
        return "dense"
    if _LITTLE_ENDIAN and num_edges * 128 >= n * n:
        return "bitset"
    return "csr"


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


def _vouched_indices(raw: FrozenSet[Any], n: int) -> Optional[np.ndarray]:
    """Endpoint indices ``u0, v0, u1, v1, ...`` of a normalized frozenset.

    The caller guarantees that the node ids are exactly ``0..n-1`` (there
    an id is its own index).  One ``np.fromiter`` pass reads the endpoints
    through :func:`_int_endpoints`; the arrays then confirm ``u < v`` (no
    self-loop, no reversed pair) and that every id is a node.  ``None``
    when any check fails.
    """
    try:
        flat = np.fromiter(_int_endpoints(raw), dtype=np.intp, count=2 * len(raw))
    except (_Unvouched, OverflowError):
        return None
    if len(flat) and not (
        np.all(flat[0::2] < flat[1::2]) and flat.min() >= 0 and flat.max() < n
    ):
        return None
    return flat


def _endpoint_indices(edges: FrozenSet[Edge], index: Dict[int, int]) -> np.ndarray:
    """Endpoint indices ``u0, v0, u1, v1, ...`` of normalized edges."""
    return np.fromiter(
        (index[u] for uv in edges for u in uv), dtype=np.intp, count=2 * len(edges)
    )


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


class RoundTopology:
    """One round's undirected graph over a sorted node-id tuple.

    ``RoundTopology(node_ids, edges)`` normalizes any iterable of id
    pairs and takes the default form for its size; the schedule tape
    builds through :meth:`from_normalized` with its own representation
    policy.  Dense indices follow ``node_ids`` order.  Exactly one
    adjacency form is populated, named by ``kind``:

    ``dense``
        ``adj`` — an N x N boolean matrix; delivery is one ``np.ix_``
        submatrix.  Default at or below the dense limit.
    ``bitset``
        ``words`` — packed adjacency rows, ``(N, ceil(N/64))`` of
        ``np.uint64``; delivery unpacks the rows of whichever side of
        the symmetric adjacency is smaller and reuses the dense tail.
        Chosen above the limit when packed rows cost no more memory
        than CSR.
    ``csr``
        ``indptr``/``indices`` — sorted neighbour index arrays; delivery
        is one vectorized gather + lexsort over the receiver rows.
        Chosen above the limit for sparse edge sets.

    ``edges`` is the normalized edge frozenset the round records; for a
    tape topology read from an already-normalized frozenset it is that
    very object.
    """

    __slots__ = (
        "node_ids",
        "edges",
        "kind",
        "adj",
        "words",
        "indptr",
        "indices",
        "_connected",
        "_closed",
    )

    def __init__(self, node_ids: Iterable[int], edges: Iterable[Edge]):
        uids = tuple(sorted(set(node_ids)))
        normalized = _normalize_edges(edges, frozenset(uids))
        index = {uid: i for i, uid in enumerate(uids)}
        self._build(
            uids,
            normalized,
            representation_for(len(uids), len(normalized)),
            _endpoint_indices(normalized, index),
        )

    @classmethod
    def from_normalized(
        cls,
        node_ids: Tuple[int, ...],
        edges: FrozenSet[Edge],
        kind: str,
        flat: np.ndarray,
    ) -> "RoundTopology":
        """Build from already-normalized ``edges`` over sorted ``node_ids``.

        ``flat`` holds the endpoint indices ``u0, v0, u1, v1, ...``.
        """
        topo = cls.__new__(cls)
        topo._build(node_ids, edges, kind, flat)
        return topo

    def _build(
        self,
        node_ids: Tuple[int, ...],
        edges: FrozenSet[Edge],
        kind: str,
        flat: np.ndarray,
    ) -> None:
        """Build the one adjacency form from the endpoint index array."""
        n = len(node_ids)
        self.node_ids = node_ids
        self.edges = edges
        self.kind = kind
        self.adj = self.words = self.indptr = self.indices = None
        self._connected: Optional[bool] = None
        self._closed: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # Symmetrized endpoint index arrays: row i is adjacent to col j
        # for every directed copy of every undirected edge.
        rows = np.concatenate([flat[0::2], flat[1::2]])
        cols = np.concatenate([flat[1::2], flat[0::2]])
        if kind == "dense":
            adj = np.zeros((n, n), dtype=bool)
            adj[rows, cols] = True
            self.adj = adj
        elif kind == "bitset":
            words = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
            np.bitwise_or.at(
                words,
                (rows, cols >> 6),
                np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64)),
            )
            self.words = words
        else:  # csr
            order = np.lexsort((cols, rows))
            counts = np.bincount(rows, minlength=n)
            self.indptr = np.concatenate(
                (np.zeros(1, dtype=np.intp), np.cumsum(counts, dtype=np.intp))
            )
            self.indices = cols[order]

    def is_connected(self) -> bool:
        """The connectivity verdict, computed on first use and kept.

        Bitsets take it from a BFS over the packed rows; the other kinds
        from union-find over the edges (a BFS over CSR rows would pay
        one numpy level per node along a path).
        """
        if self._connected is None:
            if self.kind == "bitset":
                self._connected = _bitset_connected(self.words)
            else:
                self._connected = _is_connected(self.node_ids, self.edges)
        return self._connected

    def closed_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)``: CSR rows of every closed neighbourhood.

        Row i lists i itself first, then its neighbours: the paper's
        ``(U, r) -> (U, r+1)`` self-influence.  So no row is empty, which
        one ``np.bitwise_or.reduceat`` over the rows needs.  Built on
        first use from whichever form the topology holds, and kept.
        """
        if self._closed is None:
            n = len(self.node_ids)
            if self.kind == "csr":
                owners = np.repeat(np.arange(n), np.diff(self.indptr))
                neighbours = self.indices
            else:
                adj = self.adj
                if adj is None:
                    adj = np.unpackbits(
                        self.words.view(np.uint8), axis=1, bitorder="little", count=n
                    )
                owners, neighbours = np.nonzero(adj)
            own = np.arange(n)
            owners = np.concatenate((own, owners))
            order = np.argsort(owners, kind="stable")  # each row: itself first
            indptr = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(np.bincount(owners, minlength=n), out=indptr[1:])
            self._closed = (indptr, np.concatenate((own, neighbours))[order])
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoundTopology(n={len(self.node_ids)}, m={len(self.edges)}, {self.kind})"
