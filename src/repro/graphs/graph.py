"""Core graph data structure used throughout the library.

:class:`SocialGraph` is an adjacency-set graph over integer node ids
``0..n-1``, supporting both undirected and directed edges. It is the single
graph representation the utility functions, mechanisms, bounds, and
experiment harness operate on. The class deliberately keeps a small, explicit
API (PEP 20: "explicit is better than implicit"):

* neighbor queries return ``frozenset`` views so callers cannot corrupt the
  adjacency structure by accident;
* every mutation bumps an internal version counter that invalidates the
  cached sparse adjacency matrix used by walk-counting utilities;
* directed graphs track both successors and predecessors so in- and
  out-neighbor queries are O(1).

The paper's model (Section 3.1) treats the graph as the sole source of data:
people and entities are nodes, sensitive relationships are edges. Nothing in
this module is privacy-aware; privacy enters only in the mechanisms layer.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from ..errors import EdgeError, NodeError


def _csr_matrix(indptr: np.ndarray, indices: np.ndarray, num_nodes: int) -> sp.csr_matrix:
    """The 0/1 adjacency CSR on int64 ``indptr``/``indices`` (SciPy picks the index dtype)."""
    data = np.ones(indices.size, dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(num_nodes, num_nodes))


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector while per-node sets are allocated or filled.

    Sets of ints form no reference cycles, yet allocating one per node
    sets off collections that traverse every set built so far: on the
    Twitter replica those took two thirds of the set fill.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _fill_rows(sets: "list[set[int]]", indptr: np.ndarray, indices: np.ndarray) -> None:
    """Add each CSR row's columns to its (empty) set, as Python ints.

    Never NumPy scalars: the adjacency sets stay JSON-friendly.
    """
    columns, bounds = indices.tolist(), indptr.tolist()
    for adjacent, start, stop in zip(sets, bounds, bounds[1:]):
        if start != stop:
            adjacent.update(columns[start:stop])


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a one-dimensional array, ascending (``np.unique``'s result).

    One sort plus a neighbour compare: on high-cardinality int64 keys
    NumPy's hash-based ``np.unique`` is many times slower.
    """
    ordered = np.sort(values)
    distinct = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    return ordered[distinct]


def adjacency_arrays(
    heads: np.ndarray, tails: np.ndarray, num_nodes: int, directed: bool
) -> "tuple[np.ndarray, np.ndarray, int]":
    """CSR ``(indptr, indices)`` of the simple graph on the given pairs, and its edge count.

    Self-loops are dropped and duplicate pairs (reversed duplicates too,
    when undirected) collapse to one edge; an undirected edge fills both
    rows. Endpoints must already lie in ``0..num_nodes-1``. Columns
    ascend within each row, as :meth:`SocialGraph.adjacency_matrix` keeps
    them.
    """
    heads = np.asarray(heads, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    keep = heads != tails
    heads, tails = heads[keep], tails[keep]
    if not directed:
        heads, tails = np.minimum(heads, tails), np.maximum(heads, tails)
    # Edge keys row * n + col sort in CSR order (no int64 overflow below
    # 3e9 nodes).
    keys = sorted_distinct(heads * num_nodes + tails)
    num_edges = keys.size
    if not directed:
        keys = np.sort(np.concatenate((keys, (keys % num_nodes) * num_nodes + keys // num_nodes)))
    rows, cols = np.divmod(keys, num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    return indptr, cols, num_edges


class SocialGraph:
    """A simple graph (no self-loops, no parallel edges) on ``num_nodes`` nodes.

    Parameters
    ----------
    num_nodes:
        Number of nodes; node ids are the integers ``0..num_nodes-1``.
    directed:
        If ``True``, edges are ordered pairs and neighbor queries distinguish
        successors from predecessors. If ``False`` (the default, matching the
        paper's Wikipedia-vote setup), edges are unordered pairs.

    Examples
    --------
    >>> g = SocialGraph(4)
    >>> g.add_edge(0, 1)
    >>> g.add_edge(1, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    >>> g.degree(1)
    2
    """

    __slots__ = (
        "_n", "_directed", "_succ", "_pred", "_num_edges", "_version",
        "_csr_version", "_csr", "_degrees_version", "_degrees",
    )

    def __init__(self, num_nodes: int, directed: bool = False) -> None:
        if num_nodes < 0:
            raise NodeError(num_nodes)
        self._n = int(num_nodes)
        self._directed = bool(directed)
        with _collector_paused():
            self._succ: list[set[int]] = [set() for _ in range(self._n)]
            # For undirected graphs predecessors and successors are the same sets.
            self._pred: list[set[int]] = (
                [set() for _ in range(self._n)] if directed else self._succ
            )
        self._num_edges = 0
        self._version = 0
        self._csr_version = -1
        self._csr: sp.csr_matrix | None = None
        self._degrees_version = -1
        self._degrees: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: "Iterable[tuple[int, int]] | np.ndarray",
        num_nodes: int | None = None,
        directed: bool = False,
    ) -> "SocialGraph":
        """Build a graph from ``(u, v)`` pairs: an iterable or an ``(m, 2)`` array.

        Duplicate pairs and (for undirected graphs) reversed duplicates are
        silently collapsed, mirroring how the paper ingests the Wikipedia
        vote data (mutual votes become a single undirected edge); self-loops
        are silently dropped. Out-of-range endpoints raise
        :class:`~repro.errors.NodeError`. The graph is made once from the
        sorted, deduplicated edge array: its CSR adjacency and degree
        vector are installed at construction and its adjacency sets are
        filled from the CSR rows, with no per-pair Python loop.
        """
        pairs = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
        )
        if pairs.size == 0:
            return cls(0 if num_nodes is None else num_nodes, directed=directed)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
        if num_nodes is None:
            num_nodes = 1 + int(pairs.max())
        graph = cls(num_nodes, directed=directed)
        out_of_range = (pairs < 0) | (pairs >= graph._n)
        if out_of_range.any():
            bad_row, bad_col = np.argwhere(out_of_range)[0]
            raise NodeError(int(pairs[bad_row, bad_col]), graph._n)
        indptr, indices, num_edges = adjacency_arrays(
            pairs[:, 0], pairs[:, 1], graph._n, directed
        )
        graph._install_csr(indptr, indices, num_edges=num_edges, version=num_edges)
        return graph

    def _install_csr(
        self, indptr: np.ndarray, indices: np.ndarray, *, num_edges: int, version: int
    ) -> None:
        """Make this empty graph the one the int64 CSR ``(indptr, indices)`` describes.

        Rows must be sorted, with no self-loops or duplicates (and
        symmetric when undirected). The CSR matrix and the degree vector
        are installed as current at ``version`` (a fresh bulk load counts
        one bump per edge, as ``try_add_edge`` would), and the adjacency
        sets are filled from the row slices.
        """
        n = self._n
        with _collector_paused():
            _fill_rows(self._succ, indptr, indices)
            if self._directed:  # predecessors are the transpose's rows
                sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
                _fill_rows(self._pred, *adjacency_arrays(indices, sources, n, True)[:2])
        self._num_edges = int(num_edges)
        self._version = int(version)
        self._csr = _csr_matrix(indptr, indices, n)
        self._csr_version = self._version
        self._degrees = np.diff(indptr)
        self._degrees_version = self._version

    @classmethod
    def from_networkx(cls, nx_graph) -> "SocialGraph":
        """Convert a :mod:`networkx` graph with integer-convertible node labels.

        Node labels are mapped to ``0..n-1`` in sorted order; the mapping is
        dropped (use :func:`repro.graphs.io.relabel_mapping` to retain it).
        """
        directed = nx_graph.is_directed()
        nodes = sorted(nx_graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        graph = cls(len(nodes), directed=directed)
        for u, v in nx_graph.edges():
            if u == v:
                continue
            graph.try_add_edge(index[u], index[v])
        return graph

    def to_networkx(self):
        """Return the equivalent :mod:`networkx` graph (Graph or DiGraph)."""
        import networkx as nx

        nx_graph = nx.DiGraph() if self._directed else nx.Graph()
        nx_graph.add_nodes_from(range(self._n))
        nx_graph.add_edges_from(self.edges())
        return nx_graph

    def _copy_core_into(self, clone: "SocialGraph") -> None:
        """Install this graph's adjacency state into a same-shape instance.

        The single home of the deep-copy block shared by :meth:`copy` and
        the streaming overlay's copy/materialize paths, so core state
        added to this class later is copied from exactly one place.
        """
        with _collector_paused():
            clone._succ = [set(s) for s in self._succ]
            clone._pred = [set(s) for s in self._pred] if self._directed else clone._succ
        clone._num_edges = self._num_edges
        clone._version = self._version
        # The CSR and degree caches are read-only, so a current pair is shared.
        if self._csr is not None and self._csr_version == self._version:
            clone._csr, clone._csr_version = self._csr, self._version
        if self._degrees is not None and self._degrees_version == self._version:
            clone._degrees, clone._degrees_version = self._degrees, self._version

    def copy(self) -> "SocialGraph":
        """Return a deep copy (mutating the copy never affects the original).

        The copy starts at the source's ``version``, not at zero: version
        numbers key utility caches, so a copy that restarted the counter
        could later collide with a version the source already published and
        serve stale cached rows.
        """
        clone = SocialGraph(self._n, directed=self._directed)
        self._copy_core_into(clone)
        return clone

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges (unordered pairs if undirected, ordered if directed)."""
        return self._num_edges

    @property
    def is_directed(self) -> bool:
        """Whether edges are ordered pairs."""
        return self._directed

    @property
    def version(self) -> int:
        """Mutation counter; increases on every successful edge add/remove."""
        return self._version

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self._directed else "undirected"
        return f"SocialGraph(n={self._n}, m={self._num_edges}, {kind})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SocialGraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._directed == other._directed
            and self._succ == other._succ
        )

    def __hash__(self) -> int:  # graphs are mutable; identity hash only
        return id(self)

    # ------------------------------------------------------------------
    # Node / edge queries
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> int:
        node = int(node)
        if not 0 <= node < self._n:
            raise NodeError(node, self._n)
        return node

    def nodes(self) -> range:
        """All node ids."""
        return range(self._n)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` (or ``{u, v}`` if undirected) exists."""
        u, v = self._check_node(u), self._check_node(v)
        return v in self._succ[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges once each, ascending (``u < v`` for undirected graphs).

        The order depends only on the edge set, never on how the
        adjacency sets were filled, so equal graphs yield equal sequences.
        """
        for u in range(self._n):
            adjacent = self._succ[u]
            for v in sorted(adjacent if self._directed else [v for v in adjacent if v > u]):
                yield (u, v)

    def neighbors(self, node: int) -> frozenset[int]:
        """Adjacent nodes; out-neighbors for directed graphs.

        The paper's directed experiments (Twitter) follow edges *out of* the
        target node (Section 7.1), so ``neighbors`` on a directed graph means
        successors.
        """
        return frozenset(self._succ[self._check_node(node)])

    def out_neighbors(self, node: int) -> frozenset[int]:
        """Successor set (same as :meth:`neighbors` for undirected graphs)."""
        return frozenset(self._succ[self._check_node(node)])

    def in_neighbors(self, node: int) -> frozenset[int]:
        """Predecessor set (same as :meth:`neighbors` for undirected graphs)."""
        return frozenset(self._pred[self._check_node(node)])

    def degree(self, node: int) -> int:
        """Degree of ``node`` (out-degree for directed graphs)."""
        return len(self._succ[self._check_node(node)])

    def out_degree(self, node: int) -> int:
        """Out-degree (= degree for undirected graphs)."""
        return len(self._succ[self._check_node(node)])

    def in_degree(self, node: int) -> int:
        """In-degree (= degree for undirected graphs)."""
        return len(self._pred[self._check_node(node)])

    def _degrees_vector(self) -> np.ndarray:
        """The (out-)degree vector, cached per graph version.

        Private and shared: callers must not mutate the returned array.
        Cached like the CSR matrix so batched consumers pay O(rows)
        gathers, not an O(n) Python rebuild per call.
        """
        if self._degrees is None or self._degrees_version != self._version:
            self._degrees = np.fromiter(
                (len(s) for s in self._succ), dtype=np.int64, count=self._n
            )
            self._degrees_version = self._version
        return self._degrees

    def degrees(self) -> np.ndarray:
        """Vector of (out-)degrees for all nodes (a fresh, writable copy)."""
        return self._degrees_vector().copy()

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees for all nodes."""
        return np.fromiter((len(s) for s in self._pred), dtype=np.int64, count=self._n)

    def max_degree(self) -> int:
        """Maximum (out-)degree ``d_max``, the quantity in Theorems 1 and 3."""
        if self._n == 0:
            return 0
        return max(len(s) for s in self._succ)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> None:
        """Add edge ``(u, v)``; raise :class:`EdgeError` on self-loop/duplicate."""
        u, v = self._check_node(u), self._check_node(v)
        if u == v:
            raise EdgeError(u, v, "self-loops are not allowed")
        if v in self._succ[u]:
            raise EdgeError(u, v, "edge already present")
        self._succ[u].add(v)
        self._pred[v].add(u)
        if not self._directed:
            self._succ[v].add(u)
        self._num_edges += 1
        self._version += 1

    def try_add_edge(self, u: int, v: int) -> bool:
        """Add edge ``(u, v)`` if absent; return whether it was added.

        Self-loops are rejected (returning ``False``) rather than raising, so
        generators can attempt random pairs without pre-filtering.
        """
        u, v = self._check_node(u), self._check_node(v)
        if u == v or v in self._succ[u]:
            return False
        self._succ[u].add(v)
        self._pred[v].add(u)
        if not self._directed:
            self._succ[v].add(u)
        self._num_edges += 1
        self._version += 1
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Remove edge ``(u, v)``; raise :class:`EdgeError` if missing."""
        u, v = self._check_node(u), self._check_node(v)
        if v not in self._succ[u]:
            raise EdgeError(u, v, "edge not present")
        self._succ[u].discard(v)
        self._pred[v].discard(u)
        if not self._directed:
            self._succ[v].discard(u)
        self._num_edges -= 1
        self._version += 1

    def try_remove_edge(self, u: int, v: int) -> bool:
        """Remove edge ``(u, v)`` if present; return whether it was removed.

        The tolerant mirror of :meth:`try_add_edge`, so event-stream
        replays can apply removal events without pre-checking
        :meth:`has_edge` (the event may race a duplicate removal).
        """
        u, v = self._check_node(u), self._check_node(v)
        if v not in self._succ[u]:
            return False
        self.remove_edge(u, v)
        return True

    def with_edge(self, u: int, v: int) -> "SocialGraph":
        """Return a copy with edge ``(u, v)`` added (the ``G' = G + {e}`` of Def. 1)."""
        clone = self.copy()
        clone.add_edge(u, v)
        return clone

    def without_edge(self, u: int, v: int) -> "SocialGraph":
        """Return a copy with edge ``(u, v)`` removed (the ``G = G' + {e}`` direction)."""
        clone = self.copy()
        clone.remove_edge(u, v)
        return clone

    # ------------------------------------------------------------------
    # Matrix view
    # ------------------------------------------------------------------
    def adjacency_matrix(self) -> sp.csr_matrix:
        """Return the ``n x n`` 0/1 adjacency matrix as CSR (row = source).

        The matrix is cached and rebuilt lazily after mutations; utilities
        that count walks (weighted paths, PageRank) share the cache.
        """
        if self._csr is not None and self._csr_version == self._version:
            return self._csr
        self._csr = self._build_csr()
        self._csr_version = self._version
        return self._csr

    def _build_csr(self) -> sp.csr_matrix:
        """Assemble a fresh CSR adjacency matrix from the adjacency sets.

        Factored out of :meth:`adjacency_matrix` so the streaming overlay
        (:class:`~repro.streaming.overlay.MutableSocialGraph`) can rebuild
        its frozen epoch base through the exact same assembly at
        ``compact()`` time.
        """
        counts = np.fromiter(
            (len(s) for s in self._succ), dtype=np.int64, count=self._n
        )
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        columns = np.fromiter(
            (v for adjacent in self._succ for v in adjacent),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        # Sets iterate in arbitrary order; one global lexsort on (row, col)
        # sorts every row segment at C speed.
        rows = np.repeat(np.arange(self._n, dtype=np.int64), counts)
        return _csr_matrix(indptr, columns[np.lexsort((columns, rows))], self._n)

    def adjacency_rows(self, targets: "np.ndarray | list[int]") -> sp.csr_matrix:
        """CSR row slice ``A[targets]`` of the cached adjacency matrix.

        The compute layer's entry point: a batched kernel pulls just its
        targets' rows — a ``rows x n`` sparse block whose allocation is
        bounded by those targets' edges (SciPy copies the selected rows;
        only the cached source matrix is shared) — the length-1 walk rows
        every sparse score product starts from. Row ``j`` corresponds to
        ``targets[j]``, duplicates and arbitrary order included.
        """
        targets = np.asarray(targets, dtype=np.int64)
        return self.adjacency_matrix()[targets]

    def adjacency_product(self, rows: sp.csr_matrix) -> sp.csr_matrix:
        """The sparse product ``rows @ A`` of CSR rows with the adjacency.

        One walk step: with ``rows = A[targets]`` it is the length-2
        walk-count rows common neighbors scores, and repeated it yields
        every longer walk length. Counts are exact integers in float64,
        so any evaluation order gives the same matrix; the streaming
        overlay computes it from its epoch base and delta instead of
        rebuilding ``A``.
        """
        return rows @ self.adjacency_matrix()

    def out_degrees_of(self, targets: "np.ndarray | list[int]") -> np.ndarray:
        """Vector of out-degrees for an arbitrary target list.

        The batched analogue of :meth:`out_degree` — one NumPy gather
        from the version-cached degree vector, so batched vector assembly
        costs O(rows) per call rather than an O(n) rebuild.
        """
        targets = np.asarray(targets, dtype=np.int64)
        if targets.size and (targets.min() < 0 or targets.max() >= self._n):
            bad = targets[(targets < 0) | (targets >= self._n)][0]
            raise NodeError(int(bad), self._n)
        return self._degrees_vector()[targets]  # fancy index: already a copy

    # ------------------------------------------------------------------
    # Relabeling (exchangeability axiom support)
    # ------------------------------------------------------------------
    def relabel(self, permutation: "np.ndarray | list[int]") -> "SocialGraph":
        """Return the graph with node ``i`` renamed to ``permutation[i]``.

        This realizes the isomorphism ``h`` of the exchangeability axiom
        (Axiom 1): utilities must be invariant under relabelings that fix the
        target node.
        """
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.shape != (self._n,) or sorted(perm.tolist()) != list(range(self._n)):
            raise NodeError(permutation, self._n)
        clone = SocialGraph(self._n, directed=self._directed)
        for u, v in self.edges():
            clone.add_edge(int(perm[u]), int(perm[v]))
        return clone
