"""Frozen CSR storage for :class:`SocialGraph`: process memory or an mmap file.

The scale layer: a :class:`SharedCSR` places the graph's CSR adjacency
(``indptr``/``indices``/``data``) and degree vector in one flat buffer —
process memory (``backing="memory"``, the default) or a memory-mapped
file the caller names (``backing="mmap"``, the out-of-core path) — so a
10^6-node graph is assembled chunk by chunk straight into flat arrays,
never through per-node Python sets.

Layout of a buffer (all slots int64 unless noted)::

    header[8]   magic, layout version, num_nodes, nnz, directed,
                graph version stamp, sealed flag, reserved
    indptr      int64[num_nodes + 1]
    indices     int64[nnz]          (column ids, sorted within each row)
    data        float64[nnz]        (all ones; the 0/1 adjacency weights)
    degrees     int64[num_nodes]    (== diff(indptr))

:class:`SharedSocialGraph` wraps a store in the :class:`SocialGraph` API:
every read path (``adjacency_matrix``, ``adjacency_rows``, degree
queries, neighbor sets) is served from the buffer's arrays with no
copy, and every mutation raises :class:`~repro.errors.SharedGraphError`
— these graphs are frozen snapshots, stamped with the source graph's
version. A memory store is freed with its last reference; the owner of
an mmap store closes its mapping and unlinks its file.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from ..errors import NodeError, SharedGraphError
from .graph import SocialGraph

#: Backings :meth:`SharedCSR.allocate` understands.
BACKINGS = ("memory", "mmap")

_MAGIC = 0x5243_5352  # "RCSR"
_LAYOUT_VERSION = 1
_HEADER_SLOTS = 8
_HEADER_BYTES = _HEADER_SLOTS * 8
(_H_MAGIC, _H_LAYOUT, _H_NODES, _H_NNZ, _H_DIRECTED, _H_VERSION,
 _H_SEALED, _H_RESERVED) = range(_HEADER_SLOTS)


def _segment_bytes(num_nodes: int, nnz: int) -> int:
    """Total buffer size for a graph of ``num_nodes`` nodes, ``nnz`` entries."""
    return _HEADER_BYTES + 8 * ((num_nodes + 1) + nnz + nnz + num_nodes)


@dataclass(frozen=True)
class CSRDescriptor:
    """A read-out of a sealed store's header: where it lives, its shape.

    ``name`` is the absolute file path of an ``mmap`` store and ``None``
    for a ``memory`` one. ``version`` is the source graph's mutation
    counter at seal time.
    """

    backing: str
    name: "str | None"
    num_nodes: int
    num_edges: int
    nnz: int
    directed: bool
    version: int


class SharedCSR:
    """One flat buffer holding a sealed CSR adjacency + degree vector.

    Create with :meth:`allocate` (builders write the arrays in place, then
    :meth:`seal`) or :meth:`from_graph` (copy an existing graph's cached
    CSR into memory). ``close`` drops the arrays and an mmap store's
    mapping; ``unlink`` removes an mmap store's file.
    """

    __slots__ = (
        "backing", "name", "indptr", "indices", "data", "degrees",
        "_header", "_mmap", "_file", "_closed",
    )

    def __init__(self) -> None:  # use allocate()/from_graph()
        self._mmap = None
        self._file = None
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def allocate(
        cls,
        num_nodes: int,
        nnz: int,
        directed: bool,
        backing: str = "memory",
        path: "str | os.PathLike[str] | None" = None,
    ) -> "SharedCSR":
        """Create an unsealed store sized for ``num_nodes``/``nnz``.

        The returned store's arrays are writable; fill them, then call
        :meth:`seal` before reading the descriptor. ``backing="mmap"``
        needs ``path``, the file that holds the buffer; ``"memory"``
        takes none.
        """
        if backing not in BACKINGS:
            raise SharedGraphError(
                f"unknown backing {backing!r}; known: {BACKINGS}"
            )
        if backing == "mmap" and path is None:
            raise SharedGraphError("backing='mmap' needs a path for its file")
        if backing == "memory" and path is not None:
            raise SharedGraphError("backing='memory' takes no path")
        if num_nodes < 0 or nnz < 0:
            raise SharedGraphError(
                f"need num_nodes >= 0 and nnz >= 0, got ({num_nodes}, {nnz})"
            )
        store = cls()
        store.backing = backing
        total = _segment_bytes(num_nodes, nnz)
        if backing == "memory":
            store.name = None
            # Anonymous pages: zeroed like a fresh file, touched only as
            # the builder writes them. Not an ndarray: SciPy copies a view
            # whose base ndarray is much larger (it would duplicate
            # ``data`` in adjacency_matrix()).
            buffer = mmap.mmap(-1, total, flags=mmap.MAP_PRIVATE)
        else:
            path = os.path.abspath(os.fspath(path))
            store._file = open(path, "w+b")
            store._file.truncate(total)
            store._mmap = mmap.mmap(store._file.fileno(), total)
            store.name = path
            buffer = store._mmap
        store._carve(buffer, num_nodes, nnz)
        header = store._header
        header[_H_MAGIC] = _MAGIC
        header[_H_LAYOUT] = _LAYOUT_VERSION
        header[_H_NODES] = num_nodes
        header[_H_NNZ] = nnz
        header[_H_DIRECTED] = int(bool(directed))
        header[_H_VERSION] = 0
        header[_H_SEALED] = 0
        return store

    def _carve(self, buffer, num_nodes: int, nnz: int) -> None:
        """Build the five array views over one flat buffer."""
        offset = 0

        def view(count: int, dtype) -> np.ndarray:
            nonlocal offset
            array = np.frombuffer(
                buffer, dtype=dtype, count=count, offset=offset
            )
            offset += array.nbytes
            return array

        self._header = view(_HEADER_SLOTS, np.int64)
        self.indptr = view(num_nodes + 1, np.int64)
        self.indices = view(nnz, np.int64)
        self.data = view(nnz, np.float64)
        self.degrees = view(num_nodes, np.int64)

    @classmethod
    def from_graph(cls, graph: SocialGraph) -> "SharedCSR":
        """Copy ``graph``'s cached CSR adjacency into a fresh sealed memory store."""
        matrix = graph.adjacency_matrix()
        store = cls.allocate(graph.num_nodes, int(matrix.nnz), graph.is_directed)
        store.indptr[:] = matrix.indptr
        store.indices[:] = matrix.indices
        store.data[:] = matrix.data
        store.degrees[:] = np.diff(matrix.indptr)
        store.seal(graph.version, num_edges=graph.num_edges)
        return store

    def seal(self, version: int, num_edges: "int | None" = None) -> None:
        """Stamp the store with the graph version and mark it complete.

        ``num_edges`` defaults to the CSR entry count for directed graphs
        and half of it for undirected (each undirected edge appears in
        both endpoint rows).
        """
        self._require_open()
        header = self._header
        if num_edges is None:
            nnz = int(header[_H_NNZ])
            num_edges = nnz if header[_H_DIRECTED] else nnz // 2
        header[_H_VERSION] = int(version)
        header[_H_RESERVED] = int(num_edges)
        header[_H_SEALED] = 1
        # Freeze the arrays once sealed so a kernel scribbling on the
        # adjacency fails loudly.
        for array in (self.indptr, self.indices, self.data, self.degrees):
            array.setflags(write=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def descriptor(self) -> CSRDescriptor:
        """The sealed header as a :class:`CSRDescriptor`."""
        self._require_open()
        header = self._header
        if not int(header[_H_SEALED]):
            raise SharedGraphError(
                "store is not sealed yet; finish assembly and call seal()"
            )
        return CSRDescriptor(
            backing=self.backing,
            name=self.name,
            num_nodes=int(header[_H_NODES]),
            num_edges=int(header[_H_RESERVED]),
            nnz=int(header[_H_NNZ]),
            directed=bool(header[_H_DIRECTED]),
            version=int(header[_H_VERSION]),
        )

    @property
    def num_nodes(self) -> int:
        self._require_open()
        return int(self._header[_H_NODES])

    @property
    def nnz(self) -> int:
        self._require_open()
        return int(self._header[_H_NNZ])

    @property
    def nbytes(self) -> int:
        """Total bytes of the store's buffer."""
        self._require_open()
        return _segment_bytes(int(self._header[_H_NODES]), int(self._header[_H_NNZ]))

    @property
    def closed(self) -> bool:
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise SharedGraphError(f"CSR store {self.name or self.backing!r} is closed")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the arrays and an mmap store's mapping (idempotent).

        Every array view handed out becomes invalid; callers must drop
        them first or an mmap store's file refuses to unmap.
        """
        if self._closed:
            return
        self._closed = True
        self._header = None
        self.indptr = self.indices = self.data = self.degrees = None
        try:
            if self._mmap is not None:
                self._mmap.close()
        except BufferError:
            raise SharedGraphError(
                f"cannot close shared CSR store {self.name!r}: array views "
                "into the segment are still alive (drop graph/matrix "
                "references first)"
            ) from None
        finally:
            if self._file is not None:
                self._file.close()

    def unlink(self) -> None:
        """Remove an mmap store's file (idempotent; a memory store has none)."""
        if self.backing == "mmap":
            try:
                os.unlink(self.name)
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedCSR":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        self.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"SharedCSR({self.backing}:{self.name}, {state})"


def contiguous_node_range(targets: np.ndarray) -> "tuple[int, int] | None":
    """``(lo, hi)`` when ``targets`` is exactly ``lo, lo+1, ..., hi-1``.

    The shape test behind zero-copy row slices: targets that happen to
    be consecutive ascending node ids can be served as a CSR row slice
    (``indptr[lo:hi+1]`` plus views of ``indices``/``data``) instead of
    a fancy-index row gather. Returns ``None`` for empty, unsorted,
    duplicated, or gapped target arrays — callers then take the copying
    path. O(len) with one vectorized comparison, so probing never costs
    more than the gather it tries to avoid.
    """
    targets = np.asarray(targets)
    if targets.size == 0 or targets.ndim != 1:
        return None
    lo, hi = int(targets[0]), int(targets[-1]) + 1
    if hi - lo != targets.size:
        return None
    if not np.array_equal(targets, np.arange(lo, hi, dtype=targets.dtype)):
        return None
    return lo, hi


def _heap_from_csr(
    num_nodes: int,
    directed: bool,
    indptr: np.ndarray,
    indices: np.ndarray,
    num_edges: int,
    version: int,
) -> SocialGraph:
    """Build an ordinary :class:`SocialGraph` from (copies of) CSR adjacency arrays."""
    graph = SocialGraph(num_nodes, directed=directed)
    graph._install_csr(
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        num_edges=num_edges,
        version=version,
    )
    return graph


class SharedSocialGraph(SocialGraph):
    """A frozen :class:`SocialGraph` served entirely from a :class:`SharedCSR`.

    Never builds the per-node Python adjacency sets (at 10^6 nodes those
    alone cost hundreds of MB); every query reads the store's arrays.
    Mutations raise :class:`~repro.errors.SharedGraphError` — mutate an
    in-heap copy (:meth:`to_heap`) and freeze it again instead.
    """

    __slots__ = ("_store",)

    def __init__(self, store: SharedCSR) -> None:
        store._require_open()
        descriptor = store.descriptor
        self._store = store
        self._n = descriptor.num_nodes
        self._directed = descriptor.directed
        self._succ = None  # type: ignore[assignment]
        self._pred = None  # type: ignore[assignment]
        self._num_edges = descriptor.num_edges
        self._version = descriptor.version
        self._csr_version = -1
        self._csr = None
        self._degrees_version = -1
        self._degrees = None

    # ------------------------------------------------------------------
    # Construction / lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: SocialGraph) -> "SharedSocialGraph":
        """Freeze an existing in-heap graph (copies its CSR into memory)."""
        return cls(SharedCSR.from_graph(graph))

    @property
    def store(self) -> SharedCSR:
        return self._store

    @property
    def descriptor(self) -> CSRDescriptor:
        return self._store.descriptor

    def close(self) -> None:
        """Close the backing store (see :meth:`SharedCSR.close`)."""
        self._csr = None
        self.close_views()
        self._store.close()

    def close_views(self) -> None:
        """Drop cached array wrappers so the buffer can unmap."""
        self._csr = None
        self._csr_version = -1

    def unlink(self) -> None:
        """Remove an mmap store's file."""
        self._store.unlink()

    def __enter__(self) -> "SharedSocialGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        self.unlink()

    def to_heap(self) -> SocialGraph:
        """An ordinary mutable in-heap copy (same version stamp)."""
        store = self._store
        store._require_open()
        return _heap_from_csr(
            self._n, self._directed, store.indptr, store.indices,
            self._num_edges, self._version,
        )

    # ------------------------------------------------------------------
    # Read API (served from the store's arrays)
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self._directed else "undirected"
        return (
            f"SharedSocialGraph(n={self._n}, m={self._num_edges}, {kind}, "
            f"{self._store.backing}:{self._store.name})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SocialGraph):
            return NotImplemented
        if self._n != other.num_nodes or self._directed != other.is_directed:
            return False
        mine, theirs = self.adjacency_matrix(), other.adjacency_matrix()
        return bool(
            np.array_equal(mine.indptr, theirs.indptr)
            and np.array_equal(mine.indices, theirs.indices)
        )

    __hash__ = SocialGraph.__hash__

    def _row(self, node: int) -> np.ndarray:
        store = self._store
        return store.indices[store.indptr[node]:store.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        u, v = self._check_node(u), self._check_node(v)
        row = self._row(u)
        position = int(np.searchsorted(row, v))
        return position < row.size and int(row[position]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self._n):
            row = self._row(u)
            if not self._directed:
                row = row[np.searchsorted(row, u + 1):]
            for v in row.tolist():
                yield (u, v)

    def neighbors(self, node: int) -> frozenset[int]:
        return frozenset(self._row(self._check_node(node)).tolist())

    out_neighbors = neighbors

    def in_neighbors(self, node: int) -> frozenset[int]:
        if self._directed:
            raise SharedGraphError(
                "shared-backed directed graphs store no predecessor index; "
                "use to_heap() for in-neighbor queries"
            )
        return self.neighbors(node)

    def degree(self, node: int) -> int:
        return int(self._store.degrees[self._check_node(node)])

    out_degree = degree

    def in_degree(self, node: int) -> int:
        if self._directed:
            raise SharedGraphError(
                "shared-backed directed graphs store no predecessor index; "
                "use to_heap() for in-degree queries"
            )
        return self.degree(node)

    def _degrees_vector(self) -> np.ndarray:
        return self._store.degrees

    def in_degrees(self) -> np.ndarray:
        if self._directed:
            raise SharedGraphError(
                "shared-backed directed graphs store no predecessor index; "
                "use to_heap() for in-degree queries"
            )
        return self.degrees()

    def max_degree(self) -> int:
        if self._n == 0:
            return 0
        return int(self._store.degrees.max())

    def adjacency_matrix(self) -> sp.csr_matrix:
        """The full adjacency as CSR, wrapping the store's arrays (no copy)."""
        if self._csr is not None and self._csr_version == self._version:
            return self._csr
        store = self._store
        store._require_open()
        matrix = sp.csr_matrix(
            (store.data, store.indices, store.indptr),
            shape=(self._n, self._n),
            copy=False,
        )
        # Rows are sorted by construction; record it so SciPy never
        # re-sorts (which would try to write the read-only buffers).
        matrix.has_sorted_indices = True
        self._csr = matrix
        self._csr_version = self._version
        return matrix

    def adjacency_rows(self, targets: "np.ndarray | list[int]") -> sp.csr_matrix:
        """Row slice ``A[targets]``; zero-copy when targets are a node range.

        Targets that are consecutive ascending node ids
        (:func:`contiguous_node_range`) are served as views over the
        store's ``indices``/``data`` plus a ``rows+1``-entry ``indptr``
        copy. Arbitrary target lists fall back to SciPy's fancy-index
        row gather (a copy, as on the in-heap graph).
        """
        targets = np.asarray(targets, dtype=np.int64)
        window = contiguous_node_range(targets)
        if window is not None:
            lo, hi = window
            if lo < 0 or hi > self._n:
                bad = lo if lo < 0 else hi - 1
                raise NodeError(int(bad), self._n)
            store = self._store
            store._require_open()
            start, stop = int(store.indptr[lo]), int(store.indptr[hi])
            indptr = store.indptr[lo:hi + 1] - start
            matrix = sp.csr_matrix(
                (store.data[start:stop], store.indices[start:stop], indptr),
                shape=(hi - lo, self._n),
                copy=False,
            )
            matrix.has_sorted_indices = True
            return matrix
        return self.adjacency_matrix()[targets]

    def out_degrees_of(self, targets: "np.ndarray | list[int]") -> np.ndarray:
        targets = np.asarray(targets, dtype=np.int64)
        if targets.size and (targets.min() < 0 or targets.max() >= self._n):
            bad = targets[(targets < 0) | (targets >= self._n)][0]
            raise NodeError(int(bad), self._n)
        return self._store.degrees[targets]  # fancy index: already a copy

    # ------------------------------------------------------------------
    # Frozen-snapshot behavior
    # ------------------------------------------------------------------
    def _frozen(self, operation: str):
        return SharedGraphError(
            f"cannot {operation} on a shared-backed graph: it is a frozen "
            f"snapshot at version {self._version}; mutate to_heap() and "
            "re-share"
        )

    def add_edge(self, u: int, v: int) -> None:
        raise self._frozen("add_edge")

    def try_add_edge(self, u: int, v: int) -> bool:
        raise self._frozen("try_add_edge")

    def remove_edge(self, u: int, v: int) -> None:
        raise self._frozen("remove_edge")

    def try_remove_edge(self, u: int, v: int) -> bool:
        raise self._frozen("try_remove_edge")

    def copy(self) -> SocialGraph:
        """Copies are in-heap (and therefore mutable)."""
        return self.to_heap()

    def relabel(self, permutation: "np.ndarray | list[int]") -> SocialGraph:
        return self.to_heap().relabel(permutation)
