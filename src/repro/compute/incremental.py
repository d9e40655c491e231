"""Incremental utility maintenance: sparse score deltas for edge mutations.

The paper's utilities are low-degree polynomials of the adjacency matrix
(common neighbors is ``A^2``, weighted paths combines ``A^2 .. A^L``), so
a single edge mutation perturbs every cached score row by a *closed-form
sparse delta*, and the rows it can change are exactly the delta's
reverse support (:attr:`EdgeScoreDelta.touched`) plus the edge's
endpoints. This module computes that delta once per mutation, so the
serving cache (:class:`repro.serving.cache.UtilityCache`) patches
resident rows in place instead of recomputing them, and leaves every
row outside the support untouched.

Delta derivation
----------------
Write the mutation as ``A_new = A_old + ΔA`` with ``ΔA = s·E_uv``
(directed; ``s = +1`` add, ``-1`` remove) or ``s·(E_uv + E_vu)``
(undirected). Telescoping the matrix power,

``A_new^k - A_old^k = Σ_{j=0}^{k-1} A_old^j · ΔA · A_new^{k-1-j}``

— an exact identity, including walks that traverse the mutated edge more
than once. Row ``t`` of the ``j``-th term is
``s · (A_old^j)[t, u] · (A_new^{k-1-j})[v, :]`` (plus the symmetric
``(t, v) x (u, :)`` term when undirected). The ``j = 0`` term has
support only on the endpoint rows, so for every non-endpoint target the
length-``k`` walk-count row changes by

``Δrow_t(k) = s · Σ_{j=1}^{k-1} (A_old^j)[t, u] · (A_new^{k-1-j})[v, :]``
(``+`` the symmetric term when undirected).

Two ingredient families make that a sparse scatter:

* **forward rows** ``F_m = (A_new^m)[seed, :]`` — walk counts *from* the
  mutated edge's head, expanded on the post-mutation graph (which is the
  graph the tracker hands us);
* **reverse columns** ``r_j[t] = (A_old^j)[t, seed]`` — walk counts
  *into* the edge's tail on the **pre**-mutation graph. The tracker
  records after the mutation applied, so these are recovered from the
  new graph by the exact correction recursion
  ``r_j = A_new·r_{j-1} - s·r_{j-1}[v]·e_u`` (directed; the undirected
  form subtracts the symmetric ``s·r_{j-1}[u]·e_v`` as well), with
  ``r_0 = e_seed``.

All counts are exact non-negative integers held in float64 (exact far
beyond any reachable graph size), so patching is association-free
integer arithmetic: components patched through any interleaving of
deltas equal the from-scratch counts bit for bit, and the utility's
:meth:`~repro.utility.base.UtilityFunction.combine_component_rows`
recombines them with the same accumulation sequence as a full
recompute, so a patched float64 row is bit-identical to a recomputed
one.

Rows stay support-form while they are patched. A row's side-car holds
only its *walk support* — the candidates with a non-zero count of some
length — and the counts there (a single-length utility's row is its own
side-car), so :func:`patch_utility_vector` merges each delta's scattered
ids into that support: it inserts the ids that gain a count, sums the
run's ``(id, length)`` updates with one ``bincount``, drops the ids
whose counts all return to zero and recombines, in
O(lengths x support + delta x log(support)) — no sort of the whole
update, no hashing.

Endpoint rows (directed ``t == u``; undirected ``t ∈ {u, v}``) change
their candidate set and/or target degree, so they are *not* patchable —
:meth:`EdgeScoreDelta.evicts` reports them and the cache evicts and
recomputes exactly those rows.

Cost model: applying one delta to one row scatters at most
:attr:`EdgeScoreDelta.scatter_cost` values (forward-level sizes weighted
by how many components reuse each level). The cache compares the summed
scatter cost against ``crossover x num_candidates`` — the row's width,
the budget dense rows were tuned on, kept so support-form rows patch or
evict exactly where they did — and evicts past the crossover instead of
patching (:data:`repro.serving.cache.PATCH_CROSSOVER`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GraphError
from ..utility.base import UtilityVector

#: Metadata key of a patchable support-form vector's walk-count side-car,
#: ``(ids, counts)``: the ascending walk-support ids and the
#: ``(num_lengths, len(ids))`` float64 block of exact counts there.
#: Written by :func:`repro.compute.kernels.utility_vectors` with
#: ``with_components=True`` for utilities over more than one length,
#: consumed by :func:`patch_utility_vector`.
COMPONENTS_KEY = "walk_components"


def _neighbor_array(adjacent) -> np.ndarray:
    """A sorted int64 id array from an adjacency set."""
    array = np.fromiter(adjacent, dtype=np.int64, count=len(adjacent))
    array.sort()
    return array


def _successor_array(graph, node: int) -> np.ndarray:
    """Sorted successors of ``node`` — zero-copy where the graph offers it.

    :class:`~repro.streaming.overlay.MutableSocialGraph` exposes
    ``successor_array`` returning a direct slice of its frozen epoch-base
    CSR for delta-free nodes; anything else falls back to materializing
    the adjacency set.
    """
    reader = getattr(graph, "successor_array", None)
    if reader is not None:
        return reader(node)
    return _neighbor_array(graph.out_neighbors(node))


def _predecessor_array(graph, node: int) -> np.ndarray:
    """Sorted predecessors of ``node`` (== successors when undirected)."""
    if not graph.is_directed:
        return _successor_array(graph, node)
    return _neighbor_array(graph.in_neighbors(node))


def _aggregate(parts: "list[np.ndarray]", weights: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Sum ``weights[i]`` into every id of ``parts[i]``; return (ids, counts)."""
    sizes = [part.size for part in parts]
    total = sum(sizes)
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    ids = np.concatenate(parts).astype(np.int64, copy=False)
    repeated = np.repeat(weights, sizes)
    unique, inverse = np.unique(ids, return_inverse=True)
    counts = np.bincount(inverse, weights=repeated, minlength=unique.size)
    return unique, counts


#: A walk-count level densifies once its support exceeds this fraction
#: of the graph: past it the sparse bookkeeping (nonzero extraction, id
#: sorting, binary searches) costs more than touching every node.
_DENSIFY_FRACTION = 8


def _expand_forward(graph, ids, counts: np.ndarray):
    """One forward step: walk counts pushed along out-edges (new graph).

    Levels are ``(ids, counts)`` pairs; ``ids is None`` marks a *dense*
    level whose ``counts`` is a full length-``n`` vector. Overlay graphs
    expose vectorized ``push_counts``/``push_dense`` (one CSR gather or
    matvec per step instead of one set materialization per frontier
    node) — that path is what keeps per-mutation delta extraction cheap
    enough to run on every journaled mutation; wide frontiers densify
    and stay dense. The per-node fallback serves plain graphs and stays
    the bit-identical, always-sparse reference implementation.
    """
    if ids is None:
        return None, graph.push_dense(counts)
    pusher = getattr(graph, "push_counts", None)
    if pusher is not None:
        return _maybe_densify(graph, *pusher(ids, counts))
    parts = [_successor_array(graph, int(node)) for node in ids]
    return _aggregate(parts, counts)


def _expand_reverse(graph, ids, counts: np.ndarray):
    """One reverse step: ``(A r)[t] = Σ_{w ∈ out(t)} r[w]`` via in-edges."""
    if ids is None:
        return None, graph.push_dense(counts, reverse=True)
    pusher = getattr(graph, "push_counts", None)
    if pusher is not None:
        return _maybe_densify(graph, *pusher(ids, counts, reverse=True))
    parts = [_predecessor_array(graph, int(node)) for node in ids]
    return _aggregate(parts, counts)


def _maybe_densify(graph, ids: np.ndarray, counts: np.ndarray):
    num_nodes = int(graph.num_nodes)
    if ids.size * _DENSIFY_FRACTION <= num_nodes:
        return ids, counts
    dense = np.zeros(num_nodes, dtype=np.float64)
    dense[ids] = counts
    return None, dense


def _value_at(ids, counts: np.ndarray, node: int) -> float:
    if ids is None:
        return float(counts[node])
    position = ids.searchsorted(node)
    if position < ids.size and ids[position] == node:
        return float(counts[position])
    return 0.0


def _add_at(ids, counts: np.ndarray, node: int, value: float):
    """``counts[node] += value`` on a (possibly dense) level."""
    if ids is None:
        counts = counts.copy()
        counts[node] += value
        return None, counts
    position = int(np.searchsorted(ids, node))
    if position < ids.size and ids[position] == node:
        counts = counts.copy()
        counts[position] += value
        return ids, counts
    return (
        np.insert(ids, position, node),
        np.insert(counts, position, value),
    )


def _sparse_level(ids, counts: np.ndarray):
    """A level as ``(ids, counts)`` over its non-zeros (dense levels too)."""
    if ids is not None:
        return ids, counts
    ids = np.flatnonzero(counts)
    return ids, counts[ids]


def _journal_entries(forward: dict, reverse: dict, max_length: int, num_nodes: int):
    """``(forward, scatter_cost, touched)`` of a delta under construction.

    Forward levels become sparse (a scatter only visits non-zeros);
    level ``m`` feeds components ``k = j + m + 1`` for ``j = 1..L-1-m``,
    so it can be scattered up to ``L - 1 - m`` times per orientation.
    ``touched`` is the union of the reverse supports as a frozenset,
    so the cache tests membership in O(1).
    """
    forward = {
        seed: tuple(_sparse_level(*level) for level in levels)
        for seed, levels in forward.items()
    }
    scatter_cost = sum(
        (max_length - 1 - m) * int(ids.size)
        for levels in forward.values()
        for m, (ids, _) in enumerate(levels)
    )
    touched_flags = np.zeros(num_nodes, dtype=bool)
    for levels in reverse.values():
        for ids, level_counts in levels:
            if ids is None:
                touched_flags |= level_counts != 0.0
            else:
                touched_flags[ids] = True
    return forward, scatter_cost, frozenset(np.flatnonzero(touched_flags).tolist())


def _drop_zeros(ids, counts: np.ndarray):
    if ids is None:
        return ids, counts  # dense levels keep exact zeros in place
    keep = counts != 0.0
    if keep.all():
        return ids, counts
    return ids[keep], counts[keep]


@dataclass(frozen=True)
class EdgeScoreDelta:
    """The closed-form score delta of one journaled edge mutation.

    Holds, per endpoint seed, the reverse walk-count levels on the
    pre-mutation graph (``reverse[seed][j-1]`` is the column
    ``(A_old^j)[:, seed]``, ``j = 1..max_length-1``) and the forward
    walk-count levels on the post-mutation graph (``forward[seed][m]``
    is the row ``(A_new^m)[seed, :]``, ``m = 0..max_length-2``). A
    forward level is an ascending sparse ``(ids, counts)`` pair over its
    non-zeros; a reverse level is one too, or — once its support covers
    a sizable fraction of the graph — ``(None, dense_counts)`` with a
    full length-``n`` float64 vector. ``touched`` is the frozenset union
    of every reverse level's support — the exact set of rows this delta
    can change. Applying the delta to a target's side-car is then a pure
    scatter — no graph access at patch time.
    """

    version: int
    u: int
    v: int
    sign: float
    directed: bool
    max_length: int
    reverse: "dict[int, tuple[tuple[np.ndarray, np.ndarray], ...]]"
    forward: "dict[int, tuple[tuple[np.ndarray, np.ndarray], ...]]"
    touched: "frozenset[int]"
    scatter_cost: int

    def pairs(self) -> "tuple[tuple[int, int], ...]":
        """(reverse seed, forward seed) orientations this delta carries."""
        if self.directed:
            return ((self.u, self.v),)
        return ((self.u, self.v), (self.v, self.u))

    def evicts(self, target: int) -> bool:
        """Whether ``target``'s row is unpatchable (candidate set changed).

        A directed mutation ``(u, v)`` rewrites ``u``'s out-neighborhood
        — ``u``'s candidate set and degree — while every other row keeps
        both; undirected mutations do the same to both endpoints.
        """
        if self.directed:
            return target == self.u
        return target == self.u or target == self.v

    def touches(self, target: int) -> bool:
        """Whether applying this delta to ``target``'s row can change it.

        True exactly when the target has a nonzero pre-mutation reverse
        walk count into some mutated endpoint — the weight every scatter
        term is multiplied by. A false result makes the delta a guaranteed
        no-op for the row, so callers skip it (and its
        :attr:`scatter_cost`) in the patch-vs-evict estimate. O(1).
        """
        return int(target) in self.touched


def compute_edge_delta(graph, u: int, v: int, added: bool, max_length: int) -> EdgeScoreDelta:
    """Build the :class:`EdgeScoreDelta` of a *just-applied* mutation.

    ``graph`` is the post-mutation graph (the tracker records eagerly,
    after the edge flipped); the pre-mutation reverse counts are
    recovered through the correction recursion derived in the module
    docstring. ``max_length`` is the longest walk any consumer combines
    (2 for common neighbors, ``max_length`` for weighted paths).
    """
    if max_length < 2:
        raise GraphError(f"delta max_length must be >= 2, got {max_length}")
    u, v = int(u), int(v)
    sign = 1.0 if added else -1.0
    directed = bool(graph.is_directed)

    if not directed:
        return _undirected_edge_delta(graph, u, v, sign, max_length)

    forward_seeds = (v,)
    forward: dict[int, tuple] = {}
    for seed in forward_seeds:
        ids = np.asarray([seed], dtype=np.int64)
        counts = np.asarray([1.0], dtype=np.float64)
        levels = [(ids, counts)]
        for _ in range(1, max_length - 1):
            ids, counts = _expand_forward(graph, ids, counts)
            levels.append((ids, counts))
        forward[seed] = tuple(levels)

    reverse_seeds = (u,)
    reverse: dict[int, tuple] = {}
    for seed in reverse_seeds:
        previous_ids = np.asarray([seed], dtype=np.int64)
        previous_counts = np.asarray([1.0], dtype=np.float64)
        levels = []
        for _ in range(1, max_length):
            ids, counts = _expand_reverse(graph, previous_ids, previous_counts)
            # A_old r = A_new r - s·r[v]·e_u (- s·r[u]·e_v undirected):
            # subtract the mutated entry's contribution to land on the
            # pre-mutation expansion exactly.
            r_v = _value_at(previous_ids, previous_counts, v)
            if r_v:
                ids, counts = _add_at(ids, counts, u, -sign * r_v)
            if not directed:
                r_u = _value_at(previous_ids, previous_counts, u)
                if r_u:
                    ids, counts = _add_at(ids, counts, v, -sign * r_u)
            ids, counts = _drop_zeros(ids, counts)
            levels.append((ids, counts))
            previous_ids, previous_counts = ids, counts
        reverse[seed] = tuple(levels)

    forward, scatter_cost, touched = _journal_entries(
        forward, reverse, max_length, int(graph.num_nodes)
    )

    return EdgeScoreDelta(
        version=int(graph.version),
        u=u,
        v=v,
        sign=sign,
        directed=directed,
        max_length=int(max_length),
        reverse=reverse,
        forward=forward,
        touched=touched,
        scatter_cost=scatter_cost,
    )


def _undirected_edge_delta(
    graph, u: int, v: int, sign: float, max_length: int
) -> EdgeScoreDelta:
    """:func:`compute_edge_delta` specialized to undirected graphs.

    Undirected adjacency is symmetric, so *both* ingredient families
    live in the span of just two walk-count chains on the post-mutation
    graph — ``C^x_k = A_new^k e_x`` for the endpoints ``x ∈ {u, v}``:

    * the forward levels ARE chain prefixes
      (``forward[x][m] = C^x_m``);
    * the reverse recursion
      ``r_j = A_new·r_{j-1} − s·r_{j-1}[v]·e_u − s·r_{j-1}[u]·e_v``
      stays inside the span: multiplying a chain combination by
      ``A_new`` shifts its coefficients one level up, and the two
      correction terms are multiples of ``e_u = C^u_0`` / ``e_v =
      C^v_0``. Each reverse level is therefore an integer-coefficient
      combination of already-computed chain levels — materialized with a
      handful of O(n) scatter-adds instead of a graph push.

    That cuts the pushes per mutation from ten (4 forward + 6 reverse)
    to the six chain expansions, and the pushes it drops are the wide
    reverse ones. Exactness is untouched: coefficients and chain counts
    are exact integers in float64, so the combinations reproduce the
    recursion's walk counts bit for bit (the property/equivalence tests
    compare this path against the per-node reference recursion).
    """
    num_nodes = int(graph.num_nodes)
    chains: dict[int, list] = {}
    for seed in (u, v):
        ids = np.asarray([seed], dtype=np.int64)
        counts = np.asarray([1.0], dtype=np.float64)
        levels = [(ids, counts)]
        for _ in range(1, max_length):
            ids, counts = _expand_forward(graph, ids, counts)
            levels.append((ids, counts))
        chains[seed] = levels

    forward: dict[int, tuple] = {
        v: tuple(chains[v][: max_length - 1]),
        u: tuple(chains[u][: max_length - 1]),
    }

    reverse: dict[int, tuple] = {}
    for seed in (u, v):
        # coeffs[x][k] multiplies chain level C^x_k; r_0 = e_seed.
        coeffs = {x: [0.0] * max_length for x in (u, v)}
        coeffs[seed][0] = 1.0
        previous_u = 1.0 if seed == u else 0.0  # r_{j-1}[u]
        previous_v = 1.0 if seed == v else 0.0  # r_{j-1}[v]
        levels = []
        for _ in range(1, max_length):
            for x in (u, v):
                shifted = coeffs[x]
                shifted.insert(0, 0.0)  # multiply by A_new: level k -> k+1
                shifted.pop()
            coeffs[u][0] -= sign * previous_v
            coeffs[v][0] -= sign * previous_u
            accumulator = np.zeros(num_nodes, dtype=np.float64)
            for x in (u, v):
                chain = chains[x]
                for k, coefficient in enumerate(coeffs[x]):
                    if coefficient == 0.0:
                        continue
                    level_ids, level_counts = chain[k]
                    if level_ids is None:
                        accumulator += coefficient * level_counts
                    else:
                        # level ids are unique -> fancy add is exact.
                        accumulator[level_ids] += coefficient * level_counts
            previous_u = float(accumulator[u])
            previous_v = float(accumulator[v])
            support = np.nonzero(accumulator)[0]
            if support.size * _DENSIFY_FRACTION <= num_nodes:
                levels.append(
                    (support.astype(np.int64, copy=False), accumulator[support])
                )
            else:
                levels.append((None, accumulator))
        reverse[seed] = tuple(levels)

    forward, scatter_cost, touched = _journal_entries(
        forward, reverse, max_length, num_nodes
    )

    return EdgeScoreDelta(
        version=int(graph.version),
        u=u,
        v=v,
        sign=sign,
        directed=False,
        max_length=int(max_length),
        reverse=reverse,
        forward=forward,
        touched=touched,
        scatter_cost=scatter_cost,
    )


def _side_car(vector: UtilityVector, num_lengths: int):
    """A patchable vector's ``(ids, counts)`` walk side-car, or ``None``."""
    if vector.excluded is None:
        return None
    if num_lengths == 1:
        ids, values = vector.support()
        return ids, values[np.newaxis]
    car = vector.metadata.get(COMPONENTS_KEY)
    if car is None or car[1].shape[0] != num_lengths:
        return None
    return car


def _scatter(deltas: "list[EdgeScoreDelta]", target: int, num_lengths: int):
    """Every delta's updates to ``target``'s counts as flat
    ``(id * num_lengths + component, add)`` pairs, unmerged.

    Forward level ``m`` of a pair adds ``sign * r_j[target] * F_m`` to
    component ``k - 2 = j + m - 1`` for every ``j`` with a non-zero
    reverse weight. A delta journaled deeper than the side-car only
    scatters the levels feeding its lengths.
    """
    keys, adds = [], []
    for delta in deltas:
        length = min(delta.max_length, num_lengths + 1)
        for reverse_seed, forward_seed in delta.pairs():
            reverse_levels = delta.reverse[reverse_seed]
            weights = [_value_at(*reverse_levels[j - 1], target) for j in range(1, length)]
            if not any(weights):
                continue
            for m, (ids, counts) in enumerate(delta.forward[forward_seed][: length - 1]):
                if ids.size == 0:
                    continue
                for j, weight in enumerate(weights[: length - 1 - m], start=1):
                    if weight:
                        keys.append(ids * num_lengths + (j + m - 1))
                        adds.append(delta.sign * weight * counts)
    return keys, adds


def patch_utility_vector(
    vector: UtilityVector,
    deltas: "list[EdgeScoreDelta]",
    utility,
) -> "UtilityVector | None":
    """A new vector with ``deltas`` folded in, or ``None`` if unpatchable.

    Unpatchable means: the vector is dense or carries no side-car for
    the utility's lengths (filled by a cache that flushes, or put by
    hand), or some delta rewrites this target's candidate set
    (:meth:`EdgeScoreDelta.evicts`). The caller then falls back to
    eviction; this function never guesses.

    The merge (module docstring) skips excluded ids (their counts are
    never stored), inserts the ids new to the walk support (one
    ``np.unique`` over those alone), sums every update into the block
    with one ``bincount`` and deletes the columns that emptied. Unless
    no update reached a candidate, a fresh support-form
    :class:`UtilityVector` is returned — resident vectors are shared
    with callers of ``get()`` and must stay immutable. Values contract: the patched float64 row
    and its side-car are bit-identical to a fresh fill.
    """
    lengths = utility.walk_component_lengths()
    if lengths is None:
        return None
    num_lengths = len(lengths)
    car = _side_car(vector, num_lengths)
    if car is None or any(delta.evicts(vector.target) for delta in deltas):
        return None
    keys, adds = _scatter(deltas, vector.target, num_lengths)
    if not keys:
        return vector
    keys = np.concatenate(keys)
    node_ids = keys // num_lengths
    excluded = vector.excluded
    slots = np.minimum(np.searchsorted(excluded, node_ids), excluded.size - 1)
    keep = excluded[slots] != node_ids
    if not keep.any():
        return vector  # nothing reached a candidate: the row is unchanged
    keys, node_ids, adds = keys[keep], node_ids[keep], np.concatenate(adds)[keep]
    ids, counts = car
    positions = np.searchsorted(ids, node_ids)
    fresh = positions >= ids.size
    fresh[~fresh] = ids[positions[~fresh]] != node_ids[~fresh]
    if fresh.any():
        # Only ids new to the walk support are sorted; the rest are
        # located by binary search.
        joining = np.unique(node_ids[fresh])
        at = np.searchsorted(ids, joining)
        ids = np.insert(ids, at, joining)
        counts = np.insert(counts, at, 0.0, axis=1)
        positions = np.searchsorted(ids, node_ids)
    # One bincount sums every update per (component, column); integer
    # counts make the sum exact in any order.
    counts = counts + np.bincount(
        (keys % num_lengths) * ids.size + positions, weights=adds,
        minlength=counts.size,
    ).reshape(counts.shape)
    emptied = np.flatnonzero(~counts.any(axis=0))
    if emptied.size:
        ids = np.delete(ids, emptied)
        counts = np.delete(counts, emptied, axis=1)
    metadata = dict(vector.metadata)
    if num_lengths == 1:
        return vector.with_support(ids, counts[0], metadata)
    scores = utility.combine_component_rows(counts)
    positive = scores > 0
    metadata[COMPONENTS_KEY] = (ids, counts)
    return vector.with_support(ids[positive], scores[positive], metadata)
