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

Endpoint rows (directed ``t == u``; undirected ``t ∈ {u, v}``) change
their candidate set and/or target degree, so they are *not* patchable —
:meth:`EdgeScoreDelta.evicts` reports them and the cache evicts and
recomputes exactly those rows.

Cost model: applying one delta to one row scatters at most
:attr:`EdgeScoreDelta.scatter_cost` values (forward-level sizes weighted
by how many components reuse each level). The cache compares the summed
scatter cost against ``crossover x num_candidates`` — the dense-row cost
a recompute would pay — and evicts past the crossover instead of
patching (:data:`repro.serving.cache.PATCH_CROSSOVER`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GraphError
from ..utility.base import UtilityVector

#: Metadata key carrying a vector's per-length integer walk components
#: (``(num_lengths, num_candidates)`` float64). Written by the
#: component-aware fill path (:func:`repro.compute.kernels.utility_vectors`
#: with ``with_components=True``), consumed by :func:`patch_utility_vector`.
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
    is the row ``(A_new^m)[seed, :]``, ``m = 0..max_length-2``). A level
    is an ascending sparse ``(ids, counts)`` pair, or — once its support
    covers a sizable fraction of the graph — ``(None, dense_counts)``
    with a full length-``n`` float64 vector. ``touched`` is the sorted
    union of every reverse level's support — the exact set of rows this
    delta can change. Applying the delta to a target's component rows is
    then a pure scatter — no graph access at patch time.
    """

    version: int
    u: int
    v: int
    sign: float
    directed: bool
    max_length: int
    reverse: "dict[int, tuple[tuple[np.ndarray, np.ndarray], ...]]"
    forward: "dict[int, tuple[tuple[np.ndarray, np.ndarray], ...]]"
    touched: np.ndarray
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
        term is multiplied by. A false result makes :func:`apply_edge_delta`
        a guaranteed no-op, so callers skip the delta (and its
        :attr:`scatter_cost`) in the patch-vs-evict estimate.
        """
        target = int(target)
        position = int(np.searchsorted(self.touched, target))
        return position < self.touched.size and int(self.touched[position]) == target


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

    # Forward level m feeds components k = j + m + 1 for j = 1..L-1-m:
    # it can be scattered up to (L - 1 - m) times per orientation.
    scatter_cost = 0
    for levels in forward.values():
        for m, (ids, level_counts) in enumerate(levels):
            support = np.count_nonzero(level_counts) if ids is None else ids.size
            scatter_cost += (max_length - 1 - m) * int(support)

    # Sorted union of the reverse supports via one O(n) flag pass — the
    # level ids are already sorted, and a flag scatter beats sorting the
    # concatenation (np.unique) on every mutation.
    touched_flags = np.zeros(int(graph.num_nodes), dtype=bool)
    for levels in reverse.values():
        for ids, level_counts in levels:
            if ids is None:
                touched_flags |= level_counts != 0.0
            else:
                touched_flags[ids] = True
    touched = np.nonzero(touched_flags)[0].astype(np.int64, copy=False)

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

    scatter_cost = 0
    for levels in forward.values():
        for m, (ids, level_counts) in enumerate(levels):
            support = np.count_nonzero(level_counts) if ids is None else ids.size
            scatter_cost += (max_length - 1 - m) * int(support)

    touched_flags = np.zeros(num_nodes, dtype=bool)
    for levels in reverse.values():
        for ids, level_counts in levels:
            if ids is None:
                touched_flags |= level_counts != 0.0
            else:
                touched_flags[ids] = True
    touched = np.nonzero(touched_flags)[0].astype(np.int64, copy=False)

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


def apply_edge_delta(
    delta: EdgeScoreDelta,
    target: int,
    candidates: np.ndarray,
    components: np.ndarray,
    position_map: np.ndarray,
) -> bool:
    """Scatter one delta into a target's component rows, in place.

    ``components`` is the ``(num_lengths, num_candidates)`` float64 block
    of exact walk counts for contiguous lengths starting at 2 (matching
    :meth:`~repro.utility.base.UtilityFunction.walk_component_lengths`);
    ``candidates`` is the row's ascending candidate id array. A delta
    journaled deeper than the block is fine — only the levels feeding
    lengths ``<= components.shape[0] + 1`` are scattered; a delta
    journaled *shallower* cannot patch the block and the caller must not
    get here (:meth:`DirtyNodeTracker.deltas_since` filters those out).
    Columns outside the candidate set (the target itself, its
    out-neighbors) are skipped — their counts are never stored. Returns
    whether anything changed. Must not be called for a target
    :meth:`~EdgeScoreDelta.evicts`. ``position_map`` is the row's
    node-id -> candidate-column array (``-1`` for non-candidates, from
    :func:`candidate_position_map`); callers folding several deltas into
    one row build it once and amortize it.
    """
    target = int(target)
    changed = False
    length = min(delta.max_length, components.shape[0] + 1)
    sign = delta.sign
    for reverse_seed, forward_seed in delta.pairs():
        reverse_levels = delta.reverse[reverse_seed]
        # Reverse weights r_j[target], j = 1..length-1, up front: a pair
        # whose weights all vanish is skipped wholesale, and forward
        # level m is gathered ONCE and reused for every j it feeds
        # (it scatters into component rows j+m-1 for j <= length-1-m).
        weights = [_value_at(*reverse_levels[j - 1], target) for j in range(1, length)]
        if not any(weights):
            continue
        forward_levels = delta.forward[forward_seed]
        for m in range(0, length - 1):
            active = [
                (j, weight)
                for j, weight in enumerate(weights, start=1)
                if weight and m < length - j
            ]
            if not active:
                continue
            ids, counts = forward_levels[m]
            if ids is None:
                # Dense level: one full-width gather-and-add. Columns
                # outside the support add exact zeros — harmless.
                row_add = counts[candidates]
                if not row_add.any():
                    continue
                for j, weight in active:
                    components[j + m - 1] += sign * weight * row_add
                changed = True
                continue
            if ids.size == 0:
                continue
            mapped = position_map[ids]
            valid = mapped >= 0
            columns = mapped[valid]
            if not valid.any():
                continue
            level_add = counts[valid]
            # Component index for walk length k = j + m + 1; lengths
            # start at 2, so the row is k - 2. ids are unique, so the
            # fancy add is exact without add.at.
            for j, weight in active:
                components[j + m - 1, columns] += sign * weight * level_add
            changed = True
    return changed


def candidate_position_map(candidates: np.ndarray, num_nodes: int) -> np.ndarray:
    """Dense node-id -> candidate-column map (``-1`` for non-candidates)."""
    position_map = np.full(int(num_nodes), -1, dtype=np.int64)
    position_map[candidates] = np.arange(candidates.size, dtype=np.int64)
    return position_map


def patch_utility_vector(
    vector: UtilityVector,
    deltas: "list[EdgeScoreDelta]",
    utility,
    num_nodes: int,
) -> "UtilityVector | None":
    """A new vector with ``deltas`` folded in, or ``None`` if unpatchable.

    Unpatchable means: the vector carries no component side-car (filled
    by a cache that flushes, or put by hand), its component block does
    not match the utility's declared lengths, or some delta rewrites this
    target's candidate set (:meth:`EdgeScoreDelta.evicts`). The caller
    then falls back to eviction; this function never guesses.

    ``num_nodes`` sizes the row's node-id -> column scatter map, built
    once and shared by every delta. Unless nothing changed, a fresh
    :class:`UtilityVector` is returned — resident vectors are shared with
    callers of ``get()`` and must stay immutable. Values contract: the
    patched float64 row is bit-identical to a full recompute.
    """
    lengths = utility.walk_component_lengths()
    if lengths is None:
        return None
    components = vector.metadata.get(COMPONENTS_KEY)
    if components is None or components.shape != (len(lengths), vector.candidates.size):
        return None
    if any(delta.evicts(vector.target) for delta in deltas):
        return None
    components = components.copy()
    position_map = candidate_position_map(vector.candidates, num_nodes)
    changed = False
    for delta in deltas:
        changed |= apply_edge_delta(
            delta, vector.target, vector.candidates, components, position_map
        )
    if not changed:
        return vector
    values = utility.combine_component_rows(components)
    metadata = dict(vector.metadata)
    metadata[COMPONENTS_KEY] = components
    return UtilityVector(
        target=vector.target,
        candidates=vector.candidates,
        values=values,
        target_degree=vector.target_degree,
        metadata=metadata,
    )
