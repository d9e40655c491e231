"""Power-law degree sequence generation.

Real social graphs (including the paper's Wikipedia vote and Twitter
datasets) exhibit heavy-tailed degree distributions; Section 5 leans on this
("a significant fraction of nodes in real-world graphs have small d_r due to
a power law degree distribution"). The dataset replicas sample degree
sequences from a discrete bounded Pareto and rescale them to hit a requested
total edge count.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ...errors import DatasetError
from ...rng import ensure_rng

#: Rows assembled per chunk by :func:`build_powerlaw_shared`. 2^16 rows at
#: the default mean degree keep the working set (row ids, candidate
#: columns, sort keys) in the tens of MB regardless of graph size.
DEFAULT_BUILD_CHUNK_NODES = 1 << 16


def bounded_pareto_degrees(
    num_nodes: int,
    exponent: float,
    d_min: int,
    d_max: int,
    seed: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Sample ``num_nodes`` degrees from a discrete bounded Pareto.

    Degrees are drawn with ``P(d) ~ d^{-exponent}`` on ``[d_min, d_max]``
    via inverse-transform sampling of the continuous bounded Pareto followed
    by flooring. ``exponent`` must exceed 1.
    """
    if num_nodes < 0:
        raise DatasetError(f"num_nodes must be non-negative, got {num_nodes}")
    if exponent <= 1.0:
        raise DatasetError(f"power-law exponent must be > 1, got {exponent}")
    if not 1 <= d_min <= d_max:
        raise DatasetError(f"need 1 <= d_min <= d_max, got [{d_min}, {d_max}]")
    rng = ensure_rng(seed)
    u = rng.random(num_nodes)
    a = exponent - 1.0
    low, high = float(d_min), float(d_max) + 1.0
    # Inverse CDF of bounded Pareto on [low, high).
    values = (low**-a - u * (low**-a - high**-a)) ** (-1.0 / a)
    return np.minimum(np.floor(values).astype(np.int64), d_max)


def bounded_pareto_mean(exponent: float, d_min: int, d_max: int) -> float:
    """Expected value of the continuous bounded Pareto on ``[d_min, d_max+1)``.

    Used by :func:`fit_exponent` to pick an exponent whose *raw* sample mean
    matches a dataset's average degree, so that rescaling to the published
    edge count is a small correction that preserves the degree-1 tail (real
    social graphs keep their median degree tiny even when the mean is large).
    """
    if exponent <= 1.0:
        raise DatasetError(f"power-law exponent must be > 1, got {exponent}")
    low, high = float(d_min), float(d_max) + 1.0
    a = exponent
    normalizer = (a - 1.0) / (low ** (1.0 - a) - high ** (1.0 - a))
    if abs(a - 2.0) < 1e-9:
        integral = np.log(high / low)
    else:
        integral = (high ** (2.0 - a) - low ** (2.0 - a)) / (2.0 - a)
    # The discrete (floored) variable is ~0.5 below the continuous mean.
    return float(normalizer * integral - 0.5)


def fit_exponent(target_mean: float, d_min: int, d_max: int) -> float:
    """Exponent whose bounded-Pareto mean on ``[d_min, d_max]`` is ``target_mean``.

    Binary search on the monotone-decreasing mean-vs-exponent curve. Raises
    :class:`DatasetError` when the target is unreachable (outside the means
    attainable at exponents in [1.01, 6]).
    """
    if not d_min <= target_mean <= d_max:
        raise DatasetError(
            f"target mean {target_mean:.2f} outside degree range [{d_min}, {d_max}]"
        )
    low_exp, high_exp = 1.01, 6.0
    mean_at_low = bounded_pareto_mean(low_exp, d_min, d_max)
    mean_at_high = bounded_pareto_mean(high_exp, d_min, d_max)
    if not mean_at_high <= target_mean <= mean_at_low:
        raise DatasetError(
            f"target mean {target_mean:.2f} unreachable: exponent range gives "
            f"[{mean_at_high:.2f}, {mean_at_low:.2f}]"
        )
    for _ in range(80):
        mid = 0.5 * (low_exp + high_exp)
        if bounded_pareto_mean(mid, d_min, d_max) > target_mean:
            low_exp = mid
        else:
            high_exp = mid
    return 0.5 * (low_exp + high_exp)


def scale_to_edge_total(
    degrees: np.ndarray,
    target_total: int,
    d_min: int = 1,
    d_max: int | None = None,
    seed: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Rescale a degree sequence so it sums to exactly ``target_total``.

    Degrees are multiplied by ``target_total / sum(degrees)``, floored, and
    the leftover stubs distributed one at a time to random nodes (respecting
    ``d_max``). Keeps the distribution shape while matching a dataset's
    published edge count.

    The one-at-a-time distribution visits the nodes of one random
    permutation cyclically, stepping each visited node that still has
    room toward the total; a node with room for ``r`` steps takes one in
    each of its first ``r`` passes. The passes are counted in array form
    rather than visited one stub at a time. More than ``50 * len(degrees)
    + 1000`` visits raise :class:`DatasetError`.
    """
    degrees = np.asarray(degrees, dtype=np.int64).copy()
    if degrees.size == 0:
        if target_total != 0:
            raise DatasetError("cannot distribute stubs over an empty sequence")
        return degrees
    if target_total < 0:
        raise DatasetError(f"target_total must be non-negative, got {target_total}")
    current = int(degrees.sum())
    if current == 0:
        degrees[:] = d_min
        current = int(degrees.sum())
    scaled = np.maximum(d_min, np.floor(degrees * (target_total / current)).astype(np.int64))
    if d_max is not None:
        scaled = np.minimum(scaled, d_max)
    rng = ensure_rng(seed)
    deficit = target_total - int(scaled.sum())
    order = rng.permutation(scaled.size)
    if deficit == 0:
        return scaled
    step = 1 if deficit > 0 else -1
    if step < 0:
        room = scaled - d_min
    elif d_max is None:
        room = np.full(scaled.size, abs(deficit), dtype=np.int64)
    else:
        room = d_max - scaled
    room = np.maximum(room[order], 0)  # in visit order
    visits = 50 * scaled.size + 1000
    needed = abs(deficit)
    passes = 0
    while True:
        if passes * scaled.size >= visits:
            raise DatasetError("could not match target edge total within degree caps")
        open_slots = np.flatnonzero(room > passes)
        if open_slots.size >= needed:
            break
        needed -= open_slots.size
        passes += 1
    if passes * scaled.size + int(open_slots[needed - 1]) >= visits:
        raise DatasetError("could not match target edge total within degree caps")
    steps = np.minimum(room, passes)
    steps[open_slots[:needed]] += 1
    scaled[order] += step * steps
    return scaled


def _fill_distinct_neighbors(
    rows: np.ndarray,
    num_nodes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample one distinct non-self column per stub, sorted within rows.

    ``rows`` holds one entry per stub (row ids repeated by degree,
    ascending). Columns are drawn uniformly, then self-loops and within-row
    duplicates are redrawn until none remain — with degrees capped at
    ``sqrt(n)`` collisions are rare, so the loop converges in a couple of
    vectorized passes. Returns the columns sorted by ``(row, col)``, ready
    to write into a CSR ``indices`` slice.
    """
    total = rows.size
    cols = rng.integers(0, num_nodes, size=total, dtype=np.int64)
    for _ in range(200):
        keys = rows * num_nodes + cols
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        duplicate = np.zeros(total, dtype=bool)
        duplicate[order[1:]] = sorted_keys[1:] == sorted_keys[:-1]
        bad = duplicate | (cols == rows)
        count = int(bad.sum())
        if count == 0:
            return cols[order]
        cols[bad] = rng.integers(0, num_nodes, size=count, dtype=np.int64)
    raise DatasetError(
        "could not sample distinct neighbors within the retry budget; "
        "degree cap too close to num_nodes"
    )


def build_powerlaw_shared(
    num_nodes: int,
    exponent: float,
    d_min: int = 1,
    d_max: "int | None" = None,
    seed: "int | np.random.Generator | None" = None,
    backing: str = "shm",
    path: "str | os.PathLike[str] | None" = None,
    chunk_nodes: int = DEFAULT_BUILD_CHUNK_NODES,
):
    """Assemble a directed power-law graph straight into a shared CSR.

    The out-of-core synthetic path for graphs too large for per-node
    Python sets (10^5 nodes and up): degrees come from
    :func:`bounded_pareto_degrees`, the CSR ``indptr`` is one cumulative
    sum, and neighbor lists are sampled and written *chunk by chunk*
    directly into the shared (or memory-mapped) segment — no Python edge
    sets, no all-edges temporary; peak heap overhead is
    O(``chunk_nodes`` x mean degree) regardless of graph size.

    Out-neighbors are distinct, non-self, and sorted within each row, so
    the resulting :class:`~repro.graphs.shared.SharedSocialGraph` is a
    simple directed graph whose adjacency matches what
    :meth:`~repro.graphs.graph.SocialGraph.adjacency_matrix` would build
    in heap. ``d_max`` defaults to ``max(d_min, round(sqrt(num_nodes)))``
    — the heavy tail of the paper's Section 5 argument, kept far enough
    from ``num_nodes`` that distinct-neighbor sampling stays cheap.
    ``backing="mmap"`` (with an optional ``path``) builds on disk.

    Determinism: the same ``(num_nodes, exponent, d_min, d_max, seed,
    chunk_nodes)`` always yields the same graph. ``chunk_nodes`` is part
    of that identity — neighbor draws are consumed per chunk — while the
    degree sequence is drawn up front and is chunk-invariant.
    """
    from ..shared import SharedCSR, SharedSocialGraph

    if num_nodes < 2:
        raise DatasetError(
            f"a power-law graph needs at least 2 nodes, got {num_nodes}"
        )
    if chunk_nodes < 1:
        raise DatasetError(f"chunk_nodes must be >= 1, got {chunk_nodes}")
    if d_max is None:
        d_max = max(d_min, int(round(math.sqrt(num_nodes))))
    d_max = min(d_max, num_nodes - 1)
    if d_min > d_max:
        raise DatasetError(
            f"need d_min <= d_max after capping at num_nodes - 1, got "
            f"[{d_min}, {d_max}]"
        )
    rng = ensure_rng(seed)
    degrees = bounded_pareto_degrees(num_nodes, exponent, d_min, d_max, seed=rng)
    nnz = int(degrees.sum())

    store = SharedCSR.allocate(num_nodes, nnz, directed=True,
                               backing=backing, path=path)
    try:
        store.indptr[0] = 0
        np.cumsum(degrees, out=store.indptr[1:])
        store.degrees[:] = degrees
        for lo in range(0, num_nodes, chunk_nodes):
            hi = min(lo + chunk_nodes, num_nodes)
            chunk_degrees = degrees[lo:hi]
            rows = np.repeat(np.arange(lo, hi, dtype=np.int64), chunk_degrees)
            if rows.size == 0:
                continue
            start, stop = int(store.indptr[lo]), int(store.indptr[hi])
            store.indices[start:stop] = _fill_distinct_neighbors(
                rows, num_nodes, rng
            )
            store.data[start:stop] = 1.0
        store.seal(version=nnz, num_edges=nnz)
    except BaseException:
        store.close()
        store.unlink()
        raise
    return SharedSocialGraph(store)
