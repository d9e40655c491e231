"""The canonical batched utility kernels.

One home for the stage every batched consumer shares — a utility's
sparse score rows, each target's excluded ids (itself and its links),
and the positive supports :func:`~repro.utility.base.support_rows`
builds from the two — so serving, the experiment engine and the
parameter sweeps read utilities the same way and raise the same
:class:`~repro.errors.UtilityError` on a bad score.

Two extraction flavors exist because the consumers genuinely differ:

* :func:`utility_vectors` — *unfiltered*: one float64 vector per target
  over its full candidate set, zero-signal targets included. The serving
  layer needs this (a user with no utility signal still gets an answer —
  or a well-defined error — from the mechanism). Its rows are
  support-form (a patching cache's carry a sparse walk-count side-car);
  the serving sampler
  (:meth:`~repro.mechanisms.exponential.ExponentialMechanism.recommend_vectors`)
  consumes them in O(support) per request, by inverse CDF from two
  uniforms per request.
* :func:`footnote10_support` — *filtered*: the paper's footnote-10 drop
  (at least two candidates, positive maximum utility) over flat support
  rows, plus each kept row's zero-bucket size. The experiment engine and
  the gamma sweep feed it to the flat accuracy and Corollary 1 kernels,
  so no stage holds a ``rows x num_nodes`` block.

The graph may be a frozen :class:`~repro.graphs.shared.SharedSocialGraph`
whose adjacency arrays are *read-only zero-copy views* into a shared
segment, so every stage here writes only into arrays it allocated
(mutating a shared view raises ``ValueError: assignment destination is
read-only`` by design).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..errors import UtilityError
from ..graphs.graph import SocialGraph
from ..utility.base import UtilityFunction, UtilityVector, support_rows
from .incremental import COMPONENTS_KEY


def checked_targets(
    graph: SocialGraph, targets: "np.ndarray | list[int]"
) -> np.ndarray:
    """``targets`` as an int64 array, each a node id of ``graph``.

    The one range check of every batched entry point: NumPy would
    otherwise read a negative id as a node counted from the end, and an
    id past the end fails as a builtin ``IndexError`` deep in a kernel.
    Raises :class:`~repro.errors.UtilityError`, like the per-target
    ``utility.utility_vector``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size and (targets.min() < 0 or targets.max() >= graph.num_nodes):
        raise UtilityError(
            f"targets out of range for graph of size {graph.num_nodes}"
        )
    return targets


def excluded_rows(
    graph: SocialGraph, targets: np.ndarray, links: "sparse.csr_matrix | None" = None
) -> sparse.csr_matrix:
    """Each target's excluded ids — itself and its links — as CSR rows.

    Row ``j``'s pattern is the complement of ``targets[j]``'s candidate
    set (:func:`~repro.utility.base.candidate_nodes`), in canonical form,
    so ``num_nodes - np.diff(indptr)`` counts each row's candidates; the
    form :func:`~repro.utility.base.support_rows` takes. O(degree) per
    row. ``links``, when the caller already read them, are the targets'
    ``graph.adjacency_rows``.
    """
    if links is None:
        links = graph.adjacency_rows(targets)
    own = sparse.csr_matrix(
        (np.ones(targets.size), targets, np.arange(targets.size + 1)), shape=links.shape
    )
    excluded = links + own
    excluded.sum_duplicates()
    return excluded


def footnote10_support(
    values: np.ndarray, offsets: np.ndarray, num_candidates: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """The paper's footnote-10 filter over flat support rows.

    ``values``/``offsets`` are :func:`~repro.utility.base.support_rows`'
    positive supports and ``num_candidates`` each row's candidate count.
    A row is kept when it has at least two candidates and a non-empty
    positive support — exactly the rows whose per-target
    ``utility_vector`` has ``len >= 2`` and ``has_signal()``. Returns
    ``(kept, values, offsets, zeros)``: the kept row indices, their
    supports compacted (same values, same order) and each kept row's
    zero-bucket size ``num_candidates - support``.
    """
    counts = np.diff(offsets)
    keep = (num_candidates >= 2) & (counts > 0)
    kept = np.flatnonzero(keep)
    if kept.size < counts.size:
        values = values[np.repeat(keep, counts)]
        counts = counts[kept]
        offsets = np.zeros(kept.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
    return kept, values, offsets, num_candidates[kept] - counts


def utility_vectors(
    graph: SocialGraph,
    utility: UtilityFunction,
    targets: "np.ndarray | list[int]",
    with_components: bool = False,
) -> "list[UtilityVector]":
    """One float64 support-form :class:`UtilityVector` per target, unfiltered.

    Every target yields a vector over its full candidate set — including
    targets the footnote-10 filter would drop — whose dense view equals
    what the per-target reference ``utility.utility_vector`` builds. The
    vectors are built in one pass from the utility's sparse score rows
    (:meth:`~repro.utility.base.UtilityFunction.support_scores` — for
    common neighbors the ``A[targets] @ A`` product itself, so no
    ``(len(targets), num_nodes)`` block is allocated), hold *owned*
    arrays (the serving cache keeps them) and cost O(support + degree)
    bytes each.

    ``with_components=True`` makes every vector patchable by
    :func:`repro.compute.incremental.patch_utility_vector` when the
    utility declares
    :meth:`~repro.utility.base.UtilityFunction.walk_component_lengths`:
    the scores are recombined from the utility's sparse
    :meth:`~repro.utility.base.UtilityFunction.walk_rows` — the same
    float64 accumulation as the reference, so the values are
    bit-identical with the flag on or off — and a vector over more than
    one length carries ``metadata[COMPONENTS_KEY] = (ids, counts)``: its
    walk support (every candidate with a non-zero count of some length)
    and the ``(num_lengths, len(ids))`` block of exact counts there. A
    single-length utility's row is its own side-car. Each target's CSR
    row is read once, for both the walks and the excluded ids.
    """
    targets = checked_targets(graph, targets)
    degrees = graph.out_degrees_of(targets)
    metadata = {"utility": utility.name}
    if not with_components or utility.walk_component_lengths() is None:
        return UtilityVector.from_support_rows(
            targets,
            utility.support_scores(graph, targets),
            excluded_rows(graph, targets),
            degrees,
            metadata,
        )
    links = graph.adjacency_rows(targets)
    excluded = excluded_rows(graph, targets, links)
    walks = utility.walk_rows(graph, links)
    if len(walks) == 1:
        return UtilityVector.from_support_rows(targets, walks[0], excluded, degrees, metadata)
    # Walk support: the positive entries of the summed (non-negative)
    # counts outside the excluded ids; then every length's count there.
    walk_ids, _, offsets = support_rows(sum(walks[1:], walks[0]), excluded)
    num_nodes = graph.num_nodes
    row_starts = np.arange(targets.size, dtype=np.int64) * num_nodes
    queries = np.repeat(row_starts, np.diff(offsets)) + walk_ids
    counts = np.zeros((len(walks), walk_ids.size), dtype=np.float64)
    for length, walk in enumerate(walks):
        walk.sum_duplicates()
        keys = np.repeat(row_starts, np.diff(walk.indptr)) + walk.indices
        if keys.size:
            slots = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
            found = keys[slots] == queries
            counts[length, found] = walk.data[slots[found]]
    scores = sparse.csr_matrix(
        (utility.combine_component_rows(counts), walk_ids, offsets),
        shape=(targets.size, num_nodes),
    )
    vectors = UtilityVector.from_support_rows(targets, scores, excluded, degrees, metadata)
    for vector, low, high in zip(vectors, offsets[:-1].tolist(), offsets[1:].tolist()):
        vector.metadata[COMPONENTS_KEY] = (walk_ids[low:high].copy(), counts[:, low:high].copy())
    return vectors
