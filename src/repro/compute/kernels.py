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
  support-form by default; the serving sampler
  (:meth:`~repro.mechanisms.exponential.ExponentialMechanism.recommend_vectors`)
  consumes them in O(support) per request.
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
from ..utility.base import UtilityFunction, UtilityVector, candidate_mask
from .incremental import COMPONENTS_KEY
from .plan import ComputePlan
from .workspace import Workspace


def candidate_mask_rows(
    graph: SocialGraph,
    targets: np.ndarray,
    workspace: "Workspace | None" = None,
) -> np.ndarray:
    """Dense candidate mask rows for one chunk of targets (the component fill's)."""
    targets = np.asarray(targets, dtype=np.int64)
    if workspace is None:
        return candidate_mask(graph, targets)
    shape = (targets.size, graph.num_nodes)
    return candidate_mask(
        graph, targets, out=workspace.take("kernel.mask", shape, np.bool_)
    )


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


def excluded_rows(graph: SocialGraph, targets: np.ndarray) -> sparse.csr_matrix:
    """Each target's excluded ids — itself and its links — as CSR rows.

    Row ``j``'s pattern is the complement of ``targets[j]``'s candidate
    set (:func:`~repro.utility.base.candidate_nodes`), in canonical form,
    so ``num_nodes - np.diff(indptr)`` counts each row's candidates; the
    form :func:`~repro.utility.base.support_rows` takes. O(degree) per
    row.
    """
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
    workspace: "Workspace | None" = None,
    with_components: bool = False,
) -> "list[UtilityVector]":
    """One float64 :class:`UtilityVector` per target, unfiltered (serving flavor).

    Every target yields a vector over its full candidate set — including
    targets the footnote-10 filter would drop — whose ``candidates`` and
    ``values`` equal what the per-target reference
    ``utility.utility_vector`` builds. The vectors hold *owned* arrays
    (they outlive the call — the serving cache keeps them).

    By default the vectors are support-form
    (:meth:`~repro.utility.base.UtilityVector.from_support_rows`), built
    in one pass from the utility's sparse score rows
    (:meth:`~repro.utility.base.UtilityFunction.support_scores` — for
    common neighbors the ``A[targets] @ A`` product itself, so no
    ``(len(targets), num_nodes)`` block is allocated), and each row costs
    O(support + degree) bytes.

    ``with_components=True`` instead builds dense vectors that carry
    their exact per-length walk-count slice as
    ``metadata["walk_components"]`` (the side-car
    :func:`repro.compute.incremental.patch_utility_vector` consumes), for
    utilities that declare
    :meth:`~repro.utility.base.UtilityFunction.walk_component_lengths`.
    Scores are then derived from those very components via the utility's
    ``combine_component_matrices`` — the same float64 accumulation as the
    support path, so the values are bit-identical with the flag on or
    off. This fill allocates dense component, score and mask blocks, so
    it runs in :class:`~repro.compute.plan.ComputePlan` chunks (the score
    and mask blocks ride the ``workspace``). Utilities without components
    fall back to the support path.
    """
    targets = checked_targets(graph, targets)
    degrees = graph.out_degrees_of(targets)
    if not (with_components and utility.walk_component_lengths() is not None):
        return UtilityVector.from_support_rows(
            targets,
            utility.support_scores(graph, targets),
            excluded_rows(graph, targets),
            degrees,
            {"utility": utility.name},
        )
    vectors = []
    for chunk in ComputePlan(int(targets.size), graph.num_nodes):
        rows = chunk.take(targets)
        components = utility.batch_score_components(graph, rows)
        shape = (rows.size, graph.num_nodes)
        scores = utility.combine_component_matrices(
            components, rows,
            out=None if workspace is None else workspace.take("kernel.scores64", shape, np.float64),
        )
        mask = candidate_mask_rows(graph, rows, workspace=workspace)
        for row in range(rows.size):
            candidates = np.flatnonzero(mask[row]).astype(np.int64, copy=False)
            vectors.append(
                UtilityVector(
                    target=int(rows[row]),
                    candidates=candidates,
                    values=scores[row].take(candidates),
                    target_degree=int(degrees[chunk.start + row]),
                    metadata={
                        "utility": utility.name,
                        COMPONENTS_KEY: np.stack(
                            [component[row].take(candidates) for component in components]
                        ),
                    },
                )
            )
    return vectors
