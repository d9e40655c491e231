"""The canonical batched utility/mechanism kernels.

Before this module existed, three call sites each re-implemented the same
pipeline — ``utility.batch_scores`` rows, a ``candidate_mask``, and a
per-row extraction into :class:`~repro.utility.base.UtilityVector` /
:class:`~repro.mechanisms.exponential.CompactRows` form: the serving hot
path, the batched experiment engine, and the parameter sweeps. This is
now the single home of that stage; all three consumers call it (per
:class:`~repro.compute.plan.ComputePlan` chunk) and none of them touches
dense ``(targets, n)`` matrices wider than one chunk.

Two extraction flavors exist because the consumers genuinely differ:

* :func:`utility_vectors` — *unfiltered*: one vector per target over its
  full candidate set, zero-signal targets included. The serving layer
  needs this (a user with no utility signal still gets an answer — or a
  well-defined error — from the mechanism). Its rows are support-form by
  default, built from sparse score rows; the serving sampler
  (:meth:`~repro.mechanisms.exponential.ExponentialMechanism.recommend_vectors`)
  consumes them in O(support) per request.
* :func:`fused_compact_rows` — *filtered*: the paper's footnote-10 drop
  (at least two candidates, positive maximum utility) plus the compact
  row-major form the exact accuracy kernels consume, as a handful of
  vectorized flat-array passes writing into
  :class:`~repro.compute.workspace.Workspace` buffers. The experiment
  engine and the gamma sweep need this; it is the only producer of
  :class:`~repro.mechanisms.exponential.CompactRows`.

Every stage accepts the plan's compute dtype; float64 is bit-exact
against the sequential evaluator, float32 is the documented-tolerance
half-memory path (DESIGN.md, "memory dataflow").
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..errors import UtilityError
from ..graphs.graph import SocialGraph
from ..mechanisms.exponential import CompactRows
from ..utility.base import UtilityFunction, UtilityVector, candidate_mask
from .incremental import COMPONENTS_KEY
from .plan import resolve_dtype
from .workspace import Workspace


def score_rows(
    graph: SocialGraph,
    utility: UtilityFunction,
    targets: np.ndarray,
    dtype=None,
    workspace: "Workspace | None" = None,
) -> np.ndarray:
    """Dense score rows for one chunk of targets: the engine's entry stage.

    ``scores[j]`` holds ``utility``'s raw score of every node for
    ``targets[j]`` (:func:`candidate_mask_rows` marks the eligible
    columns). Both blocks are ``(len(targets), num_nodes)`` — the widest
    dense blocks the compute layer makes, which is what a
    :class:`ComputePlan` bounds.

    ``dtype`` selects the compute dtype of the returned scores (see
    :func:`repro.compute.plan.resolve_dtype`); scores are always
    *computed* in float64 by the utility and rounded once here, so a
    float32 pipeline has exactly one well-defined rounding point.
    ``workspace`` makes the blocks reusable-buffer views (valid until the
    next chunk) instead of fresh allocations.

    The graph may be a frozen
    :class:`~repro.graphs.shared.SharedSocialGraph` whose adjacency
    arrays are *read-only zero-copy views* into a shared segment. Every
    stage here therefore treats graph-derived arrays as immutable inputs
    and writes only into its own workspace/output buffers — mutating a
    shared view raises ``ValueError: assignment destination is
    read-only`` by design, not as an accident of backing.
    """
    targets = np.asarray(targets, dtype=np.int64)
    return _rounded_block(
        lambda out: utility.batch_scores(graph, targets, out=out),
        (targets.size, graph.num_nodes), dtype, workspace,
    )


def _rounded_block(fill, shape, dtype, workspace: "Workspace | None") -> np.ndarray:
    """``fill(out)``'s float64 rows, rounded once to the compute ``dtype``."""
    dtype = resolve_dtype(dtype)
    if workspace is None:
        return fill(None).astype(dtype, copy=False)
    scores64 = workspace.take("kernel.scores64", shape, np.float64)
    fill(scores64)
    if dtype == np.float64:
        return scores64
    scores = workspace.take("kernel.scores32", shape, dtype)
    np.copyto(scores, scores64)
    return scores


def candidate_mask_rows(
    graph: SocialGraph,
    targets: np.ndarray,
    workspace: "Workspace | None" = None,
) -> np.ndarray:
    """Candidate mask rows for one chunk of targets (see :func:`score_rows`)."""
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


def utility_vectors(
    graph: SocialGraph,
    utility: UtilityFunction,
    targets: "np.ndarray | list[int]",
    dtype=None,
    workspace: "Workspace | None" = None,
    with_components: bool = False,
) -> "list[UtilityVector]":
    """One :class:`UtilityVector` per target, unfiltered (serving flavor).

    Every target yields a vector over its full candidate set — including
    targets the footnote-10 filter would drop — whose ``candidates`` and
    ``values`` equal what the per-target reference
    ``utility.utility_vector`` builds, at the compute ``dtype``. The
    vectors hold *owned* arrays (they outlive the chunk — the serving
    cache keeps them).

    By default the vectors are support-form
    (:meth:`~repro.utility.base.UtilityVector.from_support_rows`), built
    from the utility's sparse score rows
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
    ``combine_component_matrices`` — the same float64 accumulation with
    the same single end rounding as the support path, so the values are
    bit-identical with the flag on or off; the dense score/mask blocks
    ride the ``workspace``. Utilities without components fall back to the
    support path.
    """
    targets = checked_targets(graph, targets)
    dtype = resolve_dtype(dtype)
    degrees = graph.out_degrees_of(targets)
    if not (with_components and utility.walk_component_lengths() is not None):
        links = graph.adjacency_rows(targets)
        own = sparse.csr_matrix(
            (np.ones(targets.size), (np.arange(targets.size), targets)), shape=links.shape
        )
        return UtilityVector.from_support_rows(
            targets,
            utility.support_scores(graph, targets).astype(dtype, copy=False),
            links + own,
            degrees,
            {"utility": utility.name},
        )
    components = utility.batch_score_components(graph, targets)
    scores = _rounded_block(
        lambda out: utility.combine_component_matrices(components, targets, out=out),
        (targets.size, graph.num_nodes), dtype, workspace,
    )
    mask = candidate_mask_rows(graph, targets, workspace=workspace)
    vectors = []
    for row in range(targets.size):
        candidates = np.flatnonzero(mask[row]).astype(np.int64, copy=False)
        vectors.append(
            UtilityVector(
                target=int(targets[row]),
                candidates=candidates,
                values=scores[row].take(candidates),
                target_degree=int(degrees[row]),
                metadata={
                    "utility": utility.name,
                    COMPONENTS_KEY: np.stack(
                        [component[row].take(candidates) for component in components]
                    ),
                },
            )
        )
    return vectors


class CompactChunk:
    """Output of :func:`fused_compact_rows` — one chunk's kept candidates.

    All big arrays (``compact.flat`` / ``compact.scaled`` / the lazily
    computed candidate columns) may be workspace views: valid until the
    next chunk takes their keys, never to be stored beyond the chunk.
    ``kept``, ``compact.counts``/``offsets`` and ``compact.u_maxes`` are
    small owned arrays.

    Candidate node ids are *lazy*: the exponential fast path and the
    closed-form ``t`` formulas never look at them, so the id extraction
    (a second ``flatnonzero`` over the mask) only runs when a consumer
    (Laplace, a generic mechanism, a per-vector ``t``) first asks.
    """

    __slots__ = ("compact", "kept", "_mask", "_cols")

    def __init__(
        self,
        compact: CompactRows,
        kept: np.ndarray,
        mask: "np.ndarray | None",
    ) -> None:
        self.compact = compact    #: flat candidate values + row geometry
        self.kept = kept          #: surviving row indices into the chunk
        self._mask = mask
        self._cols: "np.ndarray | None" = None

    @property
    def candidate_cols(self) -> np.ndarray:
        """Candidate node ids of every kept row, rows concatenated."""
        if self._cols is None:
            if self._mask is None:
                self._cols = np.empty(0, dtype=np.int64)
            else:
                num_nodes = self._mask.shape[1]
                if self.kept.size == self._mask.shape[0]:
                    flat_idx = np.flatnonzero(self._mask)
                else:
                    flat_idx = np.flatnonzero(self._mask[self.kept])
                # Column id = flat index modulo the (kept-)row width.
                self._cols = np.remainder(flat_idx, num_nodes, out=flat_idx)
        return self._cols

    def candidate_row(self, row: int) -> np.ndarray:
        """Candidate node ids of kept row ``row`` (chunk-local view)."""
        offsets = self.compact.offsets
        return self.candidate_cols[offsets[row]:offsets[row + 1]]

    def value_row(self, row: int) -> np.ndarray:
        """Candidate utilities of kept row ``row`` (chunk-local view)."""
        offsets = self.compact.offsets
        return self.compact.flat[offsets[row]:offsets[row + 1]]

    def materialize_vectors(
        self,
        utility: UtilityFunction,
        targets: np.ndarray,
        degrees: np.ndarray,
    ) -> "list[UtilityVector]":
        """One :class:`UtilityVector` per kept row, as chunk-local views.

        The engine's vector-materialization fallback (Laplace columns,
        generic mechanisms, per-vector ``t``). ``targets`` is the chunk's
        full target array; ``degrees`` is parallel to ``kept``. The
        vectors alias workspace buffers — consume them before the chunk
        returns, never store.
        """
        return [
            UtilityVector(
                target=int(targets[row]),
                candidates=self.candidate_row(index),
                values=self.value_row(index),
                target_degree=int(degrees[index]),
                metadata={"utility": utility.name},
            )
            for index, row in enumerate(self.kept)
        ]


def _empty_compact_chunk(dtype) -> CompactChunk:
    empty = np.empty(0, dtype=dtype)
    counts = np.empty(0, dtype=np.int64)
    ids = np.empty(0, dtype=np.int64)
    compact = CompactRows(
        empty, counts, np.zeros(1, dtype=np.int64), empty, np.empty(0, dtype=dtype)
    )
    return CompactChunk(compact, ids, None)


def fused_compact_rows(
    scores: np.ndarray,
    mask: np.ndarray,
    workspace: "Workspace | None" = None,
) -> CompactChunk:
    """The footnote-10 filter + compact extraction as flat array passes.

    The whole chunk runs as a handful of vectorized passes — one
    ``compress`` gathering every candidate value, one
    ``maximum.reduceat`` for the row maxima, and (only when rows are
    actually dropped) one ``compress`` re-gather of the survivors, with
    no per-row Python loop. Kept rows are exactly the
    targets whose per-target ``utility_vector`` has at least two
    candidates and ``has_signal()``, with the same values in the same
    order, so float64 accuracies computed from the compact form equal
    the sequential evaluator's bit for bit.

    With a ``workspace`` every flat intermediate lands in reused buffers;
    the returned :class:`CompactChunk` then aliases them (chunk-local,
    see its docstring) — including ``mask``, which the lazy candidate-id
    extraction and the Corollary 1 masked search read later in the chunk.
    """
    num_rows, num_nodes = scores.shape
    dtype = scores.dtype
    counts_all = mask.sum(axis=1, dtype=np.int64)
    offsets_all = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(counts_all, out=offsets_all[1:])
    total = int(offsets_all[-1])
    if total == 0:
        return _empty_compact_chunk(dtype)
    mask_flat = mask.reshape(-1)
    scores_flat = scores.reshape(-1)
    if workspace is None:
        flat_all = np.compress(mask_flat, scores_flat)
    else:
        flat_all = np.compress(
            mask_flat, scores_flat, out=workspace.take("kernel.flat_all", total, dtype)
        )
    # Row maxima: reduceat segments start at each non-empty row's offset
    # (consecutive starts skip over empty rows, which contribute nothing).
    nonempty = counts_all > 0
    u_max_all = np.zeros(num_rows, dtype=dtype)
    u_max_all[nonempty] = np.maximum.reduceat(flat_all, offsets_all[:-1][nonempty])
    keep_row = (counts_all >= 2) & (u_max_all > 0)
    kept = np.flatnonzero(keep_row)
    if kept.size == 0:
        return _empty_compact_chunk(dtype)

    counts = counts_all[kept]
    offsets = np.zeros(kept.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    kept_total = int(offsets[-1])
    if kept.size == num_rows:
        flat = flat_all
    else:
        keep_elem = np.repeat(keep_row, counts_all)
        if workspace is None:
            flat = np.compress(keep_elem, flat_all)
        else:
            flat = np.compress(
                keep_elem, flat_all,
                out=workspace.take("kernel.flat", kept_total, dtype),
            )
    u_maxes = u_max_all[kept]
    if workspace is None:
        scaled = flat / np.repeat(u_maxes, counts)
    else:
        scaled = np.divide(
            flat, np.repeat(u_maxes, counts),
            out=workspace.take("kernel.scaled", kept_total, dtype),
        )
    compact = CompactRows(flat, counts, offsets, scaled, u_maxes)
    return CompactChunk(compact, kept, mask)

