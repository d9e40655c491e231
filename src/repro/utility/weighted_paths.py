"""Weighted-paths (truncated Katz) utility — Section 5.2 of the paper.

``score(r, i) = sum_{l=2}^{L} gamma^{l-2} * |walks_l(r, i)|`` where
``walks_l`` counts length-``l`` walks from the target. The paper approximates
the infinite sum "by considering paths of length up to 3" (footnote 10), so
``max_length`` defaults to 3; it is configurable for ablations. Typical
``gamma`` values are small (0.0005 to 0.05 in the experiments) so the score
is a smoothed common-neighbors count.

Sensitivity bound (documented derivation): a single edge not incident to the
target can appear in positions ``2..l`` of a length-``l`` walk; each position
contributes at most ``(d_max + 1)^{l-2}`` new walks per orientation. With
both orientations available in an undirected graph this gives

``Delta f <= factor * sum_{l=2}^{L} gamma^{l-2} (l-1) (d_max + 1)^{l-2}``

with ``factor = 2`` (undirected) or ``1`` (directed). For ``L = 3`` and an
undirected graph: ``Delta f <= 2 + 4*gamma*(d_max + 1)`` — matching the
paper's remark that higher ``gamma`` means higher sensitivity and hence worse
mechanism accuracy.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..errors import UtilityError
from ..graphs.graph import SocialGraph
from ..graphs.traversal import batch_walk_matrices, walk_counts
from .base import UtilityFunction, UtilityVector, register_utility

#: Gamma values used in the paper's Figures 2(a) and 2(b).
PAPER_GAMMAS = (0.0005, 0.005, 0.05)


@register_utility
class WeightedPaths(UtilityFunction):
    """Truncated Katz score with decay ``gamma`` and maximum walk length."""

    name = "weighted_paths"

    def __init__(self, gamma: float = 0.005, max_length: int = 3) -> None:
        if not (np.isfinite(gamma) and gamma >= 0):
            raise UtilityError(f"gamma must be finite and non-negative, got {gamma}")
        if max_length < 2:
            raise UtilityError(f"max_length must be >= 2, got {max_length}")
        self.gamma = float(gamma)
        self.max_length = int(max_length)

    def scores(self, graph: SocialGraph, target: int) -> np.ndarray:
        counts = walk_counts(graph, target, self.max_length)
        total = np.zeros(graph.num_nodes, dtype=np.float64)
        for length in range(2, self.max_length + 1):
            total += (self.gamma ** (length - 2)) * counts[length - 1]
        total[target] = 0.0
        return total

    def batch_scores(
        self,
        graph: SocialGraph,
        targets: "np.ndarray | list[int]",
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Weighted-paths scores for many targets via batched walk matrices.

        One ``A[targets] @ A`` sparse product (and one dense-times-sparse
        product per extra length) replaces the per-target sparse-matvec loop
        of :meth:`scores`. Walk counts are exact integers in float64 and the
        gamma recombination applies the same per-length multiply-accumulate
        as :meth:`scores`, so every row is bit-identical to the sequential
        score vector — the batched experiment engine relies on that.
        """
        targets = np.asarray(targets, dtype=np.int64)
        matrices = batch_walk_matrices(graph, targets, self.max_length)
        return self.combine_walk_matrices(matrices, targets, out=out)

    def combine_walk_matrices(
        self,
        walk_matrices: "list[np.ndarray]",
        targets: np.ndarray,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Recombine precomputed walk matrices under this utility's gamma.

        The walk matrices are gamma-independent, so sweeps over gamma compute
        them once (:func:`~repro.graphs.traversal.batch_walk_matrices`) and
        call this per gamma value — with ``out`` given, into one reused
        buffer instead of a fresh ``(rows, n)`` accumulator per gamma.
        Accumulation order matches :meth:`scores` term for term.
        """
        if len(walk_matrices) < self.max_length:
            raise UtilityError(
                f"need walk matrices up to length {self.max_length}, "
                f"got {len(walk_matrices)}"
            )
        targets = np.asarray(targets, dtype=np.int64)
        total = self._batch_scores_out(out, *walk_matrices[0].shape)
        total.fill(0.0)
        for length in range(2, self.max_length + 1):
            total += (self.gamma ** (length - 2)) * walk_matrices[length - 1]
        total[np.arange(targets.size), targets] = 0.0
        return total

    def walk_component_lengths(self) -> "tuple[int, ...]":
        """One exact walk-count component per counted length ``2..L``."""
        return tuple(range(2, self.max_length + 1))

    def walk_rows(
        self, graph: SocialGraph, links: sparse.csr_matrix
    ) -> "list[sparse.csr_matrix]":
        """Sparse walk-count rows of lengths ``2..max_length``.

        ``W_k = W_{k-1} @ A`` from ``W_1 = links``, one
        :meth:`~repro.graphs.graph.SocialGraph.adjacency_product` per
        length: the exact counts :func:`~repro.graphs.traversal.walk_counts`
        and :meth:`batch_scores` hold, without a dense block.
        """
        rows = [links]
        for _ in range(2, self.max_length + 1):
            rows.append(graph.adjacency_product(rows[-1]))
        return rows[1:]

    def combine_component_rows(self, components: np.ndarray) -> np.ndarray:
        """Per-column gamma recombination, same term order as ``scores``."""
        components = np.asarray(components, dtype=np.float64)
        total = np.zeros(components.shape[1], dtype=np.float64)
        for index, length in enumerate(range(2, self.max_length + 1)):
            total += (self.gamma ** (length - 2)) * components[index]
        return total

    def sensitivity(self, graph: SocialGraph, target: int) -> float:
        d_max = graph.max_degree()
        factor = 1.0 if graph.is_directed else 2.0
        bound = 0.0
        for length in range(2, self.max_length + 1):
            bound += (
                (self.gamma ** (length - 2))
                * (length - 1)
                * float(d_max + 1) ** (length - 2)
            )
        return factor * bound

    def experimental_t(self, vector: UtilityVector) -> int:
        """Exact ``t`` from Section 7.1: ``floor(u_max) + 2``.

        A fresh node connected to ``floor(u_max) + 1`` of the target's
        neighborhood (adding bridging edges when the neighborhood is too
        small) strictly exceeds every existing score, since length-3 terms
        are fractional for the small gammas used.
        """
        return int(np.floor(vector.u_max)) + 2

    def experimental_t_batch(
        self, u_maxes: np.ndarray, degrees: np.ndarray
    ) -> np.ndarray:
        """Vectorized Section 7.1 ``t``: ``floor(u_max) + 2`` per target."""
        return np.floor(np.asarray(u_maxes, dtype=np.float64)).astype(np.int64) + 2

    def __repr__(self) -> str:  # pragma: no cover
        return f"WeightedPaths(gamma={self.gamma}, max_length={self.max_length})"
