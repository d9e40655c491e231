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
from ..graphs.traversal import walk_counts
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

    def support_scores(
        self, graph: SocialGraph, targets: "np.ndarray | list[int]"
    ) -> sparse.csr_matrix:
        """Weighted-paths scores for many targets from sparse walk rows.

        The exact counts of :meth:`walk_rows` (one
        :meth:`~repro.graphs.graph.SocialGraph.adjacency_product` per
        length from ``A[targets]``), recombined by
        :meth:`combine_component_rows` in the term order of
        :meth:`scores`: every entry is bit-identical to the per-target
        score vector and no ``rows x num_nodes`` block is built.
        """
        targets = np.asarray(targets, dtype=np.int64)
        walks = self.walk_rows(graph, graph.adjacency_rows(targets))
        return self.combine_component_rows(walks)

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
        holds, without a dense block. Each matrix is put in canonical
        form (sorted ids) once here, so every recombination of them is a
        sorted merge and its sum is canonical too: a product holds no
        duplicate ids, so a round trip through CSC sorts every row in
        linear time, where SciPy's per-row sort is a comparison sort.
        """
        rows = [links]
        for _ in range(2, self.max_length + 1):
            rows.append(graph.adjacency_product(rows[-1]).tocsc().tocsr())
        return rows[1:]

    def combine_component_rows(self, components):
        """``W_2 + gamma W_3 + gamma^2 W_4 + ...``, summed left to right.

        The term order of :meth:`scores`, over a side-car block's rows
        or :meth:`walk_rows`' sparse matrices alike. Counts are
        non-negative, so a term missing from a sparse sum adds the same
        ``+0.0`` a dense row does.
        """
        if len(components) < self.max_length - 1:
            raise UtilityError(
                f"need walk counts of lengths 2..{self.max_length}, "
                f"got {len(components)} count rows"
            )
        total = None
        for index, length in enumerate(range(2, self.max_length + 1)):
            term = (self.gamma ** (length - 2)) * components[index]
            total = term if total is None else total + term
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
