"""Number-of-common-neighbors utility (the paper's running example).

For an undirected graph, ``u_i = C(i, r) = |N(i) ∩ N(r)|``. For a directed
graph we follow the paper's Twitter convention ("we count the common
neighbors and paths by following edges out of target node r"): ``u_i`` is
the number of directed length-2 walks ``r -> w -> i``, which makes common
neighbors exactly the ``gamma -> 0`` limit of the weighted-paths score
(Appendix C's discussion of their relationship).

Sensitivity (Delta f, L1 norm over one-edge neighboring graphs, edges not
incident to the target per the relaxed privacy definition of Section 3.2):

* undirected: adding/removing edge {x, y} changes ``C(x, r)`` by 1 when
  ``y ∈ N(r)`` and ``C(y, r)`` by 1 when ``x ∈ N(r)`` — no other entries
  move, so ``Delta f <= 2``;
* directed: edge (x, y) only creates/destroys the walk ``r -> x -> y``, so
  ``Delta f <= 1``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..graphs.graph import SocialGraph
from .base import UtilityFunction, UtilityVector, register_utility


@register_utility
class CommonNeighbors(UtilityFunction):
    """Count of shared neighbors between each candidate and the target."""

    name = "common_neighbors"

    def scores(self, graph: SocialGraph, target: int) -> np.ndarray:
        counts = np.zeros(graph.num_nodes, dtype=np.float64)
        for middle in graph.out_neighbors(target):
            for end in graph.out_neighbors(middle):
                counts[end] += 1.0
        counts[target] = 0.0
        return counts

    def support_scores(
        self, graph: SocialGraph, targets: "np.ndarray | list[int]"
    ) -> sparse.csr_matrix:
        """All targets' common-neighbor counts as one ``A[targets] @ A`` product.

        Row ``r`` of ``A @ A`` counts length-2 walks ``r -> w -> i``,
        which is exactly :meth:`scores` for both the undirected and the
        directed convention. The entries are exact float64 counts and
        each row depends only on its own target's CSR row, so
        support-form vectors built from it match :meth:`utility_vector`
        bit for bit, whatever else shares the call.
        """
        targets = np.asarray(targets, dtype=np.int64)
        return graph.adjacency_product(graph.adjacency_rows(targets))

    def walk_component_lengths(self) -> "tuple[int, ...]":
        """Common neighbors is exactly the length-2 walk count."""
        return (2,)

    def walk_rows(
        self, graph: SocialGraph, links: sparse.csr_matrix
    ) -> "list[sparse.csr_matrix]":
        """One component: the :meth:`support_scores` product itself."""
        return [graph.adjacency_product(links)]

    def combine_component_rows(self, components):
        """The length-2 counts themselves, as a fresh array or matrix."""
        return 1.0 * components[0]

    def sensitivity(self, graph: SocialGraph, target: int) -> float:
        return 1.0 if graph.is_directed else 2.0

    def experimental_t(self, vector: UtilityVector) -> int:
        """Exact ``t`` from Section 7.1: ``u_max + 1 + 1[u_max == d_r]``.

        Rationale: to make a fresh node the strict maximum one must give it
        ``u_max + 1`` common neighbors with the target; when the target's
        degree already equals ``u_max`` an extra edge from the target is
        needed to create the additional shared neighbor.
        """
        u_max = int(round(vector.u_max))
        bonus = 1 if u_max == vector.target_degree else 0
        return u_max + 1 + bonus

    def experimental_t_batch(
        self, u_maxes: np.ndarray, degrees: np.ndarray
    ) -> np.ndarray:
        """Vectorized Section 7.1 ``t``: ``round(u_max) + 1 + 1[= d_r]``.

        ``np.rint`` rounds half-to-even exactly like Python's ``round``,
        so each entry equals :meth:`experimental_t` on that row's vector.
        """
        rounded = np.rint(np.asarray(u_maxes, dtype=np.float64)).astype(np.int64)
        return rounded + 1 + (rounded == np.asarray(degrees, dtype=np.int64))
