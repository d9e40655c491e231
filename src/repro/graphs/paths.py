"""Simple-path counting and the walks-vs-paths fidelity question.

The paper's weighted-paths score sums ``|paths^(l)(s, y)|`` — the "number
of length-l paths". Link-prediction implementations (Liben-Nowell &
Kleinberg's Katz score) count *walks* via adjacency powers, which may
revisit nodes; a strict reading counts *simple* paths. This module
settles when the distinction matters:

For the paper's truncation at length 3 and the paper's candidate set
(nodes NOT adjacent to the target), the two coincide:

* a length-2 walk ``r -> w -> i`` cannot revisit anything: ``w != r``
  (no self-loops), ``w != i`` (ditto), ``i != r``;
* a length-3 walk ``r -> a -> b -> i`` could only degenerate via ``a = i``
  (needs edge ``r ~ i`` — excluded: i is not a neighbor of r) or
  ``b = r`` (needs edge ``r ~ i`` for the final hop — same exclusion).

So on the exact population the paper scores, walk counting is not an
approximation at all. :func:`simple_path_counts` provides the brute-force
reference used by the test suite to verify this argument, and remains
correct for neighbors of the target and for lengths above 3, where walks
and simple paths genuinely diverge.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from .graph import SocialGraph


def simple_path_counts(graph: SocialGraph, source: int, max_length: int) -> list[np.ndarray]:
    """Count *simple* paths (no repeated nodes) of length 1..max_length.

    Exhaustive DFS from ``source``; exponential in ``max_length``, intended
    for validation on small graphs and lengths <= 4.
    """
    if max_length < 1:
        raise GraphError(f"max_length must be >= 1, got {max_length}")
    n = graph.num_nodes
    counts = [np.zeros(n, dtype=np.float64) for _ in range(max_length)]
    source = int(source)

    def extend(node: int, visited: set[int], length: int) -> None:
        for neighbor in graph.out_neighbors(node):
            if neighbor in visited:
                continue
            counts[length][neighbor] += 1.0
            if length + 1 < max_length:
                visited.add(neighbor)
                extend(neighbor, visited, length + 1)
                visited.discard(neighbor)

    extend(source, {source}, 0)
    return counts


def walks_equal_simple_paths_on_candidates(
    graph: SocialGraph, source: int, length: int
) -> bool:
    """Check the module docstring's claim for one graph/source/length.

    Compares walk counts against simple-path counts restricted to the
    candidate set (non-neighbors of the source, excluding the source).
    """
    from .traversal import walk_counts

    walks = walk_counts(graph, source, length)[length - 1]
    simple = simple_path_counts(graph, source, length)[length - 1]
    excluded = set(graph.out_neighbors(source)) | {int(source)}
    candidates = [node for node in graph.nodes() if node not in excluded]
    return bool(np.allclose(walks[candidates], simple[candidates]))
