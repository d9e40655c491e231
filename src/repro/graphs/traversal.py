"""Graph traversal primitives: BFS, k-hop neighborhoods, and walk counting.

These routines back the utility functions: common neighbors is a 2-hop
computation, the weighted-paths score of the paper truncates walk counts at
length 3 (Section 7.1, footnote 10), and personalized PageRank iterates a
sparse walk operator.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import GraphError
from .graph import SocialGraph


def bfs_distances(graph: SocialGraph, source: int, max_depth: int | None = None) -> dict[int, int]:
    """Return ``{node: hop distance}`` for nodes reachable from ``source``.

    Follows out-edges on directed graphs. ``max_depth`` truncates the search;
    the source itself is included at distance 0.
    """
    distances = {int(source): 0}
    frontier = deque([int(source)])
    while frontier:
        node = frontier.popleft()
        depth = distances[node]
        if max_depth is not None and depth >= max_depth:
            continue
        for neighbor in graph.out_neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                frontier.append(neighbor)
    return distances


def k_hop_neighborhood(graph: SocialGraph, source: int, k: int) -> frozenset[int]:
    """Nodes at hop distance exactly ``k`` from ``source`` (out-edges)."""
    distances = bfs_distances(graph, source, max_depth=k)
    return frozenset(node for node, depth in distances.items() if depth == k)


def two_hop_counts(graph: SocialGraph, source: int) -> dict[int, int]:
    """Count length-2 walks from ``source`` to every other node.

    For an undirected graph ``counts[i]`` equals the number of common
    neighbors ``C(i, source)``; for a directed graph it counts directed walks
    ``source -> w -> i`` (the "following edges out of the target" reading the
    paper uses for Twitter). The source node itself may appear as a key (a
    walk out and back); callers exclude it as needed.
    """
    counts: dict[int, int] = {}
    for middle in graph.out_neighbors(source):
        for end in graph.out_neighbors(middle):
            counts[end] = counts.get(end, 0) + 1
    return counts


def walk_counts(graph: SocialGraph, source: int, max_length: int) -> list[np.ndarray]:
    """Count walks of each length ``1..max_length`` from ``source`` to all nodes.

    Returns a list ``[w1, w2, ..., w_L]`` where ``w_l[i]`` is the number of
    directed walks of length ``l`` from ``source`` to ``i`` (on undirected
    graphs, walks may traverse an edge in both directions and revisit nodes,
    the standard adjacency-power semantics the weighted-paths score uses).

    Implemented as repeated sparse vector-matrix products, so the cost is
    ``O(L * m)`` rather than materializing ``A^l``.
    """
    if max_length < 1:
        raise GraphError(f"max_length must be >= 1, got {max_length}")
    adjacency = graph.adjacency_matrix()
    row = np.zeros(graph.num_nodes, dtype=np.float64)
    row[int(source)] = 1.0
    counts: list[np.ndarray] = []
    current = row
    transposed = adjacency.T.tocsr()
    for _ in range(max_length):
        # row-vector times A == A^T times column-vector
        current = transposed.dot(current)
        counts.append(np.asarray(current).ravel().copy())
    return counts


def count_paths_up_to(graph: SocialGraph, source: int, max_length: int) -> np.ndarray:
    """Total number of walks of length ``2..max_length`` from ``source``.

    Convenience wrapper used by tests; returns the elementwise sum of the
    length-2..L walk-count vectors.
    """
    counts = walk_counts(graph, source, max_length)
    total = np.zeros(graph.num_nodes, dtype=np.float64)
    for length_index in range(1, max_length):
        total += counts[length_index]
    return total


def connected_component(graph: SocialGraph, source: int) -> frozenset[int]:
    """Nodes reachable from ``source`` following out-edges."""
    return frozenset(bfs_distances(graph, source))
