"""Random graph generators implemented from scratch on :class:`SocialGraph`.

These provide the synthetic substrates for tests, property-based checks, and
the dataset replicas: Erdos-Renyi (both G(n,p) and G(n,m)), Barabasi-Albert
preferential attachment, Watts-Strogatz small worlds, and configuration
models (undirected and directed) driven by explicit degree sequences.

Only :mod:`numpy` randomness is used; :mod:`networkx` is reserved for
cross-validation in the test suite.
"""

from __future__ import annotations

import numpy as np

from ...errors import DatasetError
from ...rng import ensure_rng
from ..graph import SocialGraph


def erdos_renyi_gnp(
    num_nodes: int,
    p: float,
    directed: bool = False,
    seed: "int | np.random.Generator | None" = None,
) -> SocialGraph:
    """G(n, p): include each possible edge independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise DatasetError(f"edge probability must be in [0, 1], got {p}")
    rng = ensure_rng(seed)
    graph = SocialGraph(num_nodes, directed=directed)
    if num_nodes < 2 or p == 0.0:
        return graph
    if directed:
        mask = rng.random((num_nodes, num_nodes)) < p
        np.fill_diagonal(mask, False)
        for u, v in zip(*np.nonzero(mask)):
            graph.add_edge(int(u), int(v))
    else:
        upper = np.triu(rng.random((num_nodes, num_nodes)) < p, k=1)
        for u, v in zip(*np.nonzero(upper)):
            graph.add_edge(int(u), int(v))
    return graph


def erdos_renyi_gnm(
    num_nodes: int,
    num_edges: int,
    directed: bool = False,
    seed: "int | np.random.Generator | None" = None,
) -> SocialGraph:
    """G(n, m): exactly ``num_edges`` edges sampled uniformly without replacement."""
    possible = num_nodes * (num_nodes - 1)
    if not directed:
        possible //= 2
    if num_edges > possible:
        raise DatasetError(f"cannot place {num_edges} edges in a graph with {possible} slots")
    rng = ensure_rng(seed)
    graph = SocialGraph(num_nodes, directed=directed)
    while graph.num_edges < num_edges:
        remaining = num_edges - graph.num_edges
        us = rng.integers(0, num_nodes, size=2 * remaining + 8)
        vs = rng.integers(0, num_nodes, size=2 * remaining + 8)
        for u, v in zip(us, vs):
            if graph.num_edges >= num_edges:
                break
            graph.try_add_edge(int(u), int(v))
    return graph


def barabasi_albert(
    num_nodes: int,
    attachment: int,
    seed: "int | np.random.Generator | None" = None,
) -> SocialGraph:
    """Preferential attachment: each new node links to ``attachment`` targets.

    Targets are chosen proportionally to degree via the standard repeated-node
    list trick. Produces an undirected graph with roughly
    ``attachment * (num_nodes - attachment)`` edges.
    """
    if attachment < 1:
        raise DatasetError(f"attachment must be >= 1, got {attachment}")
    if num_nodes < attachment + 1:
        raise DatasetError(
            f"need at least {attachment + 1} nodes for attachment {attachment}"
        )
    rng = ensure_rng(seed)
    graph = SocialGraph(num_nodes, directed=False)
    repeated: list[int] = []
    # Seed clique-free core: connect node `attachment` to all earlier nodes.
    for node in range(attachment):
        graph.add_edge(attachment, node)
        repeated.extend((attachment, node))
    for node in range(attachment + 1, num_nodes):
        targets: set[int] = set()
        while len(targets) < attachment:
            pick = repeated[int(rng.integers(0, len(repeated)))]
            if pick != node:
                targets.add(pick)
        for target in targets:
            graph.add_edge(node, target)
            repeated.extend((node, target))
    return graph


def watts_strogatz(
    num_nodes: int,
    nearest: int,
    rewire_p: float,
    seed: "int | np.random.Generator | None" = None,
) -> SocialGraph:
    """Small-world model: ring lattice with ``nearest`` neighbors, rewired."""
    if nearest % 2 != 0 or nearest < 2:
        raise DatasetError(f"nearest must be a positive even integer, got {nearest}")
    if num_nodes <= nearest:
        raise DatasetError(f"need more than {nearest} nodes, got {num_nodes}")
    if not 0.0 <= rewire_p <= 1.0:
        raise DatasetError(f"rewire probability must be in [0, 1], got {rewire_p}")
    rng = ensure_rng(seed)
    graph = SocialGraph(num_nodes, directed=False)
    for node in range(num_nodes):
        for offset in range(1, nearest // 2 + 1):
            graph.try_add_edge(node, (node + offset) % num_nodes)
    if rewire_p == 0.0:
        return graph
    for u, v in list(graph.edges()):
        if rng.random() < rewire_p:
            for _ in range(8):  # bounded retries to find a free slot
                w = int(rng.integers(0, num_nodes))
                if w != u and not graph.has_edge(u, w):
                    graph.remove_edge(u, v)
                    graph.add_edge(u, w)
                    break
    return graph


def _pairing_round(
    present: np.ndarray,
    heads: np.ndarray,
    tails: np.ndarray,
    num_nodes: int,
    directed: bool,
) -> "tuple[np.ndarray, np.ndarray]":
    """One round of stub pairing, exactly as ``try_add_edge`` over the pairs in order.

    ``present`` holds the sorted keys (``u * num_nodes + v``, with
    ``u < v`` when undirected) of the edges earlier rounds placed. A pair
    is rejected if it is a self-loop, if its edge is present, or if an
    earlier pair of this round names the same edge: a pair's first
    occurrence in the round wins. Returns the grown ``present`` and the
    mask of rejected pairs.
    """
    if directed:
        keys = heads * num_nodes + tails
    else:
        keys = np.minimum(heads, tails) * num_nodes + np.maximum(heads, tails)
    distinct, first = np.unique(keys, return_index=True)
    fresh = heads[first] != tails[first]
    if present.size:
        slots = np.minimum(np.searchsorted(present, distinct), present.size - 1)
        fresh &= present[slots] != distinct
    placed = np.zeros(keys.size, dtype=bool)
    placed[first[fresh]] = True
    added = distinct[fresh]
    return np.insert(present, np.searchsorted(present, added), added), ~placed


def configuration_model(
    degrees: "np.ndarray | list[int]",
    seed: "int | np.random.Generator | None" = None,
    max_rounds: int = 20,
) -> SocialGraph:
    """Undirected configuration model producing a *simple* graph.

    Stubs are shuffled and paired; pairs that would create self-loops or
    parallel edges are re-shuffled for up to ``max_rounds`` passes, after
    which leftovers are dropped. The realized degree sequence therefore
    matches the request except possibly at a handful of high-degree nodes —
    acceptable for dataset replicas, and the realized counts are always
    reported by :func:`repro.graphs.stats.degree_summary`.

    Each round is one array pass (:func:`_pairing_round`) that accepts
    exactly the pairs a ``try_add_edge`` loop over them would; rejected
    pairs keep their order for the next round's shuffle.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size and degrees.min() < 0:
        raise DatasetError("degrees must be non-negative")
    rng = ensure_rng(seed)
    num_nodes = degrees.size
    stubs = np.repeat(np.arange(num_nodes), degrees)
    if stubs.size % 2 == 1:
        stubs = stubs[:-1]  # drop one stub to make the total even
    present = np.empty(0, dtype=np.int64)
    for _ in range(max_rounds):
        if stubs.size < 2:
            break
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        present, rejected = _pairing_round(
            present, pairs[:, 0], pairs[:, 1], num_nodes, directed=False
        )
        stubs = pairs[rejected].ravel()
    return SocialGraph.from_edges(
        np.stack(np.divmod(present, num_nodes), axis=1), num_nodes=num_nodes
    )


def directed_configuration_model(
    out_degrees: "np.ndarray | list[int]",
    in_degrees: "np.ndarray | list[int]",
    seed: "int | np.random.Generator | None" = None,
    max_rounds: int = 20,
) -> SocialGraph:
    """Directed configuration model producing a simple digraph.

    ``sum(out_degrees)`` and ``sum(in_degrees)`` need not match exactly; the
    longer side is truncated. Self-loops and duplicate edges are re-shuffled
    as in :func:`configuration_model`.
    """
    out_degrees = np.asarray(out_degrees, dtype=np.int64)
    in_degrees = np.asarray(in_degrees, dtype=np.int64)
    if out_degrees.size != in_degrees.size:
        raise DatasetError("out/in degree sequences must have equal length")
    if (out_degrees.size and out_degrees.min() < 0) or (in_degrees.size and in_degrees.min() < 0):
        raise DatasetError("degrees must be non-negative")
    rng = ensure_rng(seed)
    num_nodes = out_degrees.size
    sources = np.repeat(np.arange(num_nodes), out_degrees)
    sinks = np.repeat(np.arange(num_nodes), in_degrees)
    limit = min(sources.size, sinks.size)
    sources, sinks = sources[:limit], sinks[:limit]
    present = np.empty(0, dtype=np.int64)
    for _ in range(max_rounds):
        if sources.size == 0:
            break
        rng.shuffle(sources)
        rng.shuffle(sinks)
        present, rejected = _pairing_round(present, sources, sinks, num_nodes, directed=True)
        sources, sinks = sources[rejected], sinks[rejected]
    return SocialGraph.from_edges(
        np.stack(np.divmod(present, num_nodes), axis=1), num_nodes=num_nodes, directed=True
    )
