"""Loop reference versions of the replica generators, kept as test oracles.

:func:`repro.graphs.generators.powerlaw.scale_to_edge_total`,
:func:`repro.graphs.generators.random_graphs.configuration_model` and
:func:`~repro.graphs.generators.random_graphs.directed_configuration_model`
run as array passes. These are the same algorithms one stub and one
``try_add_edge`` at a time: given the same generator state, each must
return the same degree sequence or edge set and leave the generator in
the same state as its array version.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError
from repro.graphs.graph import SocialGraph
from repro.rng import ensure_rng


def scale_to_edge_total(degrees, target_total, d_min=1, d_max=None, seed=None):
    """Distribute the leftover stubs one visit at a time."""
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
    cursor = 0
    step = 1 if deficit > 0 else -1
    guard = 0
    while deficit != 0:
        node = order[cursor % scaled.size]
        cursor += 1
        guard += 1
        if guard > 50 * scaled.size + 1000:
            raise DatasetError("could not match target edge total within degree caps")
        new_value = scaled[node] + step
        if new_value < d_min or (d_max is not None and new_value > d_max):
            continue
        scaled[node] = new_value
        deficit -= step
    return scaled


def configuration_model(degrees, seed=None, max_rounds=20):
    """Pair shuffled stubs with one ``try_add_edge`` call per pair."""
    degrees = np.asarray(degrees, dtype=np.int64)
    rng = ensure_rng(seed)
    stubs = np.repeat(np.arange(degrees.size), degrees)
    if stubs.size % 2 == 1:
        stubs = stubs[:-1]
    graph = SocialGraph(degrees.size, directed=False)
    for _ in range(max_rounds):
        if stubs.size < 2:
            break
        rng.shuffle(stubs)
        leftovers: list[int] = []
        for i in range(0, stubs.size - 1, 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if not graph.try_add_edge(u, v):
                leftovers.extend((u, v))
        stubs = np.asarray(leftovers, dtype=np.int64)
    return graph


def directed_configuration_model(out_degrees, in_degrees, seed=None, max_rounds=20):
    """Pair shuffled sources and sinks with one ``try_add_edge`` call per pair."""
    out_degrees = np.asarray(out_degrees, dtype=np.int64)
    in_degrees = np.asarray(in_degrees, dtype=np.int64)
    rng = ensure_rng(seed)
    sources = np.repeat(np.arange(out_degrees.size), out_degrees)
    sinks = np.repeat(np.arange(in_degrees.size), in_degrees)
    limit = min(sources.size, sinks.size)
    sources, sinks = sources[:limit], sinks[:limit]
    graph = SocialGraph(out_degrees.size, directed=True)
    for _ in range(max_rounds):
        if sources.size == 0:
            break
        rng.shuffle(sources)
        rng.shuffle(sinks)
        leftover_sources: list[int] = []
        leftover_sinks: list[int] = []
        for u, v in zip(sources, sinks):
            if not graph.try_add_edge(int(u), int(v)):
                leftover_sources.append(int(u))
                leftover_sinks.append(int(v))
        sources = np.asarray(leftover_sources, dtype=np.int64)
        sinks = np.asarray(leftover_sinks, dtype=np.int64)
    return graph
