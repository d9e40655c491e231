"""Batch-vs-sequential equivalence for the experiment engine.

The batched engine's contract is *exact* agreement with the per-target
reference evaluator: same dropped-target set, bit-identical accuracies and
bounds under the same seed. These tests enforce it across both paper
utilities, directed and undirected graphs, degenerate targets, and
hypothesis-generated graphs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accuracy.batch import (
    FUSED_CHUNK_BYTES,
    STAGE_NAMES,
    _fused_default_chunk,
    evaluate_targets_batched,
)
from repro.accuracy.evaluator import evaluate_targets
from repro.errors import UtilityError
from repro.graphs.generators import erdos_renyi_gnp
from repro.graphs.graph import SocialGraph
from repro.mechanisms.best import BestMechanism, UniformMechanism
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.laplace import LaplaceMechanism
from repro.utility.common_neighbors import CommonNeighbors
from repro.utility.weighted_paths import WeightedPaths

BOUND_EPSILONS = (0.5, 1.0, 3.0)


def make_mechanisms(utility, graph, epsilons=(0.5, 1.0), trials=40):
    sensitivity = utility.sensitivity(graph, 0)
    mechanisms = {}
    for eps in epsilons:
        mechanisms[f"exponential@{eps:g}"] = ExponentialMechanism(
            eps, sensitivity=sensitivity
        )
        mechanisms[f"laplace@{eps:g}"] = LaplaceMechanism(
            eps, sensitivity=sensitivity, trials=trials
        )
    mechanisms["best"] = BestMechanism()
    mechanisms["uniform"] = UniformMechanism()
    return mechanisms


def assert_engines_agree(graph, utility, targets, seed=11, laplace_trials=40):
    mechanisms = make_mechanisms(utility, graph)
    sequential = evaluate_targets(
        graph, utility, targets, mechanisms,
        bound_epsilons=BOUND_EPSILONS, seed=seed, laplace_trials=laplace_trials,
    )
    batched = evaluate_targets_batched(
        graph, utility, targets, mechanisms,
        bound_epsilons=BOUND_EPSILONS, seed=seed, laplace_trials=laplace_trials,
    )
    assert [e.target for e in sequential] == [e.target for e in batched]
    for seq, bat in zip(sequential, batched):
        # Frozen-dataclass equality compares every field, floats bit-for-bit.
        assert seq == bat
    return sequential


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize(
    "utility", [CommonNeighbors(), WeightedPaths(gamma=0.005), WeightedPaths(gamma=0.0)]
)
def test_exact_equivalence_on_random_graphs(directed, utility):
    graph = erdos_renyi_gnp(40, 0.12, directed=directed, seed=3)
    evaluations = assert_engines_agree(graph, utility, list(range(40)))
    assert evaluations, "sample unexpectedly produced no evaluations"


def test_equivalence_includes_dropped_targets():
    """Isolated and single-candidate targets are dropped by both engines."""
    graph = SocialGraph(6)
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.add_edge(0, 2)
    # Node 3 links to everyone else: its 2-hop candidates collapse.
    graph.add_edge(3, 4)
    # Node 5 is isolated: no candidates with signal at all.
    sequential = assert_engines_agree(
        graph, CommonNeighbors(), [0, 1, 2, 3, 4, 5]
    )
    assert 5 not in {e.target for e in sequential}


def test_all_zero_utility_targets_dropped_identically():
    """A path graph's endpoints have candidates but zero common neighbors."""
    graph = SocialGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
    assert_engines_agree(graph, CommonNeighbors(), [0, 1, 2, 3, 4])


def test_single_candidate_target_dropped():
    """Target connected to all but one node keeps < 2 candidates."""
    graph = SocialGraph(4)
    for other in (1, 2):
        graph.add_edge(0, other)
    graph.add_edge(1, 3)
    sequential = assert_engines_agree(graph, CommonNeighbors(), [0, 1])
    assert 0 not in {e.target for e in sequential}


def test_empty_targets():
    graph = erdos_renyi_gnp(10, 0.3, seed=0)
    assert evaluate_targets_batched(
        graph, CommonNeighbors(), [], make_mechanisms(CommonNeighbors(), graph), seed=1
    ) == []


@pytest.mark.parametrize("offset", [-1, 0, 5], ids=["minus-one", "n", "n-plus-5"])
def test_out_of_range_targets_raise_utility_error(offset):
    """Both engines reject a node id outside [0, n) with the same typed
    error — NumPy must not read -1 as the last node."""
    graph = erdos_renyi_gnp(12, 0.3, seed=0)
    utility = CommonNeighbors()
    mechanisms = make_mechanisms(utility, graph)
    bad = -1 if offset < 0 else graph.num_nodes + offset
    for engine in (evaluate_targets, evaluate_targets_batched):
        with pytest.raises(UtilityError):
            engine(graph, utility, [0, bad], mechanisms, bound_epsilons=(1.0,), seed=1)


def test_no_bound_epsilons():
    graph = erdos_renyi_gnp(20, 0.2, seed=4)
    utility = CommonNeighbors()
    mechanisms = make_mechanisms(utility, graph)
    sequential = evaluate_targets(
        graph, utility, range(20), mechanisms, seed=2, laplace_trials=40
    )
    batched = evaluate_targets_batched(
        graph, utility, range(20), mechanisms, seed=2, laplace_trials=40
    )
    assert sequential == batched
    assert all(e.theoretical_bounds == {} for e in batched)


def test_results_independent_of_sample_composition():
    """Per-target streams survive batching: a target's record must not
    depend on which other targets share the batch."""
    graph = erdos_renyi_gnp(30, 0.15, seed=6)
    utility = CommonNeighbors()
    mechanisms = make_mechanisms(utility, graph)
    full = evaluate_targets_batched(
        graph, utility, [0, 1, 2, 3], mechanisms, seed=9, laplace_trials=40
    )
    alone = evaluate_targets_batched(
        graph, utility, [0], mechanisms, seed=9, laplace_trials=40
    )
    assert full[0] == alone[0]


def test_timings_filled_in_pipeline_order():
    graph = erdos_renyi_gnp(25, 0.2, seed=8)
    timings: dict[str, float] = {}
    evaluate_targets_batched(
        graph,
        CommonNeighbors(),
        range(25),
        make_mechanisms(CommonNeighbors(), graph),
        bound_epsilons=(1.0,),
        seed=3,
        laplace_trials=20,
        timings=timings,
    )
    assert tuple(timings) == STAGE_NAMES
    assert all(v >= 0.0 for v in timings.values())


@pytest.mark.parametrize("num_nodes", [1, 100, 7_115, 96_403, 1_000_000])
def test_default_chunk_keeps_dense_block_within_budget(num_nodes):
    """The default chunk's (chunk, n) float64 block fits FUSED_CHUNK_BYTES
    on full wiki-vote and the full Twitter replica; at 10^6 nodes a single
    8 MB row is already over budget, so the chunk is that one row."""
    chunk = _fused_default_chunk(num_nodes)
    assert chunk >= 1
    assert chunk * num_nodes * 8 <= max(FUSED_CHUNK_BYTES, num_nodes * 8)
    # ... and it is the largest such chunk: one more row would not fit.
    assert (chunk + 1) * num_nodes * 8 > FUSED_CHUNK_BYTES


def test_default_chunk_bounds_every_dense_stage(monkeypatch):
    """With no explicit chunk_size the engine splits targets by the byte
    budget: shrink the budget to three rows and no scoring call may see
    more than three targets, while the evaluations stay unchanged."""
    import repro.accuracy.batch as batch

    graph = erdos_renyi_gnp(30, 0.2, seed=4)
    utility = CommonNeighbors()
    mechanisms = make_mechanisms(utility, graph)
    kwargs = dict(bound_epsilons=(1.0,), seed=5, laplace_trials=20)
    reference = evaluate_targets_batched(
        graph, utility, range(30), mechanisms, chunk_size=30, **kwargs
    )
    seen: list[int] = []
    original = CommonNeighbors.batch_scores

    def spying(self, graph, batch_targets, out=None):
        seen.append(len(np.asarray(batch_targets)))
        return original(self, graph, batch_targets, out=out)

    monkeypatch.setattr(batch, "FUSED_CHUNK_BYTES", 3 * 8 * graph.num_nodes)
    monkeypatch.setattr(CommonNeighbors, "batch_scores", spying)
    result = evaluate_targets_batched(graph, utility, range(30), mechanisms, **kwargs)
    assert result == reference
    assert seen and max(seen) <= 3 and sum(seen) == 30


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=0, max_size=40
    ),
    directed=st.booleans(),
    seed=st.integers(0, 2**20),
)
@settings(max_examples=30, deadline=None)
def test_property_exact_equivalence(edges, directed, seed):
    edges = [(u, v) for u, v in edges if u != v]
    graph = SocialGraph.from_edges(edges, num_nodes=12, directed=directed)
    for utility in (CommonNeighbors(), WeightedPaths(gamma=0.01)):
        mechanisms = make_mechanisms(utility, graph, epsilons=(1.0,), trials=25)
        sequential = evaluate_targets(
            graph, utility, range(12), mechanisms,
            bound_epsilons=(0.5, 2.0), seed=seed, laplace_trials=25,
        )
        batched = evaluate_targets_batched(
            graph, utility, range(12), mechanisms,
            bound_epsilons=(0.5, 2.0), seed=seed, laplace_trials=25,
        )
        assert sequential == batched
