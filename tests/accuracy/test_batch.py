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

from repro.accuracy.batch import STAGE_NAMES, evaluate_targets_batched
from repro.accuracy.evaluator import evaluate_targets
from repro.errors import BoundError, UtilityError
from repro.graphs.generators import erdos_renyi_gnp
from repro.graphs.graph import SocialGraph
from repro.mechanisms.best import BestMechanism, UniformMechanism
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.laplace import LaplaceMechanism
from repro.utility.common_neighbors import CommonNeighbors
from repro.utility.weighted_paths import WeightedPaths

BOUND_EPSILONS = (0.5, 1.0, 3.0)


def make_mechanisms(utility, graph, epsilons=(0.5, 1.0)):
    sensitivity = utility.sensitivity(graph, 0)
    mechanisms = {}
    for eps in epsilons:
        mechanisms[f"exponential@{eps:g}"] = ExponentialMechanism(
            eps, sensitivity=sensitivity
        )
        mechanisms[f"laplace@{eps:g}"] = LaplaceMechanism(eps, sensitivity=sensitivity)
    mechanisms["best"] = BestMechanism()
    mechanisms["uniform"] = UniformMechanism()
    return mechanisms


def assert_engines_agree(graph, utility, targets, seed=11):
    mechanisms = make_mechanisms(utility, graph)
    sequential = evaluate_targets(
        graph, utility, targets, mechanisms, bound_epsilons=BOUND_EPSILONS, seed=seed
    )
    batched = evaluate_targets_batched(
        graph, utility, targets, mechanisms, bound_epsilons=BOUND_EPSILONS, seed=seed
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
        graph, utility, range(20), mechanisms, seed=2
    )
    batched = evaluate_targets_batched(
        graph, utility, range(20), mechanisms, seed=2
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
        graph, utility, [0, 1, 2, 3], mechanisms, seed=9
    )
    alone = evaluate_targets_batched(
        graph, utility, [0], mechanisms, seed=9
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
        timings=timings,
    )
    assert tuple(timings) == STAGE_NAMES
    assert all(v >= 0.0 for v in timings.values())


@pytest.mark.parametrize(
    "utility", [CommonNeighbors(), WeightedPaths(gamma=0.005)], ids=["cn", "wp"]
)
def test_engine_builds_no_dense_block(monkeypatch, utility):
    """The engine reads support rows only: with every dense score row
    (the utility's per-target ``scores``) and every dense candidate set
    (the per-target builder and a vector's dense candidate view)
    unavailable it still equals the sequential evaluator."""
    import repro.utility.base as utility_base

    graph = erdos_renyi_gnp(30, 0.2, seed=4)
    mechanisms = make_mechanisms(utility, graph)
    kwargs = dict(bound_epsilons=(1.0,), seed=5)
    reference = evaluate_targets(graph, utility, range(30), mechanisms, **kwargs)

    def dense(*args, **kwargs):
        raise AssertionError("the engine built a num_nodes-wide row")

    monkeypatch.setattr(type(utility), "scores", dense)
    monkeypatch.setattr(utility_base, "candidate_nodes", dense)
    monkeypatch.setattr(utility_base.UtilityVector, "candidates", property(dense))
    result = evaluate_targets_batched(graph, utility, range(30), mechanisms, **kwargs)
    assert result == reference


@pytest.mark.parametrize(
    "utility", [CommonNeighbors(), WeightedPaths(gamma=0.005)], ids=["cn", "wp"]
)
def test_score_and_excluded_rows_are_released_before_bounds(monkeypatch, utility):
    """Only the vectors stage reads the sparse score and excluded
    matrices: both are dead by the time the bounds stage runs, with
    vector-reading mechanisms in the call too."""
    import weakref

    import repro.accuracy.batch as batch

    graph = erdos_renyi_gnp(40, 0.2, seed=6)
    mechanisms = make_mechanisms(utility, graph)
    reference = evaluate_targets(graph, utility, range(40), mechanisms, seed=7)
    refs = []

    def tracked(build):
        def wrapper(*args, **kwargs):
            matrix = build(*args, **kwargs)
            refs.append(weakref.ref(matrix))
            return matrix
        return wrapper

    def bounds(*args, **kwargs):
        assert len(refs) == 2 and all(ref() is None for ref in refs)
        return support_bounds(*args, **kwargs)

    support_bounds = batch.support_bounds
    monkeypatch.setattr(utility, "support_scores", tracked(utility.support_scores))
    monkeypatch.setattr(batch, "excluded_rows", tracked(batch.excluded_rows))
    monkeypatch.setattr(batch, "support_bounds", bounds)
    assert evaluate_targets_batched(graph, utility, range(40), mechanisms, seed=7) == reference
    assert len(refs) == 2


class _CorruptedCommonNeighbors(CommonNeighbors):
    """Common neighbours with one candidate's score replaced by ``bad``."""

    def __init__(self, bad: float) -> None:
        self.bad = bad

    def _corrupt(self, graph, target: int) -> int:
        candidates = np.flatnonzero(
            ~np.isin(np.arange(graph.num_nodes), list(graph.out_neighbors(target)) + [target])
        )
        return int(candidates[0])

    def scores(self, graph, target):
        counts = super().scores(graph, target)
        counts[self._corrupt(graph, target)] = self.bad
        return counts

    def support_scores(self, graph, targets):
        rows = super().support_scores(graph, targets).tolil()
        for row, target in enumerate(np.asarray(targets)):
            rows[row, self._corrupt(graph, int(target))] = self.bad
        return rows.tocsr()


@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf], ids=["nan", "negative", "inf"])
def test_bad_utilities_raise_the_same_error_in_both_engines(bad):
    """Regression: with closed-form mechanisms only, the engine used to
    skip the utility check, returning accuracies for NaN and negative
    scores and a BoundError for +inf."""
    graph = erdos_renyi_gnp(20, 0.25, seed=2)
    utility = _CorruptedCommonNeighbors(bad)
    mechanisms = {"exponential@1": ExponentialMechanism(1.0, sensitivity=2.0)}
    for engine in (evaluate_targets, evaluate_targets_batched):
        with pytest.raises(UtilityError):
            engine(graph, utility, range(20), mechanisms, bound_epsilons=(1.0,), seed=1)


def test_nan_bound_epsilon_raises_in_both_engines():
    """Regression: a NaN epsilon used to yield NaN bounds."""
    graph = erdos_renyi_gnp(20, 0.25, seed=2)
    utility = CommonNeighbors()
    mechanisms = make_mechanisms(utility, graph)
    for engine in (evaluate_targets, evaluate_targets_batched):
        with pytest.raises(BoundError):
            engine(graph, utility, range(20), mechanisms, bound_epsilons=(float("nan"),), seed=1)


def test_infinite_bound_epsilon_is_the_trivial_bound():
    graph = erdos_renyi_gnp(20, 0.25, seed=2)
    utility = CommonNeighbors()
    mechanisms = make_mechanisms(utility, graph)
    batched = evaluate_targets_batched(
        graph, utility, range(20), mechanisms, bound_epsilons=(float("inf"),), seed=1
    )
    assert batched == evaluate_targets(
        graph, utility, range(20), mechanisms, bound_epsilons=(float("inf"),), seed=1
    )
    assert batched and all(e.theoretical_bounds[float("inf")] == 1.0 for e in batched)


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
        mechanisms = make_mechanisms(utility, graph, epsilons=(1.0,))
        sequential = evaluate_targets(
            graph, utility, range(12), mechanisms, bound_epsilons=(0.5, 2.0), seed=seed
        )
        batched = evaluate_targets_batched(
            graph, utility, range(12), mechanisms, bound_epsilons=(0.5, 2.0), seed=seed
        )
        assert sequential == batched


class _SampledLaplace(LaplaceMechanism):
    """Overrides ``expected_accuracy`` with a sampled estimate, so no flat
    kernel reproduces it and it must run on its target's stream."""

    def expected_accuracy(self, vector, seed=None):
        picks = [self.recommend(vector, seed=seed) for _ in range(25)]
        values = dict(zip(vector.candidates.tolist(), vector.values.tolist()))
        return float(np.mean([values[pick] for pick in picks])) / vector.u_max


def test_overridden_expected_accuracy_runs_on_per_target_streams():
    graph = erdos_renyi_gnp(30, 0.15, seed=6)
    utility = CommonNeighbors()
    sensitivity = utility.sensitivity(graph, 0)
    mechanisms = {
        "laplace@1": LaplaceMechanism(1.0, sensitivity=sensitivity),
        "sampled@1": _SampledLaplace(1.0, sensitivity=sensitivity),
    }
    sequential = evaluate_targets(graph, utility, range(30), mechanisms, seed=4)
    batched = evaluate_targets_batched(graph, utility, range(30), mechanisms, seed=4)
    assert sequential == batched
    assert any(
        e.accuracies["sampled@1"] != e.accuracies["laplace@1"] for e in batched
    )


def test_kernel_mechanisms_spawn_no_streams(monkeypatch):
    """With only flat-kernel columns (exponential and Laplace) the engine
    draws no random numbers: it spawns no per-target stream."""
    import repro.accuracy.batch as batch

    def spawn(*args, **kwargs):
        raise AssertionError("spawned RNG streams for closed-form columns")

    monkeypatch.setattr(batch, "spawn_rngs", spawn)
    graph = erdos_renyi_gnp(30, 0.2, seed=4)
    utility = CommonNeighbors()
    mechanisms = {
        name: mechanism
        for name, mechanism in make_mechanisms(utility, graph).items()
        if name.startswith(("exponential", "laplace"))
    }
    assert evaluate_targets_batched(
        graph, utility, range(30), mechanisms, bound_epsilons=(1.0,), seed=5
    )
