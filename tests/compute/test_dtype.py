"""Tests for the compute dtype and the byte budget across the hot paths.

The contract (DESIGN.md, "memory dataflow"):

* **float64** (default) is bit-identical to the sequential reference —
  the engine returns the same evaluations at every byte budget;
* **float32** is the engine's opt-in half-memory path: same kept
  targets and the same answer at every budget, with accuracies and
  bounds within a documented tolerance of the float64 run;
* serving always runs in float64: its picks are identical at every
  budget, and its cached rows are float64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accuracy.batch import evaluate_targets_batched
from repro.accuracy.evaluator import evaluate_targets, sample_targets
from repro.compute import (
    COMPUTE_DTYPES,
    ComputePlan,
    Workspace,
    fused_compact_rows,
    resolve_dtype,
)
from repro.compute.kernels import candidate_mask_rows, score_rows
from repro.datasets import wiki_vote
from repro.errors import ComputeError, ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_mechanisms, build_utility
from repro.experiments.sweeps import epsilon_sweep
from repro.serving import RecommendationService
from repro.streaming import StreamingService, replay_stream, synthetic_event_stream
from repro.utility.weighted_paths import WeightedPaths

#: The documented float32 tolerance contract (mirrored by
#: benchmarks/bench_memory.py).
RTOL, ATOL = 1e-5, 1e-6

BOUND_EPSILONS = (0.1, 0.5, 1.0, 3.0)

#: Rows per chunk the budget is set to (None: the default budget).
BUDGET_ROWS = [None, 9, 1]


@pytest.fixture(scope="module")
def workload():
    graph = wiki_vote(scale=0.06)
    config = ExperimentConfig(
        scale=0.06, epsilons=(0.5, 1.0), include_laplace=True,
        laplace_trials=25, target_fraction=0.3, max_targets=None,
    )
    utility = build_utility(config)
    mechanisms = build_mechanisms(config, utility.sensitivity(graph, 0))
    targets = sample_targets(graph, 0.3, seed=7)
    return graph, utility, mechanisms, targets


def engine(workload, **kwargs):
    graph, utility, mechanisms, targets = workload
    return evaluate_targets_batched(
        graph, utility, targets, mechanisms,
        bound_epsilons=BOUND_EPSILONS, seed=11, laplace_trials=25, **kwargs,
    )


class TestResolveDtype:
    def test_default_is_float64(self):
        assert resolve_dtype(None) == np.float64

    @pytest.mark.parametrize("spec", ["float32", np.float32, np.dtype("float32")])
    def test_spellings_agree(self, spec):
        assert resolve_dtype(spec) == np.float32

    @pytest.mark.parametrize("spec", ["float16", "int32", "complex128", object])
    def test_unsupported_dtypes_rejected(self, spec):
        with pytest.raises(ComputeError):
            resolve_dtype(spec)

    def test_plan_carries_dtype(self):
        assert ComputePlan(10, 40, "float32").dtype == np.float32
        assert ComputePlan(10, 40).dtype == np.float64

    def test_config_validates_dtype(self):
        assert ExperimentConfig(dtype="float32").dtype == "float32"
        with pytest.raises(ExperimentError):
            ExperimentConfig(dtype="float16")
        assert tuple(COMPUTE_DTYPES) == ("float32", "float64")


class TestEngineFloat64:
    def test_engine_matches_sequential(self, workload):
        graph, utility, mechanisms, targets = workload
        sequential = evaluate_targets(
            graph, utility, targets, mechanisms,
            bound_epsilons=BOUND_EPSILONS, seed=11, laplace_trials=25,
        )
        assert engine(workload) == sequential

    @pytest.mark.parametrize("rows", BUDGET_ROWS)
    def test_float64_identical_across_budgets(self, workload, budget_rows, rows):
        reference = engine(workload)
        budget_rows(workload[0].num_nodes, rows)
        assert engine(workload) == reference


class TestEngineFloat32:
    @pytest.mark.parametrize("rows", BUDGET_ROWS)
    def test_float32_identical_across_budgets(self, workload, budget_rows, rows):
        reference = engine(workload, dtype="float32")
        budget_rows(workload[0].num_nodes, rows)
        assert engine(workload, dtype="float32") == reference

    def test_float32_within_tolerance_of_float64(self, workload):
        _, _, mechanisms, _ = workload
        ref = engine(workload)
        f32 = engine(workload, dtype="float32")
        assert [e.target for e in f32] == [e.target for e in ref]
        for a, b in zip(ref, f32):
            assert a.t == b.t
            assert a.num_candidates == b.num_candidates
            for name in mechanisms:
                assert b.accuracies[name] == pytest.approx(
                    a.accuracies[name], rel=RTOL, abs=ATOL
                )
            for eps in BOUND_EPSILONS:
                assert b.theoretical_bounds[eps] == pytest.approx(
                    a.theoretical_bounds[eps], rel=RTOL, abs=ATOL
                )

    def test_weighted_paths_float32_within_tolerance(self):
        graph = wiki_vote(scale=0.06)
        utility = WeightedPaths(gamma=0.005)
        mechanisms = build_mechanisms(
            ExperimentConfig(
                scale=0.06, utility="weighted_paths", epsilons=(1.0,),
                include_laplace=False,
            ),
            utility.sensitivity(graph, 0),
        )
        targets = sample_targets(graph, 0.3, seed=7)
        ref = evaluate_targets_batched(
            graph, utility, targets, mechanisms, bound_epsilons=BOUND_EPSILONS, seed=11
        )
        f32 = evaluate_targets_batched(
            graph, utility, targets, mechanisms,
            bound_epsilons=BOUND_EPSILONS, seed=11, dtype="float32",
        )
        assert [e.target for e in f32] == [e.target for e in ref]
        for a, b in zip(ref, f32):
            assert b.accuracies == pytest.approx(a.accuracies, rel=1e-4, abs=1e-5)
            assert b.theoretical_bounds == pytest.approx(
                a.theoretical_bounds, rel=1e-4, abs=1e-5
            )


class TestKernelDtype:
    def test_score_rows_cast_once_from_float64(self, workload):
        graph, utility, _, targets = workload
        scores64 = score_rows(graph, utility, targets[:8])
        scores32 = score_rows(graph, utility, targets[:8], dtype="float32")
        assert scores32.dtype == np.float32
        np.testing.assert_array_equal(scores32, scores64.astype(np.float32))

    def test_fused_compact_preserves_dtype(self, workload):
        graph, utility, _, targets = workload
        for dtype in ("float32", "float64"):
            workspace = Workspace()
            scores = score_rows(graph, utility, targets[:8], dtype=dtype, workspace=workspace)
            mask = candidate_mask_rows(graph, targets[:8], workspace=workspace)
            chunk = fused_compact_rows(scores, mask, workspace=Workspace())
            assert chunk.compact.flat.dtype == np.dtype(dtype)
            assert chunk.compact.scaled.dtype == np.dtype(dtype)


#: Serving utilities: common neighbors fills in one sparse pass; weighted
#: paths fills through the budget-chunked dense paths (the default
#: ``support_scores``, and a patching cache's component fill).
SERVING_UTILITIES = ["common_neighbors", WeightedPaths(gamma=0.005)]


class TestServingBudget:
    @pytest.mark.parametrize("utility", SERVING_UTILITIES, ids=["cn", "wp"])
    def test_recommend_batch_identical_across_budgets(self, budget_rows, utility):
        graph = wiki_vote(scale=0.05)
        users = list(range(0, graph.num_nodes, 3)) * 2

        def picks():
            service = RecommendationService(
                graph, utility, epsilon=0.5, user_budget=1e9, seed=42
            )
            responses = service.recommend_batch(users)
            return [r.recommendations for r in responses], service.cache.snapshot()

        reference = picks()
        budget_rows(graph.num_nodes, 7)
        assert picks() == reference

    def test_service_serves_float64_rows(self):
        graph = wiki_vote(scale=0.05)
        service = RecommendationService(graph, seed=0)
        assert service.recommend(1).status == "served"
        assert len(service.recommend_top_k(2, k=3).recommendations) == 3
        service.recommend_batch([3, 4])
        for user in (1, 2, 3, 4):
            assert service.cache.get_resident(user).values.dtype == np.float64


class TestStreamingBudget:
    @pytest.mark.parametrize("utility", SERVING_UTILITIES, ids=["cn", "wp"])
    def test_replay_stream_identical_across_budgets(self, budget_rows, utility):
        graph = wiki_vote(scale=0.04)

        def picks():
            service = StreamingService(
                graph, utility, epsilon=0.5, user_budget=1e9, seed=3
            )
            events = synthetic_event_stream(
                graph, 120, add_fraction=0.1, remove_fraction=0.05, seed=5
            )
            recorded = []
            replay_stream(
                service, events, batch_size=16,
                on_response=lambda r: recorded.append(r.recommendations),
            )
            return recorded, service.cache.snapshot()

        reference = picks()
        budget_rows(graph.num_nodes, 5)
        assert picks() == reference

    def test_streaming_cache_stores_float64(self):
        graph = wiki_vote(scale=0.04)
        service = StreamingService(graph, seed=0)
        service.service.recommend(2)
        cached = service.service.cache.get_resident(2)
        assert cached.values.dtype == np.float64


class TestSweepDtype:
    def test_epsilon_sweep_float32_within_tolerance(self):
        graph = wiki_vote(scale=0.05)
        utility = build_utility(ExperimentConfig(scale=0.05))
        targets = sample_targets(graph, 0.2, max_targets=50, seed=7)
        ref = epsilon_sweep(graph, utility, targets, epsilons=(0.5, 1.0))
        f32 = epsilon_sweep(
            graph, utility, targets, epsilons=(0.5, 1.0), dtype="float32"
        )
        for a, b in zip(ref, f32):
            assert b.mean_accuracy == pytest.approx(a.mean_accuracy, rel=RTOL)
            assert b.mean_bound == pytest.approx(a.mean_bound, rel=RTOL)
