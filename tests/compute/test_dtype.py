"""Tests for compute-dtype plumbing across every batched hot path.

The contract (DESIGN.md, "memory dataflow"):

* **float64** (default) is bit-identical to the sequential reference —
  the engine returns the same evaluations under every chunking;
* **float32** is an opt-in half-memory path: same kept targets and same
  recommendations determinism (a fixed seed gives one answer no matter
  which chunk size ran it), with accuracies and bounds
  within a documented tolerance of the float64 run;
* dtype is a *compute* knob, never a semantics knob: nothing about
  budgets, audit records, or kept-target sets may depend on it.
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

CHUNKINGS = [{}, {"chunk_size": 9}, {"chunk_size": 1}]


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
        assert ComputePlan(10, 4, "float32").dtype == np.float32
        assert ComputePlan(10, 4).dtype == np.float64

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

    @pytest.mark.parametrize("kwargs", CHUNKINGS)
    def test_float64_identical_across_chunkings(self, workload, kwargs):
        assert engine(workload, **kwargs) == engine(workload)


class TestEngineFloat32:
    @pytest.mark.parametrize("kwargs", CHUNKINGS)
    def test_float32_identical_across_chunkings(self, workload, kwargs):
        reference = engine(workload, dtype="float32")
        assert engine(workload, dtype="float32", **kwargs) == reference

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


class TestServingDtype:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_recommend_batch_identical_across_chunk_sizes(self, dtype):
        graph = wiki_vote(scale=0.05)
        users = list(range(0, graph.num_nodes, 3)) * 2
        picks = []
        for chunk_size in (None, 7):
            service = RecommendationService(
                graph, epsilon=0.5, user_budget=1e9, seed=42, dtype=dtype,
                chunk_size=chunk_size,
            )
            responses = service.recommend_batch(users)
            picks.append([r.recommendations for r in responses])
        assert picks[0] == picks[1]

    def test_float32_service_still_serves_scalar_paths(self):
        graph = wiki_vote(scale=0.05)
        service = RecommendationService(graph, seed=0, dtype="float32")
        response = service.recommend(1)
        assert response.status == "served"
        top = service.recommend_top_k(2, k=3)
        assert len(top.recommendations) == 3


class TestStreamingDtype:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_replay_stream_identical_across_chunk_sizes(self, dtype):
        graph = wiki_vote(scale=0.04)
        picks = []
        for chunk_size in (None, 5):
            service = StreamingService(
                graph, epsilon=0.5, user_budget=1e9, seed=3, dtype=dtype,
                chunk_size=chunk_size,
            )
            events = synthetic_event_stream(
                graph, 120, add_fraction=0.1, remove_fraction=0.05, seed=5
            )
            recorded = []
            replay_stream(
                service, events, batch_size=16,
                on_response=lambda r: recorded.append(r.recommendations),
            )
            picks.append(recorded)
        assert picks[0] == picks[1]

    def test_streaming_cache_stores_at_service_dtype(self):
        graph = wiki_vote(scale=0.04)
        service = StreamingService(graph, seed=0, dtype="float32")
        service.service.recommend(2)
        cached = service.service.cache.get_resident(2)
        assert cached.values.dtype == np.float32


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
