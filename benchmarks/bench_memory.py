"""Memory benchmark: allocation pressure and full-scale residency of the engine.

Three questions, answered in one run:

1. **Identity and tolerance** — before anything is timed, the float64
   engine (:func:`~repro.accuracy.batch.evaluate_targets_batched`) must
   equal the sequential evaluator bit for bit, and the float32 engine
   must keep the same targets with accuracies and bounds inside the
   documented tolerance contract (DESIGN.md, "memory dataflow").

2. **Allocation pressure** — how many numpy array-constructor calls per
   evaluated target does the engine make? Dense blocks live in per-thread
   :class:`~repro.compute.workspace.Workspace` buffers and every stage is
   a handful of flat vectorized passes per chunk, so the count should
   stay well under one per target. Counted by an :class:`AllocationSpy`
   that wraps the numpy constructor/extraction API (``np.empty``,
   ``np.zeros``, ``np.concatenate``, ``np.repeat``, ``np.sort``,
   ``np.flatnonzero``, ...), plus the workspace's own take/allocation
   counters. Gate: ``targets_per_allocation >= 1``, i.e. at most one
   numpy allocation call per evaluated target. The float64 and float32
   engines are timed best-of-R at ``--scale`` (default 0.5), and the
   ratio is reported as ``float32_speedup`` — the figure that decides
   whether the float32 compute knob earns its place — without a gate.
   The timed grid is exponential-only, like ``bench_experiment_engine``.

3. **Full-scale feasibility** — one complete experiment-engine run at
   wiki-vote **scale=1.0** (the paper's full replica), recording
   targets/sec, peak RSS (``ru_maxrss``), whole-run tracemalloc peak,
   per-stage tracemalloc peaks (via the engine's ``memory`` hook), and
   the workspace's resident high-water mark, for float64 and float32.

Writes ``BENCH_memory.json``, keeping the ``trajectory`` list (the RSS
entries ``bench_scale.py --memory-json`` appends) of an existing output
file. ``--smoke`` shrinks to scale 0.1 and skips the full-scale run.

Run:  python benchmarks/bench_memory.py [--smoke]
          [--scale S] [--full-scale S] [--fraction F] [--repeats R]
          [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import tracemalloc

import numpy as np

from harness import best_of, finish, require, timed

from repro.accuracy.batch import STAGE_NAMES, evaluate_targets_batched
from repro.accuracy.evaluator import evaluate_targets, sample_targets
from repro.compute.workspace import get_workspace, reset_workspace
from repro.datasets import wiki_vote
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_mechanisms, build_utility

#: Mechanism grid: Figure 1(a)'s epsilon values.
MECHANISM_EPSILONS = (0.5, 1.0)
#: Bound grid: the dense curve epsilon_sweep traces (plus the grid above).
BOUND_EPSILONS = (0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0)
EVALUATION_SEED = 8

#: Documented float32 tolerance contract (also asserted by
#: tests/compute/test_dtype.py): accuracies within this relative error of
#: the float64 run, bounds within the matching absolute error.
FLOAT32_RTOL = 1e-5
FLOAT32_ATOL = 1e-6

#: At most one numpy allocation call per evaluated target.
MIN_TARGETS_PER_ALLOCATION = 1.0

#: numpy array-constructor / extraction entry points the spy wraps.
SPIED_FUNCTIONS = (
    "empty", "zeros", "ones", "full",
    "empty_like", "zeros_like", "ones_like", "full_like",
    "concatenate", "repeat", "tile",
    "sort", "argsort", "lexsort",
    "flatnonzero", "nonzero", "where", "compress",
    "arange", "cumsum",
)


class AllocationSpy:
    """Count calls into numpy's array-producing API while active."""

    def __init__(self) -> None:
        self.count = 0
        self._originals: dict[str, object] = {}

    def __enter__(self) -> "AllocationSpy":
        for name in SPIED_FUNCTIONS:
            original = getattr(np, name)
            self._originals[name] = original

            def wrapper(*args, __original=original, **kwargs):
                self.count += 1
                return __original(*args, **kwargs)

            setattr(np, name, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for name, original in self._originals.items():
            setattr(np, name, original)
        self._originals.clear()


def build_workload(scale: float, fraction: float):
    """Graph, utility, mechanisms, and target sample for one profile."""
    graph = wiki_vote(scale=scale)
    config = ExperimentConfig(
        scale=scale,
        epsilons=MECHANISM_EPSILONS,
        include_laplace=False,
        target_fraction=fraction,
        max_targets=None,
    )
    utility = build_utility(config)
    mechanisms = build_mechanisms(config, utility.sensitivity(graph, 0))
    targets = sample_targets(graph, fraction=fraction, seed=7)
    # Warm the shared CSR cache so no run pays the one-time build inside
    # its measured region (it belongs to the graph, not the evaluator).
    graph.adjacency_matrix()
    return graph, utility, mechanisms, targets


def engine_call(graph, utility, mechanisms, targets, **kwargs):
    return evaluate_targets_batched(
        graph, utility, targets, mechanisms,
        bound_epsilons=BOUND_EPSILONS, seed=EVALUATION_SEED, **kwargs,
    )


def measure_engine(graph, utility, mechanisms, targets, repeats: int, **kwargs) -> dict:
    """Best-of-R wall clock plus one spied allocation-count pass."""
    seconds = best_of(repeats, engine_call, graph, utility, mechanisms, targets, **kwargs)
    workspace = reset_workspace()
    with AllocationSpy() as spy:
        engine_call(graph, utility, mechanisms, targets, **kwargs)
    return {
        "seconds": seconds,
        "targets_per_sec": targets.size / seconds,
        "numpy_allocation_calls": spy.count,
        "allocations_per_target": spy.count / targets.size,
        "targets_per_allocation": targets.size / max(1, spy.count),
        "workspace": {
            "takes": workspace.takes,
            "fresh_allocations": workspace.allocations,
            "resident_bytes": workspace.resident_bytes,
        },
    }


def _accuracy_matrix(evaluations, mechanisms) -> np.ndarray:
    return np.asarray(
        [[e.accuracies[name] for name in mechanisms] for e in evaluations]
    )


def _bound_matrix(evaluations) -> np.ndarray:
    return np.asarray(
        [[e.theoretical_bounds[eps] for eps in BOUND_EPSILONS] for e in evaluations]
    )


def check_identity_and_tolerance(graph, utility, mechanisms, targets) -> dict:
    """Engine == sequential (float64) and the float32 tolerance contract."""
    sequential = evaluate_targets(
        graph, utility, targets, mechanisms,
        bound_epsilons=BOUND_EPSILONS, seed=EVALUATION_SEED,
    )
    engine = engine_call(graph, utility, mechanisms, targets)
    require(engine == sequential, "engine diverged from the sequential evaluator")
    f32 = engine_call(graph, utility, mechanisms, targets, dtype="float32")
    require(
        [e.target for e in f32] == [e.target for e in engine],
        "float32 run kept a different target set",
    )
    acc64, acc32 = _accuracy_matrix(engine, mechanisms), _accuracy_matrix(f32, mechanisms)
    bnd64, bnd32 = _bound_matrix(engine), _bound_matrix(f32)
    within = bool(
        np.allclose(acc32, acc64, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)
        and np.allclose(bnd32, bnd64, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)
    )
    require(within, "float32 accuracies or bounds exceed the documented tolerance")
    return {
        "float32_rtol_contract": FLOAT32_RTOL,
        "float32_atol_contract": FLOAT32_ATOL,
        "float32_max_abs_accuracy_diff": float(np.abs(acc32 - acc64).max()),
        "float32_max_abs_bound_diff": float(np.abs(bnd32 - bnd64).max()),
        "targets_evaluated": len(engine),
    }


def run_full_scale(scale: float, fraction: float) -> dict:
    """One complete scale-1.0 experiment-engine run with memory accounting."""
    graph, utility, mechanisms, targets = build_workload(scale, fraction)
    rows = {}
    for label, kwargs in (("float64", {}), ("float32", {"dtype": "float32"})):
        reset_workspace()
        seconds = timed(engine_call, graph, utility, mechanisms, targets, **kwargs)
        # Separate memory pass: tracemalloc roughly doubles wall-clock, so
        # it must not contaminate the timing above.
        reset_workspace()
        stage_seconds: dict[str, float] = {}
        stage_memory: dict[str, int] = {}
        tracemalloc.start()
        try:
            evaluations = engine_call(
                graph, utility, mechanisms, targets,
                timings=stage_seconds, memory=stage_memory, **kwargs,
            )
            _, traced_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        workspace = get_workspace()
        rows[label] = {
            "seconds": seconds,
            "targets_per_sec": targets.size / seconds,
            "targets_evaluated": len(evaluations),
            "tracemalloc_peak_bytes": int(traced_peak),
            "stage_seconds": {
                name: stage_seconds.get(name, 0.0) for name in STAGE_NAMES
            },
            "stage_tracemalloc_peak_bytes": {
                name: int(stage_memory.get(name, 0)) for name in STAGE_NAMES
            },
            "workspace_resident_bytes": workspace.resident_bytes,
            "workspace_buffers": workspace.num_buffers,
        }
    return {
        "scale": scale,
        "target_fraction": fraction,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "targets_sampled": int(targets.size),
        "peak_rss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "engines": rows,
    }


def existing_trajectory(path: str) -> list:
    """The ``trajectory`` list of an existing artifact at ``path``, if any."""
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle).get("trajectory", [])


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.5,
                        help="wiki replica scale for the gated measurements")
    parser.add_argument("--full-scale", type=float, default=1.0, dest="full_scale",
                        help="wiki replica scale for the full-scale memory run")
    parser.add_argument("--fraction", type=float, default=0.2,
                        help="fraction of eligible nodes sampled as targets "
                        "(the full-scale run uses the paper's 0.1)")
    parser.add_argument("--repeats", type=int, default=3, help="best-of-R timing")
    parser.add_argument("--output", default="BENCH_memory.json",
                        help="where to write the JSON result")
    parser.add_argument("--smoke", action="store_true",
                        help="CI configuration: scale 0.1, identity/tolerance "
                        "and allocation gates only, no full-scale run")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale, args.repeats = 0.1, 2

    result: dict = {
        "profile": {
            "dataset": "wiki_vote",
            "gate_scale": args.scale,
            "target_fraction": args.fraction,
            "mechanism_epsilons": list(MECHANISM_EPSILONS),
            "bound_epsilons": list(BOUND_EPSILONS),
            "repeats": args.repeats,
            "smoke": args.smoke,
        },
        "trajectory": existing_trajectory(args.output),
    }

    if not args.smoke:
        print(f"== full-scale run (wiki-vote scale {args.full_scale}, "
              "paper fraction 0.1) ==")
        full = run_full_scale(args.full_scale, fraction=0.1)
        result["full_scale"] = full
        for label, row in full["engines"].items():
            print(
                f"  {label}: {row['seconds']:.2f} s "
                f"({row['targets_per_sec']:,.0f} targets/sec, "
                f"{row['targets_evaluated']} evaluated), "
                f"tracemalloc peak {row['tracemalloc_peak_bytes'] / 1e6:.1f} MB, "
                f"workspace {row['workspace_resident_bytes'] / 1e6:.1f} MB"
            )
        print(f"  peak RSS: {full['peak_rss_kb'] / 1024:.0f} MB")

    print(f"\n== gated measurements (scale {args.scale}) ==")
    graph, utility, mechanisms, targets = build_workload(args.scale, args.fraction)
    print(f"  {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"{targets.size} targets")
    checks = check_identity_and_tolerance(graph, utility, mechanisms, targets)
    result["checks"] = checks
    # Recorded as gated fields so the committed artifact carries them;
    # check_identity_and_tolerance has already aborted a run where
    # either failed.
    result["identical_to_sequential"] = True
    result["float32_within_tolerance"] = True
    print("  identity: engine == sequential (float64, asserted)")
    print(f"  float32 tolerance: max |Δacc| = "
          f"{checks['float32_max_abs_accuracy_diff']:.2e}, max |Δbound| = "
          f"{checks['float32_max_abs_bound_diff']:.2e} "
          f"(contract rtol={FLOAT32_RTOL:g})")

    float64 = measure_engine(graph, utility, mechanisms, targets, args.repeats)
    float32 = measure_engine(
        graph, utility, mechanisms, targets, args.repeats, dtype="float32"
    )
    result["engine"] = {"float64": float64, "float32": float32}
    result["targets_per_allocation"] = float64["targets_per_allocation"]
    result["float32_speedup"] = float64["seconds"] / float32["seconds"]
    print(f"  float64: {float64['seconds'] * 1000:8.1f} ms   "
          f"{float64['allocations_per_target']:.2f} allocs/target")
    print(f"  float32: {float32['seconds'] * 1000:8.1f} ms   "
          f"{float32['allocations_per_target']:.2f} allocs/target")
    print(f"  float32 speedup over float64: {result['float32_speedup']:.2f}x "
          "(reported, not gated)")

    return finish(
        result,
        args.output,
        [
            ("identical_to_sequential", 1, "float64 engine == sequential evaluator"),
            ("float32_within_tolerance", 1, "float32 engine within tolerance"),
            (
                "targets_per_allocation",
                MIN_TARGETS_PER_ALLOCATION,
                "evaluated targets per numpy allocation call",
            ),
        ],
    )


if __name__ == "__main__":
    raise SystemExit(main())
