"""Experiment-engine throughput: sequential vs. batched target evaluation.

Measures the Section 7 measurement core — utilities, exponential-mechanism
accuracies, and Corollary 1 bounds for a sample of targets — both ways:

* **sequential** — :func:`repro.accuracy.evaluator.evaluate_targets`, the
  per-target reference implementation (one graph traversal, one candidate
  scan, and one threshold search per target and epsilon);
* **batched** — :func:`repro.accuracy.batch.evaluate_targets_batched`, the
  matrix pipeline (one ``A[targets] @ A`` utility product, one flat softmax
  kernel per epsilon, one shared threshold table per target).

The two paths are bit-identical by contract, and this benchmark *asserts*
that (same dropped targets, same accuracies, same bounds) before timing
anything — a speedup over a wrong answer is worthless.

The quick profile mirrors Figure 1(a): the Wikipedia-vote replica, common
neighbors, the mechanism grid at the paper's epsilons, and the theoretical
Corollary 1 bound evaluated on the dense epsilon grid the sweeps use. The
timed grid is exponential-only, as in every earlier entry of the
committed trajectory; both engines call the same per-row Laplace kernel,
and the test suite checks their Laplace columns for identity.

Writes ``BENCH_experiment.json`` with targets/sec for both engines, the
batched engine's per-stage wall-clock, and the ``--min-speedup`` gate it
was held to, so the perf trajectory is tracked per PR.

Run:  python benchmarks/bench_experiment_engine.py [--smoke]
          [--scale S] [--fraction F] [--utility U] [--repeats R]
          [--min-speedup X] [--output PATH]
"""

from __future__ import annotations

import argparse

from harness import best_of, finish, require

from repro.accuracy.batch import STAGE_NAMES, evaluate_targets_batched
from repro.accuracy.evaluator import evaluate_targets, sample_targets
from repro.datasets import wiki_vote
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_mechanisms, build_utility

#: Mechanism grid: Figure 1(a)'s epsilon values.
MECHANISM_EPSILONS = (0.5, 1.0)
#: Bound grid: the dense curve epsilon_sweep traces (plus the grid above).
BOUND_EPSILONS = (0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0)
EVALUATION_SEED = 8


def build_workload(scale: float, fraction: float, utility_name: str):
    """Graph, utility, mechanisms, and target sample for one profile."""
    graph = wiki_vote(scale=scale)
    config = ExperimentConfig(
        scale=scale,
        utility=utility_name,
        epsilons=MECHANISM_EPSILONS,
        include_laplace=False,
        target_fraction=fraction,
        max_targets=None,
    )
    utility = build_utility(config)
    mechanisms = build_mechanisms(config, utility.sensitivity(graph, 0))
    targets = sample_targets(graph, fraction=fraction, seed=7)
    # Warm the shared CSR cache so neither engine pays the one-time build
    # inside its timed region (it belongs to the graph, not the evaluator).
    graph.adjacency_matrix()
    return graph, utility, mechanisms, targets


def check_identity(graph, utility, mechanisms, targets) -> int:
    """Require batched == sequential (bit-for-bit) before timing; return kept."""
    sequential = evaluate_targets(
        graph, utility, targets, mechanisms,
        bound_epsilons=BOUND_EPSILONS, seed=EVALUATION_SEED,
    )
    batched = evaluate_targets_batched(
        graph, utility, targets, mechanisms,
        bound_epsilons=BOUND_EPSILONS, seed=EVALUATION_SEED,
    )
    require(
        sequential == batched,
        "batched engine diverged from the sequential evaluator: "
        f"{len(sequential)} vs {len(batched)} evaluations",
    )
    return len(batched)


def run_benchmark(
    scale: float, fraction: float, utility_name: str, repeats: int, smoke: bool
) -> dict:
    graph, utility, mechanisms, targets = build_workload(scale, fraction, utility_name)
    kept = check_identity(graph, utility, mechanisms, targets)

    sequential_seconds = best_of(
        repeats, evaluate_targets, graph, utility, targets, mechanisms,
        bound_epsilons=BOUND_EPSILONS, seed=EVALUATION_SEED,
    )
    stage_seconds: dict[str, float] = {}
    batched_seconds = best_of(
        repeats, evaluate_targets_batched, graph, utility, targets, mechanisms,
        bound_epsilons=BOUND_EPSILONS, seed=EVALUATION_SEED, timings=stage_seconds,
    )
    # The timings dict accumulates across repeats; report a per-run average.
    stages = {name: stage_seconds.get(name, 0.0) / repeats for name in STAGE_NAMES}
    return {
        "profile": {
            "dataset": "wiki_vote",
            "scale": scale,
            "utility": utility_name,
            "target_fraction": fraction,
            "mechanism_epsilons": list(MECHANISM_EPSILONS),
            "bound_epsilons": list(BOUND_EPSILONS),
            "repeats": repeats,
            "smoke": smoke,
        },
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "targets_sampled": int(targets.size),
        "targets_evaluated": kept,
        "identical_results": True,
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "sequential_targets_per_sec": targets.size / sequential_seconds,
        "batched_targets_per_sec": targets.size / batched_seconds,
        "speedup": sequential_seconds / batched_seconds,
        "batched_stage_seconds": stages,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.5, help="wiki replica scale")
    parser.add_argument(
        "--fraction", type=float, default=0.2, help="fraction of nodes sampled"
    )
    parser.add_argument(
        "--utility", default="common_neighbors",
        choices=("common_neighbors", "weighted_paths"),
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of-R timing")
    parser.add_argument(
        "--min-speedup", type=float, default=5.0, dest="min_speedup",
        help="fail below this sequential/batched ratio (CI uses a lower gate "
        "since wall-clock ratios are noisy on shared runners)",
    )
    parser.add_argument(
        "--output", default="BENCH_experiment.json",
        help="where to write the JSON result",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast configuration for CI (still checks identity + speedup)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale, args.fraction, args.repeats = 0.2, 0.25, 2

    result = run_benchmark(
        args.scale, args.fraction, args.utility, args.repeats, args.smoke
    )
    print(
        f"wiki replica scale {args.scale}: {result['nodes']} nodes, "
        f"{result['edges']} edges, {result['targets_sampled']} targets "
        f"({result['targets_evaluated']} kept), utility={args.utility}"
    )
    print("  results identical: yes (asserted before timing)")
    print(
        f"  sequential: {result['sequential_seconds']:.3f} s "
        f"({result['sequential_targets_per_sec']:,.0f} targets/sec)"
    )
    print(
        f"  batched:    {result['batched_seconds']:.3f} s "
        f"({result['batched_targets_per_sec']:,.0f} targets/sec)"
    )
    for name, seconds in result["batched_stage_seconds"].items():
        print(f"    stage {name:<10} {seconds * 1000:8.1f} ms")
    print(f"  speedup:    {result['speedup']:.1f}x")

    return finish(
        result,
        args.output,
        [("speedup", args.min_speedup, "batched engine vs the sequential evaluator")],
    )


if __name__ == "__main__":
    raise SystemExit(main())
