"""Compute-layer benchmark: executor identity first, then parallel speedup.

Exercises the sharded :mod:`repro.compute` pipeline end to end on the
batched experiment engine — the heaviest consumer of the kernels — in two
phases:

1. **identity** (always): the same workload is evaluated unchunked-serial
   (the reference), chunked-serial, on a :class:`ThreadExecutor`, and on a
   :class:`ProcessExecutor`; all four must return *bit-identical*
   evaluations (same recommendations, accuracies, and bounds). A speedup
   over a wrong answer is worthless, so this runs before any timing.
2. **speedup** (gated): chunked-serial vs. the parallel executors,
   best-of-R wall clock. The acceptance target is a >= 2x speedup at 4
   workers on the quick profile. The gate only applies when the host
   actually exposes >= 2 usable CPUs — on a single-CPU container a
   wall-clock speedup is physically impossible, so the benchmark reports
   the measured ratio, records the CPU count in the JSON, and skips the
   gate with a loud note (identity above is still enforced).

The Laplace mechanism is *included* here (unlike
``bench_experiment_engine.py``, which times the batched-vs-sequential
ratio where Laplace is common-kernel noise): its per-target Monte-Carlo
streams are exactly the embarrassingly parallel work the executors exist
to shard.

Writes ``BENCH_compute.json`` (profile, identity verdict, per-executor
seconds and speedups, usable CPUs) so CI tracks the parallel path per PR.

Run:  python benchmarks/bench_compute.py [--smoke] [--scale S]
          [--fraction F] [--workers N] [--chunk-size C] [--repeats R]
          [--laplace-trials T] [--min-speedup X] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import time

from harness import usable_cpus

from repro.accuracy.batch import evaluate_targets_batched
from repro.accuracy.evaluator import sample_targets
from repro.compute import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.datasets import wiki_vote
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_mechanisms, build_utility

MECHANISM_EPSILONS = (0.5, 1.0)
BOUND_EPSILONS = (0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0)
EVALUATION_SEED = 8


def build_workload(scale: float, fraction: float, laplace_trials: int):
    graph = wiki_vote(scale=scale)
    config = ExperimentConfig(
        scale=scale,
        epsilons=MECHANISM_EPSILONS,
        include_laplace=True,
        laplace_trials=laplace_trials,
        target_fraction=fraction,
        max_targets=None,
    )
    utility = build_utility(config)
    mechanisms = build_mechanisms(config, utility.sensitivity(graph, 0))
    targets = sample_targets(graph, fraction=fraction, seed=7)
    graph.adjacency_matrix()  # warm the shared CSR cache outside timing
    return graph, utility, mechanisms, targets, laplace_trials


def evaluate(workload, **kwargs):
    graph, utility, mechanisms, targets, laplace_trials = workload
    return evaluate_targets_batched(
        graph,
        utility,
        targets,
        mechanisms,
        bound_epsilons=BOUND_EPSILONS,
        seed=EVALUATION_SEED,
        laplace_trials=laplace_trials,
        **kwargs,
    )


def check_identity(workload, executors: dict, chunk_size: int) -> int:
    """Assert all executors reproduce the unchunked-serial result, bit for bit."""
    reference = evaluate(workload)
    for label, executor in executors.items():
        result = evaluate(workload, chunk_size=chunk_size, executor=executor)
        if result != reference:
            raise AssertionError(
                f"{label} diverged from the unchunked serial reference "
                f"({len(result)} vs {len(reference)} evaluations)"
            )
    return len(reference)


def best_of(run, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def run_benchmark(
    scale: float,
    fraction: float,
    workers: int,
    chunk_size: "int | None",
    repeats: int,
    laplace_trials: int,
) -> dict:
    workload = build_workload(scale, fraction, laplace_trials)
    graph, _, _, targets, _ = workload
    if chunk_size is None:
        # Time exactly the layout production callers get: the plan's own
        # workers-aware default (two chunk waves per worker, capped).
        from repro.compute import ComputePlan

        chunk_size = ComputePlan.for_workers(
            int(targets.size), None, workers
        ).effective_chunk_size

    executors = {
        "serial": SerialExecutor(),
        "thread": ThreadExecutor(workers=workers),
        "process": ProcessExecutor(workers=workers),
    }
    kept = check_identity(workload, executors, chunk_size)

    seconds = {
        label: best_of(
            lambda executor=executor: evaluate(
                workload, chunk_size=chunk_size, executor=executor
            ),
            repeats,
        )
        for label, executor in executors.items()
    }
    speedups = {
        label: seconds["serial"] / seconds[label]
        for label in ("thread", "process")
    }
    return {
        "profile": {
            "dataset": "wiki_vote",
            "scale": scale,
            "target_fraction": fraction,
            "mechanism_epsilons": list(MECHANISM_EPSILONS),
            "bound_epsilons": list(BOUND_EPSILONS),
            "laplace_trials": laplace_trials,
            "workers": workers,
            "chunk_size": chunk_size,
            "repeats": repeats,
        },
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "targets_sampled": int(targets.size),
        "targets_evaluated": kept,
        "usable_cpus": usable_cpus(),
        "identical_results": True,
        "seconds": seconds,
        "speedups": speedups,
        "best_speedup": max(speedups.values()),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.25, help="wiki replica scale")
    parser.add_argument(
        "--fraction", type=float, default=0.2, help="fraction of nodes sampled"
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="parallel executor worker count"
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None, dest="chunk_size",
        help="targets per chunk (default: targets / (2 * workers))",
    )
    parser.add_argument("--repeats", type=int, default=2, help="best-of-R timing")
    parser.add_argument(
        "--laplace-trials", type=int, default=150, dest="laplace_trials",
        help="Monte-Carlo trials per target (the parallel-friendly load)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=2.0, dest="min_speedup",
        help="fail below this parallel/serial ratio at the configured worker "
        "count (skipped with a note when the host has < 2 usable CPUs)",
    )
    parser.add_argument(
        "--output", default="BENCH_compute.json", help="where to write the JSON result"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast configuration for CI (identity fully enforced; "
        "2 workers; speedup reported but gated leniently)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale, args.fraction, args.workers = 0.1, 0.2, 2
        args.repeats, args.laplace_trials = 1, 120
        args.min_speedup = min(args.min_speedup, 0.5)

    result = run_benchmark(
        args.scale, args.fraction, args.workers, args.chunk_size,
        args.repeats, args.laplace_trials,
    )
    print(
        f"wiki replica scale {args.scale}: {result['nodes']} nodes, "
        f"{result['edges']} edges, {result['targets_sampled']} targets "
        f"({result['targets_evaluated']} kept), "
        f"chunk_size={result['profile']['chunk_size']}, "
        f"workers={args.workers}, usable CPUs={result['usable_cpus']}"
    )
    print("  results identical across serial/thread/process: yes (asserted)")
    for label in ("serial", "thread", "process"):
        line = f"  {label:<8} {result['seconds'][label]:.3f} s"
        if label in result["speedups"]:
            line += f"  ({result['speedups'][label]:.2f}x vs serial)"
        print(line)

    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  wrote {args.output}")

    if result["usable_cpus"] < 2:
        print(
            "NOTE: host exposes a single usable CPU; a wall-clock parallel "
            f"speedup is not physically possible here, so the "
            f">= {args.min_speedup:g}x gate is skipped (identity was enforced). "
            f"Measured best ratio: {result['best_speedup']:.2f}x."
        )
        return 0
    if result["best_speedup"] < args.min_speedup:
        print(
            f"FAIL: best parallel executor is {result['best_speedup']:.2f}x, "
            f"below the {args.min_speedup:g}x gate at {args.workers} workers"
        )
        return 1
    print(
        f"OK: best parallel executor is >= {args.min_speedup:g}x faster "
        f"({result['best_speedup']:.2f}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
