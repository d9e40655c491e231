"""Serving-layer throughput: sequential vs. batched recommendation paths.

Measures recs/sec on the Wikipedia-vote replica for the two ways the
:class:`~repro.serving.service.RecommendationService` can answer N
single-recommendation requests:

* **sequential** — one ``recommend(user)`` call per request (per-target
  utility computation + a one-row sampling pass);
* **batched** — one ``recommend_batch(users)`` call (one sparse
  ``A[targets] @ A`` product kept as support-form rows + one inverse-CDF
  pass over every row's support, two uniforms per request).

Both paths run on fresh service instances with cold caches, so the
comparison isolates vectorization rather than cache effects. The
acceptance target for this repo is a >= 5x speedup at 500 distinct
targets (scale 0.1 replica).

Writes ``BENCH_serving.json`` (profile + recs/sec for each path) through
``benchmarks/harness.py``, so the artifact carries its host and its
``min_speedup`` gate.

Run:  python benchmarks/bench_serving.py [--smoke] [--scale S]
                                         [--targets N] [--repeats R]
                                         [--output PATH]
"""

from __future__ import annotations

import argparse
import time

import numpy as np
from harness import finish

from repro.datasets import wiki_vote
from repro.serving import RecommendationService


def _make_service(graph, epsilon: float) -> RecommendationService:
    # Budget sized to never reject: rejection handling is not what we time.
    return RecommendationService(graph, epsilon=epsilon, user_budget=1e9, seed=0)


def time_sequential(graph, users: list[int], epsilon: float) -> float:
    service = _make_service(graph, epsilon)
    started = time.perf_counter()
    for user in users:
        service.recommend(user)
    return time.perf_counter() - started


def time_batched(graph, users: list[int], epsilon: float) -> float:
    service = _make_service(graph, epsilon)
    started = time.perf_counter()
    service.recommend_batch(users)
    return time.perf_counter() - started


def run(scale: float, num_targets: int, repeats: int, epsilon: float) -> dict:
    graph = wiki_vote(scale=scale)
    rng = np.random.default_rng(7)
    users = [
        int(u)
        for u in rng.choice(
            graph.num_nodes, size=min(num_targets, graph.num_nodes), replace=False
        )
    ]
    sequential = min(time_sequential(graph, users, epsilon) for _ in range(repeats))
    batched = min(time_batched(graph, users, epsilon) for _ in range(repeats))
    return {
        "profile": {
            "dataset": "wiki_vote",
            "scale": scale,
            "epsilon": epsilon,
            "repeats": repeats,
        },
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "targets": len(users),
        "sequential_seconds": sequential,
        "batched_seconds": batched,
        "sequential_rps": len(users) / sequential,
        "batched_rps": len(users) / batched,
        "speedup": sequential / batched,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1, help="wiki replica scale")
    parser.add_argument("--targets", type=int, default=500, help="distinct request users")
    parser.add_argument("--repeats", type=int, default=3, help="best-of-R timing")
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        dest="min_speedup",
        help="fail below this batched/sequential ratio (CI uses a lower gate "
        "since wall-clock ratios are noisy on shared runners)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_serving.json",
        help="where to write the JSON result",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast configuration for CI (still checks the speedup)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale, args.targets, args.repeats = 0.05, 200, 2

    result = run(args.scale, args.targets, args.repeats, args.epsilon)
    print(
        f"wiki replica scale {args.scale}: {result['nodes']} nodes, "
        f"{result['edges']} edges, {result['targets']} targets"
    )
    print(
        f"  sequential: {result['sequential_seconds']:.3f} s "
        f"({result['sequential_rps']:,.0f} recs/sec)"
    )
    print(
        f"  batched:    {result['batched_seconds']:.3f} s "
        f"({result['batched_rps']:,.0f} recs/sec)"
    )
    print(f"  speedup:    {result['speedup']:.1f}x")

    return finish(
        result,
        args.output,
        [("speedup", args.min_speedup, "batched path vs sequential speedup")],
    )


if __name__ == "__main__":
    raise SystemExit(main())
