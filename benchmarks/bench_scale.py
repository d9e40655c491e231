"""Scale benchmark: shared-memory CSR graphs at a million nodes.

Exercises the scale path end to end and gates it in two phases:

1. **identity** (always): the full Section 7.1 engine and a serving batch
   are run on the same wiki replica twice — once on the plain heap
   :class:`~repro.graphs.graph.SocialGraph`, once on a shared-memory
   :class:`~repro.graphs.shared.SharedSocialGraph`. Both runs must be
   *bit-identical*: same evaluations, same recommendations. A faster or
   smaller wrong answer is worthless, so this runs before any timing.
2. **end-to-end scale run** (full mode): build a >= 10^6-node power-law
   graph straight into a shared segment (no Python edge sets), run the
   experiment engine on sampled targets and a serving batch on live
   users, and gate peak RSS (``ru_maxrss``) under ``--max-rss-gib``.
   The peak is also appended to ``BENCH_memory.json``'s ``trajectory``
   list so the memory story is tracked per PR alongside the fused-core
   numbers.

``--smoke`` (CI) runs the identity gate and a 10^5-node build only —
phase 2 reports nothing and gates nothing, keeping the job sub-minute.

Writes ``BENCH_scale.json``. Exits non-zero on any gate failure and on
leaked ``/dev/shm`` segments.

Run:  python benchmarks/bench_scale.py [--smoke] [--nodes N]
          [--exponent A] [--identity-scale S] [--max-targets T]
          [--serve-users U] [--max-rss-gib G] [--output PATH]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import time

from harness import usable_cpus

from repro.compute import reset_workspace
from repro.datasets import synthetic_powerlaw, wiki_vote
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.graphs.shared import SEGMENT_PREFIX, SharedSocialGraph
from repro.serving.service import RecommendationService

ENGINE_EPSILONS = (0.5, 1.0)
SERVE_SEED = 17
SERVE_EPSILON = 0.5


def peak_rss_bytes() -> int:
    """High-water resident set size of this process, in bytes."""
    # ru_maxrss is kilobytes on Linux (bytes on macOS, where this
    # benchmark's gate profile is not calibrated anyway).
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def leaked_segments() -> list[str]:
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


def _engine_config(scale: float, max_targets: int, **overrides) -> ExperimentConfig:
    # Laplace is excluded for the same reason bench_experiment_engine.py
    # excludes it: its Monte-Carlo draws a full-width noise vector per
    # trial (1000 x num_nodes doubles *per target* at 10^6 nodes), which
    # measures the noise generator, not the scale path under test.
    base = dict(
        scale=scale,
        epsilons=ENGINE_EPSILONS,
        include_laplace=False,
        target_fraction=0.1,
        max_targets=max_targets,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _serve_batch(graph, users: "list[int]") -> list:
    service = RecommendationService(graph, epsilon=SERVE_EPSILON, seed=SERVE_SEED)
    return service.recommend_batch(users)


def check_identity(scale: float, max_targets: int) -> dict:
    """Engine + serving, heap vs shared, bit for bit."""
    config = _engine_config(scale, max_targets)
    reference = run_experiment(config)
    shared_run = run_experiment(_engine_config(scale, max_targets, backend="shm"))
    if shared_run.evaluations != reference.evaluations:
        raise AssertionError("shm-backed engine run diverged from heap")

    heap_graph = wiki_vote(scale=scale)
    users = [int(u) for u in heap_graph.nodes()[:100]]
    heap_responses = _serve_batch(heap_graph, users)
    with SharedSocialGraph.from_graph(heap_graph) as shared_graph:
        shared_responses = _serve_batch(shared_graph, users)
    if shared_responses != heap_responses:
        raise AssertionError("shm-backed serving batch diverged from heap")
    return {
        "scale": scale,
        "engine_targets_evaluated": reference.num_targets_evaluated,
        "serving_users": len(users),
        "engine_heap_vs_shm": True,
        "serving_heap_vs_shm": True,
    }


def run_scale(
    nodes: int,
    exponent: float,
    max_targets: int,
    serve_users: int,
    smoke: bool,
) -> dict:
    result: dict = {}
    build_started = time.perf_counter()
    shared = synthetic_powerlaw(nodes, exponent, backend="shm")
    try:
        result["build"] = {
            "nodes": shared.num_nodes,
            "edges": shared.num_edges,
            "seconds": time.perf_counter() - build_started,
        }
        print(
            f"scale build: {shared.num_nodes:,} nodes, "
            f"{shared.num_edges:,} edges in "
            f"{result['build']['seconds']:.2f} s", flush=True,
        )
        if smoke:
            return result

        # Chunked throughout: a dense row block at 10^6 columns is 8 MB
        # per row, so unchunked passes would defeat the RSS gate by
        # construction rather than by regression.
        config = _engine_config(
            1.0, max_targets, dataset="synthetic", nodes=nodes,
            exponent=exponent, backend="shm", chunk_size=32,
        )
        engine_run = run_experiment(config, graph=shared)
        result["engine"] = {
            "targets_evaluated": engine_run.num_targets_evaluated,
            "seconds": engine_run.elapsed_seconds,
            "sensitivity": engine_run.sensitivity,
        }
        print(
            f"engine: {engine_run.num_targets_evaluated} targets in "
            f"{engine_run.elapsed_seconds:.2f} s", flush=True,
        )

        # The engine's workspace arena stays resident after its run;
        # release it so the serving phase's peak measures serving, not
        # the sum of both phases' buffers.
        reset_workspace()

        # Served in 32-user batches with a 32-entry cache. Dense rows were
        # ~16 MB per user at 10^6 nodes, which set these bounds; support-
        # form rows are a few hundred bytes, and the bounds are kept so
        # the serving rate stays comparable across commits.
        users = list(range(serve_users))
        service = RecommendationService(
            shared, epsilon=SERVE_EPSILON, seed=SERVE_SEED,
            chunk_size=32, cache_max_entries=32,
        )
        serve_started = time.perf_counter()
        responses = []
        for lo in range(0, len(users), 32):
            responses.extend(service.recommend_batch(users[lo : lo + 32]))
        serve_seconds = time.perf_counter() - serve_started
        result["serving"] = {
            "users": len(users),
            "served": sum(1 for r in responses if r.served),
            "seconds": serve_seconds,
            "recs_per_sec": len(users) / serve_seconds,
        }
        print(
            f"serving: {result['serving']['served']}/{len(users)} users "
            f"served in {serve_seconds:.2f} s "
            f"({result['serving']['recs_per_sec']:.0f} recs/sec)", flush=True,
        )

        return result
    finally:
        shared.close()
        shared.unlink()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--nodes", type=int, default=1_000_000,
        help="synthetic power-law graph size for the scale phases",
    )
    parser.add_argument(
        "--exponent", type=float, default=2.2, help="power-law exponent"
    )
    parser.add_argument(
        "--identity-scale", type=float, default=0.5, dest="identity_scale",
        help="wiki replica scale for the heap-vs-shm identity phase",
    )
    parser.add_argument(
        "--max-targets", type=int, default=200, dest="max_targets",
        help="targets evaluated by the engine phases",
    )
    parser.add_argument(
        "--serve-users", type=int, default=300, dest="serve_users",
        help="users in the scale serving batch",
    )
    parser.add_argument(
        "--max-rss-gib", type=float, default=4.0, dest="max_rss_gib",
        help="fail when peak RSS exceeds this many GiB (full mode only)",
    )
    parser.add_argument(
        "--output", default="BENCH_scale.json", help="where to write the JSON result"
    )
    parser.add_argument(
        "--memory-json", default="BENCH_memory.json", dest="memory_json",
        help="BENCH_memory.json to append the RSS trajectory entry to",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI configuration: identity gate and a 10^5-node build only",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.nodes = min(args.nodes, 100_000)
        args.identity_scale = min(args.identity_scale, 0.1)
        args.max_targets = min(args.max_targets, 100)

    pre_existing = leaked_segments()
    if pre_existing:
        print(f"FAIL: stale shared segments before the run: {pre_existing}")
        return 1

    identity = check_identity(args.identity_scale, args.max_targets)
    print(
        f"identity: wiki scale {args.identity_scale}: engine heap == shm "
        f"and serving heap == shm, over "
        f"{identity['engine_targets_evaluated']} targets / "
        f"{identity['serving_users']} users (asserted)"
    )

    scale = run_scale(
        args.nodes, args.exponent, args.max_targets, args.serve_users, args.smoke,
    )
    build = scale["build"]

    rss = peak_rss_bytes()
    result = {
        "profile": {
            "mode": "smoke" if args.smoke else "full",
            "nodes": args.nodes,
            "exponent": args.exponent,
            "identity_scale": args.identity_scale,
            "max_targets": args.max_targets,
            "serve_users": args.serve_users,
        },
        "usable_cpus": usable_cpus(),
        "identity": identity,
        "peak_rss_bytes": rss,
        **scale,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"peak RSS: {rss / 2**30:.2f} GiB; wrote {args.output}")

    failures = []
    if not args.smoke:
        if rss > args.max_rss_gib * 2**30:
            failures.append(
                f"peak RSS {rss / 2**30:.2f} GiB exceeds the "
                f"{args.max_rss_gib:g} GiB gate"
            )
        # Memory trajectory: the scale run's peak RSS rides along in
        # BENCH_memory.json so one artifact tells the memory story.
        if os.path.exists(args.memory_json):
            with open(args.memory_json, "r", encoding="utf-8") as handle:
                memory_doc = json.load(handle)
            memory_doc.setdefault("trajectory", []).append(
                {
                    "benchmark": "bench_scale",
                    "nodes": build["nodes"],
                    "edges": build["edges"],
                    "peak_rss_bytes": rss,
                }
            )
            with open(args.memory_json, "w", encoding="utf-8") as handle:
                json.dump(memory_doc, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"appended RSS trajectory entry to {args.memory_json}")
        else:
            print(f"NOTE: {args.memory_json} not found; trajectory entry skipped")

    leaks = leaked_segments()
    if leaks:
        failures.append(f"leaked shared segments after the run: {leaks}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    gates = "identity" if args.smoke else "all"
    print(f"OK: {gates} gates passed; no shared segments leaked")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
