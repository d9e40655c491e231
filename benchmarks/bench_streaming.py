"""Streaming throughput: delta-overlay serving vs. rebuild-per-event.

Replays one reproducible add/remove/query event stream (same mix, same
seed) through three pipelines:

* **naive** — the rebuild-per-event baseline: every query copies the
  initial graph, re-applies every mutation event so far, recomputes the
  target's utility vector from scratch, and samples. O(events x (n + m));
* **streaming** — :class:`~repro.streaming.engine.StreamingService` on a
  :class:`~repro.streaming.overlay.MutableSocialGraph`: O(1) overlay
  mutations, journal-guided selective cache eviction, batched serving
  through the compute kernels;
* **compacting** — the same service with ``compact_every=1``, i.e. the
  CSR base is rebuilt after every mutation and queries always run on an
  empty delta.

Correctness gates run **before** any timing:

1. bit-identity — the streaming and compacting pipelines, seeded
   identically, must return exactly the same recommendation sequence
   (compaction is a representation change, never a behavioral one);
2. the replay must actually mutate (a static stream would make the
   comparison vacuous).

The acceptance target for this repo is >= 5x sustained events/sec over
the naive baseline on the quick profile. Writes ``BENCH_streaming.json``
so CI uploads streaming throughput alongside ``BENCH_serving.json``,
``BENCH_experiment.json``, and ``BENCH_compute.json``.

Run:  python benchmarks/bench_streaming.py [--smoke] [--scale S]
                                           [--events N] [--repeats R]
                                           [--batch-size B] [--output PATH]
"""

from __future__ import annotations

import argparse
import time

from harness import best_of, finish, require

from repro.datasets import wiki_vote
from repro.mechanisms.exponential import ExponentialMechanism
from repro.rng import ensure_rng
from repro.streaming import StreamingService, replay_stream, synthetic_event_stream
from repro.utility import CommonNeighbors


def make_service(graph, epsilon: float, compact_every: "int | None" = None) -> StreamingService:
    # Budget sized to never reject: rejection handling is not what we time.
    return StreamingService(
        graph, epsilon=epsilon, user_budget=1e12, seed=0, compact_every=compact_every
    )


def collect_picks(graph, events, epsilon: float, batch_size: int, compact_every):
    """Replay through the production loop, capturing every recommendation."""
    service = make_service(graph, epsilon, compact_every=compact_every)
    picks: list[tuple[int, ...]] = []
    replay_stream(
        service,
        events,
        batch_size=batch_size,
        on_response=lambda response: picks.append(tuple(response.recommendations)),
    )
    return picks, service


def time_streaming(graph, events, epsilon: float, batch_size: int, compact_every):
    service = make_service(graph, epsilon, compact_every=compact_every)
    started = time.perf_counter()
    replay_stream(service, events, batch_size=batch_size)
    return time.perf_counter() - started


def time_naive(graph, events, epsilon: float) -> float:
    """Rebuild-per-event baseline: full snapshot + scratch utility per query."""
    utility = CommonNeighbors()
    sensitivity = utility.sensitivity(graph, 0)
    mechanism = ExponentialMechanism(epsilon, sensitivity=sensitivity)
    rng = ensure_rng(0)
    mutations: list = []
    started = time.perf_counter()
    for event in events:
        if event.is_mutation:
            mutations.append(event)
            continue
        snapshot = graph.copy()  # rebuild the state from the initial graph
        for past in mutations:
            if past.kind == "add":
                snapshot.try_add_edge(past.u, past.v)
            else:
                snapshot.try_remove_edge(past.u, past.v)
        vector = utility.utility_vector(snapshot, event.user)
        if vector.has_signal():
            mechanism.recommend(vector, seed=rng)
    return time.perf_counter() - started


def run(scale: float, num_events: int, repeats: int, epsilon: float, batch_size: int) -> dict:
    graph = wiki_vote(scale=scale)
    events = synthetic_event_stream(
        graph, num_events, add_fraction=0.06, remove_fraction=0.04, seed=7
    )
    num_mutations = sum(1 for event in events if event.is_mutation)
    require(num_mutations > 0, "event stream contains no mutations; nothing to gate")

    # Correctness gate first: overlay serving must be bit-identical to
    # compact-then-serve (compact_every=1) under the same RNG streams.
    overlay_picks, overlay_service = collect_picks(
        graph, events, epsilon, batch_size, compact_every=None
    )
    compact_picks, compact_service = collect_picks(
        graph, events, epsilon, batch_size, compact_every=1
    )
    require(
        overlay_picks == compact_picks,
        "delta-overlay serving diverged from compact-then-serve",
    )
    require(
        compact_service.compactions > 0 and overlay_service.compactions == 0,
        "compaction pipelines not exercised as intended",
    )

    naive = best_of(repeats, time_naive, graph, events, epsilon)
    streaming = best_of(repeats, time_streaming, graph, events, epsilon, batch_size, None)
    compacting = best_of(repeats, time_streaming, graph, events, epsilon, batch_size, 1)
    cache = overlay_service.cache.snapshot()
    return {
        "profile": {
            "dataset": "wiki_vote",
            "scale": scale,
            "epsilon": epsilon,
            "repeats": repeats,
            "batch_size": batch_size,
            "add_fraction": 0.06,
            "remove_fraction": 0.04,
        },
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "events": len(events),
        "mutations": num_mutations,
        "identity_overlay_vs_compact": True,
        "naive_seconds": naive,
        "streaming_seconds": streaming,
        "compacting_seconds": compacting,
        "naive_eps": len(events) / naive,
        "streaming_eps": len(events) / streaming,
        "compacting_eps": len(events) / compacting,
        "speedup": naive / streaming,
        "compacting_speedup": naive / compacting,
        "cache_full_flushes": cache["invalidations"],
        "cache_selective_evictions": cache["selective_evictions"],
        "cache_patched_rows": cache["patched_rows"],
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1, help="wiki replica scale")
    parser.add_argument("--events", type=int, default=3000, help="event stream length")
    parser.add_argument("--repeats", type=int, default=3, help="best-of-R timing")
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--batch-size", type=int, default=64, dest="batch_size")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        dest="min_speedup",
        help="fail below this streaming/naive events-per-second ratio",
    )
    parser.add_argument(
        "--output",
        default="BENCH_streaming.json",
        help="where to write the JSON result",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast configuration for CI (still checks identity + speedup)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale, args.events, args.repeats = 0.04, 600, 2

    result = run(args.scale, args.events, args.repeats, args.epsilon, args.batch_size)
    print(
        f"wiki replica scale {args.scale}: {result['nodes']} nodes, "
        f"{result['edges']} edges, {result['events']} events "
        f"({result['mutations']} mutations)"
    )
    print("  identity:   overlay serving == compact-then-serve (bit-identical)")
    print(
        f"  naive:      {result['naive_seconds']:.3f} s "
        f"({result['naive_eps']:,.0f} events/sec, rebuild per event)"
    )
    print(
        f"  streaming:  {result['streaming_seconds']:.3f} s "
        f"({result['streaming_eps']:,.0f} events/sec)"
    )
    print(
        f"  compacting: {result['compacting_seconds']:.3f} s "
        f"({result['compacting_eps']:,.0f} events/sec, compact_every=1)"
    )
    print(
        f"  cache:      {result['cache_full_flushes']} full flushes / "
        f"{result['cache_selective_evictions']} selective evictions"
    )
    print(f"  speedup:    {result['speedup']:.1f}x")

    return finish(
        result,
        args.output,
        [
            (
                "speedup",
                args.min_speedup,
                "streaming pipeline vs the rebuild-per-event baseline",
            )
        ],
    )


if __name__ == "__main__":
    raise SystemExit(main())
