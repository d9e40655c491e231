"""Incremental utility maintenance: patch cached rows vs evict-and-recompute.

Replays one reproducible mutation-heavy add/remove/query event stream
(40% mutations, zipf-skewed query users) through two
:class:`~repro.streaming.engine.StreamingService` pipelines that differ
in exactly one switch:

* **evict** — ``incremental=False``: the PR-4 baseline; every journaled
  mutation selectively evicts the dirty cached rows, every re-query
  recomputes its row from scratch through the batched kernels;
* **patch** — ``incremental=True``: each mutation's journaled
  :class:`~repro.compute.incremental.EdgeScoreDelta` is scattered into
  the resident rows' exact walk-count components
  (:func:`~repro.compute.incremental.patch_utility_vector`), so hot rows
  stay resident across churn and only endpoint rows ever recompute.

Correctness gates run **before** any timing:

1. chunk-size x dtype identity — on a reduced replica, the patching and
   evicting pipelines must return *identical* recommendation sequences
   unchunked and at chunk size 4, under both compute dtypes
   (float64 / float32). Patching is exact integer arithmetic on
   walk counts, so this is bit-identity, not a tolerance check — for
   float32 the single end-rounding is the same one the fill path has
   (see DESIGN.md, "incremental dataflow" for the dtype contract);
2. resident-row equality — after the full-profile patch replay, every
   row still resident in the cache must equal a from-scratch recompute
   on the final graph, bit for bit;
3. the patch pipeline must actually patch (``patched_rows > 0``) and
   must never fall back to a full flush (``invalidations == 0``).

The acceptance target is >= 5x mutation-heavy streaming throughput over
the evict-and-recompute baseline at scale 0.5. Writes
``BENCH_incremental.json`` so CI uploads the patching trajectory
alongside ``BENCH_streaming.json``.

Run:  python benchmarks/bench_incremental.py [--smoke] [--scale S]
                                             [--events N] [--repeats R]
                                             [--batch-size B] [--output PATH]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from harness import best_of, finish, require

from repro.datasets import wiki_vote
from repro.streaming import StreamingService, replay_stream, synthetic_event_stream
from repro.utility import WeightedPaths

#: Event mix: mutation-heavy (40% of events flip an edge), queries
#: zipf-skewed so a hot user set is re-queried across mutation batches —
#: the workload incremental maintenance exists for.
ADD_FRACTION = 0.25
REMOVE_FRACTION = 0.15
ZIPF_EXPONENT = 3.0
EVENT_SEED = 7

#: Utility: weighted paths to length 4 — the deepest decomposable
#: utility the repo serves, where a from-scratch row recompute is most
#: expensive and the patch-vs-evict contrast is the honest one.
GAMMA = 0.005
MAX_LENGTH = 4

#: Patch-vs-evict crossover for the full profile, in scatter-cost
#: multiples of the row width (see DESIGN.md, "incremental dataflow" —
#: the measured break-even on this replica sits above 128).
PATCH_CROSSOVER = 128.0
COMPACT_EVERY = 400


def make_service(graph, *, incremental: bool, chunk_size=None, dtype=None):
    # Budget sized to never reject: rejection handling is not what we time.
    return StreamingService(
        graph,
        utility=WeightedPaths(gamma=GAMMA, max_length=MAX_LENGTH),
        epsilon=0.5,
        user_budget=1e12,
        seed=0,
        chunk_size=chunk_size,
        dtype=dtype,
        compact_every=COMPACT_EVERY,
        incremental=incremental,
        patch_crossover=PATCH_CROSSOVER,
    )


def make_events(graph, num_events: int):
    return synthetic_event_stream(
        graph,
        num_events,
        add_fraction=ADD_FRACTION,
        remove_fraction=REMOVE_FRACTION,
        seed=EVENT_SEED,
        zipf_exponent=ZIPF_EXPONENT,
    )


def collect_picks(graph, events, batch_size: int, *, incremental, chunk_size=None, dtype=None):
    """Replay through the production loop, capturing every recommendation."""
    service = make_service(
        graph, incremental=incremental, chunk_size=chunk_size, dtype=dtype
    )
    picks: list[tuple[int, ...]] = []
    replay_stream(
        service,
        events,
        batch_size=batch_size,
        on_response=lambda response: picks.append(tuple(response.recommendations)),
    )
    return picks, service


def time_replay(graph, events, batch_size: int, incremental: bool) -> float:
    service = make_service(graph, incremental=incremental)
    started = time.perf_counter()
    replay_stream(service, events, batch_size=batch_size)
    return time.perf_counter() - started


def check_identity_matrix(scale: float, num_events: int, batch_size: int) -> int:
    """Patch-on vs patch-off picks across chunk sizes and both dtypes.

    Runs on a reduced replica: the gate is about *exactness*, which does
    not depend on problem size, and a 2 x 2 matrix of paired replays at
    full scale would dwarf the timed section.
    """
    graph = wiki_vote(scale=scale)
    events = make_events(graph, num_events)
    checked = 0
    for dtype in ("float64", "float32"):
        for chunk_size in (None, 4):
            patched, patch_service = collect_picks(
                graph, events, batch_size,
                incremental=True, chunk_size=chunk_size, dtype=dtype,
            )
            evicted, _ = collect_picks(
                graph, events, batch_size,
                incremental=False, chunk_size=chunk_size, dtype=dtype,
            )
            require(
                patched == evicted,
                f"patching diverged from evict-and-recompute "
                f"(chunk_size={chunk_size}, dtype={dtype})",
            )
            snap = patch_service.cache.snapshot()
            require(
                snap["patched_rows"] > 0,
                f"identity matrix never exercised the patch path "
                f"(chunk_size={chunk_size}, dtype={dtype})",
            )
            checked += 1
    return checked


def check_resident_rows(service) -> int:
    """Every resident row equals a from-scratch recompute, bit for bit."""
    utility = service.service.utility
    graph = service.graph
    _, pairs = service.cache.export_entries()
    require(len(pairs) > 0, "no rows resident after the patch replay")
    for user, vector in pairs:
        expected = utility.utility_vector(graph, user)
        require(
            np.array_equal(vector.values, expected.values)
            and np.array_equal(vector.candidates, expected.candidates),
            f"resident row for user {user} diverged from a from-scratch recompute",
        )
    return len(pairs)


def run(
    scale: float,
    num_events: int,
    repeats: int,
    batch_size: int,
    identity_scale: float,
    identity_events: int,
) -> dict:
    identity_checked = check_identity_matrix(identity_scale, identity_events, batch_size)

    graph = wiki_vote(scale=scale)
    events = make_events(graph, num_events)
    num_mutations = sum(1 for event in events if event.is_mutation)
    require(num_mutations > 0, "event stream contains no mutations; nothing to gate")

    # Full-profile correctness before timing: one captured replay per
    # mode must agree pick-for-pick, the patch replay must never fall
    # back to a full flush, and whatever it left resident must match a
    # from-scratch recompute exactly.
    patched_picks, patch_service = collect_picks(
        graph, events, batch_size, incremental=True
    )
    evicted_picks, evict_service = collect_picks(
        graph, events, batch_size, incremental=False
    )
    require(
        patched_picks == evicted_picks,
        "patching diverged from evict-and-recompute on the full profile",
    )
    patch_snap = patch_service.cache.snapshot()
    evict_snap = evict_service.cache.snapshot()
    require(patch_snap["patched_rows"] > 0, "the patch path never ran")
    require(
        patch_snap["invalidations"] == 0,
        "incremental mode fell back to a full cache flush",
    )
    resident_checked = check_resident_rows(patch_service)

    evict_seconds = best_of(repeats, time_replay, graph, events, batch_size, False)
    patch_seconds = best_of(repeats, time_replay, graph, events, batch_size, True)

    return {
        "profile": {
            "dataset": "wiki_vote",
            "scale": scale,
            "utility": f"weighted_paths(gamma={GAMMA}, max_length={MAX_LENGTH})",
            "repeats": repeats,
            "batch_size": batch_size,
            "add_fraction": ADD_FRACTION,
            "remove_fraction": REMOVE_FRACTION,
            "zipf_exponent": ZIPF_EXPONENT,
            "patch_crossover": PATCH_CROSSOVER,
            "compact_every": COMPACT_EVERY,
            "identity_scale": identity_scale,
            "identity_events": identity_events,
        },
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "events": len(events),
        "mutations": num_mutations,
        "identity_checks": identity_checked,
        "resident_rows_checked": resident_checked,
        "evict_seconds": evict_seconds,
        "patch_seconds": patch_seconds,
        "evict_eps": len(events) / evict_seconds,
        "patch_eps": len(events) / patch_seconds,
        "speedup": evict_seconds / patch_seconds,
        "patch_cache": {
            "hits": patch_snap["hits"],
            "misses": patch_snap["misses"],
            "patched_rows": patch_snap["patched_rows"],
            "selective_evictions": patch_snap["selective_evictions"],
            "full_flushes": patch_snap["invalidations"],
        },
        "evict_cache": {
            "hits": evict_snap["hits"],
            "misses": evict_snap["misses"],
            "patched_rows": evict_snap["patched_rows"],
            "selective_evictions": evict_snap["selective_evictions"],
            "full_flushes": evict_snap["invalidations"],
        },
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.5, help="wiki replica scale")
    parser.add_argument("--events", type=int, default=8000, help="event stream length")
    parser.add_argument("--repeats", type=int, default=2, help="best-of-R timing")
    parser.add_argument("--batch-size", type=int, default=128, dest="batch_size")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        dest="min_speedup",
        help="fail below this patch/evict events-per-second ratio",
    )
    parser.add_argument(
        "--output",
        default="BENCH_incremental.json",
        help="where to write the JSON result",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast configuration for CI (still checks the identity "
        "matrix and the speedup gate the caller sets)",
    )
    args = parser.parse_args(argv)
    identity_scale, identity_events = 0.1, 400
    if args.smoke:
        args.scale, args.events, args.repeats = 0.1, 1200, 1

    result = run(
        args.scale,
        args.events,
        args.repeats,
        args.batch_size,
        identity_scale,
        identity_events,
    )
    print(
        f"wiki replica scale {args.scale}: {result['nodes']} nodes, "
        f"{result['edges']} edges, {result['events']} events "
        f"({result['mutations']} mutations)"
    )
    print(
        f"  identity:   {result['identity_checks']} chunk-size x dtype replays, "
        f"patch == evict pick-for-pick; "
        f"{result['resident_rows_checked']} resident rows == from-scratch"
    )
    print(
        f"  evict:      {result['evict_seconds']:.3f} s "
        f"({result['evict_eps']:,.0f} events/sec, "
        f"{result['evict_cache']['misses']:.0f} misses)"
    )
    print(
        f"  patch:      {result['patch_seconds']:.3f} s "
        f"({result['patch_eps']:,.0f} events/sec, "
        f"{result['patch_cache']['patched_rows']:.0f} rows patched, "
        f"{result['patch_cache']['misses']:.0f} misses)"
    )
    print(f"  speedup:    {result['speedup']:.1f}x")

    return finish(
        result,
        args.output,
        [
            (
                "speedup",
                args.min_speedup,
                "incremental patching vs the evict-and-recompute baseline",
            )
        ],
    )


if __name__ == "__main__":
    raise SystemExit(main())
