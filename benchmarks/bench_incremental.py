"""Cache patching under mutation-heavy streaming: exactness and throughput.

Replays one reproducible mutation-heavy add/remove/query event stream
(40% mutations, zipf-skewed query users) through a
:class:`~repro.streaming.engine.StreamingService` whose utility cache
patches stale rows: each mutation's journaled
:class:`~repro.compute.incremental.EdgeScoreDelta` is merged into the
resident support-form rows' sparse walk-count side-cars
(:func:`~repro.compute.incremental.patch_utility_vector`), so hot rows
stay resident across churn and only endpoint rows ever recompute.

Correctness gates run **before** any timing:

1. batch-split identity — on a reduced replica, the patching pipeline
   must return *identical* recommendation sequences to a full-flush
   reference (the same weighted-paths utility declaring no walk
   components, so its cache recomputes every row after every mutation)
   at four query batch sizes, from one request per batch up to the
   reference's own batch size. A served pick depends only on its row and
   its two uniforms, and each batch fills its misses from sparse walk
   rows, so no batch size may change a pick. Patching is exact integer
   arithmetic on walk counts, so this is bit-identity, not a tolerance
   check;
2. resident-row equality — after the full-profile replay, every row
   still resident in the cache must equal a from-scratch recompute on
   the final graph, bit for bit;
3. the replay must actually patch (``patched_rows > 0``) and must never
   fall back to a full flush (``invalidations == 0``).

Then the full-profile replay is timed (best of R) and reported as
``patch_eps``, events per second. The identity and resident-row counts
are embedded in ``BENCH_incremental.json`` as gates, so the committed
artifact is re-checked by ``scripts/check_bench_trajectory.py``.

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
#: the workload cache patching exists for.
ADD_FRACTION = 0.25
REMOVE_FRACTION = 0.15
ZIPF_EXPONENT = 3.0
EVENT_SEED = 7

#: Utility: weighted paths to length 4 — the deepest decomposable
#: utility the repo serves, where a from-scratch row recompute is most
#: expensive.
GAMMA = 0.005
MAX_LENGTH = 4
COMPACT_EVERY = 400

#: Query batch sizes the identity matrix replays at; each replay must
#: match the full-flush reference (run at the profile's batch size) pick
#: for pick.
IDENTITY_BATCH_SIZES = (1, 7, 32, 128)
IDENTITY_REPLAYS = len(IDENTITY_BATCH_SIZES)


class FlushingWeightedPaths(WeightedPaths):
    """The benchmark utility declaring no walk components.

    Its cache cannot patch, so it flushes on every mutation and
    recomputes each row from scratch: the reference a patched replay
    must match.
    """

    def walk_component_lengths(self):
        return None


def make_service(graph, *, utility_class=WeightedPaths):
    # Budget sized to never reject: rejection handling is not what we time.
    return StreamingService(
        graph,
        utility=utility_class(gamma=GAMMA, max_length=MAX_LENGTH),
        epsilon=0.5,
        user_budget=1e12,
        seed=0,
        compact_every=COMPACT_EVERY,
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


def collect_picks(graph, events, batch_size: int, **service_options):
    """Replay through the production loop, capturing every recommendation."""
    service = make_service(graph, **service_options)
    picks: list[tuple[int, ...]] = []
    replay_stream(
        service,
        events,
        batch_size=batch_size,
        on_response=lambda response: picks.append(tuple(response.recommendations)),
    )
    return picks, service


def time_replay(graph, events, batch_size: int) -> float:
    service = make_service(graph)
    started = time.perf_counter()
    replay_stream(service, events, batch_size=batch_size)
    return time.perf_counter() - started


def check_identity_matrix(scale: float, num_events: int, batch_size: int) -> int:
    """Patching picks at four query batch sizes vs one full-flush reference.

    Runs on a reduced replica: the gate is about *exactness*, which does
    not depend on problem size, and the full-flush reference recomputes
    every queried row after every mutation.
    """
    graph = wiki_vote(scale=scale)
    events = make_events(graph, num_events)
    flushed, _ = collect_picks(
        graph, events, batch_size, utility_class=FlushingWeightedPaths
    )
    checked = 0
    for size in IDENTITY_BATCH_SIZES:
        patched, patch_service = collect_picks(graph, events, size)
        require(
            patched == flushed,
            f"patching diverged from the full-flush reference (batches of {size})",
        )
        require(
            patch_service.cache.snapshot()["patched_rows"] > 0,
            f"identity matrix never exercised the patch path (batches of {size})",
        )
        checked += 1
    return checked


def check_resident_rows(service) -> int:
    """Every resident row equals a from-scratch recompute, bit for bit."""
    utility = service.utility
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

    # Full-profile correctness before timing: the replay must patch,
    # must never fall back to a full flush, and whatever it left
    # resident must match a from-scratch recompute exactly.
    _, service = collect_picks(graph, events, batch_size)
    snap = service.cache.snapshot()
    require(snap["patched_rows"] > 0, "the patch path never ran")
    require(snap["invalidations"] == 0, "the patching cache fell back to a full flush")
    resident_checked = check_resident_rows(service)

    patch_seconds = best_of(repeats, time_replay, graph, events, batch_size)

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
            "compact_every": COMPACT_EVERY,
            "identity_scale": identity_scale,
            "identity_events": identity_events,
            "identity_query_batches": list(IDENTITY_BATCH_SIZES),
        },
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "events": len(events),
        "mutations": num_mutations,
        "identity_checks": identity_checked,
        "resident_rows_checked": resident_checked,
        "patch_seconds": patch_seconds,
        "patch_eps": len(events) / patch_seconds,
        "patch_cache": {
            "hits": snap["hits"],
            "misses": snap["misses"],
            "patched_rows": snap["patched_rows"],
            "selective_evictions": snap["selective_evictions"],
            "full_flushes": snap["invalidations"],
        },
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.5, help="wiki replica scale")
    parser.add_argument("--events", type=int, default=8000, help="event stream length")
    parser.add_argument("--repeats", type=int, default=2, help="best-of-R timing")
    parser.add_argument("--batch-size", type=int, default=128, dest="batch_size")
    parser.add_argument(
        "--output",
        default="BENCH_incremental.json",
        help="where to write the JSON result",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast configuration for CI (still checks the identity "
        "matrix and the resident rows)",
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
        f"  identity:   {result['identity_checks']} batch-size replays, "
        f"patch == full flush pick-for-pick; "
        f"{result['resident_rows_checked']} resident rows == from-scratch"
    )
    print(
        f"  patch:      {result['patch_seconds']:.3f} s "
        f"({result['patch_eps']:,.0f} events/sec, "
        f"{result['patch_cache']['patched_rows']:.0f} rows patched, "
        f"{result['patch_cache']['misses']:.0f} misses)"
    )

    return finish(
        result,
        args.output,
        [
            (
                "identity_checks",
                IDENTITY_REPLAYS,
                "batch-size replays matching the full-flush reference",
            ),
            ("resident_rows_checked", 1, "resident rows equal to a recompute"),
        ],
    )


if __name__ == "__main__":
    raise SystemExit(main())
