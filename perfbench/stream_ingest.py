"""Durable streaming workload: a mutating event stream into a write-ahead log.

``stream_durable`` builds a :class:`repro.StreamingService` over the
wiki-vote replica, attaches a write-ahead log in the run's scratch
directory and ingests an endless, seed-drawn stream of edge additions,
edge removals and recommendation queries with
:func:`repro.durability.replay_stream_durable`, one call per
``CHUNK_EVENTS`` events. A chunk returns only after its records are
fsync'd, so one operation is one durable chunk and its latency is what a
writer of that chunk waits for; items are events.

Settings. The event mix (5% adds, 5% removes, queries for Zipf(1.1)
popular users), epsilon 0.2 and the query batch size of 64 are the
``repro-social stream-sim`` defaults. Two settings differ from them,
because ``stream-sim`` replays a short stream and this workload models
an unbounded one:

* the overlay is compacted every 256 delta edges (``stream-sim``:
  never), so it stays bounded and late chunks cost what early ones did;
* accounting uses a sliding window of 40 events (``stream-sim``:
  lifetime only), so the window accountants and their ledger rows are
  on the path.

Budgets are so large that no query is ever refused.

The stream is drawn here, not by the program's generator, so that a
change to the program cannot change the benchmark's inputs, and lazily,
so a faster program never runs out of events.

Checks: every served recommendation is validated against the graph as
it stood when the batch ran, no query may be refused, the log must hold
one edge record per mutation event, and the privacy ledger must
reconcile with the accountants.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
import time

import common

WIKI_SCALE = 1.0
CHUNK_EVENTS = 64
QUERY_BATCH = 64
ADD_FRACTION = 0.05
REMOVE_FRACTION = 0.05
SERVICE = dict(
    epsilon=0.2,
    user_budget=1e9,
    window=40.0,
    window_budget=1e9,
    compact_every=256,
)


def _build(seed: int, path):
    from repro import StreamingService, Telemetry
    from repro.datasets import wiki_vote
    from repro.durability import WriteAheadLog

    graph = wiki_vote(scale=WIKI_SCALE)
    service = StreamingService(
        graph, "common_neighbors", "exponential", seed=seed,
        telemetry=Telemetry.create(), **SERVICE,
    )
    service.attach_wal(WriteAheadLog(path))
    return graph, service


def event_source(graph, seed: int):
    """The endless, seed-determined event stream over ``graph``.

    Additions name uniformly drawn absent pairs and removals uniformly
    drawn present edges of an edge set tracked here from the graph's
    sorted edge list, so every event applies when replayed in order;
    queries ask for users drawn from :func:`common.popularity`. Event
    ``i`` happens at time ``i``.
    """
    from repro.streaming import KIND_ADD, KIND_QUERY, KIND_REMOVE, StreamEvent

    rng = random.Random(seed)
    num_nodes, directed = graph.num_nodes, graph.is_directed

    def canonical(u: int, v: int) -> "tuple[int, int]":
        return (u, v) if directed or u <= v else (v, u)

    edges = sorted({canonical(u, v) for u, v in graph.edges()})
    slots = {pair: slot for slot, pair in enumerate(edges)}
    users, cumulative = (array.tolist() for array in common.popularity(num_nodes, seed))
    for step in itertools.count():
        draw = rng.random()
        if draw < ADD_FRACTION:
            pair = (0, 0)
            while pair[0] == pair[1] or pair in slots:
                pair = canonical(rng.randrange(num_nodes), rng.randrange(num_nodes))
            slots[pair] = len(edges)
            edges.append(pair)
            yield StreamEvent(float(step), KIND_ADD, u=pair[0], v=pair[1])
        elif draw < ADD_FRACTION + REMOVE_FRACTION:
            slot = rng.randrange(len(edges))
            pair, last = edges[slot], edges[-1]
            edges[slot] = last
            slots[last] = slot
            edges.pop()
            del slots[pair]
            yield StreamEvent(float(step), KIND_REMOVE, u=pair[0], v=pair[1])
        else:
            rank = min(bisect.bisect_right(cumulative, rng.random()), num_nodes - 1)
            yield StreamEvent(float(step), KIND_QUERY, user=users[rank])


def _trace(clock: common.LayerClock, service) -> None:
    common.wrap_engine(clock, service.service)
    clock.wrap(service, "apply_edge_event", "mutation")
    clock.wrap(service, "recommend_batch", "batch")
    for attr in ("log_edge", "commit", "sync"):
        clock.wrap(service.wal, attr, f"wal_{attr}", group="wal")


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    from repro.durability import RECORD_EDGE, read_wal, replay_stream_durable

    work = common.work_dir(f"stream_durable-{os.getpid()}")
    try:
        setups = []
        service = None
        for index in range(common.SETUP_REPEATS):
            if service is not None:
                service.wal.close()
            started = time.perf_counter()
            graph, service = _build(seed, work / f"wal-{index}.log")
            setups.append(time.perf_counter() - started)

        source = event_source(graph, seed)
        clock = common.LayerClock() if trace else None
        if clock is not None:
            _trace(clock, service)

        live = service.graph
        problems: "list[str]" = []
        failed = 0

        def check(response) -> None:
            nonlocal failed
            picks = response.recommendations
            if (
                not response.served
                or len(picks) != 1
                or picks[0] == response.user
                or live.has_edge(response.user, picks[0])
            ):
                failed += 1
                if len(problems) < 20:
                    problems.append(f"user {response.user}: bad response {response}")

        prober = common.Prober()
        ops: "list[tuple[float, float, int]]" = []
        attempted = mutations = queries = 0
        measure_from = time.perf_counter() + common.WARMUP_SECONDS
        stop_at = measure_from + seconds
        while time.perf_counter() < stop_at:
            chunk = list(itertools.islice(source, CHUNK_EVENTS))
            prober.maybe(measure_from)
            started = time.perf_counter()
            summary = replay_stream_durable(
                service, chunk, directory=work, batch_size=QUERY_BATCH,
                on_response=check,
            )
            ended = time.perf_counter()
            ops.append((ended - measure_from, ended - started, len(chunk)))
            attempted += len(chunk)
            mutations += summary.num_mutations
            queries += summary.num_queries

        service.wal.close()
        records, _, torn = read_wal(service.wal.path)
        logged = sum(1 for record in records if record.tag == RECORD_EDGE)
        if logged != mutations or torn is not None:
            problems.append(
                f"write-ahead log holds {logged} edge records for {mutations} "
                f"mutation events (torn tail at {torn})"
            )
        try:
            service.verify_ledger()
        except Exception as error:  # noqa: BLE001 - reported as a failed check
            problems.append(f"ledger does not reconcile: {error}")

        layers: "dict[str, float]" = {}
        untraced: "list[str]" = []
        if clock is not None:
            share, spent = common.share, clock.seconds
            total = sum(latency for _, latency, _ in ops)
            engine = {layer: spent[layer] for layer in common.ENGINE_LAYERS}
            wal = spent["wal_log_edge"] + spent["wal_commit"] + spent["wal_sync"]
            batches = clock.calls["batch"]
            layers = common.cache_layers(service.cache, clock)
            layers.update(
                {f"{layer}_pct": share(value, total) for layer, value in engine.items()}
            )
            layers.update({
                "mutation_pct": share(spent["mutation"] - spent["wal_log_edge"], total),
                "wal_pct": share(wal, total),
                "engine_other_pct": share(
                    spent["batch"] - spent["wal_commit"] - sum(engine.values()), total
                ),
                "engine_calls": float(batches),
                "batch_size_mean": queries / batches if batches else 0.0,
            })
            untraced = clock.untraced
        return common.Outcome(
            ops=ops,
            probes=prober.probes,
            setups=setups,
            attempted=attempted,
            failed=failed,
            problems=problems,
            layers=layers,
            untraced=untraced,
        )
    finally:
        common.remove_work_dir(work)
