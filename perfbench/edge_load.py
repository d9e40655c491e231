"""HTTP edge workloads: a server process driven by closed-loop clients.

``edge_wiki`` and ``edge_1e5`` run the program's HTTP edge
(:class:`repro.edge.EdgeServer` with the ``repro-social serve``
defaults: coalescing up to 16 requests, a 2 ms flush deadline, 256
queued requests) in a child process started from this file, so the load
generator never competes with the server for its interpreter lock. The
parent opens ``CLIENTS`` keep-alive connections — the 64 clients of
``benchmarks/bench_service_edge.py`` — and runs a closed loop on each:
the next ``POST /recommend`` leaves only after the previous answer
arrived. After the run's seconds the parent asks the child to drain and
stop. The per-user in-flight cap is raised to ``CLIENTS`` (``serve``: 8)
so that no request of a popular user is refused.

Traffic follows the popularity model of the program's own request
generators (:func:`common.popularity`). The utility cache is bounded to
``CACHE_BYTES`` of rows — unbounded, it would grow with every tail user
for as long as the server runs — and warmed at set-up by serving the
most popular users, so a run starts at the cache's steady state: the
head hits, the tail misses and pays the utility kernel.

Checks: the child validates every recommendation it produced against the
graph (never the user, never an existing neighbour), replays the first
batches on a fresh same-seed service (the edge's bit-identity contract)
and reconciles the privacy ledger; the parent checks every response it
received against what the child produced, joined on the response's
``(batch_seq, batch_index)`` tag.

The child probes the machine's speed (:func:`common.probe`) on its
compute thread between engine calls, at most every
``common.PROBE_INTERVAL`` seconds.

Child protocol: one JSON line on stdout once serving (port, node count,
set-up times); any line on stdin asks it to drain and stop, and it
answers with one JSON report line. EOF on stdin stops it as well, so a
parent that dies never leaves a server behind.

Timestamps that cross the process boundary come from ``time.monotonic``,
which on Linux reads the system-wide ``CLOCK_MONOTONIC`` in both
processes.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np

import common

CLIENTS = 64
MAX_BATCH = 16
FLUSH_SECONDS = 0.002
QUEUE_LIMIT = 256
EPSILON = 0.2
#: Large enough that no request of a run is ever refused for budget.
USER_BUDGET = 1e9
#: Memory bound of the utility cache. A row holds a candidate id and a
#: float64 utility per node: ~880 rows on wiki-vote, 62 at 10^5 nodes.
CACHE_BYTES = 96 * 2**20
WIKI_SCALE = 1.0
POWERLAW_NODES = 100_000
POWERLAW_EXPONENT = 2.2
POWERLAW_SEED = 20110905
#: Leading batches the child replays on a fresh service after the run.
REPLAY_BATCHES = 24
#: Seconds allowed for the child to start serving, and to drain and report
#: (both take a few seconds; a run must end within 180).
CHILD_TIMEOUT = 60

REQUEST_HEAD = (
    "POST /recommend HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    "Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
)


def cache_rows(num_nodes: int) -> int:
    return max(1, CACHE_BYTES // (16 * num_nodes))


def user_stream(num_nodes: int, seed: int):
    """The endless, seed-determined sequence of users the clients ask for."""
    users, cumulative = common.popularity(num_nodes, seed)
    rng = np.random.default_rng([seed, 1])
    while True:
        ranks = np.searchsorted(cumulative, rng.random(4096), side="right")
        yield from users[np.minimum(ranks, num_nodes - 1)].tolist()


# ----------------------------------------------------------------------
# Child: the server
# ----------------------------------------------------------------------
def build_graph(workload: str, path):
    if workload == "edge_wiki":
        from repro.datasets import wiki_vote

        return wiki_vote(scale=WIKI_SCALE)
    from repro.graphs.generators.powerlaw import build_powerlaw_shared

    return build_powerlaw_shared(
        POWERLAW_NODES, POWERLAW_EXPONENT, seed=POWERLAW_SEED, backing="mmap", path=path
    )


def release_graph(graph) -> None:
    """Close and remove a memory-mapped graph (heap graphs need nothing)."""
    if hasattr(graph, "unlink"):
        try:
            graph.close()
        except BufferError:
            pass  # views still referenced; the file goes away regardless
        graph.unlink()


def make_service(workload: str, graph, seed: int):
    """The service behind the edge, its cache warmed with the most popular users.

    Warming serves each of them once, so a fresh service built the same
    way has drawn the same samples and replays the run's batches
    bit-identically.
    """
    from repro import RecommendationService, StreamingService, Telemetry

    rows = cache_rows(graph.num_nodes)
    options = dict(
        epsilon=EPSILON, user_budget=USER_BUDGET, seed=seed,
        cache_max_entries=rows, telemetry=Telemetry.create(),
    )
    if workload == "edge_wiki":
        service = StreamingService(graph, **options)  # what `repro-social serve` builds
    else:
        # A shared CSR is frozen; a streaming service would copy it.
        service = RecommendationService(graph, **options)
    popular = common.popularity(graph.num_nodes, seed)[0][:rows].tolist()
    for start in range(0, rows, CLIENTS):
        service.recommend_batch(popular[start:start + CLIENTS])
    return service


class Stack:
    """One complete set-up: graph, service, batch recorder, running edge."""

    def __init__(self, workload: str, seed: int, path, clock) -> None:
        from repro.edge import serve_in_thread

        self.graph = build_graph(workload, path)
        self.service = make_service(workload, self.graph, seed)
        #: The RecommendationService doing the engine work.
        self.engine = self.service.service if workload == "edge_wiki" else self.service
        #: (started, ended, users, responses, engine layer seconds) per call.
        self.batches: "list[tuple]" = []
        self.prober = common.Prober(clock=time.monotonic)
        self._record_batches(clock)
        self.handle = serve_in_thread(
            self.service,
            max_batch=MAX_BATCH,
            flush_seconds=FLUSH_SECONDS,
            queue_limit=QUEUE_LIMIT,
            user_inflight=CLIENTS,
        )

    def _record_batches(self, clock) -> None:
        """Record every engine call the edge makes: timing, users, responses."""
        inner = self.service.submit_batch
        seconds = clock.seconds if clock is not None else {}
        batches, prober = self.batches, self.prober

        def submit_batch(users, *args, **kwargs):
            before = [seconds.get(layer, 0.0) for layer in common.ENGINE_LAYERS]
            started = time.monotonic()
            responses = inner(users, *args, **kwargs)
            batches.append((
                started, time.monotonic(), list(users), responses,
                [seconds.get(layer, 0.0) - value
                 for layer, value in zip(common.ENGINE_LAYERS, before)],
            ))
            prober.maybe(0.0)
            return responses

        self.service.submit_batch = submit_batch

    def close(self) -> None:
        self.handle.stop()
        release_graph(self.graph)


def check_served(stack: Stack, workload: str, seed: int) -> "list[str]":
    """Validate every produced recommendation; replay the leading batches."""
    problems: "list[str]" = []
    graph = stack.graph
    for _, _, users, responses, _ in stack.batches:
        for user, response in zip(users, responses):
            picks = response.recommendations
            if not response.served or len(picks) != 1:
                problems.append(f"user {user}: not served ({response.status})")
            elif picks[0] == user or graph.has_edge(user, picks[0]):
                problems.append(f"user {user}: recommended non-candidate {picks[0]}")
    fresh = make_service(workload, graph, seed)
    for index, (_, _, users, responses, _) in enumerate(stack.batches[:REPLAY_BATCHES]):
        again = fresh.recommend_batch(users)
        if [r.recommendations for r in again] != [r.recommendations for r in responses]:
            problems.append(f"batch {index}: differs from a serialized replay")
            break
    try:
        stack.service.verify_ledger()
    except Exception as error:  # noqa: BLE001 - reported as a failed check
        problems.append(f"ledger does not reconcile: {error}")
    return problems[:20]


def child_report(stack: Stack, workload: str, seed: int, clock) -> dict:
    report = {
        "problems": check_served(stack, workload, seed),
        "batches": [
            [started, ended, users,
             [r.recommendations[0] if r.recommendations else -1 for r in responses],
             layers]
            for started, ended, users, responses, layers in stack.batches
        ],
        "probes": stack.prober.probes,
        "layers": {},
        "untraced": [],
    }
    if clock is not None:
        layers = common.cache_layers(stack.service.cache, clock)
        wait = stack.service.collect_metrics().get("edge.queue_wait_seconds")
        if wait is None:
            clock.untraced.append("metric edge.queue_wait_seconds")
        else:
            layers["coalesce_wait_seconds"] = float(wait.total)
        report["layers"] = layers
        report["untraced"] = clock.untraced
    return report


def serve_main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(description="edge workload server (child)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    common.import_program()
    clock = common.LayerClock() if args.trace else None
    work = common.work_dir(f"{args.workload}-{os.getpid()}")
    stack = None
    try:
        setups = []
        for index in range(common.SETUP_REPEATS):
            if stack is not None:
                stack.close()
            started = time.perf_counter()
            stack = Stack(args.workload, args.seed, work / f"graph-{index}.csr", clock)
            setups.append(time.perf_counter() - started)
        if clock is not None:
            common.wrap_engine(clock, stack.engine)
        _emit({
            "port": stack.handle.server.port,
            "num_nodes": stack.graph.num_nodes,
            "setups": setups,
        })
        sys.stdin.readline()
        stack.handle.stop()
        _emit(child_report(stack, args.workload, args.seed, clock))
        return 0
    finally:
        if stack is not None:
            stack.close()
        common.remove_work_dir(work)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# Parent: the clients
# ----------------------------------------------------------------------
async def _drive(port: int, users, warmup: float, seconds: float):
    """Closed-loop keep-alive clients until the deadline; raw records."""
    records: "list[tuple]" = []
    connections = [
        await asyncio.open_connection("127.0.0.1", port) for _ in range(CLIENTS)
    ]
    measure_from = time.monotonic() + warmup
    stop_at = measure_from + seconds

    async def client(reader, writer) -> None:
        clock = time.monotonic
        while clock() < stop_at:
            user = next(users)
            body = b'{"user":%d}' % user
            sent = clock()
            writer.write((REQUEST_HEAD % len(body)).encode("latin-1") + body)
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n"):
                if line[:15].lower() == b"content-length:":
                    length = int(line[15:])
            payload = await reader.readexactly(length) if length else b""
            records.append((user, sent, clock(), head, payload))

    try:
        await asyncio.gather(*(client(r, w) for r, w in connections))
    finally:
        for _, writer in connections:
            writer.close()
        for _, writer in connections:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    return records, measure_from


def _read_line(child: subprocess.Popen) -> dict:
    """One JSON line from the child, killing it if it takes too long."""
    watchdog = threading.Timer(CHILD_TIMEOUT, child.kill)
    watchdog.start()
    try:
        line = child.stdout.readline()
    finally:
        watchdog.cancel()
    if not line:
        raise RuntimeError(f"edge server exited early (status {child.poll()})")
    return json.loads(line)


def _split_cpus() -> "tuple[set[int] | None, set[int] | None]":
    """CPUs for the server and for the load generator.

    With two or more CPUs the load generator gets the last one and the
    server the rest, so client work never competes with the server for a
    CPU and the placement is the same on every run. With one CPU both
    share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return set(cpus[:-1]), {cpus[-1]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> common.Outcome:
    server_cpus, client_cpus = _split_cpus()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        cwd=str(common.ROOT),
        preexec_fn=None if server_cpus is None else (
            lambda: os.sched_setaffinity(0, server_cpus)
        ),
    )
    if client_cpus is not None:
        os.sched_setaffinity(0, client_cpus)
    try:
        hello = _read_line(child)
        users = user_stream(hello["num_nodes"], seed)
        records, measure_from = asyncio.run(
            _drive(hello["port"], users, common.WARMUP_SECONDS, seconds)
        )
        child.stdin.write("stop\n")
        child.stdin.flush()
        report = _read_line(child)
        child.wait(timeout=CHILD_TIMEOUT)
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"edge server exited with status {child.returncode}")
    return _outcome(records, measure_from, hello, report, trace)


def _outcome(records, measure_from, hello, report, trace) -> common.Outcome:
    problems = list(report["problems"])
    batches = report["batches"]
    parsed = []
    failed = 0
    for user, sent, done, head, payload in records:
        status = head[9:12]
        try:
            body = json.loads(payload) if status == b"200" else {}
        except ValueError:
            body = {}
        recs = body.get("recommendations")
        if (
            status != b"200"
            or body.get("user") != user
            or body.get("epsilon_spent") != EPSILON
            or not isinstance(recs, list)
            or len(recs) != 1
        ):
            failed += 1
            if len(problems) < 20:
                problems.append(f"user {user}: bad response {head[:12]!r} {payload[:80]!r}")
            continue
        parsed.append(
            (user, sent, done, recs[0], body.get("batch_seq"), body.get("batch_index"))
        )

    # The k-th engine call the child recorded carries the k-th smallest
    # batch tag the clients saw (tags need not start at 0 or be dense).
    seqs = sorted({seq for *_, seq, _ in parsed if seq is not None})
    joined = len(seqs) == len(batches) and all(
        seq is not None and index is not None for *_, seq, index in parsed
    )
    if not joined:
        problems.append(
            f"{len(seqs)} batch tags seen by clients, {len(batches)} engine calls made"
        )
    rank = {seq: k for k, seq in enumerate(seqs)}
    edge_in = edge_out = compute = latency_total = 0.0
    engine = dict.fromkeys(common.ENGINE_LAYERS, 0.0)
    for user, sent, done, rec, seq, index in parsed if joined else ():
        started, ended, users, recs, batch_layers = batches[rank[seq]]
        if index >= len(users) or users[index] != user or recs[index] != rec:
            problems.append(f"user {user}: response differs from what the engine produced")
            break
        latency_total += done - sent
        edge_in += started - sent
        edge_out += done - ended
        compute += ended - started
        for layer, seconds in zip(common.ENGINE_LAYERS, batch_layers):
            engine[layer] += seconds

    layers: "dict[str, float]" = {}
    if trace:
        share = common.share
        layers = dict(report["layers"])
        layers.update({
            "edge_in_pct": share(edge_in, latency_total),
            "coalesce_wait_pct": share(
                layers.pop("coalesce_wait_seconds", 0.0), latency_total
            ),
            "edge_out_pct": share(edge_out, latency_total),
            "engine_other_pct": share(compute - sum(engine.values()), latency_total),
            "engine_calls": float(len(batches)),
            "batch_size_mean": len(records) / len(batches) if batches else 0.0,
        })
        layers.update({
            f"{layer}_pct": share(seconds, latency_total)
            for layer, seconds in engine.items()
        })
    return common.Outcome(
        ops=[(done - measure_from, done - sent, 1) for _, sent, done, *_ in parsed],
        probes=[(at - measure_from, seconds) for at, seconds in report["probes"]],
        setups=hello["setups"],
        attempted=len(records),
        failed=failed,
        problems=problems,
        layers=layers,
        untraced=report["untraced"],
    )


if __name__ == "__main__":
    raise SystemExit(serve_main(sys.argv[1:]))
