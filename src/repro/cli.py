"""Command-line interface.

Subcommands::

    repro-social figure 1a --scale 0.1 --out fig1a.json   # run a paper figure
    repro-social bounds                                    # Section 4.2 example
    repro-social dataset-stats wiki_vote --scale 0.1       # replica statistics
    repro-social sweep --scale 0.05 --targets 40           # epsilon sweep
    repro-social audit --epsilon 1.0                       # DP audit demo
    repro-social serve-sim --requests 2000 --batch-size 64 # serving replay
    repro-social stream-sim --events 3000 --add-frac 0.08  # mutate + serve
    repro-social stream-sim --wal run/ --snapshot-every 500 # durable replay
    repro-social recover run/ --resume                     # crash recovery
    repro-social serve --port 8080 --max-batch 16          # HTTP edge server
    repro-social metrics dump run.json --format table      # inspect telemetry
    repro-social metrics watch run.json --interval 2       # follow a dump file
    repro-social metrics watch --url http://localhost:8080 # scrape a live edge

``serve`` starts the :mod:`repro.edge` HTTP boundary over a streaming
service: concurrent ``POST /recommend`` requests are coalesced into the
vectorized batch path (``--max-batch`` / ``--flush-ms``), overload gets
typed 429/503 rejections journaled in the privacy ledger
(``--queue-limit`` / ``--user-inflight``), graph mutations arrive via
``POST /edge-event``, and ``GET /metrics`` exposes live Prometheus
text that ``metrics watch --url`` follows.

``stream-sim --wal DIR`` journals every edge event and batch commit into
a write-ahead log under ``DIR`` (with ``--snapshot-every N`` periodic
full-state snapshots); ``recover DIR`` rebuilds the service from that
directory alone — bit-identical to the uninterrupted run — and
``--resume`` continues the recorded stream where the crash cut it off.

``serve-sim`` and ``stream-sim`` accept ``--telemetry`` to instrument the
replay through :mod:`repro.telemetry` (metrics report + ledger
reconciliation after the summary) and ``--telemetry-out PATH`` to write
the full dump — metrics snapshot, spans, and the privacy ledger — as
JSON for ``repro-social metrics`` to read back.

Every command computes in float64 over sparse support rows
(:mod:`repro.compute`); none takes a chunk size.

Also runnable as ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import sys

from .attacks.edge_inference import audit_privacy
from .bounds.tradeoff import section_4_2_worked_example
from .datasets import toy, twitter, wiki_vote
from .experiments.figures import FIGURE_DRIVERS
from .experiments.reporting import render_figure_table, render_table
from .experiments.sweeps import epsilon_sweep, sweep_to_figure
from .graphs.stats import degree_summary, powerlaw_exponent_estimate
from .mechanisms.exponential import ExponentialMechanism
from .utility.common_neighbors import CommonNeighbors


def _build_cli_graph(args: argparse.Namespace):
    """The graph a sweep/serve-sim run works on, honoring the scale flags.

    ``--nodes N`` switches from the wiki replica to the synthetic
    power-law builder (assembled straight into the ``--backend``
    segment); otherwise ``--backend shm|mmap`` wraps the replica in a
    shared CSR. Returns the graph; callers must ``close()``/``unlink()``
    shared-backed ones when done (SharedSocialGraph instances only).
    """
    if args.nodes is not None:
        from .datasets import synthetic_powerlaw

        return synthetic_powerlaw(
            args.nodes, args.exponent, backend=args.backend
        )
    graph = wiki_vote(scale=args.scale)
    if args.backend != "heap":
        from .graphs.shared import SharedSocialGraph

        return SharedSocialGraph.from_graph(graph, backing=args.backend)
    return graph


def _close_cli_graph(graph) -> None:
    from .graphs.shared import SharedSocialGraph

    if isinstance(graph, SharedSocialGraph):
        graph.close()
        graph.unlink()


def _cmd_figure(args: argparse.Namespace) -> int:
    driver = FIGURE_DRIVERS[args.figure_id]
    kwargs: dict = {
        "scale": args.scale,
        "backend": args.backend,
        "nodes": args.nodes,
        "exponent": args.exponent,
    }
    if args.max_targets is not None:
        kwargs["max_targets"] = args.max_targets
    result = driver(**kwargs)
    print(render_figure_table(result))
    if args.out:
        result.save_json(args.out)
        print(f"\nsaved: {args.out}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    example = section_4_2_worked_example()
    rows = [[key, value] for key, value in example.items()]
    print("Section 4.2 worked example (Corollary 1):")
    print(render_table(["parameter", "value"], rows))
    print(
        "\nReading: a 0.1-differentially-private recommender on a 400M-node "
        f"network guarantees at most {example['accuracy_bound']:.2f} accuracy."
    )
    return 0


def _cmd_dataset_stats(args: argparse.Namespace) -> int:
    builders = {"wiki_vote": wiki_vote, "twitter": twitter}
    graph = builders[args.dataset](scale=args.scale)
    summary = degree_summary(graph)
    print(f"{args.dataset} replica at scale {args.scale}:")
    print(f"  nodes: {graph.num_nodes}")
    print(f"  edges: {graph.num_edges}")
    print(f"  directed: {graph.is_directed}")
    print(f"  degrees: {summary}")
    print(f"  power-law tail exponent (est.): {powerlaw_exponent_estimate(graph):.2f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .accuracy.evaluator import sample_targets

    graph = _build_cli_graph(args)
    try:
        targets = sample_targets(
            graph, 0.2, max_targets=args.targets, seed=args.seed
        )
        points = epsilon_sweep(graph, CommonNeighbors(), targets)
    finally:
        _close_cli_graph(graph)
    source = (
        f"synthetic n={args.nodes}" if args.nodes is not None
        else f"wiki scale {args.scale}"
    )
    figure = sweep_to_figure(
        points, "epsilon_sweep", f"Trade-off curve ({source})"
    )
    print(render_figure_table(figure))
    if args.out:
        figure.save_json(args.out)
        print(f"\nsaved: {args.out}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    graph = toy.paper_example_graph()
    utility = CommonNeighbors()
    mechanism = ExponentialMechanism(
        args.epsilon, sensitivity=utility.sensitivity(graph, 0)
    )
    audit = audit_privacy(
        mechanism, utility, graph, target=0, num_edges=args.edges, seed=args.seed
    )
    print("edge-inference audit (Exponential mechanism, toy example graph):")
    print(f"  claimed epsilon:   {audit.claimed_epsilon}")
    print(f"  empirical epsilon: {audit.empirical_epsilon:.4f}")
    print(f"  edges tested:      {audit.num_edges_tested}")
    print(f"  consistent:        {audit.is_consistent}")
    return 0 if audit.is_consistent else 1


def _make_telemetry(args: argparse.Namespace):
    """A Telemetry bundle when --telemetry/--telemetry-out asked for one."""
    if not (args.telemetry or args.telemetry_out):
        return None
    from .telemetry import Telemetry

    return Telemetry.create()


def _emit_telemetry(service, telemetry, args: argparse.Namespace) -> None:
    """Print the post-replay metrics report and reconcile the ledger."""
    registry = service.collect_metrics()
    print("\ntelemetry:")
    print(registry.render())
    ledger = telemetry.ledger
    print(
        f"  ledger:          {len(ledger)} entries "
        f"({ledger.num_refusals()} refusals)"
    )
    service.verify_ledger()
    print("  ledger reconciles with the live accountants")
    tracer = telemetry.tracer
    print(f"  spans:           {tracer.count()} recorded ({tracer.dropped} dropped)")
    if args.telemetry_out:
        import json

        with open(args.telemetry_out, "w") as handle:
            json.dump(telemetry.dump(), handle, indent=2)
        print(f"  saved: {args.telemetry_out}")


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    from .mechanisms.smoothing import SmoothingMechanism
    from .serving import RecommendationService, replay, synthetic_workload

    graph = _build_cli_graph(args)
    # Smoothing is parameterized by a mixing weight, not an epsilon; build
    # it here so the registry path stays epsilon-keyed for the others.
    mechanism = (
        SmoothingMechanism(args.smoothing_x)
        if args.mechanism == "smoothing"
        else args.mechanism
    )
    telemetry = _make_telemetry(args)
    service = RecommendationService(
        graph,
        mechanism=mechanism,
        epsilon=args.epsilon,
        user_budget=args.budget,
        seed=args.seed,
        telemetry=telemetry,
    )
    try:
        users = synthetic_workload(
            graph, args.requests, zipf_exponent=args.zipf, seed=args.seed
        )
        summary = replay(service, users, batch_size=args.batch_size)
        source = (
            f"synthetic power-law n={args.nodes} ({args.backend} backing)"
            if args.nodes is not None
            else f"wiki replica scale {args.scale}"
        )
        print(
            f"serve-sim: {args.mechanism} mechanism, epsilon={args.epsilon}, "
            f"budget={args.budget}/user, {source} "
            f"({graph.num_nodes} nodes)"
        )
        print(summary.render())
        cache = service.cache.snapshot()
        print(
            f"  cache:           {cache['hits']} hits / {cache['misses']} misses / "
            f"{cache['invalidations']} invalidations"
        )
        if telemetry is not None:
            _emit_telemetry(service, telemetry, args)
    finally:
        _close_cli_graph(graph)
    return 0


def _stream_config(args: argparse.Namespace) -> dict:
    """The stream-sim parameters that define the run's identity.

    Recorded in every snapshot and in the durability directory's
    ``config.json`` so ``repro-social recover`` can rebuild the same
    service and regenerate the same event stream without re-passing
    flags.
    """
    return {
        "scale": args.scale,
        "events": args.events,
        "add_frac": args.add_frac,
        "remove_frac": args.remove_frac,
        "zipf": args.zipf,
        "seed": args.seed,
        "batch_size": args.batch_size,
        "epsilon": args.epsilon,
        "budget": args.budget,
        "mechanism": args.mechanism,
        "window": args.window,
        "window_budget": args.window_budget,
        "compact_every": args.compact_every,
        "snapshot_every": args.snapshot_every,
    }


def _build_stream_service(config: dict, telemetry=None):
    from .serving import RecommendationService
    from .streaming import MutableSocialGraph

    graph = wiki_vote(scale=config["scale"])
    service = RecommendationService(
        MutableSocialGraph.from_graph(graph),
        mechanism=config["mechanism"],
        epsilon=config["epsilon"],
        user_budget=config["budget"],
        seed=config["seed"],
        window=config["window"],
        window_budget=config["window_budget"],
        compact_every=config["compact_every"],
        telemetry=telemetry,
    )
    return graph, service


def _build_stream_events(config: dict, graph):
    from .streaming import synthetic_event_stream

    return synthetic_event_stream(
        graph,
        config["events"],
        add_fraction=config["add_frac"],
        remove_fraction=config["remove_frac"],
        zipf_exponent=config["zipf"],
        seed=config["seed"],
    )


def _print_stream_header(config: dict, graph, service) -> None:
    window_note = (
        f"window={config['window']:g} (budget {service.window_budget:g})"
        if config["window"] is not None
        else "lifetime budgets only"
    )
    print(
        f"stream-sim: {config['mechanism']} mechanism, "
        f"epsilon={config['epsilon']}, {window_note}, "
        f"wiki replica scale {config['scale']} ({graph.num_nodes} nodes)"
    )


def _print_stream_cache(service) -> None:
    cache = service.cache.snapshot()
    print(
        f"  cache:           {cache['hits']} hits / {cache['misses']} misses / "
        f"{cache['invalidations']} flushes / {cache['selective_evictions']} "
        "selective evictions"
    )


def _cmd_stream_sim(args: argparse.Namespace) -> int:
    from .streaming import replay_stream

    config = _stream_config(args)
    telemetry = _make_telemetry(args)
    graph, service = _build_stream_service(config, telemetry)
    events = _build_stream_events(config, graph)
    if args.wal is not None:
        from .durability import replay_stream_durable

        summary = replay_stream_durable(
            service,
            events,
            directory=args.wal,
            batch_size=args.batch_size,
            snapshot_every=args.snapshot_every,
            sync_every=args.sync_every,
            config=config,
        )
        _print_stream_header(config, graph, service)
        print(summary.render())
        print(
            f"  durable:         WAL at {service.wal.path} "
            f"({service.wal.tail_offset()} bytes, fsync every "
            f"{args.sync_every} records)"
        )
    else:
        summary = replay_stream(service, events, batch_size=args.batch_size)
        _print_stream_header(config, graph, service)
        print(summary.render())
    _print_stream_cache(service)
    if telemetry is not None:
        _emit_telemetry(service, telemetry, args)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .durability import CONFIG_FILENAME, recover
    from .errors import RecoveryError

    directory = Path(args.directory)
    config_path = directory / CONFIG_FILENAME
    if not config_path.exists():
        raise RecoveryError(
            "durability directory has no config.json (was it written by "
            "`repro-social stream-sim --wal`?)",
            path=str(config_path),
        )
    with open(config_path) as handle:
        config = json.load(handle)

    telemetry = _make_telemetry(args)

    def build():
        _, service = _build_stream_service(config, telemetry)
        return service

    report = recover(directory, build, sync_every=args.sync_every)
    service = report.service
    print(f"recover: {directory}")
    if report.snapshot_path is not None:
        print(
            f"  snapshot:        {report.snapshot_path.name} "
            f"(events_done={report.snapshot_events_done})"
        )
    else:
        print("  snapshot:        none readable — full WAL replay")
    for path, reason in report.skipped_snapshots:
        print(f"  skipped:         {path.name} ({reason})")
    print(
        f"  wal:             {report.wal_records} records scanned, "
        f"{report.tail_records} replayed"
    )
    if report.truncated_at is not None:
        print(f"  torn tail:       truncated at byte {report.truncated_at}")
    print(
        f"  state:           {report.requests_done} requests, "
        f"{report.mutations_seen} mutation events, stamp "
        f"(epoch={service.epoch}, version={service.graph.version})"
    )
    if telemetry is not None:
        service.verify_ledger()
        print(
            f"  ledger:          {len(telemetry.ledger)} entries rebuilt; "
            "reconciles with the live accountants"
        )
    if args.resume:
        from .durability import replay_stream_durable

        # The stream regenerates from the recorded config over the same
        # pristine base graph the original run started from.
        events = _build_stream_events(config, wiki_vote(scale=config["scale"]))
        index = report.resume_index(events)
        if index >= len(events):
            print("  resume:          stream already complete; nothing to do")
            return 0
        summary = replay_stream_durable(
            service,
            events,
            directory=directory,
            batch_size=config["batch_size"],
            snapshot_every=config.get("snapshot_every"),
            sync_every=args.sync_every,
            config=config,
            start_index=index,
            last_snapshot_events=report.snapshot_events_done,
        )
        print(f"  resume:          continued from event {index}")
        print(summary.render())
        if telemetry is not None:
            service.verify_ledger()
            print("  ledger:          still reconciles after resume")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .edge import EdgeServer
    from .serving import RecommendationService
    from .streaming import MutableSocialGraph
    from .telemetry import Telemetry

    telemetry = Telemetry.create()
    graph = wiki_vote(scale=args.scale)
    service = RecommendationService(
        MutableSocialGraph.from_graph(graph),
        mechanism=args.mechanism,
        epsilon=args.epsilon,
        user_budget=args.budget,
        seed=args.seed,
        window=args.window,
        window_budget=args.window_budget,
        telemetry=telemetry,
    )
    server = EdgeServer(
        service,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        flush_seconds=args.flush_ms / 1000.0,
        queue_limit=args.queue_limit,
        user_inflight=args.user_inflight,
    )

    async def run() -> None:
        await server.start()
        print(
            f"serve: {args.mechanism} mechanism, epsilon={args.epsilon}, "
            f"wiki replica scale {args.scale} ({graph.num_nodes} nodes)"
        )
        print(f"  listening:       {server.url}")
        print(
            "  routes:          POST /recommend  POST /edge-event  "
            "GET /metrics  GET /healthz"
        )
        print(
            f"  coalescing:      up to {args.max_batch} requests / "
            f"{args.flush_ms:g} ms flush deadline"
        )
        try:
            if args.serve_seconds is not None:
                await asyncio.sleep(args.serve_seconds)
            else:
                await asyncio.Event().wait()  # until Ctrl-C
        finally:
            print("  draining ...")
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    registry = service.collect_metrics()
    served = registry.counter("edge.served").value
    requests = registry.counter("edge.requests").value
    ledger = telemetry.ledger
    print(
        f"  handled:         {requests:g} admitted requests, {served:g} served"
    )
    print(
        f"  ledger:          {len(ledger)} entries "
        f"({ledger.num_refusals()} refusals)"
    )
    service.verify_ledger()
    print("  ledger reconciles with the live accountants")
    return 0


def _load_dump(path: str) -> "tuple[object, dict]":
    """Read a --telemetry-out file (or bare snapshot) into a registry."""
    import json

    from .telemetry import MetricsRegistry

    with open(path) as handle:
        payload = json.load(handle)
    snapshot = payload.get("metrics", payload) if isinstance(payload, dict) else payload
    return MetricsRegistry.from_snapshot(snapshot), (
        payload if isinstance(payload, dict) else {}
    )


def _print_dump(path: str, fmt: str) -> None:
    registry, payload = _load_dump(path)
    if fmt == "json":
        print(registry.to_json())
        return
    if fmt == "prom":
        print(registry.to_prometheus())
        return
    print(f"metrics from {path}:")
    print(registry.render())
    ledger = payload.get("ledger")
    if ledger:
        refusals = sum(1 for entry in ledger if entry["kind"] == "refusal")
        print(f"  ledger:          {len(ledger)} entries ({refusals} refusals)")
    spans = payload.get("spans")
    if spans:
        print(f"  spans:           {len(spans)} recorded")


def _print_url(url: str, fmt: str) -> None:
    """Scrape a live edge server's /metrics endpoint and render it."""
    import json
    import urllib.request

    from .telemetry import MetricsRegistry

    base = url.rstrip("/")
    if fmt == "prom":
        # The edge already speaks Prometheus text; relay it verbatim.
        with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
            print(response.read().decode("utf-8"))
        return
    with urllib.request.urlopen(
        base + "/metrics?format=json", timeout=10
    ) as response:
        payload = json.loads(response.read())
    registry = MetricsRegistry.from_snapshot(payload["metrics"])
    if fmt == "json":
        print(registry.to_json())
        return
    print(f"metrics from {base}:")
    print(registry.render())


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.metrics_command == "dump":
        _print_dump(args.path, args.format)
        return 0
    # watch: re-read and re-render a dump file — or scrape a live edge
    # server's /metrics — on an interval.
    if (args.path is None) == (args.url is None):
        print(
            "metrics watch: give exactly one source — a dump file path "
            "or --url http://host:port",
            file=sys.stderr,
        )
        return 2
    import time

    iteration = 0
    while True:
        iteration += 1
        source = args.url if args.url else args.path
        print(f"--- watch #{iteration} ({time.strftime('%H:%M:%S')}) ---")
        try:
            if args.url:
                _print_url(args.url, args.format)
            else:
                _print_dump(args.path, args.format)
        except (OSError, ValueError) as error:
            print(f"  ({source} unreadable: {error})")
        if args.iterations and iteration >= args.iterations:
            return 0
        time.sleep(args.interval)


def _add_backend_arguments(subparser: argparse.ArgumentParser) -> None:
    """The graph-backing knobs of the scale-capable commands."""
    from .datasets import DEFAULT_SYNTHETIC_EXPONENT
    from .experiments.config import KNOWN_BACKENDS

    subparser.add_argument(
        "--backend",
        choices=KNOWN_BACKENDS,
        default="heap",
        help="graph backing store: heap = per-node sets (mutable), "
        "shm = shared-memory CSR, "
        "mmap = file-backed CSR (out of core); results are identical",
    )
    subparser.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="build a synthetic directed power-law graph with this many "
        "nodes instead of the wiki replica (the million-node path)",
    )
    subparser.add_argument(
        "--exponent",
        type=float,
        default=DEFAULT_SYNTHETIC_EXPONENT,
        help="power-law exponent of the --nodes synthetic graph",
    )


def _add_sync_every_argument(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--sync-every",
        type=int,
        default=64,
        dest="sync_every",
        metavar="N",
        help="fsync the write-ahead log every N records (group commit; "
        "0 disables periodic fsync)",
    )


def _add_telemetry_arguments(subparser: argparse.ArgumentParser) -> None:
    """The observability knobs of the replay commands."""
    subparser.add_argument(
        "--telemetry",
        action="store_true",
        help="instrument the replay and print a metrics report + ledger "
        "reconciliation after the summary",
    )
    subparser.add_argument(
        "--telemetry-out",
        type=str,
        default=None,
        dest="telemetry_out",
        help="write the full telemetry dump (metrics, spans, privacy ledger) "
        "as JSON here (implies --telemetry)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-social",
        description="Reproduction harness for 'Personalized Social "
        "Recommendations - Accurate or Private?' (VLDB 2011)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure = subparsers.add_parser("figure", help="run one paper figure")
    figure.add_argument("figure_id", choices=sorted(FIGURE_DRIVERS))
    figure.add_argument("--scale", type=float, default=0.1, help="replica scale in (0, 1]")
    figure.add_argument("--max-targets", type=int, default=None, dest="max_targets")
    figure.add_argument("--out", type=str, default=None, help="save result JSON here")
    _add_backend_arguments(figure)
    figure.set_defaults(func=_cmd_figure)

    bounds = subparsers.add_parser("bounds", help="print the Section 4.2 worked example")
    bounds.set_defaults(func=_cmd_bounds)

    stats = subparsers.add_parser("dataset-stats", help="summarize a dataset replica")
    stats.add_argument("dataset", choices=["wiki_vote", "twitter"])
    stats.add_argument("--scale", type=float, default=0.1)
    stats.set_defaults(func=_cmd_dataset_stats)

    sweep = subparsers.add_parser("sweep", help="epsilon sweep on the wiki replica")
    sweep.add_argument("--scale", type=float, default=0.05)
    sweep.add_argument("--targets", type=int, default=40)
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--out", type=str, default=None)
    _add_backend_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    audit = subparsers.add_parser("audit", help="empirical DP audit demo")
    audit.add_argument("--epsilon", type=float, default=1.0)
    audit.add_argument("--edges", type=int, default=10)
    audit.add_argument("--seed", type=int, default=0)
    audit.set_defaults(func=_cmd_audit)

    serve = subparsers.add_parser(
        "serve-sim", help="replay a synthetic traffic workload through the serving layer"
    )
    serve.add_argument("--scale", type=float, default=0.1, help="wiki replica scale in (0, 1]")
    serve.add_argument("--requests", type=int, default=2000, help="workload length")
    serve.add_argument("--batch-size", type=int, default=64, dest="batch_size")
    serve.add_argument("--epsilon", type=float, default=0.2, help="epsilon per release")
    serve.add_argument("--budget", type=float, default=5.0, help="lifetime epsilon per user")
    serve.add_argument(
        "--mechanism", type=str, default="exponential", help="registered mechanism name"
    )
    serve.add_argument(
        "--smoothing-x",
        type=float,
        default=0.5,
        dest="smoothing_x",
        help="mixing weight when --mechanism smoothing (its epsilon follows Theorem 5)",
    )
    serve.add_argument("--zipf", type=float, default=1.1, help="traffic skew exponent")
    serve.add_argument("--seed", type=int, default=0)
    _add_backend_arguments(serve)
    _add_telemetry_arguments(serve)
    serve.set_defaults(func=_cmd_serve_sim)

    stream = subparsers.add_parser(
        "stream-sim",
        help="replay an add/remove/query event stream through the streaming layer",
    )
    stream.add_argument("--scale", type=float, default=0.1, help="wiki replica scale in (0, 1]")
    stream.add_argument("--events", type=int, default=3000, help="event stream length")
    stream.add_argument(
        "--add-frac",
        type=float,
        default=0.05,
        dest="add_frac",
        help="fraction of events that add an edge",
    )
    stream.add_argument(
        "--remove-frac",
        type=float,
        default=0.05,
        dest="remove_frac",
        help="fraction of events that remove an edge (the rest are queries)",
    )
    stream.add_argument("--batch-size", type=int, default=64, dest="batch_size")
    stream.add_argument("--epsilon", type=float, default=0.2, help="epsilon per release")
    stream.add_argument("--budget", type=float, default=5.0, help="lifetime epsilon per user")
    stream.add_argument(
        "--window",
        type=float,
        default=None,
        help="sliding-window width on the event clock (enables window budgets)",
    )
    stream.add_argument(
        "--window-budget",
        type=float,
        default=None,
        dest="window_budget",
        help="epsilon allowed per user inside any window (default: --budget)",
    )
    stream.add_argument(
        "--compact-every",
        type=int,
        default=None,
        dest="compact_every",
        help="compact the delta overlay once it holds this many edges",
    )
    stream.add_argument(
        "--mechanism", type=str, default="exponential", help="registered mechanism name"
    )
    stream.add_argument("--zipf", type=float, default=1.1, help="query-traffic skew exponent")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--wal",
        type=str,
        default=None,
        metavar="DIR",
        help="journal the replay into this durability directory (write-ahead "
        "log + config.json); recover later with `repro-social recover DIR`",
    )
    stream.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        dest="snapshot_every",
        metavar="N",
        help="with --wal: also snapshot the full service state every N "
        "events (bounds recovery time; never changes results)",
    )
    _add_sync_every_argument(stream)
    _add_telemetry_arguments(stream)
    stream.set_defaults(func=_cmd_stream_sim)

    serve_http = subparsers.add_parser(
        "serve",
        help="start the HTTP edge (coalescing, admission control, /metrics)",
    )
    serve_http.add_argument("--host", type=str, default="127.0.0.1")
    serve_http.add_argument(
        "--port", type=int, default=8080, help="0 picks a free port"
    )
    serve_http.add_argument(
        "--scale", type=float, default=0.1, help="wiki replica scale in (0, 1]"
    )
    serve_http.add_argument(
        "--max-batch",
        type=int,
        default=16,
        dest="max_batch",
        help="coalesce up to this many concurrent /recommend requests "
        "into one engine batch (1 disables coalescing)",
    )
    serve_http.add_argument(
        "--flush-ms",
        type=float,
        default=2.0,
        dest="flush_ms",
        help="flush a partial batch once its oldest request waited this long",
    )
    serve_http.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        dest="queue_limit",
        help="pending requests admitted before 503 queue_full",
    )
    serve_http.add_argument(
        "--user-inflight",
        type=int,
        default=8,
        dest="user_inflight",
        help="concurrent in-flight requests per user before 429",
    )
    serve_http.add_argument(
        "--serve-seconds",
        type=float,
        default=None,
        dest="serve_seconds",
        help="drain and exit after this long (default: run until Ctrl-C)",
    )
    serve_http.add_argument("--epsilon", type=float, default=0.2)
    serve_http.add_argument(
        "--budget", type=float, default=5.0, help="lifetime epsilon per user"
    )
    serve_http.add_argument(
        "--window",
        type=float,
        default=None,
        help="sliding-window width on the event clock (enables window budgets)",
    )
    serve_http.add_argument(
        "--window-budget",
        type=float,
        default=None,
        dest="window_budget",
        help="epsilon allowed per user inside any window (default: --budget)",
    )
    serve_http.add_argument(
        "--mechanism", type=str, default="exponential",
        help="registered mechanism name",
    )
    serve_http.add_argument("--seed", type=int, default=0)
    serve_http.set_defaults(func=_cmd_serve)

    recover_cmd = subparsers.add_parser(
        "recover",
        help="rebuild a service from a --wal durability directory",
    )
    recover_cmd.add_argument(
        "directory", type=str, help="directory written by stream-sim --wal"
    )
    recover_cmd.add_argument(
        "--resume",
        action="store_true",
        help="after recovering, continue the recorded event stream to the end",
    )
    _add_sync_every_argument(recover_cmd)
    _add_telemetry_arguments(recover_cmd)
    recover_cmd.set_defaults(func=_cmd_recover)

    metrics = subparsers.add_parser(
        "metrics", help="inspect a --telemetry-out dump file"
    )
    metrics_subparsers = metrics.add_subparsers(dest="metrics_command", required=True)
    dump = metrics_subparsers.add_parser("dump", help="render a dump file once")
    dump.add_argument("path", type=str, help="JSON file written by --telemetry-out")
    dump.add_argument(
        "--format",
        choices=["table", "json", "prom"],
        default="table",
        help="table = human summary, json = registry JSON, prom = Prometheus text",
    )
    dump.set_defaults(func=_cmd_metrics)
    watch = metrics_subparsers.add_parser(
        "watch", help="follow a dump file or a live /metrics endpoint"
    )
    watch.add_argument(
        "path",
        type=str,
        nargs="?",
        default=None,
        help="JSON file written by --telemetry-out (omit when using --url)",
    )
    watch.add_argument(
        "--url",
        type=str,
        default=None,
        help="scrape a live edge server instead of a file "
        "(e.g. http://127.0.0.1:8080)",
    )
    watch.add_argument(
        "--format", choices=["table", "json", "prom"], default="table"
    )
    watch.add_argument(
        "--interval", type=float, default=2.0, help="seconds between renders"
    )
    watch.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after this many renders (0 = run until interrupted)",
    )
    watch.set_defaults(func=_cmd_metrics)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
