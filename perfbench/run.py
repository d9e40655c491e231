"""End-to-end benchmark of the private recommender, with per-layer traces.

Run from the repository root; the program is imported from ``src/``::

    python3 perfbench/run.py --workload edge_wiki --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` records why each one exists):

* ``edge_wiki`` — the HTTP edge over the wiki-vote replica, 64
  closed-loop keep-alive clients asking for Zipf(1.1)-popular users, the
  utility cache bounded and warmed at set-up: most requests hit.
* ``edge_1e5`` — the same edge and traffic over a 10^5-node power-law
  graph in a memory-mapped CSR; the same cache memory holds 62 rows, so
  most requests miss and pay the utility kernel.
* ``stream_durable`` — a mutating event stream through a streaming
  service journaling to a write-ahead log, ingested in fsync'd chunks.
* ``engine_twitter`` — the Section 7 experiment engine on the Twitter
  replica: exact accuracies and Corollary 1 bounds per target chunk.

Each workload counts *operations* (an HTTP request, a durable chunk, an
engine call) and *items* (requests, events, targets). The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics:
operation latency median and 90th percentile and items per second over
the one-second windows of the timed run in which the machine ran fastest
(see ``_kept_windows``), and the median of several complete set-ups
(graph build, service, warm cache, listening server where there is one).
``--trace 1`` wraps each layer's entry point with timers and reports the
per-layer metrics instead; a layer a workload does not pass through
reads 0, and entry points that could not be traced are named on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys

import common

WORKLOADS = ("edge_wiki", "edge_1e5", "stream_durable", "engine_twitter")
WINDOW_SECONDS = 1.0
#: Share of the timed run's one-second windows the end-to-end metrics use.
KEEP_SHARE = 0.25

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "items_per_s": "1/s",
    "setup_s": "s",
}

#: Shares are percentages of the summed operation latency of the run.
PER_LAYER = {
    "edge_in_pct": "%",          # request sent -> engine call starts
    "coalesce_wait_pct": "%",    # of which: parked in the coalescing queue
    "edge_out_pct": "%",         # engine call returns -> response read
    "utility_kernel_pct": "%",   # utility rows computed
    "sampler_pct": "%",          # mechanism sampling
    "cache_patch_pct": "%",      # stale cached rows reconciled and patched
    "accounting_pct": "%",       # budget checks and charges, records, ledger rows
    "candidates_pct": "%",       # candidate masks and compaction (engine)
    "accuracy_pct": "%",         # exact expected accuracies (engine)
    "bounds_pct": "%",           # Corollary 1 bounds (engine)
    "mutation_pct": "%",         # graph mutation, dirty tracking, compaction
    "wal_pct": "%",              # write-ahead log appends, commits, fsyncs
    "engine_other_pct": "%",     # rest of the engine: cache lookups, batching
    "engine_calls": "count",
    "batch_size_mean": "count",  # items per engine call
    "cache_hit_pct": "%",
    "cache_misses": "count",
    "patched_rows": "count",
}


def _run(workload: str, seed: int, seconds: float, trace: bool) -> common.Outcome:
    if workload.startswith("edge_"):
        import edge_load

        return edge_load.run(workload, seed, seconds, trace)
    if workload == "stream_durable":
        import stream_ingest

        return stream_ingest.run(seed, seconds, trace)
    import engine_eval

    return engine_eval.run(seed, seconds, trace)


def _kept_windows(outcome: common.Outcome, seconds: float):
    """The one-second windows of the timed run in which the machine ran fastest.

    Shared machines slow down for seconds at a time, which swings whole
    runs by a quarter. Windows are ranked by the median of the
    machine-speed probes taken in them (:func:`common.probe`), never by
    the program's own figures, so the program's periodic work —
    compactions, garbage collection, bursts of cache misses — falls into
    the kept windows at its usual rate. Each kept window holds the
    ``(end, latency, items)`` of the operations that completed in it, in
    completion order.
    """
    count = max(1, int(seconds // WINDOW_SECONDS))
    ops: "list[list[tuple[float, float, int]]]" = [[] for _ in range(count)]
    probes: "list[list[float]]" = [[] for _ in range(count)]
    for op in sorted(outcome.ops):
        if 0 <= op[0] < count * WINDOW_SECONDS:
            ops[int(op[0] // WINDOW_SECONDS)].append(op)
    for at, duration in outcome.probes:
        if 0 <= at < count * WINDOW_SECONDS:
            probes[int(at // WINDOW_SECONDS)].append(duration)
    speed = [statistics.median(window) if window else math.inf for window in probes]
    ranked = sorted(range(count), key=speed.__getitem__)
    return [ops[index] for index in ranked[:max(1, round(count * KEEP_SHARE))]]


def _end_to_end(outcome: common.Outcome, seconds: float) -> "dict[str, float]":
    kept = [window for window in _kept_windows(outcome, seconds) if len(window) > 1]
    if not kept:
        raise RuntimeError("no kept window of the timed run completed two operations")
    latencies = [latency for window in kept for _, latency, _ in window]
    # Items finished after each window's first completion, over the time
    # from its first to its last completion: a rate not rounded to whole
    # items per window.
    items = sum(sum(op[2] for op in window[1:]) for window in kept)
    span = sum(window[-1][0] - window[0][0] for window in kept)
    beyond = len(latencies) - math.ceil(0.9 * len(latencies))
    print(
        f"perfbench: {len(latencies)} latency samples in {len(kept)} windows, "
        f"{beyond} beyond the 90th percentile",
        file=sys.stderr,
    )
    return {
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "items_per_s": items / span,
        "setup_s": statistics.median(outcome.setups),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    common.import_program()
    outcome = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    if args.trace:
        if outcome.untraced:
            print(
                "perfbench: not traced, their layers read 0: "
                + ", ".join(sorted(set(outcome.untraced))),
                file=sys.stderr,
            )
        values = {name: outcome.layers.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values, units = _end_to_end(outcome, args.seconds), END_TO_END
    print(json.dumps({
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
