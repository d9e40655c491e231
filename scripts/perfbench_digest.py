"""Digest what perfbench's serving workloads produce, to compare two checkouts.

Run it on each checkout and compare the printed lines; a change that
should not alter served results prints the same digests on both::

    python scripts/perfbench_digest.py --root .
    python scripts/perfbench_digest.py --root /path/to/other/checkout

It drives perfbench's own set-up code from ``<root>/perfbench`` on the
program in ``<root>/src``, with no timing and no HTTP:

* ``edge_wiki`` and ``edge_1e5`` — the service ``edge_load.make_service``
  builds, including its cache warm-up, then batches of the workload's
  Zipf user stream through ``submit_batch`` (what the edge calls), in the
  edge's largest batch size;
* ``stream_durable`` — the service ``stream_ingest._build`` builds, fed
  chunks of ``stream_ingest.event_source`` through
  ``replay_stream_durable`` into a write-ahead log, as the workload does.

Per workload it prints SHA-256 digests (first 16 hex digits) of the served
picks, the ledger rows in order, the lifetime budgets, the
sliding-window deques, the write-ahead-log records and the cache
statistics, plus the counts behind them.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _budgets(service):
    """The lifetime budgets (a wrapping service's are its inner service's)."""
    return getattr(service, "service", service).budgets


class _Capture:
    """Record the picks of every ``recommend_batch`` call made on ``owner``'s instances."""

    def __init__(self, owner) -> None:
        self.picks: "list[list[tuple[int, ...]]]" = []
        self._owner = owner
        self._own = vars(owner).get("recommend_batch")
        inner = owner.recommend_batch
        picks = self.picks

        def recommend_batch(service, *args, **kwargs):
            responses = inner(service, *args, **kwargs)
            picks.append([tuple(r.recommendations) for r in responses])
            return responses

        owner.recommend_batch = recommend_batch

    def close(self) -> None:
        if self._own is None:
            del self._owner.recommend_batch  # inherited: uncover the base's again
        else:
            self._owner.recommend_batch = self._own


def _summary(name: str, service, picks, wal_records=None) -> dict:
    windows = {
        int(user): [list(map(float, entry)) for entry in accountant._entries]
        for user, accountant in getattr(service, "_window_accountants", {}).items()
    }
    rows = service.telemetry.ledger.raw_rows()
    summary = {
        "workload": name,
        "requests": sum(len(batch) for batch in picks),
        "ledger_rows": len(rows),
        "picks": _digest(picks),
        "ledger": _digest([list(row) for row in rows]),
        "budgets": _digest(_budgets(service).export_state()),
        "windows": _digest(windows),
        "cache": _digest(service.cache.snapshot()),
    }
    if wal_records is not None:
        summary["wal_records"] = len(wal_records)
        summary["wal"] = _digest(wal_records)
    return summary


def edge(name: str, seed: int, batches: int, work: Path) -> dict:
    import edge_load
    import repro

    graph = edge_load.build_graph(name, work / "graph.csr")
    try:
        owner = repro.StreamingService if name == "edge_wiki" else repro.RecommendationService
        capture = _Capture(owner)
        try:
            service = edge_load.make_service(name, graph, seed)
            users = edge_load.user_stream(graph.num_nodes, seed)
            for _ in range(batches):
                service.submit_batch(list(itertools.islice(users, edge_load.MAX_BATCH)))
        finally:
            capture.close()
        return _summary(name, service, capture.picks)
    finally:
        edge_load.release_graph(graph)


def stream(seed: int, chunks: int, work: Path) -> dict:
    import stream_ingest
    from repro.durability import read_wal, replay_stream_durable

    graph, service = stream_ingest._build(seed, work / "wal.log")
    source = stream_ingest.event_source(graph, seed)
    picks: "list[list[tuple[int, ...]]]" = []
    for _ in range(chunks):
        chunk = list(itertools.islice(source, stream_ingest.CHUNK_EVENTS))
        responses: list = []
        replay_stream_durable(
            service, chunk, directory=work, batch_size=stream_ingest.QUERY_BATCH,
            on_response=responses.append,
        )
        picks.append([tuple(r.recommendations) for r in responses])
    service.wal.close()
    records, _, torn = read_wal(service.wal.path)
    if torn is not None:
        raise SystemExit(f"torn write-ahead log at offset {torn}")
    return _summary("stream_durable", service, picks, [r.payload for r in records])


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path("."), help="checkout to digest")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--batches", type=int, default=300, help="edge batches after warm-up")
    parser.add_argument("--chunks", type=int, default=120, help="stream_durable chunks")
    parser.add_argument(
        "--workloads", nargs="+", default=["edge_wiki", "edge_1e5", "stream_durable"],
        choices=["edge_wiki", "edge_1e5", "stream_durable"],
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str((args.root / "perfbench").resolve()))
    import common

    common.import_program()
    work = Path(tempfile.mkdtemp(prefix="perfbench-digest-"))
    try:
        for name in args.workloads:
            if name == "stream_durable":
                summary = stream(args.seed, args.chunks, work)
            else:
                summary = edge(name, args.seed, args.batches, work)
            print(json.dumps(summary, sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
