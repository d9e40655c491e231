"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ExperimentError


class TestParser:
    def test_figure_subcommand_parses(self):
        args = build_parser().parse_args(["figure", "1a", "--scale", "0.05"])
        assert args.figure_id == "1a"
        assert args.scale == 0.05

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9z"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_bounds_command(self, capsys):
        assert main(["bounds"]) == 0
        output = capsys.readouterr().out
        assert "Section 4.2" in output
        assert "0.46" in output

    def test_dataset_stats_command(self, capsys):
        assert main(["dataset-stats", "wiki_vote", "--scale", "0.02"]) == 0
        output = capsys.readouterr().out
        assert "nodes: 142" in output
        assert "directed: False" in output

    def test_figure_command_writes_json(self, tmp_path, capsys):
        out = tmp_path / "fig.json"
        code = main(
            [
                "figure",
                "1a",
                "--scale",
                "0.02",
                "--max-targets",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        data = json.loads(out.read_text())
        assert data["figure_id"] == "figure_1a"
        assert "Exponential eps=0.5" in capsys.readouterr().out


#: Every subcommand, with the positional arguments it needs to parse.
ALL_COMMANDS = [
    ["figure", "1a"], ["bounds"], ["dataset-stats", "wiki_vote"], ["sweep"],
    ["audit"], ["serve-sim"], ["stream-sim"], ["serve"], ["recover", "run"],
    ["metrics", "dump", "run.json"], ["metrics", "watch"],
]


class TestComputeFlags:
    @pytest.mark.parametrize("command", ALL_COMMANDS, ids=lambda c: "-".join(c))
    def test_chunk_size_and_workers_are_gone(self, command):
        """The program sizes its own compute: no command takes a chunk
        size (or the executor layer's worker count)."""
        build_parser().parse_args(command)
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--chunk-size", "128"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--workers", "2"])

    @pytest.mark.parametrize("command", ALL_COMMANDS, ids=lambda c: "-".join(c))
    def test_dtype_is_gone(self, command):
        """Every command computes in float64: none takes --dtype, the
        experiment engine's figure and sweep included."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--dtype", "float32"])

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_sweep_rejects_a_non_positive_target_cap(self, cap):
        with pytest.raises(ExperimentError, match=f"max_targets must be >= 1, got {cap}"):
            main(["sweep", "--scale", "0.02", "--targets", cap])

    @pytest.mark.parametrize("cap", ["0", "-2"])
    def test_figure_rejects_a_non_positive_target_cap(self, cap):
        with pytest.raises(ExperimentError, match=f"max_targets must be >= 1, got {cap}"):
            main(["figure", "1a", "--scale", "0.02", "--max-targets", cap])

    def test_serve_sim_ledger_identical_across_batch_splits(self, tmp_path, capsys):
        """The batch size is a layout detail end to end: the same requests
        are served and charged, through one traced batch call each."""
        dumps = {}
        for batch_size in (20, 7):
            out = tmp_path / f"telemetry_{batch_size}.json"
            code = main(
                ["serve-sim", "--scale", "0.03", "--requests", "60",
                 "--batch-size", str(batch_size), "--telemetry-out", str(out)]
            )
            assert code == 0
            dumps[batch_size] = json.loads(out.read_text())
        capsys.readouterr()
        assert len(dumps[20]["ledger"]) == 60
        assert dumps[20]["ledger"] == dumps[7]["ledger"]
        for batch_size, dump in dumps.items():
            # One traced batch call per batch: an optional kernel span (the
            # batch missed the cache), then the sampler, then the batch.
            names = " ".join(span["name"] for span in dump["spans"])
            batches = names.split("serve.recommend_batch")
            assert batches.pop().strip() == ""
            assert len(batches) == -(-60 // batch_size)
            assert {batch.strip() for batch in batches} <= {
                "serve.vectors serve.sample", "serve.sample",
            }
            assert "serve.vectors" in names


class TestTelemetryOut:
    def test_dump_round_trips_through_metrics_dump(self, tmp_path, capsys):
        out = tmp_path / "telemetry.json"
        code = main(
            ["serve-sim", "--scale", "0.03", "--requests", "40",
             "--batch-size", "20", "--telemetry-out", str(out)]
        )
        assert code == 0
        dump = json.loads(out.read_text())
        assert set(dump) == {"metrics", "spans", "ledger"}
        assert dump["spans"], "a traced serve-sim records chunk spans"
        for span in dump["spans"]:
            assert set(span) == {"name", "start", "duration", "depth", "parent", "attrs"}
        capsys.readouterr()
        assert main(["metrics", "dump", str(out)]) == 0
        assert "serve.vectors.chunks" in capsys.readouterr().out


class TestSweepAndAuditCommands:
    def test_sweep_command(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--scale", "0.02", "--targets", "10", "--out", str(out)])
        assert code == 0
        assert out.exists()
        output = capsys.readouterr().out
        assert "mean accuracy" in output
        assert "mean Corollary-1 bound" in output

    def test_audit_command_consistent(self, capsys):
        code = main(["audit", "--epsilon", "1.0", "--edges", "6"])
        assert code == 0
        output = capsys.readouterr().out
        assert "consistent:        True" in output

    def test_audit_parser_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.epsilon == 1.0
        assert args.edges == 10


class TestServeSimCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-sim"])
        assert args.requests == 2000
        assert args.batch_size == 64
        assert args.mechanism == "exponential"

    def test_serve_sim_runs_and_reports(self, capsys):
        code = main(
            [
                "serve-sim",
                "--scale",
                "0.03",
                "--requests",
                "200",
                "--batch-size",
                "32",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "requests:        200" in output
        assert "recs/sec" in output
        assert "cache hit rate" in output
        assert "invalidations" in output
        assert "graph mutations" not in output

    def test_mutate_every_is_gone(self):
        """Serving under churn is stream-sim's job; serve-sim replays a
        static graph."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--mutate-every", "3"])


class TestSyntheticNodes:
    """``--nodes`` runs a command on the frozen synthetic power-law graph."""

    def test_serve_sim(self, capsys):
        assert main(["serve-sim", "--nodes", "3000", "--requests", "200"]) == 0
        output = capsys.readouterr().out
        assert "synthetic power-law n=3000 (3000 nodes)" in output
        assert "requests:        200" in output

    def test_sweep(self, capsys):
        assert main(["sweep", "--nodes", "3000", "--targets", "10"]) == 0
        assert "synthetic n=3000" in capsys.readouterr().out


class TestStreamSimCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["stream-sim"])
        assert args.events == 3000
        assert args.add_frac == 0.05
        assert args.remove_frac == 0.05
        assert args.window is None
        assert args.compact_every is None
        assert args.mechanism == "exponential"

    def test_stream_sim_runs_and_reports(self, capsys):
        code = main(
            [
                "stream-sim",
                "--scale",
                "0.03",
                "--events",
                "150",
                "--batch-size",
                "25",
                "--add-frac",
                "0.1",
                "--remove-frac",
                "0.05",
                "--compact-every",
                "10",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "events:          150" in output
        assert "events/sec" in output
        assert "selective evictions" in output
        assert "compactions" in output

    def test_stream_sim_window_mode_runs(self, capsys):
        code = main(
            [
                "stream-sim",
                "--scale",
                "0.03",
                "--events",
                "80",
                "--window",
                "40",
                "--window-budget",
                "0.4",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "window=40" in output
        assert "rejected:" in output

class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.max_batch == 16
        assert args.flush_ms == 2.0
        assert args.queue_limit == 256
        assert args.user_inflight == 8
        assert args.serve_seconds is None
        assert args.mechanism == "exponential"

    def test_serve_runs_drains_and_reconciles(self, capsys):
        code = main(
            [
                "serve",
                "--port",
                "0",
                "--scale",
                "0.02",
                "--serve-seconds",
                "0.3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "listening:       http://127.0.0.1:" in output
        assert "POST /recommend" in output
        assert "coalescing:      up to 16 requests" in output
        assert "draining ..." in output
        assert "ledger reconciles with the live accountants" in output


class TestMetricsWatchUrl:
    def test_requires_exactly_one_source(self, capsys, tmp_path):
        # neither a path nor --url
        assert main(["metrics", "watch"]) == 2
        assert "exactly one source" in capsys.readouterr().err
        # both at once
        dump = tmp_path / "dump.json"
        dump.write_text("{}")
        code = main(
            ["metrics", "watch", str(dump), "--url", "http://127.0.0.1:1"]
        )
        assert code == 2

    def test_watch_scrapes_a_live_edge(self, capsys):
        import json as json_module
        import urllib.request

        from repro.datasets import wiki_vote
        from repro.edge import serve_in_thread
        from repro.streaming import StreamingService
        from repro.telemetry import Telemetry

        service = StreamingService(
            wiki_vote(scale=0.02),
            seed=0,
            telemetry=Telemetry.create(sample_rate=0.0),
        )
        with serve_in_thread(service) as handle:
            request = urllib.request.Request(
                handle.url + "/recommend",
                data=json_module.dumps({"user": 1}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
            code = main(
                [
                    "metrics",
                    "watch",
                    "--url",
                    handle.url,
                    "--iterations",
                    "1",
                    "--interval",
                    "0",
                ]
            )
            assert code == 0
            table = capsys.readouterr().out
            assert "--- watch #1" in table
            assert "edge.served" in table
            code = main(
                [
                    "metrics",
                    "watch",
                    "--url",
                    handle.url,
                    "--format",
                    "prom",
                    "--iterations",
                    "1",
                    "--interval",
                    "0",
                ]
            )
            assert code == 0
            assert "edge_served_total 1" in capsys.readouterr().out
