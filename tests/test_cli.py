"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


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


class TestComputeFlags:
    @pytest.mark.parametrize(
        "command",
        [["figure", "1a"], ["sweep"], ["serve-sim"], ["stream-sim"], ["serve"]],
    )
    def test_chunk_size_parses_and_workers_is_gone(self, command):
        args = build_parser().parse_args(command)
        assert args.chunk_size is None
        args = build_parser().parse_args(command + ["--chunk-size", "128"])
        assert args.chunk_size == 128
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--workers", "2"])

    def test_sweep_runs_sharded(self, capsys):
        code = main(
            ["sweep", "--scale", "0.02", "--targets", "8", "--chunk-size", "4"]
        )
        assert code == 0
        assert "mean accuracy" in capsys.readouterr().out

    def test_serve_sim_runs_sharded(self, capsys):
        code = main(
            ["serve-sim", "--scale", "0.03", "--requests", "60",
             "--batch-size", "20", "--chunk-size", "16"]
        )
        assert code == 0
        assert "recs/sec" in capsys.readouterr().out

    def test_serve_sim_ledger_identical_across_chunk_sizes(self, tmp_path, capsys):
        """--chunk-size is a layout knob end to end: the same requests are
        served and charged, only the number of traced chunks moves."""
        dumps = {}
        for chunk_size in ("1", "16"):
            out = tmp_path / f"telemetry_{chunk_size}.json"
            code = main(
                ["serve-sim", "--scale", "0.03", "--requests", "60",
                 "--batch-size", "20", "--chunk-size", chunk_size,
                 "--telemetry-out", str(out)]
            )
            assert code == 0
            dumps[chunk_size] = json.loads(out.read_text())
        capsys.readouterr()
        assert len(dumps["1"]["ledger"]) == 60
        assert dumps["1"]["ledger"] == dumps["16"]["ledger"]
        assert len(dumps["1"]["spans"]) > len(dumps["16"]["spans"])


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
                "--mutate-every",
                "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "requests:        200" in output
        assert "recs/sec" in output
        assert "cache hit rate" in output
        assert "invalidations" in output


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

    def test_stream_sim_window_mode_runs_sharded(self, capsys):
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
                "--chunk-size",
                "16",
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
