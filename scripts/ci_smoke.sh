#!/usr/bin/env bash
# CI smoke: the tier-1 test suite plus sub-minute serving, experiment-engine,
# streaming, incremental, memory, telemetry, durability, scale, and
# HTTP-edge benchmarks, Section 7.2's Laplace-vs-Exponential check,
# Appendix A's multiple-recommendations check, the end-to-end benchmark's
# correctness checks, and every example script.
#
# Usage: scripts/ci_smoke.sh   (from the repository root or anywhere)
#        REPRO_SMOKE_OUT=DIR scripts/ci_smoke.sh   (keep the smoke artifacts)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Smoke benches write their artifacts here, never over the committed
# full-profile BENCH_*.json files. REPRO_SMOKE_OUT names a directory to
# keep them in (CI uploads it); by default they go to a temporary
# directory removed on exit.
if [ -n "${REPRO_SMOKE_OUT:-}" ]; then
    smoke_out="$REPRO_SMOKE_OUT"
    mkdir -p "$smoke_out"
else
    smoke_out="$(mktemp -d)"
    trap 'rm -rf "$smoke_out"' EXIT
fi

echo "== perf trajectory (committed artifacts) =="
# Parses the COMMITTED BENCH_*.json files and fails if any gated number
# regressed below its gate. Deterministic on any runner: nothing is
# re-measured here.
python scripts/check_bench_trajectory.py

echo
echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== serving benchmark (smoke) =="
# Lower gate than the local acceptance (5x): wall-clock ratios are noisy
# on loaded shared CI runners; 2x still proves the batched path vectorizes.
python benchmarks/bench_serving.py --smoke --min-speedup 2 \
    --output "$smoke_out/BENCH_serving.json"

echo
echo "== experiment engine benchmark (smoke) =="
# Same noise rationale as above: 2x gate in CI, 5x locally. Also asserts
# batched results are bit-identical to the sequential evaluator.
python benchmarks/bench_experiment_engine.py --smoke --min-speedup 2 \
    --output "$smoke_out/BENCH_experiment.json"
# Weighted paths: the engine's score rows recombine sparse walk rows, so
# this asserts that path equals the sequential evaluator; no gain gated.
python benchmarks/bench_experiment_engine.py --smoke --utility weighted_paths \
    --min-speedup 1 --output "$smoke_out/BENCH_experiment_wp.json"

echo
echo "== memory benchmark (smoke) =="
# Asserts engine == sequential, then gates allocation pressure at >= 1
# evaluated target per numpy allocation call (deterministic, so it gates
# fully in CI). The wiki-vote scale-1.0 full run is local acceptance
# only: `python benchmarks/bench_memory.py`.
python benchmarks/bench_memory.py --smoke --output "$smoke_out/BENCH_memory.json"

echo
echo "== streaming benchmark (smoke) =="
# Asserts delta-overlay serving is bit-identical to compact-then-serve,
# then gates throughput against the rebuild-per-event baseline. 2x in CI
# (tiny smoke graphs make naive rebuilds artificially cheap and shared
# runners are noisy); the local acceptance run is
# `python benchmarks/bench_streaming.py` (>= 5x on the scale-0.1 profile).
python benchmarks/bench_streaming.py --smoke --min-speedup 2 \
    --output "$smoke_out/BENCH_streaming.json"

echo
echo "== cache-patching benchmark (smoke) =="
# Asserts that a patching cache serves the same recommendations as a
# full-flush reference at four query batch sizes (1, 7, 32 and 128
# requests), that resident rows are bit-equal to from-scratch
# recomputes, and that the replay patches and never flushes —
# deterministic, fully gated in CI.
# Throughput (patch_eps) is reported, not gated.
python benchmarks/bench_incremental.py --smoke \
    --output "$smoke_out/BENCH_incremental.json"

echo
echo "== telemetry benchmark (smoke) =="
# Asserts recommendations are bit-identical with telemetry on/off, the
# disabled path allocates nothing, and the privacy ledger reconciles
# against the live accountants — all deterministic, so they gate fully in
# CI. The <= 5% overhead gate is local acceptance only
# (`python benchmarks/bench_telemetry.py`); smoke relaxes it to 50%
# because sub-second replays on shared runners are timer-noise-bound.
python benchmarks/bench_telemetry.py --smoke --output "$smoke_out/BENCH_telemetry.json"

echo
echo "== durability benchmark (smoke) =="
# Asserts snapshot + WAL-tail recovery is bit-identical to the
# uninterrupted run (recommendations, balances, ledger entry-for-entry)
# and sweeps a crash over every WAL-record and snapshot boundary — all
# deterministic, so they gate fully in CI. The <= 10% WAL overhead gate
# is local acceptance only (`python benchmarks/bench_durability.py`,
# scale 0.5); smoke graphs are too small to amortize fixed journaling
# costs.
python benchmarks/bench_durability.py --smoke --output "$smoke_out/BENCH_durability.json"

echo
echo "== scale benchmark (smoke) =="
# Asserts engine + serving results on the frozen CSR graph are
# bit-identical to the set-backed graph it was copied from and builds a
# 10^5-node synthetic CSR graph.
# The million-node end-to-end run and its RSS bound are local acceptance
# only: `python benchmarks/bench_scale.py`. Its RSS trajectory entry goes
# to the smoke memory artifact above.
python benchmarks/bench_scale.py --smoke --output "$smoke_out/BENCH_scale.json" \
    --memory-json "$smoke_out/BENCH_memory.json"

echo
echo "== edge benchmark (smoke) =="
# Asserts coalesced HTTP responses (with graph mutations interleaved
# mid-load) are bit-identical to a serialized replay, every saturation
# rejection is typed and ledger-audited, and coalescing actually formed
# multi-request batches. The >= 3x coalesced-vs-flush-at-1 QPS gate at
# 64 clients is local acceptance only
# (`python benchmarks/bench_service_edge.py`): wall-clock ratios are
# noisy on shared runners.
python benchmarks/bench_service_edge.py --smoke --output "$smoke_out/BENCH_service_edge.json"

echo
echo "== Section 7.2: Laplace ~= Exponential =="
# The paper's first experimental claim, on exact accuracies of both
# mechanisms: mean per-node gap and mean-accuracy gap under 0.03 for both
# utilities on the quick wiki-vote profile. Deterministic, so it gates
# fully in CI.
python -m pytest -q benchmarks/bench_laplace_vs_exponential.py

echo
echo "== Appendix A: a split budget lowers set accuracy =="
# k picks served by recommend(user, k=) at epsilon_total / k each: set
# accuracy at k = 8 must fall below k = 1, and every list is charged
# epsilon_total once. Seed-pinned, ~3 s.
python -m pytest -q benchmarks/bench_multiple_recommendations.py

echo
echo "== perfbench correctness checks =="
# The end-to-end benchmark checks what it serves: the edge workloads
# validate every pick against the graph and replay coalesced batches on
# a fresh service, the durable stream checks one write-ahead-log edge
# record per mutation, and every serving workload reconciles its privacy
# ledger. Two seconds per workload runs every check; the timings are
# not gated here. The last stdout line must read correct with 0 failed.
for workload in edge_wiki edge_1e5 stream_durable engine_twitter; do
    echo "-- $workload"
    outcome=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 | tail -n 1)
    echo "$outcome"
    python3 -c '
import json, sys
outcome = json.loads(sys.argv[1])
if outcome["correct"] is not True or outcome["failed"] != 0:
    sys.exit("FAIL: perfbench checks did not pass")
' "$outcome"
done

echo
echo "== perfbench per-layer evidence =="
# perfbench finds each layer by wrapping its entry points by name: the
# utility kernel and the sampler are repro.serving.service's
# _vectors_chunk and _sample_chunk; accounting is the service's _record,
# _flush_telemetry and budgets.charge plus
# repro.streaming.engine.SlidingWindowAccountant's can_spend and spend;
# mutation is apply_edge_event, the write-ahead log its log_edge, commit
# and sync, and cache patching UtilityCache._reconcile_row. A rename
# leaves its layer at 0 and is reported only on stderr, so a two-second
# traced run of each serving workload must read every layer it passes
# through above 0.
for workload in edge_wiki stream_durable; do
    echo "-- $workload (traced)"
    outcome=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 1 | tail -n 1)
    echo "$outcome"
    python3 -c '
import json, sys
workload, outcome = sys.argv[1], json.loads(sys.argv[2])
if outcome["correct"] is not True or outcome["failed"] != 0:
    sys.exit("FAIL: perfbench checks did not pass")
layers = ["sampler_pct", "utility_kernel_pct", "accounting_pct"]
if workload == "stream_durable":
    layers += ["mutation_pct", "wal_pct", "cache_patch_pct"]
for layer in layers:
    if not outcome["metrics"][layer]["value"] > 0:
        sys.exit(f"FAIL: perfbench reads {layer} = 0; its entry point was not traced")
' "$workload" "$outcome"
done

echo
echo "== examples =="
# Every examples/*.py is a narrative end-to-end drive of the public API
# (about a second each); any non-zero exit fails the smoke, so an
# example cannot silently rot when the API it narrates changes.
for example in examples/*.py; do
    echo "-- $example"
    python "$example" > /dev/null
done
