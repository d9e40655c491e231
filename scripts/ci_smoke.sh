#!/usr/bin/env bash
# CI smoke: the tier-1 test suite plus sub-minute serving, experiment-engine,
# compute-layer, streaming, incremental, memory, telemetry, durability,
# scale, and HTTP-edge benchmarks.
#
# Usage: scripts/ci_smoke.sh   (from the repository root or anywhere)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Smoke benches write their artifacts here, never over the committed
# full-profile BENCH_*.json files; the directory goes away on exit.
smoke_out="$(mktemp -d)"
trap 'rm -rf "$smoke_out"' EXIT

echo "== perf trajectory (committed artifacts) =="
# Parses the COMMITTED BENCH_*.json files and fails if any gated number
# regressed below its gate. Deterministic on any runner: nothing is
# re-measured here.
python scripts/check_bench_trajectory.py

echo
echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== compute smoke (workers=2, ProcessExecutor path) =="
# Re-run the executor-facing suites with two workers so every CI run
# exercises real worker processes (the default run uses the same value,
# but the env var pins it explicitly and documents the knob).
REPRO_SMOKE_WORKERS=2 python -m pytest tests/compute tests/serving/test_concurrency.py -q

echo
echo "== streaming smoke (workers=2) =="
# The streaming suite's executor-parameterized tests (serve-while-mutating
# identity across serial/thread/process) under real worker processes.
REPRO_SMOKE_WORKERS=2 python -m pytest tests/streaming -q

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

echo
echo "== compute-layer benchmark (smoke) =="
# Asserts bit-identical results across serial/thread/process executors,
# then reports the parallel ratio. The speedup gate is lenient here (and
# skipped outright on single-CPU runners); the local acceptance run is
# `python benchmarks/bench_compute.py` (>= 2x at 4 workers on multicore).
python benchmarks/bench_compute.py --smoke --output "$smoke_out/BENCH_compute.json"

echo
echo "== memory benchmark (smoke) =="
# Asserts engine == sequential plus the float32 tolerance contract, then
# gates allocation pressure at >= 1 evaluated target per numpy allocation
# call (deterministic, so it gates fully in CI). The float32 speedup is
# reported, not gated, and the wiki-vote scale-1.0 full run is local
# acceptance only: `python benchmarks/bench_memory.py`.
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
echo "== incremental-maintenance benchmark (smoke) =="
# Asserts patch-on vs patch-off recommendation identity across every
# executor x dtype combination and resident rows bit-equal to
# from-scratch recomputes — deterministic, fully gated in CI. The
# throughput gate drops to 2x here (small smoke replica + noisy shared
# runners); the local acceptance run is
# `python benchmarks/bench_incremental.py` (>= 5x at scale 0.5).
python benchmarks/bench_incremental.py --smoke --min-speedup 2 \
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
# Asserts engine + serving results on shared-memory graphs are
# bit-identical to the heap path, then gates descriptor shipping at
# >= 100x smaller than pickling the graph. The million-node end-to-end
# run, its RSS bound, and the multi-worker throughput gate are local
# acceptance only: `python benchmarks/bench_scale.py`. Its RSS trajectory
# entry goes to the smoke memory artifact above.
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
echo "== shared-memory leak check =="
# Every shared CSR segment carries the repro_csr_ prefix; after the
# suite plus every benchmark, none may remain (the resource tracker
# must also have stayed quiet, which the bench asserts itself).
leaked=$(find /dev/shm -maxdepth 1 -name 'repro_csr_*' 2>/dev/null | wc -l)
if [ "$leaked" -ne 0 ]; then
    echo "FAIL: $leaked leaked repro_csr_* segment(s) in /dev/shm"
    find /dev/shm -maxdepth 1 -name 'repro_csr_*'
    exit 1
fi
echo "no leaked repro_csr_* segments"
