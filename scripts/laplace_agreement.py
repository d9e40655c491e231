"""Exact Laplace accuracy against the paper's 1,000-trial Monte Carlo.

The paper estimates the Laplace mechanism's accuracy per target by
running 1,000 independent trials of ``A_L(epsilon)`` and averaging the
utilities obtained (Section 7.1). This script runs that procedure — noisy
argmax over every candidate of the dense utility vector, 1,000 times —
on every (target, epsilon) pair of paper-scale Figure 1(a) (wiki-vote at
scale 1.0, common neighbours, epsilon 0.5 and 1) and on
``TWITTER_TARGETS`` targets sampled as Figure 1(b) samples them (the
Twitter replica at scale 1.0, epsilon 1 and 3), and compares it with the
exact value of ``LaplaceMechanism.expected_accuracy``.

Each pair gives ``z = (Monte Carlo - exact) / sigma_MC``, where
``sigma_MC`` is the standard error of the 1,000 picks' mean. A pair whose
1,000 picks all have the same utility has ``sigma_MC = 0`` and is left
out. If the exact value is what the trials estimate, the z-scores are
approximately standard normal: mean near 0, none far beyond 4.

Run:  python scripts/laplace_agreement.py   (~35 minutes on one core)
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.accuracy.evaluator import sample_targets
from repro.experiments.config import paper_config_figure_1a, paper_config_figure_1b
from repro.experiments.runner import build_graph, build_utility
from repro.mechanisms.laplace import LaplaceMechanism

TRIALS = 1_000
TWITTER_TARGETS = 300
#: Noise values drawn per block (32 MB of float64).
BLOCK_ELEMENTS = 4_000_000


def _monte_carlo(values: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Utilities of ``TRIALS`` noisy-argmax picks over a dense vector."""
    per_block = max(1, BLOCK_ELEMENTS // values.size)
    picks = []
    for start in range(0, TRIALS, per_block):
        block = min(per_block, TRIALS - start)
        noisy = values + rng.laplace(0.0, scale, size=(block, values.size))
        picks.append(values[np.argmax(noisy, axis=1)])
    return np.concatenate(picks)


def _pairs(config, max_targets, seed: int):
    graph = build_graph(config)
    utility = build_utility(config)
    sensitivity = utility.sensitivity(graph, 0)
    targets = sample_targets(
        graph, config.target_fraction, seed=config.seed, max_targets=max_targets
    )
    streams = np.random.SeedSequence(seed).spawn(targets.size * len(config.epsilons))
    stream = iter(streams)
    for target in targets:
        vector = utility.utility_vector(graph, int(target))
        usable = len(vector) >= 2 and vector.has_signal()
        for epsilon in config.epsilons:
            rng = np.random.default_rng(next(stream))
            if usable:
                yield vector, LaplaceMechanism(epsilon, sensitivity=sensitivity), rng


def _study(name: str, config, max_targets, seed: int) -> "list[float]":
    rows = []
    mc_seconds = exact_seconds = 0.0
    for vector, mechanism, rng in _pairs(config, max_targets, seed):
        started = time.perf_counter()
        exact = mechanism.expected_accuracy(vector)
        exact_seconds += time.perf_counter() - started
        started = time.perf_counter()
        picks = _monte_carlo(vector.values, mechanism.noise_scale, rng) / vector.u_max
        mc_seconds += time.perf_counter() - started
        rows.append((picks.mean() - exact, picks.std(ddof=1) / np.sqrt(TRIALS)))
    differences = np.asarray([difference for difference, _ in rows])
    errors = np.asarray([error for _, error in rows])
    kept = errors > 0.0
    z = differences[kept] / errors[kept]
    print(
        f"{name}: {len(rows)} pairs, {int(kept.sum())} with sigma_MC > 0; "
        f"MC - exact mean {differences.mean():+.5f} sd {differences.std():.5f}; "
        f"z mean {z.mean():+.3f} sd {z.std():.3f} max |z| {np.abs(z).max():.2f}; "
        f"|z| > 3: {int((np.abs(z) > 3).sum())}; "
        f"per pair: Monte Carlo {1e3 * mc_seconds / len(rows):.1f} ms, "
        f"exact {1e3 * exact_seconds / len(rows):.2f} ms",
        flush=True,
    )
    return z.tolist()


def main() -> int:
    z = _study("wiki-vote 1.0 (figure 1a)", paper_config_figure_1a(scale=1.0), None, 1)
    z += _study(
        "twitter 1.0 (figure 1b)", paper_config_figure_1b(scale=1.0), TWITTER_TARGETS, 2
    )
    z = np.asarray(z)
    print(
        f"all: {z.size} z-scores, mean {z.mean():+.3f}, sd {z.std():.3f}, "
        f"max |z| {np.abs(z).max():.2f}"
    )
    ok = abs(z.mean()) <= 0.1 and np.abs(z).max() <= 5.0
    print("agreement:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
