"""Section 7.2's first experimental claim: 'the Laplace mechanism achieves
nearly identical accuracy as the Exponential mechanism'.

Runs both mechanisms over a Wiki-vote target sample for both utility
functions and reports the per-node accuracy differences. Both accuracies
are exact (the paper estimates the Laplace one with 1,000 Monte-Carlo
trials), so the comparison itself carries no sampling noise.
"""

from __future__ import annotations

import numpy as np

from repro.accuracy.evaluator import evaluate_targets, sample_targets
from repro.datasets import wiki_vote
from repro.experiments.reporting import render_table
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.laplace import LaplaceMechanism
from repro.utility.common_neighbors import CommonNeighbors
from repro.utility.weighted_paths import WeightedPaths


def _compare(graph, utility, epsilon: float, max_targets: int):
    sensitivity = utility.sensitivity(graph, 0)
    mechanisms = {
        "exponential": ExponentialMechanism(epsilon, sensitivity=sensitivity),
        "laplace": LaplaceMechanism(epsilon, sensitivity=sensitivity),
    }
    targets = sample_targets(graph, 0.1, max_targets=max_targets, seed=21)
    records = evaluate_targets(graph, utility, targets, mechanisms, seed=22)
    exp = np.asarray([r.accuracy_of("exponential") for r in records])
    lap = np.asarray([r.accuracy_of("laplace") for r in records])
    diff = np.abs(exp - lap)
    return {
        "utility": utility.name,
        "nodes": len(records),
        "exp_mean": float(exp.mean()),
        "lap_mean": float(lap.mean()),
        "mean_abs_diff": float(diff.mean()),
        "max_abs_diff": float(diff.max()),
    }


def _run(wiki_scale: float, max_targets: int):
    graph = wiki_vote(scale=wiki_scale)
    return [
        _compare(graph, CommonNeighbors(), 1.0, max_targets),
        _compare(graph, WeightedPaths(gamma=0.005), 1.0, max_targets),
    ]


def test_laplace_vs_exponential(benchmark, bench_profile):
    rows = benchmark.pedantic(
        _run,
        kwargs={
            "wiki_scale": bench_profile["wiki_scale"],
            "max_targets": bench_profile["max_targets"] or 200,
        },
        rounds=1,
        iterations=1,
    )
    print()
    print(
        render_table(
            ["utility", "nodes", "E[acc] Exp", "E[acc] Lap", "mean |diff|", "max |diff|"],
            [
                [
                    row["utility"],
                    row["nodes"],
                    row["exp_mean"],
                    row["lap_mean"],
                    row["mean_abs_diff"],
                    row["max_abs_diff"],
                ]
                for row in rows
            ],
        )
    )
    for row in rows:
        # Paper: "nearly identical".
        assert row["mean_abs_diff"] < 0.03
        assert abs(row["exp_mean"] - row["lap_mean"]) < 0.03
