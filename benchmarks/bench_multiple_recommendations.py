"""Appendix A ("Multiple recommendations"): composition makes it worse.

The paper: single-recommendation results "imply stronger negative results
for making multiple recommendations". This benchmark quantifies that on
the Wiki-vote replica, through the serving endpoint a client calls: a
fixed total budget epsilon_total split across k picks gives each pick
epsilon_total / k, ``recommend(user, k=k)`` charges the k picks as one
epsilon_total release, and the set accuracy decays as k grows —
privately recommending a *list* is strictly harder than recommending one
item.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import wiki_vote
from repro.experiments.reporting import render_table
from repro.serving import RecommendationService
from repro.utility.common_neighbors import CommonNeighbors

TRIALS = 300


def _set_accuracy(service: RecommendationService, user: int, k: int, trials: int) -> float:
    """Monte-Carlo set accuracy of ``recommend(user, k=k)``.

    The natural k-recommendation extension of Definition 2: the best
    possible set is the top-k utilities, and accuracy is the expected
    fraction of that mass the private picks retain.
    """
    vector = service.utility.utility_vector(service.graph, user)
    utility_of = dict(zip(vector.candidates.tolist(), vector.values.tolist()))
    optimum = float(np.sort(vector.values)[::-1][:k].sum())
    total = sum(
        utility_of[pick]
        for _ in range(trials)
        for pick in service.recommend(user, k=k).recommendations
    )
    return total / trials / optimum


def _run(wiki_scale: float, epsilon_total: float = 2.0):
    graph = wiki_vote(scale=wiki_scale)
    utility = CommonNeighbors()
    # A well-connected target, where single-pick accuracy is decent.
    vectors = (
        utility.utility_vector(graph, node) for node in graph.nodes()
    )
    user = next(v for v in vectors if v.has_signal() and v.u_max >= 5).target
    rows = []
    for k in (1, 2, 4, 8):
        per_pick = epsilon_total / k
        # A lifetime budget of exactly TRIALS lists of epsilon_total each.
        service = RecommendationService(
            graph, utility, epsilon=per_pick,
            user_budget=TRIALS * epsilon_total + 1e-9, seed=17,
        )
        accuracy = _set_accuracy(service, user, k, TRIALS)
        rows.append(
            {
                "k": k,
                "per_pick_epsilon": per_pick,
                "set_accuracy": accuracy,
                "budget_spent": service.budgets.spent(user) / TRIALS,
                "remaining": service.remaining_budget(user),
            }
        )
    return rows


def test_multiple_recommendations(benchmark, bench_profile):
    rows = benchmark.pedantic(
        _run, kwargs={"wiki_scale": bench_profile["wiki_scale"]}, rounds=1, iterations=1
    )
    print()
    print(
        render_table(
            ["k picks", "per-pick epsilon", "set accuracy", "budget spent per list"],
            [[r["k"], r["per_pick_epsilon"], r["set_accuracy"], r["budget_spent"]] for r in rows],
        )
    )
    accuracies = [r["set_accuracy"] for r in rows]
    # Splitting a fixed budget across more picks hurts: k=8 must be worse
    # than k=1 (allowing Monte-Carlo jitter between adjacent k).
    assert accuracies[-1] < accuracies[0]
    for row in rows:
        # Each list is charged k * (epsilon_total / k) once, and TRIALS
        # lists spend the whole lifetime budget.
        assert abs(row["budget_spent"] - 2.0) < 1e-6
        assert row["remaining"] < 1e-6
