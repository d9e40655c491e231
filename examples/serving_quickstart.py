"""Serving quickstart: an online private recommendation service.

Demonstrates the :mod:`repro.serving` layer on the Wikipedia-vote replica:

1. stand up a ``RecommendationService`` (graph + utility + mechanism,
   per-user epsilon budgets, version-keyed utility cache);
2. serve single, top-k, and batched requests;
3. exhaust one user's budget and watch the service refuse further
   releases without spending anything;
4. mutate the graph and watch the cache invalidate;
5. replay a synthetic zipf-skewed workload and print throughput stats.

Run:  python examples/serving_quickstart.py
"""

from __future__ import annotations

from repro import RecommendationService
from repro.datasets import wiki_vote
from repro.errors import BudgetExhaustedError
from repro.serving import replay, synthetic_workload


def main() -> None:
    graph = wiki_vote(scale=0.1)
    service = RecommendationService(
        graph,
        utility="common_neighbors",
        mechanism="exponential",
        epsilon=0.5,
        user_budget=2.0,
        seed=0,
    )
    print(f"graph: {graph}")
    print(f"epsilon per release: {service.epsilon_per_release}, budget: 2.0 per user")

    # 1. Single and top-k requests for one user.
    user = 3
    single = service.recommend(user)
    print(f"\nrecommend({user}): node {single.recommendations[0]} "
          f"(spent {single.epsilon_spent}, cache_hit={single.cache_hit})")
    top = service.recommend(user, k=2)
    print(f"recommend({user}, k=2): {top.recommendations} "
          f"(spent {top.epsilon_spent}, cache_hit={top.cache_hit})")

    # 2. The budget guard: the user has now spent 1.5 of 2.0; a single
    #    release fits, but the next one must be refused — before sampling.
    service.recommend(user)
    try:
        service.recommend(user)
    except BudgetExhaustedError as error:
        print(f"\nbudget guard: {error}")
    print(f"budget says spent={service.budgets.spent(user)} "
          f"(exactly the served releases)")

    # 3. Batched serving: one vectorized pass for many users.
    batch = service.recommend_batch(range(20, 60))
    served = [response for response in batch if response.served]
    print(f"\nrecommend_batch(40 users): {len(served)} served in one "
          f"sparse product + O(support) sampling pass")

    # 4. Version-keyed cache invalidation on graph change.
    resident_before = len(service.cache)
    graph.try_add_edge(0, graph.num_nodes - 1)
    print(f"cache entries: {resident_before} before edge insert, "
          f"{len(service.cache)} after (auto-invalidated)")

    # 5. Replay a synthetic workload and summarize.
    requests = synthetic_workload(graph, 1000, seed=1)
    summary = replay(service, requests, batch_size=64)
    print("\nworkload replay (1000 zipf-skewed requests, batch size 64):")
    print(summary.render())


if __name__ == "__main__":
    main()
