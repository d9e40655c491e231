"""Quickstart: private social recommendations in ~60 lines.

Walks the library's core loop on a 12-node toy graph:

1. score candidates for a target user with a link-analysis utility;
2. recommend privately with the Exponential and Laplace mechanisms;
3. compare achieved accuracy against the non-private optimum and the
   paper's Corollary 1 upper bound.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    BestMechanism,
    CommonNeighbors,
    ExponentialMechanism,
    LaplaceMechanism,
)
from repro.bounds import tightest_accuracy_bound
from repro.datasets import toy


def main() -> None:
    graph = toy.paper_example_graph()
    target = 0
    print(f"graph: {graph}")
    print(f"target user: {target}, friends: {sorted(graph.neighbors(target))}")

    # 1. Utility vector: who is a good recommendation for the target?
    utility = CommonNeighbors()
    vector = utility.utility_vector(graph, target)
    print("\ncandidate utilities (number of common neighbors):")
    for candidate, value in zip(vector.candidates, vector.values):
        print(f"  node {candidate}: {value:.0f}")

    # 2. Private recommendations at epsilon = 1.
    epsilon = 1.0
    sensitivity = utility.sensitivity(graph, target)
    exponential = ExponentialMechanism(epsilon, sensitivity=sensitivity)
    laplace = LaplaceMechanism(epsilon, sensitivity=sensitivity)
    best = BestMechanism()

    print(f"\nsingle recommendations (epsilon = {epsilon}):")
    print(f"  R_best (non-private): node {best.recommend(vector, seed=0)}")
    print(f"  Exponential:          node {exponential.recommend(vector, seed=1)}")
    print(f"  Laplace:              node {laplace.recommend(vector, seed=2)}")

    # 3. Accuracy: fraction of the optimal expected utility retained.
    print("\nexpected accuracy (E[utility] / u_max):")
    print(f"  R_best:      {best.expected_accuracy(vector):.3f}")
    print(f"  Exponential: {exponential.expected_accuracy(vector):.3f}")
    print(f"  Laplace:     {laplace.expected_accuracy(vector):.3f}")

    # 4. The paper's theoretical cap for any epsilon-DP recommender.
    t = utility.experimental_t(vector)
    bound = tightest_accuracy_bound(vector, epsilon, t)
    print(
        f"\nCorollary 1 bound at epsilon={epsilon}: no private algorithm can "
        f"exceed accuracy {bound.accuracy_bound:.3f}"
        f" (t={bound.t}, k={bound.k}, n={bound.n})"
    )


if __name__ == "__main__":
    main()
