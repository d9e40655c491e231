"""End-to-end differential-privacy verification on real graphs (Theorem 4).

These tests exercise the full pipeline of Definition 1: build neighboring
graphs G and G' = G +/- {e} with e not incident to the target, run the
mechanisms on both, and check every output probability ratio against
e^epsilon. The Exponential and Laplace mechanisms are checked exactly;
R_best is shown to *violate* privacy (the motivating breach).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import toy
from repro.graphs.generators import erdos_renyi_gnp
from repro.mechanisms.best import BestMechanism
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.laplace import LaplaceMechanism
from repro.utility.common_neighbors import CommonNeighbors
from repro.utility.weighted_paths import WeightedPaths


def _neighboring_vectors(graph, target, edge, utility):
    u, v = edge
    with_edge = graph if graph.has_edge(u, v) else graph.with_edge(u, v)
    without_edge = graph.without_edge(u, v) if graph.has_edge(u, v) else graph
    return (
        utility.utility_vector(with_edge, target),
        utility.utility_vector(without_edge, target),
    )


def _all_non_target_edges(graph, target, limit=40):
    edges = []
    for u in graph.nodes():
        for v in graph.nodes():
            if u < v and target not in (u, v):
                edges.append((u, v))
    return edges[:limit]


class TestExponentialMechanismDP:
    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 3.0])
    def test_exact_dp_on_example_graph(self, example_graph, epsilon):
        utility = CommonNeighbors()
        sensitivity = utility.sensitivity(example_graph, 0)
        mechanism = ExponentialMechanism(epsilon, sensitivity=sensitivity)
        for edge in _all_non_target_edges(example_graph, target=0):
            vec_with, vec_without = _neighboring_vectors(example_graph, 0, edge, utility)
            p = mechanism.probabilities(vec_with)
            q = mechanism.probabilities(vec_without)
            ratio = float(np.max(np.maximum(p / q, q / p)))
            assert ratio <= np.exp(epsilon) + 1e-9, f"edge {edge} breached"

    def test_exact_dp_weighted_paths_random_graph(self):
        g = erdos_renyi_gnp(18, 0.25, seed=4)
        target = 0
        utility = WeightedPaths(gamma=0.01)
        sensitivity = utility.sensitivity(g, target)
        mechanism = ExponentialMechanism(1.0, sensitivity=sensitivity)
        for edge in _all_non_target_edges(g, target, limit=60):
            vec_with, vec_without = _neighboring_vectors(g, target, edge, utility)
            p = mechanism.probabilities(vec_with)
            q = mechanism.probabilities(vec_without)
            ratio = float(np.max(np.maximum(p / q, q / p)))
            assert ratio <= np.exp(1.0) + 1e-9


class TestLaplaceMechanismDP:
    def test_exact_dp_on_small_graph(self):
        """Theorem 4 on exact probabilities: every output of every
        one-edge neighbour stays within e^epsilon, rare outputs included."""
        g = toy.paper_example_graph()
        target = 0
        utility = CommonNeighbors()
        sensitivity = utility.sensitivity(g, target)
        mechanism = LaplaceMechanism(1.0, sensitivity=sensitivity)
        for edge in _all_non_target_edges(g, target, limit=60):
            vec_with, vec_without = _neighboring_vectors(g, target, edge, utility)
            p = mechanism.probabilities(vec_with)
            q = mechanism.probabilities(vec_without)
            ratio = float(np.max(np.maximum(p / q, q / p)))
            assert ratio <= np.exp(1.0) + 1e-9


class TestBestMechanismBreach:
    def test_rbest_is_not_private(self):
        """The paper's introduction: deterministic recommenders leak edges.

        Adding one edge flips the argmax, moving an output probability from
        0 to 1 — an infinite likelihood ratio.
        """
        g = toy.paper_example_graph()
        target = 0
        utility = CommonNeighbors()
        # Edge (6, 2) lifts node 6 from 1 to 2 common neighbors; combined
        # with (6, 3) it becomes the unique maximum at 3.
        g2 = g.with_edge(6, 2).with_edge(6, 3)
        mechanism = BestMechanism()
        p = mechanism.probabilities(utility.utility_vector(g, target))
        q = mechanism.probabilities(utility.utility_vector(g2, target))
        # Some candidate has probability 0 in one world, > 0 in the other.
        moved = np.abs(p - q) > 0.5
        assert moved.any()
