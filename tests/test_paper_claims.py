"""End-to-end tests of the paper's headline claims.

Each test states the claim as the paper words it, then checks it on
replica data. These are the scientific acceptance tests of the
reproduction: if one fails, the library disagrees with the paper.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accuracy.evaluator import evaluate_targets, sample_targets
from repro.bounds.tradeoff import section_4_2_worked_example, tightest_accuracy_bound
from repro.datasets import wiki_vote
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.laplace import LaplaceMechanism
from repro.utility.common_neighbors import CommonNeighbors


@pytest.fixture(scope="module")
def wiki_graph():
    return wiki_vote(scale=0.05)


@pytest.fixture(scope="module")
def wiki_evaluations(wiki_graph):
    utility = CommonNeighbors()
    sensitivity = utility.sensitivity(wiki_graph, 0)
    mechanisms = {
        "exponential": ExponentialMechanism(1.0, sensitivity=sensitivity),
        "laplace": LaplaceMechanism(1.0, sensitivity=sensitivity),
    }
    targets = sample_targets(wiki_graph, fraction=0.15, max_targets=40, seed=5)
    return evaluate_targets(
        wiki_graph,
        CommonNeighbors(),
        targets,
        mechanisms,
        bound_epsilons=(1.0,),
        seed=6,
    )


class TestSection42WorkedExample:
    def test_accuracy_bound_is_046(self):
        """'We get (1 - delta) <= ... ~ 0.46' — the Facebook-scale example."""
        assert section_4_2_worked_example()["accuracy_bound"] == pytest.approx(
            0.46, abs=0.01
        )


class TestTakeawayLaplaceEqualsExponential:
    def test_per_node_accuracies_nearly_identical(self, wiki_evaluations):
        """Takeaway (ii): 'the more natural Laplace algorithm performs as
        well as Exponential' — verified per node, not just in aggregate."""
        exp = np.asarray([e.accuracy_of("exponential") for e in wiki_evaluations])
        lap = np.asarray([e.accuracy_of("laplace") for e in wiki_evaluations])
        assert np.abs(exp - lap).mean() < 0.02
        assert np.abs(exp - lap).max() < 0.08


class TestTakeawayBoundDominates:
    def test_no_node_beats_the_theoretical_bound(self, wiki_evaluations):
        """Corollary 1 is an upper bound on any epsilon-DP algorithm, so the
        Exponential mechanism can never exceed it."""
        for record in wiki_evaluations:
            assert record.accuracy_of("exponential") <= record.bound_at(1.0) + 1e-9

    def test_gap_to_bound_small_for_many_nodes(self, wiki_evaluations):
        """Takeaway (iii): 'for a large fraction of nodes, the gap between
        accuracy achieved ... and our theoretical bound is not significant'."""
        gaps = np.asarray(
            [r.bound_at(1.0) - r.accuracy_of("exponential") for r in wiki_evaluations]
        )
        assert np.mean(gaps < 0.35) > 0.5


class TestTakeawayHarshTradeoff:
    def test_low_degree_nodes_get_poor_accuracy(self, wiki_evaluations):
        """Takeaway (i) + Figure 2(c): low-degree targets suffer most."""
        low = [r.accuracy_of("exponential") for r in wiki_evaluations if r.degree <= 5]
        high = [r.accuracy_of("exponential") for r in wiki_evaluations if r.degree >= 30]
        if low and high:
            assert np.mean(low) < np.mean(high)

    def test_bound_binds_hard_for_weak_targets(self, wiki_graph):
        """A node with u_max = 1 among hundreds of candidates cannot get
        accuracy beyond a small constant at eps = 0.5 (Theorem 2 flavor)."""
        utility = CommonNeighbors()
        weak_bounds = []
        for node in wiki_graph.nodes():
            vector = utility.utility_vector(wiki_graph, node)
            if not (len(vector) > 200 and vector.has_signal()):
                continue
            if vector.u_max <= 2.0:  # small u_max keeps t = u_max + 1 small
                t = utility.experimental_t(vector)
                weak_bounds.append(
                    tightest_accuracy_bound(vector, 0.5, t).accuracy_bound
                )
        if not weak_bounds:
            pytest.skip("no weak target found in this replica sample")
        # The hardest-hit weak node is capped well below half the optimal
        # utility; the typical weak node is capped below ~0.75. (At full
        # scale, n is 20x larger and these caps tighten toward the paper's
        # 'accuracy < 0.4 for at least 50% of nodes'.)
        assert min(weak_bounds) < 0.35
        assert np.median(weak_bounds) < 0.75


class TestMonotoneTradeoffDirections:
    def test_epsilon_sweep_is_monotone_in_accuracy(self, wiki_graph):
        """More privacy budget -> (weakly) more accuracy, per node."""
        utility = CommonNeighbors()
        sensitivity = utility.sensitivity(wiki_graph, 0)
        target = next(
            node
            for node in wiki_graph.nodes()
            if utility.utility_vector(wiki_graph, node).has_signal()
        )
        vector = utility.utility_vector(wiki_graph, target)
        accuracies = [
            ExponentialMechanism(eps, sensitivity=sensitivity).expected_accuracy(vector)
            for eps in (0.1, 0.5, 1.0, 3.0)
        ]
        assert accuracies == sorted(accuracies)

    def test_bound_sweep_is_monotone_in_epsilon(self, wiki_graph):
        utility = CommonNeighbors()
        target = next(
            node
            for node in wiki_graph.nodes()
            if utility.utility_vector(wiki_graph, node).has_signal()
        )
        vector = utility.utility_vector(wiki_graph, target)
        t = utility.experimental_t(vector)
        bounds = [
            tightest_accuracy_bound(vector, eps, t).accuracy_bound
            for eps in (0.1, 0.5, 1.0, 3.0)
        ]
        assert bounds == sorted(bounds)
