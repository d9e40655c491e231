"""Tests for the toy graphs and the public dataset entry points."""

from __future__ import annotations

import pytest

from repro.datasets import synthetic_powerlaw, toy, twitter, wiki_vote
from repro.errors import SharedGraphError
from repro.graphs import SharedSocialGraph


class TestToyGraphs:
    def test_triangle_with_tail(self):
        g = toy.triangle_with_tail()
        assert g.num_nodes == 4
        assert g.num_edges == 4
        assert g.degree(2) == 3

    def test_star(self):
        g = toy.star(7)
        assert g.degree(0) == 7
        assert all(g.degree(leaf) == 1 for leaf in range(1, 8))

    def test_path(self):
        g = toy.path(5)
        assert g.num_nodes == 6
        assert g.degree(0) == 1
        assert g.degree(3) == 2

    def test_complete(self):
        g = toy.complete(6)
        assert g.num_edges == 15

    def test_two_communities_bridge(self):
        g = toy.two_communities(4)
        assert g.has_edge(3, 4)
        assert g.num_edges == 2 * 6 + 1

    def test_paper_example_profile(self):
        g = toy.paper_example_graph()
        assert g.num_nodes == 12
        assert g.neighbors(0) == {1, 2, 3}

    def test_directed_fan(self):
        g = toy.directed_fan(3)
        assert g.is_directed
        assert g.out_degree(0) == 3
        assert g.in_degree(4) == 3

    def test_fresh_instances(self):
        a = toy.star(3)
        b = toy.star(3)
        a.add_edge(1, 2)
        assert not b.has_edge(1, 2)


class TestDatasetEntryPoints:
    def test_wiki_default_seed_stable(self):
        assert wiki_vote(scale=0.01) == wiki_vote(scale=0.01)

    def test_twitter_default_seed_stable(self):
        assert twitter(scale=0.005) == twitter(scale=0.005)

    def test_synthetic_powerlaw_is_a_frozen_csr_graph(self):
        graph = synthetic_powerlaw(2000)
        assert type(graph) is SharedSocialGraph
        assert graph.store.backing == "memory"
        assert graph.is_directed and graph.num_nodes == 2000
        assert graph == synthetic_powerlaw(2000)
        with pytest.raises(SharedGraphError, match="frozen"):
            graph.add_edge(0, 1)
