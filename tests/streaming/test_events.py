"""Tests for the reproducible event-stream generator."""

from __future__ import annotations

import pytest

from repro.datasets import toy
from repro.errors import ServingError
from repro.graphs import SocialGraph
from repro.streaming import (
    KIND_ADD,
    KIND_QUERY,
    KIND_REMOVE,
    StreamEvent,
    synthetic_event_stream,
)


class TestStreamEvent:
    def test_query_needs_user(self):
        with pytest.raises(ServingError):
            StreamEvent(0.0, KIND_QUERY)

    def test_mutation_needs_endpoints(self):
        with pytest.raises(ServingError):
            StreamEvent(0.0, KIND_ADD, u=3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServingError):
            StreamEvent(0.0, "rename", u=0, v=1)

    @pytest.mark.parametrize("time", [float("inf"), float("-inf"), float("nan"), 1e999])
    def test_non_finite_time_rejected(self, time):
        """An infinite event time would become the streaming clock and
        expire every sliding-window spend on arrival."""
        with pytest.raises(ServingError, match="finite"):
            StreamEvent(time, KIND_ADD, u=0, v=1)
        with pytest.raises(ServingError, match="finite"):
            StreamEvent(time, KIND_QUERY, user=4)

    def test_is_mutation(self):
        assert StreamEvent(0.0, KIND_ADD, u=0, v=1).is_mutation
        assert StreamEvent(0.0, KIND_REMOVE, u=0, v=1).is_mutation
        assert not StreamEvent(0.0, KIND_QUERY, user=4).is_mutation


class TestGenerator:
    def stream(self, seed=0, **kwargs):
        graph = toy.two_communities(5)
        defaults = dict(add_fraction=0.2, remove_fraction=0.2, seed=seed)
        defaults.update(kwargs)
        return graph, synthetic_event_stream(graph, 200, **defaults)

    def test_reproducible_for_a_seed(self):
        _, first = self.stream(seed=3)
        _, second = self.stream(seed=3)
        assert first == second
        _, other = self.stream(seed=4)
        assert first != other

    def test_times_strictly_increasing(self):
        _, events = self.stream()
        times = [event.time for event in events]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_replays_cleanly_every_mutation_applies(self):
        graph, events = self.stream()
        live = graph.copy()
        for event in events:
            if event.kind == KIND_ADD:
                assert not live.has_edge(event.u, event.v)
                live.add_edge(event.u, event.v)
            elif event.kind == KIND_REMOVE:
                assert live.has_edge(event.u, event.v)
                live.remove_edge(event.u, event.v)
            else:
                assert 0 <= event.user < graph.num_nodes

    def test_mix_roughly_matches_fractions(self):
        _, events = self.stream()
        kinds = [event.kind for event in events]
        assert 0.1 < kinds.count(KIND_ADD) / len(kinds) < 0.35
        assert 0.1 < kinds.count(KIND_REMOVE) / len(kinds) < 0.35
        assert kinds.count(KIND_QUERY) > 0

    def test_removals_degrade_to_queries_when_edges_run_out(self):
        graph = SocialGraph.from_edges([(0, 1)], num_nodes=4)
        events = synthetic_event_stream(
            graph, 50, add_fraction=0.0, remove_fraction=1.0, seed=0
        )
        removals = [event for event in events if event.kind == KIND_REMOVE]
        assert len(removals) == 1  # the single edge, once
        assert all(e.kind == KIND_QUERY for e in events if e not in removals)

    def test_validation(self):
        graph = toy.star(4)
        with pytest.raises(ServingError):
            synthetic_event_stream(graph, -1)
        with pytest.raises(ServingError):
            synthetic_event_stream(graph, 10, add_fraction=0.8, remove_fraction=0.3)
        with pytest.raises(ServingError):
            synthetic_event_stream(graph, 10, time_step=0.0)
        with pytest.raises(ServingError):
            synthetic_event_stream(SocialGraph(1), 10)
