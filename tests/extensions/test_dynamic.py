"""Tests for sensitivity drift over a replayed edge-event stream."""

from __future__ import annotations

import pytest

from repro.datasets import toy
from repro.errors import ExperimentError, GraphError
from repro.extensions.dynamic import sensitivity_drift
from repro.streaming import KIND_ADD, KIND_QUERY, KIND_REMOVE, StreamEvent
from repro.utility.common_neighbors import CommonNeighbors
from repro.utility.weighted_paths import WeightedPaths


@pytest.fixture
def events() -> "list[StreamEvent]":
    return [
        StreamEvent(1.0, KIND_ADD, u=6, v=2),     # node 6 gains a second common neighbor
        StreamEvent(2.0, KIND_ADD, u=6, v=3),     # and a third: becomes the best pick
        StreamEvent(3.0, KIND_REMOVE, u=4, v=1),  # node 4 loses one
    ]


def hub_events() -> "list[StreamEvent]":
    """Node 0 of ``toy.path(4)`` (0-1-2-3-4, d_max = 2) reaches degree 4."""
    return [StreamEvent(float(t), KIND_ADD, u=0, v=leaf) for t, leaf in ((1, 2), (2, 3), (3, 4))]


class TestSensitivityDrift:
    def test_weighted_paths_sensitivity_grows_with_density(self):
        drift = sensitivity_drift(
            toy.path(4), hub_events(), WeightedPaths(gamma=0.05), target=2,
            times=[0.0, 1.0, 3.0],
        )
        assert [time for time, _ in drift] == [0.0, 1.0, 3.0]
        values = [value for _, value in drift]
        assert values == sorted(values)
        assert values[-1] > values[0]  # d_max grew, so did Delta f

    def test_each_time_reads_the_replayed_prefix(self):
        """Every value equals Delta f on a graph built with exactly the
        events at or before its time; the input graph is untouched."""
        utility = WeightedPaths(gamma=0.05)
        base = toy.path(4)
        times = [0.5, 1.0, 2.5, 3.0, 3.0]
        drift = sensitivity_drift(base, hub_events(), utility, target=2, times=times)
        for time, value in drift:
            graph = base.copy()
            for event in hub_events():
                if event.time <= time:
                    graph.add_edge(event.u, event.v)
            assert value == utility.sensitivity(graph, 2)
        assert not base.has_edge(0, 2)

    def test_common_neighbors_sensitivity_constant(self, events):
        drift = sensitivity_drift(
            toy.paper_example_graph(), events, CommonNeighbors(), target=0,
            times=[0.0, 1.5, 3.0],
        )
        assert all(value == 2.0 for _, value in drift)

    def test_duplicates_and_queries_are_no_ops(self):
        utility = WeightedPaths(gamma=0.05)
        noisy = [
            StreamEvent(0.5, KIND_QUERY, user=1),
            StreamEvent(1.0, KIND_ADD, u=0, v=2),
            StreamEvent(1.0, KIND_ADD, u=2, v=0),     # duplicate add
            StreamEvent(1.5, KIND_REMOVE, u=1, v=4),  # remove a missing edge
            *hub_events()[1:],
        ]
        times = [0.0, 1.0, 2.0, 3.0]
        assert sensitivity_drift(toy.path(4), noisy, utility, 2, times) == (
            sensitivity_drift(toy.path(4), hub_events(), utility, 2, times)
        )

    def test_empty_times_rejected(self, events):
        with pytest.raises(ExperimentError):
            sensitivity_drift(toy.paper_example_graph(), events, CommonNeighbors(), 0, [])

    def test_decreasing_times_rejected(self, events):
        with pytest.raises(ExperimentError, match="times"):
            sensitivity_drift(
                toy.paper_example_graph(), events, CommonNeighbors(), 0, [0.0, 2.0, 1.0]
            )

    def test_unordered_events_rejected(self):
        events = hub_events()[::-1]
        with pytest.raises(ExperimentError, match="events"):
            sensitivity_drift(toy.path(4), events, CommonNeighbors(), 0, [3.0])

    def test_target_outside_graph_rejected(self, events):
        with pytest.raises(GraphError):
            sensitivity_drift(toy.paper_example_graph(), events, CommonNeighbors(), 12, [0.0])
