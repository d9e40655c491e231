"""The delta journal: a mutation's ``touched`` set must cover every changed row.

The load-bearing invariant (what makes patching sound): for any
mutation ``(u, v)``, every target whose utility vector changed is in
the journaled delta's ``touched`` set or is an endpoint. Tested by brute
force — compare every node's utility vector before and after real
mutations on random graphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import toy
from repro.errors import GraphError
from repro.streaming import DirtyNodeTracker, MutableSocialGraph
from repro.utility import CommonNeighbors, WeightedPaths


def all_vectors(graph, utility):
    return [utility.utility_vector(graph, t) for t in graph.nodes()]


def changed_targets(before, after):
    changed = set()
    for target, (old, new) in enumerate(zip(before, after)):
        same = (
            np.array_equal(old.candidates, new.candidates)
            and np.array_equal(old.values, new.values)
            and old.target_degree == new.target_degree
        )
        if not same:
            changed.add(target)
    return changed


@pytest.mark.parametrize(
    "utility",
    [CommonNeighbors(), WeightedPaths(gamma=0.05), WeightedPaths(gamma=0.05, max_length=4)],
    ids=["cn", "wp3", "wp4"],
)
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_touched_set_covers_every_changed_row(utility, directed, seed):
    rng = np.random.default_rng(seed)
    num_nodes = 18
    max_length = max(utility.walk_component_lengths())
    graph = MutableSocialGraph(num_nodes, directed=directed)
    graph.request_score_deltas(max_length)
    for _ in range(45):
        u, v = (int(x) for x in rng.integers(0, num_nodes, size=2))
        graph.try_add_edge(u, v)
    for _ in range(12):
        pre_version = graph.version
        before = all_vectors(graph, utility)
        u, v = (int(x) for x in rng.integers(0, num_nodes, size=2))
        if rng.random() < 0.5:
            mutated = graph.try_add_edge(u, v)
        else:
            mutated = graph.try_remove_edge(u, v)
        if not mutated:
            continue
        after = all_vectors(graph, utility)
        (delta,) = graph.score_deltas_since(pre_version, max_length)
        assert changed_targets(before, after) <= delta.touched | {u, v}


def test_dirty_ball_counts_only_the_rows_a_directed_mutation_changes():
    """A directed ``(u, v)`` rewrites ``u``'s row and the touched rows;
    the head ``v`` keeps its candidate set and is not in the ball."""
    from repro.graphs import SocialGraph

    base = SocialGraph.from_edges([(0, 1), (1, 2), (3, 0)], 6, directed=True)
    graph = MutableSocialGraph.from_graph(base)
    graph.request_score_deltas(2)
    before = all_vectors(graph, CommonNeighbors())
    graph.add_edge(1, 4)
    changed = changed_targets(before, all_vectors(graph, CommonNeighbors()))
    assert changed == {0, 1}
    assert graph.last_dirty_ball_size == len(changed) == 2


class TestTrackerProtocol:
    def graph(self, **kwargs):
        graph = MutableSocialGraph.from_graph(toy.paper_example_graph(), **kwargs)
        graph.request_score_deltas(2)
        return graph

    def test_accumulates_deltas_across_mutations(self):
        graph = self.graph()
        version = graph.version
        graph.add_edge(0, 6)
        (first,) = graph.score_deltas_since(version, 2)
        graph.add_edge(6, 9)
        both = graph.score_deltas_since(version, 2)
        assert both[0] is first
        assert [(d.u, d.v, d.version) for d in both] == [
            (0, 6, version + 1),
            (6, 9, version + 2),
        ]
        assert graph.last_dirty_ball_size == len(both[1].touched | {6, 9})

    def test_same_version_is_clean(self):
        graph = self.graph()
        graph.add_edge(0, 6)
        assert graph.score_deltas_since(graph.version, 2) == []

    def test_stale_version_returns_none(self):
        graph = self.graph()
        assert graph.score_deltas_since(graph.version - 1, 2) is None

    def test_journal_limit_raises_floor(self):
        graph = self.graph(journal_limit=3)
        version = graph.version
        for u, v in ((2, 6), (3, 6), (4, 7), (5, 8)):
            graph.add_edge(u, v)
        assert graph.score_deltas_since(version, 2) is None  # oldest delta dropped
        assert len(graph.score_deltas_since(graph.version - 3, 2)) == 3

    def test_deepened_journal_answers_deep_queries_only_after_deepening(self):
        graph = self.graph()
        version = graph.version
        graph.add_edge(0, 6)
        graph.request_score_deltas(4)
        mid_version = graph.version
        graph.add_edge(6, 9)
        assert graph.score_deltas_since(version, 4) is None  # first delta too shallow
        assert len(graph.score_deltas_since(version, 2)) == 2
        assert len(graph.score_deltas_since(mid_version, 4)) == 1

    def test_journal_survives_compaction(self):
        graph = self.graph()
        version = graph.version
        graph.add_edge(0, 6)
        graph.compact()
        graph.add_edge(6, 9)
        deltas = graph.score_deltas_since(version, 2)
        assert [(d.u, d.v) for d in deltas] == [(0, 6), (6, 9)]

    def test_graph_without_patching_consumer_records_nothing(self):
        graph = MutableSocialGraph.from_graph(toy.paper_example_graph())
        version = graph.version
        graph.add_edge(0, 6)
        assert graph.last_dirty_ball_size is None
        assert graph.score_deltas_since(version, 2) is None

    def test_late_request_records_from_then_on(self):
        graph = MutableSocialGraph.from_graph(toy.paper_example_graph())
        version = graph.version
        graph.add_edge(0, 6)  # unjournaled
        graph.request_score_deltas(2)
        mid_version = graph.version
        graph.add_edge(6, 9)
        assert graph.score_deltas_since(version, 2) is None  # predates the journal
        (delta,) = graph.score_deltas_since(mid_version, 2)
        assert (delta.u, delta.v) == (6, 9)

    def test_temporal_cursor_records_nothing(self):
        """A replay copy (as ``sensitivity_drift`` makes) applying events
        through try_add_edge journals nothing: no cache asked for deltas."""
        initial = toy.paper_example_graph()
        cursor = MutableSocialGraph.from_graph(initial)
        assert cursor.try_add_edge(0, 6) and cursor.try_add_edge(6, 9)
        assert not cursor.try_add_edge(9, 6)  # a duplicate stays a no-op
        assert cursor.last_dirty_ball_size is None
        assert cursor.score_deltas_since(initial.version, 2) is None

    def test_tracker_validates_parameters(self):
        with pytest.raises(GraphError):
            DirtyNodeTracker(0, max_length=1)
        with pytest.raises(GraphError):
            DirtyNodeTracker(0, max_length=2, limit=0)
        tracker = DirtyNodeTracker(0, max_length=2)
        with pytest.raises(GraphError):
            tracker.request_score_deltas(1)
        with pytest.raises(GraphError):
            tracker.deltas_since(0, 1)
