"""Tests for SNAP edge-list reading and writing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import twitter
from repro.errors import GraphFormatError
from repro.graphs.generators import erdos_renyi_gnp
from repro.graphs.graph import sorted_distinct
from repro.graphs.io import read_edge_list, relabel_mapping, write_edge_list


class TestReadEdgeList:
    def test_parses_snap_format(self, tmp_path):
        content = "# comment line\n# another\n0\t1\n1 2\n\n3\t0\n"
        path = tmp_path / "graph.txt"
        path.write_text(content)
        g = read_edge_list(path)
        assert g.num_nodes == 4
        assert g.num_edges == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(3, 0)

    def test_compacts_sparse_ids(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("10 20\n20 30\n")
        g = read_edge_list(path)
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_relabel_mapping_matches_reader(self):
        mapping = relabel_mapping({10, 20, 30})
        assert mapping == {10: 0, 20: 1, 30: 2}

    def test_drops_self_loops(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 0\n0 1\n")
        g = read_edge_list(path)
        assert g.num_edges == 1

    def test_directed_reading(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n1 0\n")
        g = read_edge_list(path, directed=True)
        assert g.num_edges == 2

    def test_malformed_field_count_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(GraphFormatError, match="expected two fields"):
            read_edge_list(path)

    def test_non_integer_id_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_edge_list(path)


class TestWriteEdgeList:
    def test_round_trip_undirected(self, tmp_path):
        g = erdos_renyi_gnp(20, 0.2, seed=1)
        path = tmp_path / "out.txt"
        write_edge_list(g, path)
        # Compaction may renumber isolated-node-free graphs; compare edges.
        back = read_edge_list(path, num_nodes=g.num_nodes)
        assert back.num_edges == g.num_edges

    def test_round_trip_directed(self, tmp_path):
        g = erdos_renyi_gnp(15, 0.2, directed=True, seed=2)
        path = tmp_path / "out.txt"
        write_edge_list(g, path)
        back = read_edge_list(path, directed=True, num_nodes=g.num_nodes)
        assert back.num_edges == g.num_edges

    def test_header_lines_written_as_comments(self, tmp_path):
        g = erdos_renyi_gnp(5, 0.5, seed=3)
        path = tmp_path / "out.txt"
        write_edge_list(g, path, header="seed=3\nmodel=gnp")
        lines = path.read_text().splitlines()
        assert lines[1] == "# seed=3"
        assert lines[2] == "# model=gnp"

    def test_creates_parent_directories(self, tmp_path):
        g = erdos_renyi_gnp(5, 0.5, seed=4)
        path = tmp_path / "nested" / "dir" / "out.txt"
        write_edge_list(g, path)
        assert path.exists()

    def test_twitter_replica_round_trips_unchanged(self, tmp_path):
        """Label compaction keeps an isolated-node-free replica's ids."""
        g = twitter(scale=0.05)
        path = tmp_path / "twitter.txt"
        write_edge_list(g, path)
        back = read_edge_list(path, directed=True)
        assert back.num_nodes == g.num_nodes
        assert sorted(back.edges()) == sorted(g.edges())


class TestSortedDistinct:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2**62), 2**62), max_size=60))
    def test_matches_numpy_unique(self, values):
        array = np.asarray(values, dtype=np.int64)
        result = sorted_distinct(array)
        assert result.dtype == np.int64
        np.testing.assert_array_equal(result, np.unique(array))

    @pytest.mark.parametrize(
        "values", [[], [7], [3] * 50, [-1, -1, 0, 0], list(range(9, -1, -1)) * 2]
    )
    def test_edge_cases(self, values):
        array = np.asarray(values, dtype=np.int64)
        np.testing.assert_array_equal(sorted_distinct(array), np.unique(array))
