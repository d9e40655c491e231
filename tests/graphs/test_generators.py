"""Tests for the random-graph generators and power-law sequences."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatasetError
from repro.graphs.generators import (
    barabasi_albert,
    bounded_pareto_degrees,
    configuration_model,
    directed_configuration_model,
    erdos_renyi_gnm,
    erdos_renyi_gnp,
    scale_to_edge_total,
    watts_strogatz,
)
from repro.graphs.generators.powerlaw import bounded_pareto_mean, fit_exponent


class TestErdosRenyi:
    def test_gnp_zero_probability_empty(self):
        assert erdos_renyi_gnp(30, 0.0, seed=0).num_edges == 0

    def test_gnp_full_probability_complete(self):
        g = erdos_renyi_gnp(10, 1.0, seed=0)
        assert g.num_edges == 45

    def test_gnp_edge_count_near_expectation(self):
        g = erdos_renyi_gnp(200, 0.05, seed=1)
        expected = 0.05 * 200 * 199 / 2
        assert abs(g.num_edges - expected) < 4 * np.sqrt(expected)

    def test_gnp_invalid_probability(self):
        with pytest.raises(DatasetError):
            erdos_renyi_gnp(10, 1.5)

    def test_gnm_exact_edge_count(self):
        g = erdos_renyi_gnm(50, 100, seed=2)
        assert g.num_edges == 100

    def test_gnm_directed(self):
        g = erdos_renyi_gnm(20, 50, directed=True, seed=3)
        assert g.num_edges == 50
        assert g.is_directed

    def test_gnm_too_many_edges(self):
        with pytest.raises(DatasetError):
            erdos_renyi_gnm(4, 100)

    def test_gnp_deterministic_given_seed(self):
        a = erdos_renyi_gnp(30, 0.2, seed=9)
        b = erdos_renyi_gnp(30, 0.2, seed=9)
        assert a == b


class TestBarabasiAlbert:
    def test_edge_count(self):
        g = barabasi_albert(100, 3, seed=0)
        # attachment edges: 3 initial + 3 per node for nodes 4..99
        assert g.num_edges == 3 + 3 * 96

    def test_min_degree_is_attachment(self):
        g = barabasi_albert(80, 2, seed=1)
        assert int(g.degrees().min()) >= 2

    def test_hub_emerges(self):
        g = barabasi_albert(300, 2, seed=2)
        assert g.max_degree() > 10  # preferential attachment concentrates

    def test_invalid_parameters(self):
        with pytest.raises(DatasetError):
            barabasi_albert(3, 3)
        with pytest.raises(DatasetError):
            barabasi_albert(10, 0)


class TestWattsStrogatz:
    def test_no_rewire_is_ring_lattice(self):
        g = watts_strogatz(20, 4, 0.0, seed=0)
        assert g.num_edges == 40
        assert set(g.degrees().tolist()) == {4}

    def test_rewire_preserves_edge_count(self):
        g = watts_strogatz(50, 4, 0.3, seed=1)
        assert g.num_edges == 100

    def test_invalid_nearest(self):
        with pytest.raises(DatasetError):
            watts_strogatz(20, 3, 0.1)
        with pytest.raises(DatasetError):
            watts_strogatz(4, 4, 0.1)


class TestConfigurationModels:
    def test_realizes_regular_sequence(self):
        degrees = [3] * 20
        g = configuration_model(degrees, seed=4)
        # simple-graph cleanup may drop a few stubs but most survive
        assert g.num_edges >= 25
        assert int(g.degrees().max()) <= 3

    def test_degrees_never_exceed_request(self):
        degrees = [1, 2, 3, 4, 5, 5, 4, 3, 2, 1]
        g = configuration_model(degrees, seed=5)
        assert np.all(g.degrees() <= np.asarray(degrees))

    def test_negative_degree_rejected(self):
        with pytest.raises(DatasetError):
            configuration_model([2, -1, 3])

    def test_directed_model_respects_caps(self):
        out_deg = [2, 2, 2, 0, 0, 0]
        in_deg = [0, 0, 0, 2, 2, 2]
        g = directed_configuration_model(out_deg, in_deg, seed=6)
        assert g.is_directed
        assert np.all(g.degrees() <= np.asarray(out_deg))
        assert np.all(g.in_degrees() <= np.asarray(in_deg))

    def test_directed_mismatched_lengths(self):
        with pytest.raises(DatasetError):
            directed_configuration_model([1, 2], [1, 2, 3])


class TestBoundedPareto:
    def test_values_within_bounds(self, rng):
        degrees = bounded_pareto_degrees(5000, 2.0, 1, 50, seed=rng)
        assert degrees.min() >= 1
        assert degrees.max() <= 50

    def test_heavier_exponent_means_smaller_mean(self):
        light = bounded_pareto_degrees(5000, 3.0, 1, 100, seed=1).mean()
        heavy = bounded_pareto_degrees(5000, 1.5, 1, 100, seed=1).mean()
        assert heavy > light

    def test_invalid_exponent(self):
        with pytest.raises(DatasetError):
            bounded_pareto_degrees(10, 1.0, 1, 10)

    def test_invalid_range(self):
        with pytest.raises(DatasetError):
            bounded_pareto_degrees(10, 2.0, 5, 2)

    def test_mean_formula_matches_samples(self):
        exponent, d_min, d_max = 2.2, 1, 200
        analytic = bounded_pareto_mean(exponent, d_min, d_max)
        sample = bounded_pareto_degrees(200_000, exponent, d_min, d_max, seed=0).mean()
        assert abs(analytic - sample) < 0.1

    def test_fit_exponent_round_trips(self):
        target = 12.0
        exponent = fit_exponent(target, 1, 500)
        assert abs(bounded_pareto_mean(exponent, 1, 500) - target) < 1e-6

    def test_fit_exponent_out_of_range(self):
        with pytest.raises(DatasetError):
            fit_exponent(1000.0, 1, 10)


class TestScaleToEdgeTotal:
    def test_hits_exact_total(self, rng):
        degrees = bounded_pareto_degrees(500, 2.0, 1, 40, seed=rng)
        scaled = scale_to_edge_total(degrees, 3000, d_min=1, d_max=40, seed=rng)
        assert int(scaled.sum()) == 3000
        assert scaled.min() >= 1
        assert scaled.max() <= 40

    def test_empty_sequence(self):
        assert scale_to_edge_total(np.asarray([], dtype=np.int64), 0).size == 0
        with pytest.raises(DatasetError):
            scale_to_edge_total(np.asarray([], dtype=np.int64), 5)

    def test_infeasible_total_raises(self):
        with pytest.raises(DatasetError):
            scale_to_edge_total(np.asarray([1, 1, 1]), 100, d_min=1, d_max=2)

    def test_all_zero_sequence_with_zero_floor(self):
        """Nothing to scale: a positive total is a typed error, not a
        division by zero, and a zero total keeps the zeros."""
        with pytest.raises(DatasetError, match="all-zero"):
            scale_to_edge_total([0, 0], 7, d_min=0)
        assert scale_to_edge_total([0, 0], 0, d_min=0).tolist() == [0, 0]


@given(
    n=st.integers(2, 40),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10),
)
@settings(max_examples=30, deadline=None)
def test_property_gnp_always_simple(n, p, seed):
    """Generated graphs are always simple with nodes in range."""
    g = erdos_renyi_gnp(n, p, seed=seed)
    for u, v in g.edges():
        assert 0 <= u < n and 0 <= v < n and u != v
