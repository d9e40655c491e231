"""Integration tests: figure drivers on miniature replicas.

These are the end-to-end checks that the full Section 7 pipeline runs and
produces results with the paper's qualitative structure. Sizes are tiny to
keep the suite fast; the benchmarks run the realistic versions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.config import (
    paper_config_figure_1a,
    paper_config_figure_2c,
)
from repro.experiments.figures import FIGURE_DRIVERS, figure_1a, figure_2a, figure_2c
from tests.conftest import chunks


@pytest.fixture(scope="module")
def tiny_figure_1a():
    config = paper_config_figure_1a(scale=0.02, max_targets=25)
    return figure_1a(config=config, include_laplace=True)


class TestFigure1a:
    def test_series_labels(self, tiny_figure_1a):
        labels = {series.label for series in tiny_figure_1a.series}
        assert labels == {
            "Exponential eps=0.5",
            "Laplace eps=0.5",
            "Theor. Bound eps=0.5",
            "Exponential eps=1",
            "Laplace eps=1",
            "Theor. Bound eps=1",
        }

    def test_cdf_grid_and_monotonicity(self, tiny_figure_1a):
        for series in tiny_figure_1a.series:
            assert series.x[0] == 0.0 and series.x[-1] == 1.0
            assert np.all(np.diff(series.y) >= 0)
            assert series.y[-1] == 1.0

    def test_bound_cdf_dominated_by_mechanism_cdf(self, tiny_figure_1a):
        """The theoretical bound upper-bounds achievable accuracy, so at any
        accuracy level at least as many nodes sit below it under the
        mechanism as under the bound (bound CDF <= mechanism CDF)."""
        for eps in ("0.5", "1"):
            mech = tiny_figure_1a.series_by_label(f"Exponential eps={eps}")
            bound = tiny_figure_1a.series_by_label(f"Theor. Bound eps={eps}")
            assert np.all(np.asarray(bound.y) <= np.asarray(mech.y) + 1e-9)

    def test_laplace_matches_exponential(self, tiny_figure_1a):
        """Section 7.2 takeaway (ii): the two mechanisms are near-identical.

        With few targets a node whose accuracy sits on a grid boundary can
        flip one CDF cell, so compare the mean CDF gap, not the pointwise
        max (the per-node agreement is tested directly in
        tests/test_paper_claims.py on more targets).
        """
        for eps in ("0.5", "1"):
            exp = np.asarray(tiny_figure_1a.series_by_label(f"Exponential eps={eps}").y)
            lap = np.asarray(tiny_figure_1a.series_by_label(f"Laplace eps={eps}").y)
            assert np.abs(exp - lap).mean() <= 0.08

    def test_more_privacy_means_worse_accuracy_cdf(self, tiny_figure_1a):
        """eps = 0.5 pushes more nodes into low-accuracy territory than
        eps = 1 (CDF at least as high everywhere, on average strictly)."""
        tight = np.asarray(tiny_figure_1a.series_by_label("Exponential eps=0.5").y)
        loose = np.asarray(tiny_figure_1a.series_by_label("Exponential eps=1").y)
        assert tight.mean() >= loose.mean() - 1e-9

    def test_metadata_provenance(self, tiny_figure_1a):
        metadata = tiny_figure_1a.metadata
        assert metadata["num_targets_evaluated"] > 0
        assert metadata["config"]["dataset"] == "wiki_vote"


class TestFigure2a:
    @pytest.fixture(scope="class")
    def tiny_figure_2a(self):
        return figure_2a(scale=0.02, max_targets=20, gammas=(0.0005, 0.05))

    def test_one_series_pair_per_gamma(self, tiny_figure_2a):
        labels = {series.label for series in tiny_figure_2a.series}
        assert labels == {
            "Exp. gamma=0.0005",
            "Theor. gamma=0.0005",
            "Exp. gamma=0.05",
            "Theor. gamma=0.05",
        }

    def test_higher_gamma_worse_or_equal_accuracy(self, tiny_figure_2a):
        """Section 7.2: higher gamma -> higher sensitivity -> worse accuracy,
        so the CDF at gamma=0.05 should lie (weakly) above gamma=0.0005."""
        low = np.asarray(tiny_figure_2a.series_by_label("Exp. gamma=0.0005").y)
        high = np.asarray(tiny_figure_2a.series_by_label("Exp. gamma=0.05").y)
        assert high.mean() >= low.mean() - 0.05

    def test_runs_metadata_per_gamma(self, tiny_figure_2a):
        assert len(tiny_figure_2a.metadata["runs"]) == 2


class TestFigure2c:
    @pytest.fixture(scope="class")
    def tiny_figure_2c(self):
        return figure_2c(config=paper_config_figure_2c(scale=0.05, max_targets=80))

    def test_two_series(self, tiny_figure_2c):
        labels = [series.label for series in tiny_figure_2c.series]
        assert labels == ["Exponential mechanism", "Theoretical Bound"]

    def test_low_degree_nodes_fare_worse(self, tiny_figure_2c):
        """Figure 2(c): accuracy grows with target degree."""
        series = tiny_figure_2c.series_by_label("Exponential mechanism")
        x = np.asarray(series.x)
        y = np.asarray(series.y)
        if x.size >= 3:
            low_half = y[x <= np.median(x)].mean()
            high_half = y[x > np.median(x)].mean()
            assert high_half >= low_half - 0.05

    def test_bin_counts_recorded(self, tiny_figure_2c):
        assert sum(tiny_figure_2c.metadata["bin_counts"]) == (
            tiny_figure_2c.metadata["num_targets_evaluated"]
        )


class TestShardingPassThrough:
    def test_explicit_config_backend_not_stomped(self):
        """Regression: drivers used to replace() config fields with their
        parameter defaults, silently resetting an explicit config."""
        from dataclasses import replace

        config = replace(
            paper_config_figure_1a(scale=0.02, max_targets=8), backend="shm"
        )
        result = figure_1a(config=config)
        assert result.metadata["config"]["backend"] == "shm"

    def test_driver_kwargs_apply_when_given(self):
        result = figure_1a(scale=0.02, max_targets=8, backend="shm")
        assert result.metadata["config"]["backend"] == "shm"
        assert "chunk_size" not in result.metadata["config"]
        assert "dtype" not in result.metadata["config"]

    def test_drivers_take_no_dtype(self):
        with pytest.raises(TypeError):
            figure_1a(scale=0.02, max_targets=8, dtype="float64")

    @pytest.mark.parametrize("figure", [figure_1a, figure_2a], ids=["1a", "2a"])
    def test_figure_from_target_pieces_plots_the_same_curves(self, monkeypatch, figure):
        """A figure whose engine calls are split into 3-target pieces,
        concatenated, plots the curves of the one-call figure."""
        from repro.experiments import runner

        whole = figure(scale=0.02, max_targets=8)
        engine = runner.evaluate_targets_batched

        def in_pieces(graph, utility, targets, mechanisms, **kwargs):
            return [
                evaluation
                for part in chunks(targets, 3)
                for evaluation in engine(graph, utility, part, mechanisms, **kwargs)
            ]

        monkeypatch.setattr(runner, "evaluate_targets_batched", in_pieces)
        assert figure(scale=0.02, max_targets=8).series == whole.series


class TestOneLaplaceSwitch:
    """``ExperimentConfig.include_laplace`` alone decides whether a figure
    computes Laplace accuracies, and a figure prints Laplace series
    exactly when its run computed them."""

    @staticmethod
    def _laplace_labels(result):
        return [s.label for s in result.series if s.label.startswith(("Laplace", "Lap."))]

    def test_default_figures_evaluate_no_laplace_accuracy(self, monkeypatch):
        from repro.mechanisms.laplace import LaplaceMechanism

        def refuse(*args, **kwargs):
            raise AssertionError("a default figure evaluated a Laplace accuracy")

        monkeypatch.setattr(LaplaceMechanism, "support_accuracies", refuse)
        monkeypatch.setattr(LaplaceMechanism, "probabilities", refuse)
        assert self._laplace_labels(figure_1a()) == []
        assert self._laplace_labels(figure_2a(scale=0.02, max_targets=10)) == []
        assert self._laplace_labels(figure_2c(scale=0.02, max_targets=10)) == []

    def test_explicit_config_keeps_its_laplace_field(self):
        from dataclasses import replace

        config = replace(
            paper_config_figure_1a(scale=0.02, max_targets=8), include_laplace=True
        )
        result = figure_1a(config=config)
        assert self._laplace_labels(result) == ["Laplace eps=0.5", "Laplace eps=1"]
        assert result.metadata["config"]["include_laplace"] is True
        off = figure_1a(config=config, include_laplace=False)
        assert self._laplace_labels(off) == []
        assert off.metadata["config"]["include_laplace"] is False

    def test_weighted_paths_and_degree_figures_print_what_they_computed(self):
        from dataclasses import replace

        two_a = figure_2a(scale=0.02, max_targets=10, include_laplace=True)
        assert self._laplace_labels(two_a) == ["Lap. gamma=0.0005", "Lap. gamma=0.05"]
        config = replace(
            paper_config_figure_2c(scale=0.02, max_targets=10), include_laplace=True
        )
        labels = [series.label for series in figure_2c(config=config).series]
        assert labels == ["Exponential mechanism", "Laplace mechanism", "Theoretical Bound"]


class TestDriverRegistry:
    def test_all_five_figures_registered(self):
        assert set(FIGURE_DRIVERS) == {"1a", "1b", "2a", "2b", "2c"}
