"""Tests for experiment configuration."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.config import (
    ExperimentConfig,
    paper_config_figure_1a,
    paper_config_figure_1b,
    paper_config_figure_2a,
    paper_config_figure_2b,
    paper_config_figure_2c,
)


class TestValidation:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.dataset == "wiki_vote"
        assert config.include_laplace

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(dataset="nonexistent"),
            dict(utility="pagerank_v2"),
            dict(scale=0.0),
            dict(scale=1.2),
            dict(epsilons=()),
            dict(epsilons=(0.5, -1.0)),
            dict(target_fraction=0.0),
            dict(backend="gpu"),
            dict(max_targets=0),
            dict(max_targets=-2),
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ExperimentError):
            ExperimentConfig(**overrides)

    @pytest.mark.parametrize("cap", [0, -2])
    def test_non_positive_target_cap_names_the_value(self, cap):
        with pytest.raises(ExperimentError, match=f"max_targets must be >= 1, got {cap}"):
            ExperimentConfig(max_targets=cap)

    def test_config_takes_no_chunk_size(self):
        """The engine sizes its own chunks from the byte budget."""
        assert not hasattr(ExperimentConfig(), "chunk_size")
        with pytest.raises(TypeError):
            ExperimentConfig(chunk_size=4)


class TestSerialization:
    def test_round_trip(self):
        config = ExperimentConfig(
            dataset="twitter",
            utility="weighted_paths",
            gamma=0.05,
            epsilons=(1.0, 3.0),
            max_targets=50,
            name="test",
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_removed_dtype(self):
        """The engine computes in float64 only; a config naming a dtype
        is refused by name, not silently ignored."""
        legacy = {**ExperimentConfig().to_dict(), "dtype": "float32"}
        assert "dtype" not in ExperimentConfig().to_dict()
        with pytest.raises(ExperimentError, match="dtype"):
            ExperimentConfig.from_dict(legacy)

    def test_from_dict_rejects_removed_chunk_size(self):
        legacy = {**ExperimentConfig().to_dict(), "chunk_size": 256}
        with pytest.raises(ExperimentError, match="chunk_size"):
            ExperimentConfig.from_dict(legacy)

    def test_from_dict_rejects_unknown_keys_by_name(self):
        with pytest.raises(ExperimentError, match="bogus"):
            ExperimentConfig.from_dict({"bogus": 1})
        # A dict that still carries the removed "workers" field fails
        # typed, naming it, with no compatibility shim.
        legacy = {**ExperimentConfig().to_dict(), "workers": 1}
        with pytest.raises(ExperimentError, match="workers"):
            ExperimentConfig.from_dict(legacy)

    def test_from_dict_error_names_every_unknown_key(self):
        data = {**ExperimentConfig().to_dict(), "workers": 2, "executor": "thread"}
        with pytest.raises(ExperimentError, match="executor, workers"):
            ExperimentConfig.from_dict(data)

    def test_to_dict_serializable(self):
        import json

        data = ExperimentConfig().to_dict()
        json.dumps(data)  # must not raise
        assert isinstance(data["epsilons"], list)


class TestPaperConfigs:
    def test_figure_1a_parameters(self):
        config = paper_config_figure_1a()
        assert config.dataset == "wiki_vote"
        assert config.utility == "common_neighbors"
        assert config.epsilons == (0.5, 1.0)
        assert config.target_fraction == 0.1

    def test_figure_1b_parameters(self):
        config = paper_config_figure_1b()
        assert config.dataset == "twitter"
        assert config.epsilons == (1.0, 3.0)
        assert config.target_fraction == 0.01

    def test_figure_2a_parameters(self):
        config = paper_config_figure_2a(gamma=0.05)
        assert config.utility == "weighted_paths"
        assert config.gamma == 0.05
        assert config.epsilons == (1.0,)

    def test_figure_2b_parameters(self):
        config = paper_config_figure_2b(gamma=0.0005)
        assert config.dataset == "twitter"
        assert config.gamma == 0.0005

    def test_figure_2c_parameters(self):
        config = paper_config_figure_2c()
        assert config.epsilons == (0.5,)
        assert config.utility == "common_neighbors"

    @pytest.mark.parametrize(
        "build",
        [
            paper_config_figure_1a,
            paper_config_figure_1b,
            lambda: paper_config_figure_2a(gamma=0.05),
            lambda: paper_config_figure_2b(gamma=0.05),
            paper_config_figure_2c,
        ],
        ids=["1a", "1b", "2a", "2b", "2c"],
    )
    def test_paper_figures_leave_laplace_off(self, build):
        """The paper's figures plot no Laplace series, so their configs
        compute none."""
        assert build().include_laplace is False
