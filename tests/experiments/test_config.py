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
        assert config.laplace_trials == 1_000

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
            dict(laplace_trials=0),
            dict(backend="gpu"),
            dict(chunk_size=0),
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ExperimentError):
            ExperimentConfig(**overrides)

    def test_sharding_defaults_are_serial_unchunked(self):
        config = ExperimentConfig()
        assert config.chunk_size is None


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

    def test_round_trip_with_sharding(self):
        config = ExperimentConfig(chunk_size=256)
        restored = ExperimentConfig.from_dict(config.to_dict())
        assert restored.chunk_size == 256

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
