"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import toy
from repro.graphs.generators import erdos_renyi_gnp
from repro.graphs.graph import SocialGraph
from repro.utility.base import UtilityVector


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator shared by stochastic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def triangle_graph() -> SocialGraph:
    return toy.triangle_with_tail()


@pytest.fixture
def example_graph() -> SocialGraph:
    """12-node graph with documented utility profile for target 0."""
    return toy.paper_example_graph()


@pytest.fixture
def star_graph() -> SocialGraph:
    return toy.star(leaves=5)


@pytest.fixture
def communities_graph() -> SocialGraph:
    return toy.two_communities(block_size=6)


@pytest.fixture
def random_graph() -> SocialGraph:
    """Mid-size random graph for randomized structural tests."""
    return erdos_renyi_gnp(60, 0.1, seed=7)


@pytest.fixture
def directed_graph() -> SocialGraph:
    return toy.directed_fan(out_degree=4)


@pytest.fixture
def simple_vector() -> UtilityVector:
    """Hand-built utility vector with distinct levels and a clear maximum."""
    return UtilityVector(
        target=0,
        candidates=np.asarray([3, 4, 5, 6, 7], dtype=np.int64),
        values=np.asarray([5.0, 3.0, 1.0, 1.0, 0.0]),
        target_degree=3,
    )


def make_vector(values, target: int = 0, target_degree: int = 3) -> UtilityVector:
    """Helper constructing a UtilityVector from raw values."""
    values = np.asarray(values, dtype=np.float64)
    return UtilityVector(
        target=target,
        candidates=np.arange(100, 100 + values.size, dtype=np.int64),
        values=values,
        target_degree=target_degree,
    )


def make_uniforms(seed: int, rows: int) -> np.ndarray:
    """Two uniforms per row, as a service draws them for its requests."""
    return np.random.default_rng(seed).random((rows, 2))


def chunks(items, size: int) -> list:
    """``items`` cut into consecutive pieces of ``size`` (the last may be
    shorter): an explicit target or request partition, for tests that a
    split call concatenates to the whole one."""
    return [items[start:start + size] for start in range(0, len(items), size)]


def engine_in_pieces(graph, utility, targets, mechanisms, rows: int, **kwargs) -> list:
    """``evaluate_targets_batched`` on ``rows``-target pieces of
    ``targets``, evaluations concatenated. Equal to one call whenever
    every mechanism has a flat kernel (no call draws from a seeded
    per-target stream)."""
    from repro.accuracy.batch import evaluate_targets_batched

    return [
        evaluation
        for part in chunks(targets, rows)
        for evaluation in evaluate_targets_batched(graph, utility, part, mechanisms, **kwargs)
    ]
