"""Experiment orchestration: config -> graph -> evaluations.

:func:`run_experiment` performs the paper's Section 7.1 procedure:

1. build the dataset replica at the configured scale;
2. instantiate the utility function (common neighbors or weighted paths
   with the configured gamma, truncated at length 3);
3. compute the utility-function sensitivity for the graph and build one
   Exponential (and optionally Laplace) mechanism per epsilon;
4. sample targets uniformly at random (10% Wiki / 1% Twitter by default);
5. evaluate every mechanism's expected accuracy and the Corollary 1 bound
   (with the exact Section 7.1 ``t``) on every target.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..accuracy.batch import evaluate_targets_batched
from ..accuracy.evaluator import TargetEvaluation, sample_targets
from ..datasets import synthetic_powerlaw, twitter, wiki_vote
from ..errors import ExperimentError
from ..graphs.graph import SocialGraph
from ..graphs.shared import SharedSocialGraph
from ..mechanisms.base import Mechanism
from ..mechanisms.exponential import ExponentialMechanism
from ..mechanisms.laplace import LaplaceMechanism
from ..utility.base import UtilityFunction
from ..utility.common_neighbors import CommonNeighbors
from ..utility.weighted_paths import WeightedPaths
from .config import ExperimentConfig


@dataclass(frozen=True)
class ExperimentRun:
    """Everything produced by one experiment execution."""

    config: ExperimentConfig
    num_nodes: int
    num_edges: int
    num_targets_sampled: int
    num_targets_evaluated: int
    sensitivity: float
    elapsed_seconds: float
    evaluations: list[TargetEvaluation] = field(default_factory=list)

    def accuracies(self, mechanism_key: str) -> np.ndarray:
        """Per-target accuracy sample for one mechanism key."""
        return np.asarray(
            [e.accuracy_of(mechanism_key) for e in self.evaluations], dtype=np.float64
        )

    def bounds(self, epsilon: float) -> np.ndarray:
        """Per-target Corollary 1 bound sample at one epsilon."""
        return np.asarray(
            [e.bound_at(epsilon) for e in self.evaluations], dtype=np.float64
        )


def build_graph(config: ExperimentConfig) -> SocialGraph:
    """Materialize the configured dataset replica on the configured backend.

    ``backend="shm"``/``"mmap"`` return a frozen
    :class:`~repro.graphs.shared.SharedSocialGraph` whose adjacency is
    bit-identical to the heap replica; callers that own the graph should
    ``close()``/``unlink()`` it when done (:func:`run_experiment` does
    this for graphs it builds itself). ``dataset="synthetic"`` assembles
    a directed power-law graph of ``config.nodes`` nodes directly into
    the backing segment — never through Python edge sets.
    """
    if config.dataset == "synthetic":
        return synthetic_powerlaw(
            config.nodes, config.exponent, backend=config.backend
        )
    if config.dataset == "wiki_vote":
        graph = wiki_vote(scale=config.scale)
    elif config.dataset == "twitter":
        graph = twitter(scale=config.scale)
    else:
        raise ExperimentError(f"unknown dataset {config.dataset!r}")
    if config.backend != "heap":
        shared = SharedSocialGraph.from_graph(graph, backing=config.backend)
        return shared
    return graph


def build_utility(config: ExperimentConfig) -> UtilityFunction:
    """Instantiate the configured utility function."""
    if config.utility == "common_neighbors":
        return CommonNeighbors()
    if config.utility == "weighted_paths":
        return WeightedPaths(gamma=config.gamma, max_length=config.max_path_length)
    raise ExperimentError(f"unknown utility {config.utility!r}")


def mechanism_key(kind: str, epsilon: float) -> str:
    """Stable result-dictionary key for a (mechanism, epsilon) pair."""
    return f"{kind}@{epsilon:g}"


def build_mechanisms(
    config: ExperimentConfig, sensitivity: float
) -> dict[str, Mechanism]:
    """One Exponential (and optionally Laplace) mechanism per epsilon."""
    mechanisms: dict[str, Mechanism] = {}
    for eps in config.epsilons:
        mechanisms[mechanism_key("exponential", eps)] = ExponentialMechanism(
            eps, sensitivity=sensitivity
        )
        if config.include_laplace:
            mechanisms[mechanism_key("laplace", eps)] = LaplaceMechanism(
                eps, sensitivity=sensitivity, trials=config.laplace_trials
            )
    return mechanisms


def run_experiment(
    config: ExperimentConfig,
    graph: "SocialGraph | None" = None,
) -> ExperimentRun:
    """Execute the full Section 7.1 pipeline for one configuration.

    ``graph`` may be supplied to reuse a replica across several configs
    (the figure functions share one graph across gamma values). Targets are
    evaluated by :func:`~repro.accuracy.batch.evaluate_targets_batched`,
    whose float64 evaluations equal the per-target reference
    :func:`~repro.accuracy.evaluator.evaluate_targets` bit for bit.
    """
    started = time.perf_counter()
    owned_graph = graph is None
    if graph is None:
        graph = build_graph(config)
    try:
        utility = build_utility(config)
        # CN / WP sensitivities depend only on graph-level quantities
        # (direction, d_max), so one value serves all targets.
        sensitivity = utility.sensitivity(graph, 0)
        mechanisms = build_mechanisms(config, sensitivity)
        targets = sample_targets(
            graph,
            fraction=config.target_fraction,
            seed=config.seed,
            max_targets=config.max_targets,
        )
        evaluations = evaluate_targets_batched(
            graph,
            utility,
            targets,
            mechanisms,
            bound_epsilons=tuple(config.epsilons),
            seed=config.seed + 1,
            laplace_trials=config.laplace_trials,
            chunk_size=config.chunk_size,
            dtype=config.dtype,
        )
        num_nodes, num_edges = graph.num_nodes, graph.num_edges
    finally:
        # A shared segment built here is ours to tear down; a caller's
        # graph is theirs.
        if owned_graph and isinstance(graph, SharedSocialGraph):
            graph.close()
            graph.unlink()
    elapsed = time.perf_counter() - started
    return ExperimentRun(
        config=config,
        num_nodes=num_nodes,
        num_edges=num_edges,
        num_targets_sampled=int(targets.size),
        num_targets_evaluated=len(evaluations),
        sensitivity=float(sensitivity),
        elapsed_seconds=elapsed,
        evaluations=evaluations,
    )
