"""Parameter sweeps beyond the paper's fixed grid.

The paper evaluates at a handful of epsilon values (0.5, 1, 3). These
sweeps trace the full trade-off curves the theory describes:

* :func:`epsilon_sweep` — mean/percentile accuracy and bound as epsilon
  varies, for a fixed utility function (the trade-off curve of Lemma 1
  made empirical);
* :func:`gamma_sweep` — accuracy and sensitivity as the weighted-paths
  decay varies (the Figure 2 "higher gamma, higher sensitivity, worse
  accuracy" relationship, densely sampled).

The epsilon sweep is an aggregation over the experiment engine
(:func:`~repro.accuracy.batch.evaluate_targets_batched`) with one
exponential mechanism per epsilon and the Corollary 1 bound on the same
grid, so the graph work is paid once per sweep, not once per epsilon.
The gamma sweep has its own chunk kernel on the shared
:mod:`repro.compute` stages because it saves real work: the length-``l``
walk matrices are gamma-independent, so each chunk computes them once
(:func:`~repro.graphs.traversal.batch_walk_matrices`) and only the cheap
gamma recombination runs per decay value; each recombined score block is
then sparsified into the engine's flat support rows and accuracy kernel.
Those walk matrices are dense, so the gamma sweep runs in
:class:`~repro.compute.plan.ComputePlan` chunks sized by the one byte
budget, and per-target results are concatenated in target order before
aggregating, so every budget produces bit-identical sweep points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scipy import sparse

from ..accuracy.batch import evaluate_targets_batched
from ..compute.kernels import checked_targets, excluded_rows, footnote10_support
from ..compute.plan import ComputePlan
from ..compute.workspace import get_workspace
from ..errors import ExperimentError
from ..graphs.graph import SocialGraph
from ..graphs.traversal import batch_walk_matrices
from ..mechanisms.exponential import ExponentialMechanism
from ..utility.base import UtilityFunction, support_rows
from ..utility.weighted_paths import WeightedPaths
from .results import FigureResult, Series


@dataclass(frozen=True)
class SweepPoint:
    """Aggregate statistics at one parameter value."""

    parameter: float
    mean_accuracy: float
    median_accuracy: float
    p10_accuracy: float
    mean_bound: float


def epsilon_sweep(
    graph: SocialGraph,
    utility: UtilityFunction,
    targets: "list[int] | np.ndarray",
    epsilons: "tuple[float, ...]" = (0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0),
) -> list[SweepPoint]:
    """Exponential-mechanism accuracy and Corollary 1 bound vs. epsilon.

    One engine pass serves the whole epsilon grid: per epsilon the
    accuracies are one flat support kernel and the bounds one
    vectorized Corollary 1 curve over each target's shared threshold
    table.
    """
    if not epsilons or any(e <= 0 for e in epsilons):
        raise ExperimentError(f"epsilons must be positive, got {epsilons}")
    sensitivity = utility.sensitivity(graph, 0)
    epsilon_grid = tuple(float(e) for e in epsilons)
    # Keyed by grid position, so a repeated epsilon still gets its own point.
    mechanisms = {
        str(column): ExponentialMechanism(epsilon, sensitivity=sensitivity)
        for column, epsilon in enumerate(epsilon_grid)
    }
    evaluations = evaluate_targets_batched(
        graph, utility, targets, mechanisms,
        bound_epsilons=epsilon_grid,
    )
    if not evaluations:
        raise ExperimentError("no target with non-zero utility in the sample")
    points = []
    for column, epsilon in enumerate(epsilon_grid):
        accuracies = np.asarray([e.accuracies[str(column)] for e in evaluations])
        bounds = np.asarray([e.theoretical_bounds[epsilon] for e in evaluations])
        points.append(
            SweepPoint(
                parameter=epsilon,
                mean_accuracy=float(accuracies.mean()),
                median_accuracy=float(np.median(accuracies)),
                p10_accuracy=float(np.percentile(accuracies, 10)),
                mean_bound=float(bounds.mean()),
            )
        )
    return points


def _gamma_chunk(graph, targets, gammas, sensitivities, epsilon, max_length):
    """Per-chunk gamma-sweep kernel: one accuracy array per gamma value.

    The chunk's walk matrices are computed once and recombined per gamma;
    each recombined block is sparsified into flat support rows for the
    footnote-10 filter and the exponential mechanism's support kernel.
    Deterministic and per-target independent, so chunking cannot change
    any value. Sensitivities arrive precomputed — they are graph-level
    (one ``max_degree`` scan each), so chunks must not redo them.
    """
    walk_matrices = batch_walk_matrices(graph, targets, max_length)
    excluded = excluded_rows(graph, targets)
    num_candidates = graph.num_nodes - np.diff(excluded.indptr)
    scores_buffer = get_workspace().take(
        "sweep.gamma_scores", (targets.size, graph.num_nodes), np.float64
    )
    columns = []
    for gamma, sensitivity in zip(gammas, sensitivities):
        utility = WeightedPaths(gamma=gamma, max_length=max_length)
        scores = utility.combine_walk_matrices(walk_matrices, targets, out=scores_buffer)
        _, values, offsets = support_rows(sparse.csr_matrix(scores), excluded)
        _, values, offsets, zeros = footnote10_support(values, offsets, num_candidates)
        mechanism = ExponentialMechanism(epsilon, sensitivity=sensitivity)
        columns.append(mechanism.support_accuracies(values, offsets, zeros))
    return columns


def gamma_sweep(
    graph: SocialGraph,
    targets: "list[int] | np.ndarray",
    gammas: "tuple[float, ...]" = (0.0001, 0.0005, 0.005, 0.02, 0.05),
    epsilon: float = 1.0,
    max_length: int = 3,
) -> list[tuple[float, float, float]]:
    """(gamma, Delta f, mean accuracy) as the weighted-paths decay varies.

    The length-``l`` walk matrices do not depend on gamma, so each chunk
    computes them once and every gamma value only pays the cheap
    recombination ``sum_l gamma^{l-2} W_l`` plus one batch-accuracy
    kernel. The footnote-10 filter still runs per gamma: a target whose
    only signal sits on length-3 walks has zero utility at ``gamma = 0``
    but not at positive gamma. A target outside ``[0, num_nodes)``
    raises :class:`~repro.errors.UtilityError`.
    """
    if not gammas or any(g < 0 for g in gammas):
        raise ExperimentError(f"gammas must be non-negative, got {gammas}")
    target_array = checked_targets(graph, targets)
    gamma_grid = tuple(float(g) for g in gammas)
    sensitivities = tuple(
        float(WeightedPaths(gamma=gamma, max_length=max_length).sensitivity(graph, 0))
        for gamma in gamma_grid
    )
    chunk_columns = [
        _gamma_chunk(
            graph, chunk.take(target_array), gamma_grid, sensitivities,
            float(epsilon), int(max_length),
        )
        for chunk in ComputePlan(int(target_array.size), graph.num_nodes)
    ]
    results = []
    for column, gamma in enumerate(gamma_grid):
        accuracies = (
            np.concatenate([columns[column] for columns in chunk_columns])
            if chunk_columns
            else np.empty(0, dtype=np.float64)
        )
        if accuracies.size == 0:
            raise ExperimentError("no target with non-zero utility in the sample")
        results.append((gamma, sensitivities[column], float(accuracies.mean())))
    return results


def sweep_to_figure(points: "list[SweepPoint]", figure_id: str, title: str) -> FigureResult:
    """Package an epsilon sweep as a FigureResult for reporting/serialization."""
    if not points:
        raise ExperimentError("empty sweep")
    xs = tuple(p.parameter for p in points)
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_label="epsilon",
        y_label="accuracy",
        series=(
            Series("mean accuracy", xs, tuple(p.mean_accuracy for p in points)),
            Series("median accuracy", xs, tuple(p.median_accuracy for p in points)),
            Series("p10 accuracy", xs, tuple(p.p10_accuracy for p in points)),
            Series("mean Corollary-1 bound", xs, tuple(p.mean_bound for p in points)),
        ),
    )
