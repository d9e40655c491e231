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
The gamma sweep reads the same :mod:`repro.compute` stages but saves
real work: the sparse walk-count rows are gamma-independent, so it
computes them once for all targets
(:meth:`~repro.utility.weighted_paths.WeightedPaths.walk_rows`) and per
decay value pays only the sparse recombination, the flat support rows
and the accuracy kernel. No stage holds a ``rows x num_nodes`` block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..accuracy.batch import evaluate_targets_batched
from ..compute.kernels import checked_targets, excluded_rows, footnote10_support
from ..errors import ExperimentError
from ..graphs.graph import SocialGraph
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


def gamma_sweep(
    graph: SocialGraph,
    targets: "list[int] | np.ndarray",
    gammas: "tuple[float, ...]" = (0.0001, 0.0005, 0.005, 0.02, 0.05),
    epsilon: float = 1.0,
    max_length: int = 3,
) -> list[tuple[float, float, float]]:
    """(gamma, Delta f, mean accuracy) as the weighted-paths decay varies.

    The sparse walk-count rows do not depend on gamma, so they are
    computed (in canonical form) once for all targets; every gamma
    value then pays the recombination ``sum_l gamma^{l-2} W_l``
    (:meth:`~repro.utility.weighted_paths.WeightedPaths.combine_component_rows`,
    the term order of ``scores``) and one flat accuracy kernel, so each
    point equals the engine's mean at that gamma bit for bit. The
    footnote-10 filter still runs per gamma: a target whose only signal
    sits on length-3 walks has zero utility at ``gamma = 0`` but not at
    positive gamma. A target outside ``[0, num_nodes)`` raises
    :class:`~repro.errors.UtilityError`.
    """
    if not gammas or any(g < 0 for g in gammas):
        raise ExperimentError(f"gammas must be non-negative, got {gammas}")
    utilities = [WeightedPaths(gamma=float(g), max_length=int(max_length)) for g in gammas]
    targets = checked_targets(graph, targets)
    links = graph.adjacency_rows(targets)
    excluded = excluded_rows(graph, targets, links)
    num_candidates = graph.num_nodes - np.diff(excluded.indptr)
    walks = utilities[0].walk_rows(graph, links)
    results = []
    for utility in utilities:
        sensitivity = float(utility.sensitivity(graph, 0))
        _, values, offsets = support_rows(utility.combine_component_rows(walks), excluded)
        kept, values, offsets, zeros = footnote10_support(values, offsets, num_candidates)
        if kept.size == 0:
            raise ExperimentError("no target with non-zero utility in the sample")
        mechanism = ExponentialMechanism(float(epsilon), sensitivity=sensitivity)
        accuracies = mechanism.support_accuracies(values, offsets, zeros)
        results.append((utility.gamma, sensitivity, float(accuracies.mean())))
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
