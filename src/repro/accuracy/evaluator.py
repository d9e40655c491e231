"""Per-target accuracy evaluation (the measurement core of Section 7).

For each sampled target node the paper computes:

1. the utility vector over candidates (dropping targets with no non-zero
   utility, footnote 10);
2. the expected accuracy of the Exponential and Laplace mechanisms (the
   paper estimates the Laplace one with 1,000 Monte-Carlo trials; here
   both are exact);
3. the theoretical upper bound from Corollary 1 with the exact ``t`` of
   Section 7.1.

:func:`evaluate_target` produces one :class:`TargetEvaluation` holding all
of these; :func:`evaluate_targets` maps it over a target sample with
per-target RNG streams so results are independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bounds.tradeoff import tightest_accuracy_bound
from ..errors import ExperimentError
from ..graphs.graph import SocialGraph
from ..mechanisms.base import Mechanism
from ..rng import ensure_rng, spawn_rngs
from ..utility.base import UtilityFunction, UtilityVector


@dataclass(frozen=True)
class TargetEvaluation:
    """Accuracy record for one target node."""

    target: int
    degree: int
    num_candidates: int
    u_max: float
    t: int
    accuracies: dict[str, float] = field(default_factory=dict)
    theoretical_bounds: dict[float, float] = field(default_factory=dict)

    def accuracy_of(self, mechanism_name: str) -> float:
        """Accuracy achieved by a named mechanism on this target."""
        try:
            return self.accuracies[mechanism_name]
        except KeyError:
            known = ", ".join(sorted(self.accuracies)) or "(none)"
            raise ExperimentError(
                f"no accuracy recorded for mechanism {mechanism_name!r}; known: {known}"
            ) from None

    def bound_at(self, epsilon: float) -> float:
        """Theoretical accuracy bound recorded for a privacy level."""
        try:
            return self.theoretical_bounds[epsilon]
        except KeyError:
            known = ", ".join(str(e) for e in sorted(self.theoretical_bounds)) or "(none)"
            raise ExperimentError(
                f"no bound recorded for epsilon={epsilon}; known: {known}"
            ) from None


def evaluate_target(
    graph: SocialGraph,
    utility: UtilityFunction,
    target: int,
    mechanisms: "dict[str, Mechanism]",
    bound_epsilons: "tuple[float, ...]" = (),
    seed: "int | np.random.Generator | None" = None,
) -> "TargetEvaluation | None":
    """Evaluate all mechanisms and bounds for one target.

    Returns ``None`` when the target has no non-zero-utility candidate
    (the paper's footnote 10 filter) or no candidates at all.
    """
    vector = utility.utility_vector(graph, target)
    if len(vector) < 2 or not vector.has_signal():
        return None
    rng = ensure_rng(seed)
    accuracies: dict[str, float] = {}
    for name, mechanism in mechanisms.items():
        accuracies[name] = mechanism.expected_accuracy(vector, seed=rng)
    t = utility.experimental_t(vector)
    bounds = {
        float(eps): tightest_accuracy_bound(vector, eps, t).accuracy_bound
        for eps in bound_epsilons
    }
    return TargetEvaluation(
        target=int(target),
        degree=vector.target_degree,
        num_candidates=len(vector),
        u_max=vector.u_max,
        t=t,
        accuracies=accuracies,
        theoretical_bounds=bounds,
    )


def evaluate_targets(
    graph: SocialGraph,
    utility: UtilityFunction,
    targets: "list[int] | np.ndarray",
    mechanisms: "dict[str, Mechanism]",
    bound_epsilons: "tuple[float, ...]" = (),
    seed: "int | np.random.Generator | None" = None,
) -> list[TargetEvaluation]:
    """Evaluate a sample of targets with independent per-target RNG streams."""
    targets = [int(t) for t in targets]
    streams = spawn_rngs(seed, len(targets))
    evaluations: list[TargetEvaluation] = []
    for target, stream in zip(targets, streams):
        record = evaluate_target(
            graph,
            utility,
            target,
            mechanisms,
            bound_epsilons=bound_epsilons,
            seed=stream,
        )
        if record is not None:
            evaluations.append(record)
    return evaluations


def sample_targets(
    graph: SocialGraph,
    fraction: float,
    seed: "int | np.random.Generator | None" = None,
    max_targets: "int | None" = None,
    min_degree: int = 1,
) -> np.ndarray:
    """Uniformly sample target nodes, as the paper does (10% / 1%).

    Nodes with (out-)degree below ``min_degree`` are excluded up front —
    a degree-0 target has an empty 2-hop neighborhood and would be dropped
    by the footnote-10 filter anyway. ``max_targets`` (at least 1) caps
    the sample for CI-speed runs.
    """
    if not 0.0 < fraction <= 1.0:
        raise ExperimentError(f"target fraction must be in (0, 1], got {fraction}")
    if max_targets is not None and not max_targets >= 1:
        raise ExperimentError(f"max_targets must be >= 1, got {max_targets}")
    rng = ensure_rng(seed)
    # One vectorized pass over the cached (out-)degree vector; same
    # ascending node order the historical per-node loop produced, so the
    # rng.choice draw (and thus every downstream result) is bit-identical.
    eligible = np.flatnonzero(graph._degrees_vector() >= min_degree).astype(np.int64)
    if eligible.size == 0:
        return eligible
    count = max(1, int(round(fraction * eligible.size)))
    if max_targets is not None:
        count = min(count, int(max_targets))
    picked = rng.choice(eligible, size=min(count, eligible.size), replace=False)
    return np.sort(picked)
