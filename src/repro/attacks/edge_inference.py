"""Passive edge-inference attack and empirical differential-privacy audit.

The paper's threat model (Section 3.2 / Definition 1): an attacker who
passively observes one recommendation wants to decide whether a specific
edge ``(x, y)`` — not incident to the attacker's own node — exists in the
graph. Differential privacy caps the attacker's likelihood ratio at
``e^epsilon``; this module makes the threat concrete:

* :class:`EdgeInferenceAttack` computes, for each possible recommendation
  output, the likelihood ratio between the worlds ``G`` (edge present) and
  ``G - e`` (edge absent), the Bayes-optimal guess, and the attacker's
  advantage (total-variation distance between the two output
  distributions).
* :func:`audit_privacy` sweeps candidate edges and reports the worst
  observed ratio, an *empirical lower bound* on the mechanism's true
  epsilon. Every built-in mechanism's probabilities are exact, so for the
  Exponential and Laplace mechanisms the audit certifies Theorem 4
  numerically; for the non-private ``R_best`` it exhibits infinite
  ratios — the privacy breach of the paper's "one friend" introduction
  example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import MechanismError
from ..graphs.graph import SocialGraph
from ..mechanisms.base import Mechanism
from ..rng import ensure_rng
from ..utility.base import UtilityFunction


@dataclass(frozen=True)
class AttackResult:
    """Outcome of an edge-inference attack on one (edge, target) pair."""

    edge: tuple[int, int]
    target: int
    max_log_ratio: float
    advantage: float
    most_revealing_candidate: int

    @property
    def max_ratio(self) -> float:
        """Worst-case likelihood ratio; ``inf`` for non-private mechanisms."""
        return math.exp(self.max_log_ratio) if self.max_log_ratio < 700 else math.inf

    def breaches(self, epsilon: float, slack: float = 1e-9) -> bool:
        """Whether the observed ratio exceeds the ``e^epsilon`` DP cap."""
        return self.max_log_ratio > epsilon + slack


@dataclass(frozen=True)
class PrivacyAudit:
    """Aggregate of attack results over many candidate edges."""

    mechanism_name: str
    claimed_epsilon: "float | None"
    num_edges_tested: int
    worst: AttackResult

    @property
    def empirical_epsilon(self) -> float:
        """Largest observed log likelihood ratio (lower-bounds true epsilon)."""
        return self.worst.max_log_ratio

    @property
    def is_consistent(self) -> bool:
        """Whether observations stay within the claimed ``e^epsilon`` cap."""
        if self.claimed_epsilon is None:
            return True  # nothing was claimed
        return not self.worst.breaches(self.claimed_epsilon, slack=1e-6)


class EdgeInferenceAttack:
    """Likelihood-ratio attacker distinguishing ``G`` from ``G - e``."""

    def __init__(self, mechanism: Mechanism, utility: UtilityFunction) -> None:
        self.mechanism = mechanism
        self.utility = utility

    def _output_distribution(
        self, graph: SocialGraph, target: int
    ) -> tuple[np.ndarray, np.ndarray]:
        vector = self.utility.utility_vector(graph, target)
        probs = self.mechanism.probabilities(vector)
        return vector.candidates, np.asarray(probs, dtype=np.float64)

    def run(self, graph: SocialGraph, target: int, edge: tuple[int, int]) -> AttackResult:
        """Attack one edge: compare output distributions with/without it.

        ``edge`` must not touch ``target`` (the relaxed privacy definition:
        the attacker already knows its own edges). The graph may or may not
        contain the edge; both worlds are constructed explicitly.
        """
        u, v = int(edge[0]), int(edge[1])
        if target in (u, v):
            raise MechanismError(
                "edge-inference attacks target edges not incident to the "
                "recommendation receiver (relaxed DP, Section 3.2)"
            )
        world_with = graph if graph.has_edge(u, v) else graph.with_edge(u, v)
        world_without = graph.without_edge(u, v) if graph.has_edge(u, v) else graph
        cands_with, probs_with = self._output_distribution(world_with, target)
        cands_without, probs_without = self._output_distribution(world_without, target)
        if not np.array_equal(cands_with, cands_without):
            raise MechanismError(
                "candidate sets differ between worlds; the flipped edge must "
                "not change the target's neighborhood"
            )
        max_log_ratio = 0.0
        revealing = int(cands_with[0]) if cands_with.size else -1
        floor = 1e-300
        for index in range(cands_with.size):
            p1 = max(float(probs_with[index]), 0.0)
            p0 = max(float(probs_without[index]), 0.0)
            if p1 <= floor and p0 <= floor:
                continue
            log_ratio = abs(math.log(max(p1, floor)) - math.log(max(p0, floor)))
            if log_ratio > max_log_ratio:
                max_log_ratio = log_ratio
                revealing = int(cands_with[index])
        advantage = 0.5 * float(np.abs(probs_with - probs_without).sum())
        return AttackResult(
            edge=(u, v),
            target=int(target),
            max_log_ratio=max_log_ratio,
            advantage=advantage,
            most_revealing_candidate=revealing,
        )


def audit_privacy(
    mechanism: Mechanism,
    utility: UtilityFunction,
    graph: SocialGraph,
    target: int,
    num_edges: int = 10,
    seed: "int | np.random.Generator | None" = None,
) -> PrivacyAudit:
    """Attack ``num_edges`` random non-target-incident edge slots.

    Half of the probes flip existing edges (removal direction), half absent
    slots (addition direction), when available. ``seed`` picks the probed
    slots. Returns the worst attack.
    """
    rng = ensure_rng(seed)
    attack = EdgeInferenceAttack(mechanism, utility)
    n = graph.num_nodes
    tested: set[tuple[int, int]] = set()
    worst: AttackResult | None = None
    attempts = 0
    while len(tested) < num_edges and attempts < 50 * num_edges:
        attempts += 1
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v or target in (u, v) or (u, v) in tested:
            continue
        tested.add((u, v))
        result = attack.run(graph, target, (u, v))
        if worst is None or result.max_log_ratio > worst.max_log_ratio:
            worst = result
    if worst is None:
        raise MechanismError("no attackable edge slot found (graph too small?)")
    return PrivacyAudit(
        mechanism_name=mechanism.name,
        claimed_epsilon=mechanism.epsilon,
        num_edges_tested=len(tested),
        worst=worst,
    )
