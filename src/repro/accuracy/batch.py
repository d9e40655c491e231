"""Batched experiment engine: evaluate every target as flat support rows.

:func:`~repro.accuracy.evaluator.evaluate_targets` — the reference
implementation and the engine's test oracle — walks one target at a
time: a graph traversal per utility vector, a candidate scan per target,
a threshold search per (target, epsilon) bound. This module computes
the same experiment for all targets at once, from each target's
positive-utility support plus one count, its zero bucket:

1. **utilities** — the utility's sparse score rows
   (:meth:`~repro.utility.base.UtilityFunction.support_scores`; for the
   paper's common neighbours one ``A[targets] @ A`` product);
2. **mask** — each target's excluded ids (itself and its links) and the
   flat positive supports :func:`~repro.utility.base.support_rows`
   builds from the two, validating every utility like the sequential
   evaluator does;
3. **filter** — the footnote-10 drop (fewer than two candidates, or no
   non-zero utility) and the survivors' compaction
   (:func:`~repro.compute.kernels.footnote10_support`);
4. **vectors** — support-form :class:`~repro.utility.base.UtilityVector`
   objects, built only when a mechanism without a flat kernel (or a
   per-vector ``t``) needs them;
5. **accuracies** — the exponential and Laplace mechanisms run their
   flat support kernels
   (:meth:`~repro.mechanisms.exponential.ExponentialMechanism.support_accuracies`,
   :meth:`~repro.mechanisms.laplace.LaplaceMechanism.support_accuracies`),
   and any other mechanism its own ``expected_accuracy`` against
   per-target RNG streams;
6. **bounds** — Corollary 1 from the same flat supports
   (:func:`~repro.bounds.tradeoff.support_bounds`), one threshold table
   per target shared across the whole epsilon grid.

A zero-utility candidate adds the same ``e^{-epsilon u_max / Delta f}``
to the softmax denominator and nothing to the numerator, and the whole
zero bucket adds one ``tau = 0`` threshold to the bound search, so no
stage holds a ``rows x num_nodes`` block and the engine runs in one pass.
The sequential evaluator's kernel accuracies and Corollary 1 search
are the one-row cases of the same kernels, so the result is
bit-identical to it; every stage is per-target independent and a
mechanism without a kernel draws only from its target's spawned stream,
so it is also the same whatever else shares the call.
``tests/accuracy/test_batch.py`` enforces the sequential contract
property-style, and ``benchmarks/bench_memory.py`` asserts it before
timing.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from ..bounds.tradeoff import support_bounds
from ..compute.kernels import checked_targets, excluded_rows, footnote10_support
from ..graphs.graph import SocialGraph
from ..mechanisms.base import Mechanism
from ..rng import spawn_rngs
from ..utility.base import UtilityFunction, UtilityVector, support_rows
from .evaluator import TargetEvaluation

__all__ = ["STAGE_NAMES", "evaluate_targets_batched"]

#: Stage keys written into a caller-supplied timings dict, in pipeline order.
STAGE_NAMES = (
    "utilities",
    "mask",
    "filter",
    "vectors",
    "accuracies",
    "bounds",
    "assemble",
)


class _StageClock:
    """Accumulate wall-clock — and, when tracing, tracemalloc peaks — per stage.

    ``memory`` receives each stage's peak traced allocation in bytes
    (``tracemalloc`` must already be started by the caller; the clock
    resets the peak counter at every lap so stages don't shadow each
    other). Without an active trace the memory sink stays at zero.
    """

    def __init__(
        self,
        sink: "dict[str, float] | None",
        memory: "dict[str, int] | None" = None,
    ) -> None:
        self._sink = sink
        self._memory = memory if tracemalloc.is_tracing() else None
        self._last = time.perf_counter()
        if sink is not None:
            for name in STAGE_NAMES:
                sink.setdefault(name, 0.0)
        if memory is not None:
            for name in STAGE_NAMES:
                memory.setdefault(name, 0)
        if self._memory is not None:
            tracemalloc.reset_peak()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        if self._sink is not None:
            self._sink[stage] += now - self._last
        if self._memory is not None:
            _, peak = tracemalloc.get_traced_memory()
            self._memory[stage] = max(self._memory[stage], peak)
            tracemalloc.reset_peak()
        self._last = now


def _flat(mechanism: Mechanism) -> bool:
    """Whether a flat support kernel reproduces this mechanism's accuracy.

    True when the mechanism's class supplies ``support_accuracies`` and
    keeps :meth:`~repro.mechanisms.base.Mechanism.expected_accuracy`,
    whose one-row case that kernel is. A class that overrides
    ``expected_accuracy`` may compute anything, so it gets the generic
    per-target call (trivially identical to the sequential evaluator).
    """
    return (
        hasattr(mechanism, "support_accuracies")
        and type(mechanism).expected_accuracy is Mechanism.expected_accuracy
    )


def evaluate_targets_batched(
    graph: SocialGraph,
    utility: UtilityFunction,
    targets: "list[int] | np.ndarray",
    mechanisms: "dict[str, Mechanism]",
    bound_epsilons: "tuple[float, ...]" = (),
    seed: "int | np.random.Generator | None" = None,
    timings: "dict[str, float] | None" = None,
    memory: "dict[str, int] | None" = None,
) -> list[TargetEvaluation]:
    """Batched, bit-identical equivalent of
    :func:`~repro.accuracy.evaluator.evaluate_targets`.

    All targets run in one pass over flat support rows; memory grows
    with the targets' supports and degrees, not with ``num_nodes``. A
    target outside ``[0, num_nodes)`` raises
    :class:`~repro.errors.UtilityError`, and so does a negative or
    non-finite utility, as in the sequential evaluator.

    ``timings``, when provided, is filled in place with seconds spent per
    pipeline stage (keys :data:`STAGE_NAMES`) so benchmarks can attribute
    the wall-clock budget; ``memory`` likewise receives per-stage peak
    tracemalloc bytes when the caller has tracemalloc tracing active (it
    stays at zero otherwise).
    """
    targets = checked_targets(graph, targets)
    flat = {name for name, mechanism in mechanisms.items() if _flat(mechanism)}
    # Spawn one stream per *sampled* target (dropped ones included), exactly
    # like the sequential evaluator: results must not depend on how many
    # neighbors survive the footnote-10 filter. When every mechanism has a
    # flat kernel the streams are never drawn from, so their spawn cost —
    # ~14 us of SeedSequence work per target — is skipped outright; the
    # identity tests pin that the output is the same either way.
    if len(flat) == len(mechanisms):
        streams: "list[np.random.Generator | None]" = [None] * int(targets.size)
    else:
        streams = spawn_rngs(seed, int(targets.size))
    if targets.size == 0:
        return []

    epsilon_grid = tuple(float(eps) for eps in bound_epsilons)
    clock = _StageClock(timings, memory)
    scores = utility.support_scores(graph, targets)
    clock.lap("utilities")
    excluded = excluded_rows(graph, targets)
    _, values, offsets = support_rows(scores, excluded)
    num_candidates = graph.num_nodes - np.diff(excluded.indptr)
    clock.lap("mask")
    kept, values, offsets, zeros = footnote10_support(values, offsets, num_candidates)
    clock.lap("filter")
    if kept.size == 0:
        return []

    kept_targets = targets[kept]
    degrees = graph.out_degrees_of(kept_targets)
    u_maxes = np.maximum.reduceat(values, offsets[:-1])
    ts = utility.experimental_t_batch(u_maxes, degrees)
    vectors: "list[UtilityVector]" = []
    if ts is None or len(flat) < len(mechanisms):
        vectors = UtilityVector.from_support_rows(
            kept_targets, scores[kept], excluded[kept], degrees,
            {"utility": utility.name},
        )
    kept_streams = [streams[row] for row in kept]
    # Only the vectors stage reads the score and excluded matrices; the
    # accuracy and bound stages hold the flat supports alone.
    del scores, excluded
    clock.lap("vectors")

    # Mechanism columns are evaluated in dict order so that any mechanism
    # drawing from a target's stream consumes it in the same sequence as
    # the sequential evaluator.
    columns = {
        name: (
            mechanism.support_accuracies(values, offsets, zeros)
            if name in flat
            else np.asarray(
                [
                    mechanism.expected_accuracy(vector, seed=stream)
                    for vector, stream in zip(vectors, kept_streams)
                ],
                dtype=np.float64,
            )
        )
        for name, mechanism in mechanisms.items()
    }
    clock.lap("accuracies")

    if ts is None:
        ts = np.asarray(
            [utility.experimental_t(vector) for vector in vectors], dtype=np.int64
        )
    bound_matrix = support_bounds(values, offsets, zeros, ts, epsilon_grid)
    clock.lap("bounds")

    evaluations = [
        TargetEvaluation(
            target=int(kept_targets[index]),
            degree=int(degrees[index]),
            num_candidates=int(num_candidates[row]),
            u_max=float(u_maxes[index]),
            t=int(ts[index]),
            accuracies={
                name: float(column[index]) for name, column in columns.items()
            },
            theoretical_bounds={
                eps: float(bound_matrix[index, column])
                for column, eps in enumerate(epsilon_grid)
            },
        )
        for index, row in enumerate(kept)
    ]
    clock.lap("assemble")
    return evaluations
