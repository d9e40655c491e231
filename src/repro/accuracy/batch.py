"""Batched experiment engine: evaluate every target as one matrix pipeline.

:func:`~repro.accuracy.evaluator.evaluate_targets` — the reference
implementation and the engine's test oracle — walks one target at a
time: a graph traversal per utility vector, a candidate scan per target,
a sorted threshold search per (target, epsilon) bound. This module
computes the same experiment through the shared :mod:`repro.compute`
kernels, as a handful of matrix stages per
:class:`~repro.compute.plan.ComputePlan` chunk:

1. **utilities / mask** — the chunk's ``(chunk, n)`` score matrix and
   candidate mask (for the paper's utilities: one sparse ``A[chunk] @ A``
   product per path length instead of per-target matvecs);
2. **filter** — the footnote-10 drop (fewer than two candidates, or no
   non-zero utility) and row-major compaction of the survivors as flat
   vectorized passes (:func:`~repro.compute.kernels.fused_compact_rows`);
3. **accuracies** — the exponential mechanism runs its exact batch kernel
   (one flat stabilized softmax over all candidates of the chunk), the
   Laplace mechanism runs its blocked Monte-Carlo against per-target RNG
   streams, and any other mechanism falls back to its own
   ``expected_accuracy`` on the reconstructed vector;
4. **bounds** — Corollary 1 runs straight off the masked score rows
   (:func:`~repro.bounds.tradeoff.tightest_accuracy_bounds_masked`), one
   epsilon-independent threshold/k table per target shared across the
   whole epsilon grid.

Dense blocks live in the calling thread's
:class:`~repro.compute.workspace.Workspace` buffers, reused across chunks,
and :class:`~repro.utility.base.UtilityVector` objects are only
materialized when a mechanism actually needs them (the exponential fast
path and the Section 7.1 ``t`` closed forms do not).

At the default float64 compute dtype the result is bit-identical to the
sequential evaluator. ``dtype="float32"`` opts into the half-memory
compute path under the tolerance contract documented in DESIGN.md
("memory dataflow"); float32 results are still bit-identical across
chunk sizes, just not across dtypes.

Chunks run one after another on the calling thread and reassemble in
target order. Every stage is per-target independent and all randomness
comes from per-target spawned streams, so the result is bit-identical
across chunk sizes. ``tests/accuracy/test_batch.py`` enforces the
sequential contract property-style, ``tests/compute/`` enforces the
chunking and dtype contracts, and ``benchmarks/bench_memory.py`` asserts
all of it before timing.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from ..bounds.tradeoff import tightest_accuracy_bounds_masked
from ..compute.kernels import (
    candidate_mask_rows,
    checked_targets,
    fused_compact_rows,
    score_rows,
)
from ..compute.plan import ComputePlan
from ..compute.workspace import get_workspace
from ..graphs.graph import SocialGraph
from ..mechanisms.base import Mechanism
from ..mechanisms.exponential import ExponentialMechanism
from ..mechanisms.laplace import LaplaceMechanism
from ..rng import spawn_rngs
from ..utility.base import UtilityFunction, UtilityVector
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


def _exponential_fast_path(mechanism: Mechanism) -> bool:
    """Whether the exact exponential batch kernel reproduces this mechanism.

    The kernel replays ``ExponentialMechanism.probabilities`` inside the
    base ``expected_accuracy``; a subclass overriding either may compute
    anything, so it falls back to the generic per-target call (trivially
    identical to the sequential evaluator).
    """
    return (
        isinstance(mechanism, ExponentialMechanism)
        and type(mechanism).expected_accuracy is Mechanism.expected_accuracy
        and type(mechanism).probabilities is ExponentialMechanism.probabilities
    )


def _accuracy_columns(
    mechanisms: "dict[str, Mechanism]",
    compact,
    vectors: "list[UtilityVector]",
    kept_streams,
    laplace_trials: int,
    workspace,
) -> "dict[str, np.ndarray]":
    """One accuracy column per mechanism.

    Mechanism columns are evaluated in dict order so that any mechanism
    drawing from a target's stream consumes it in the same sequence as the
    sequential evaluator (e.g. laplace@0.5 before laplace@1).
    """
    columns: dict[str, np.ndarray] = {}
    for name, mechanism in mechanisms.items():
        if mechanism.name == "laplace":
            # expected_accuracy_batch is a per-stream loop over the shared
            # blocked Monte-Carlo kernel, so this branch equals the
            # sequential per-target call for subclasses too.
            if isinstance(mechanism, LaplaceMechanism):
                column = mechanism.expected_accuracy_batch(
                    vectors, kept_streams, trials=laplace_trials,
                    workspace=workspace,
                )
            else:
                column = np.asarray(
                    [
                        mechanism.expected_accuracy(
                            vector, seed=stream, trials=laplace_trials
                        )
                        for vector, stream in zip(vectors, kept_streams)
                    ],
                    dtype=np.float64,
                )
        elif _exponential_fast_path(mechanism):
            column = mechanism.expected_accuracy_compact(compact, workspace=workspace)
        else:
            column = np.asarray(
                [
                    mechanism.expected_accuracy(vector, seed=stream)
                    for vector, stream in zip(vectors, kept_streams)
                ],
                dtype=np.float64,
            )
        columns[name] = column
    return columns


def _needs_vectors(mechanisms: "dict[str, Mechanism]") -> bool:
    """Whether any mechanism column requires materialized utility vectors."""
    return any(
        not _exponential_fast_path(mechanism) for mechanism in mechanisms.values()
    )


#: Target dense-block size for the engine's automatic chunking:
#: chunk_size is picked so one (chunk, num_nodes) float64 block is at
#: most this many bytes (or one row, when a single row is larger). Small
#: enough that the workspace buffers every stage streams through stay
#: cache-resident (measurably faster than unchunked on replica-scale
#: graphs).
FUSED_CHUNK_BYTES = 4_000_000


def _fused_default_chunk(num_nodes: int) -> int:
    return max(1, FUSED_CHUNK_BYTES // (8 * max(1, num_nodes)))


def _evaluate_chunk(
    graph: SocialGraph,
    utility: UtilityFunction,
    mechanisms: "dict[str, Mechanism]",
    epsilon_grid: "tuple[float, ...]",
    laplace_trials: int,
    dtype: np.dtype,
    targets: np.ndarray,
    streams: list,
    clock: _StageClock,
) -> "list[TargetEvaluation]":
    """Evaluate one chunk of targets, lapping ``clock`` after each stage.

    All randomness comes from the per-target ``streams``, so the
    evaluations do not depend on where the chunk boundaries fall.
    """
    workspace = get_workspace()
    scores = score_rows(graph, utility, targets, dtype=dtype, workspace=workspace)
    clock.lap("utilities")
    mask = candidate_mask_rows(graph, targets, workspace=workspace)
    clock.lap("mask")

    chunk = fused_compact_rows(scores, mask, workspace=workspace)
    compact = chunk.compact
    clock.lap("filter")
    if chunk.kept.size == 0:
        return []

    degrees = graph.out_degrees_of(targets)[chunk.kept]
    ts = utility.experimental_t_batch(compact.u_maxes, degrees)
    # Vectors are views into workspace buffers — chunk-local by the
    # workspace contract, which is fine: they are consumed (Laplace MC,
    # generic mechanisms, per-vector t) before this chunk returns, and
    # everything returned is scalars.
    if ts is None or _needs_vectors(mechanisms):
        vectors = chunk.materialize_vectors(utility, targets, degrees)
    else:
        vectors = []
    kept_streams = [streams[row] for row in chunk.kept]
    clock.lap("vectors")

    columns = _accuracy_columns(
        mechanisms, compact, vectors, kept_streams, laplace_trials,
        workspace=workspace,
    )
    clock.lap("accuracies")

    if ts is None:
        ts = np.asarray(
            [utility.experimental_t(vector) for vector in vectors], dtype=np.int64
        )
    bound_matrix = tightest_accuracy_bounds_masked(
        scores, mask, chunk.kept, compact.counts, compact.u_maxes,
        ts, epsilon_grid, workspace=workspace,
    )
    clock.lap("bounds")

    evaluations = [
        TargetEvaluation(
            target=int(targets[row]),
            degree=int(degrees[index]),
            num_candidates=int(compact.counts[index]),
            u_max=float(compact.u_maxes[index]),
            t=int(ts[index]),
            accuracies={
                name: float(column[index]) for name, column in columns.items()
            },
            theoretical_bounds={
                eps: float(bound_matrix[index, column])
                for column, eps in enumerate(epsilon_grid)
            },
        )
        for index, row in enumerate(chunk.kept)
    ]
    clock.lap("assemble")
    return evaluations


def evaluate_targets_batched(
    graph: SocialGraph,
    utility: UtilityFunction,
    targets: "list[int] | np.ndarray",
    mechanisms: "dict[str, Mechanism]",
    bound_epsilons: "tuple[float, ...]" = (),
    seed: "int | np.random.Generator | None" = None,
    laplace_trials: int = 1_000,
    timings: "dict[str, float] | None" = None,
    chunk_size: "int | None" = None,
    dtype=None,
    memory: "dict[str, int] | None" = None,
) -> list[TargetEvaluation]:
    """Batched, bit-identical equivalent of
    :func:`~repro.accuracy.evaluator.evaluate_targets`.

    ``chunk_size`` bounds the dense rows materialized at once (peak dense
    allocation is ``chunk_size x num_nodes`` instead of
    ``len(targets) x num_nodes``). Without one, the engine picks the
    largest chunk whose dense block fits in :data:`FUSED_CHUNK_BYTES`.
    Results are bit-identical across all chunk sizes. A target outside
    ``[0, num_nodes)`` raises :class:`~repro.errors.UtilityError`, as in
    the sequential evaluator.

    ``dtype`` is the compute dtype of the dense kernel stages (anything
    :func:`repro.compute.plan.resolve_dtype` accepts). The float64
    default is bit-identical to the sequential evaluator; ``"float32"``
    halves dense memory under the tolerance contract of DESIGN.md.

    ``timings``, when provided, is filled in place with seconds spent per
    pipeline stage (keys :data:`STAGE_NAMES`) so benchmarks can attribute
    the wall-clock budget; ``memory`` likewise receives per-stage peak
    tracemalloc bytes when the caller has tracemalloc tracing active (it
    stays at zero otherwise).
    """
    targets = checked_targets(graph, targets)
    # Spawn one stream per *sampled* target (dropped ones included), exactly
    # like the sequential evaluator: results must not depend on how many
    # neighbors survive the footnote-10 filter — or on chunk boundaries.
    # When the grid is all closed-form (exponential fast path, no Laplace,
    # no generic fallback) the streams are never drawn from, so their
    # spawn cost — ~14 us of SeedSequence work per target — is skipped
    # outright; the identity tests pin that the output is the same either
    # way.
    if not _needs_vectors(mechanisms):
        streams: "list[np.random.Generator | None]" = [None] * int(targets.size)
    else:
        streams = spawn_rngs(seed, int(targets.size))
    if targets.size == 0:
        return []

    epsilon_grid = tuple(float(eps) for eps in bound_epsilons)
    if chunk_size is None:
        # The engine chunks by default: workspace buffers sized to
        # ~FUSED_CHUNK_BYTES stay cache-resident across every stage, which
        # is faster than one all-targets pass *and* bounds peak memory.
        # Results are bit-identical for every chunking (tested), so this
        # is purely a layout default; explicit chunk_size still wins.
        chunk_size = _fused_default_chunk(graph.num_nodes)
    plan = ComputePlan(int(targets.size), chunk_size, dtype)
    clock = _StageClock(timings, memory)
    evaluations: list[TargetEvaluation] = []
    for chunk in plan:
        evaluations.extend(
            _evaluate_chunk(
                graph, utility, mechanisms, epsilon_grid, laplace_trials,
                plan.dtype, chunk.take(targets), chunk.take(streams), clock,
            )
        )
    return evaluations
