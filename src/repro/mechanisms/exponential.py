"""The Exponential mechanism (Definition 5; McSherry & Talwar).

``A_E(epsilon)`` recommends node ``i`` with probability proportional to
``exp(epsilon * u_i / Delta f)``, where ``Delta f`` is the sensitivity of
the utility function (footnote 5). It is epsilon-differentially private
(Theorem 4) and satisfies the monotonicity property of Definition 4: a
strictly higher utility always receives a strictly higher probability.

The implementation subtracts the maximum exponent before exponentiating so
large ``epsilon * u / Delta f`` values (common for high-degree targets)
cannot overflow.

This module also provides the sampling entry point of the serving layer
(:mod:`repro.serving`): :meth:`ExponentialMechanism.recommend_vectors`
draws one sample per utility vector by the Gumbel-max trick —
``argmax_i (logit_i + G_i)`` with i.i.d. standard Gumbel noise is
distributed exactly as ``softmax(logits)`` — over the positive-utility
support plus one key for the whole zero-utility bucket, so a request
costs O(support), not O(num_nodes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import MechanismError
from ..telemetry import runtime as telemetry_runtime
from ..utility.base import UtilityVector
from .base import PrivateMechanism, register_mechanism


@dataclass(frozen=True)
class CompactRows:
    """Candidate entries of a masked utility matrix, compacted row-major.

    The epsilon-independent half of the batched softmax-accuracy kernel:
    building it once lets a whole mechanism grid (one mechanism per epsilon)
    reuse the flat candidate values, per-row boundaries, per-row maxima and
    pre-divided ``values / u_max`` array. Produced by
    :func:`repro.compute.kernels.fused_compact_rows` (workspace-backed
    views valid for the current chunk only); its rows are exactly the
    footnote-10 survivors, each with at least two candidates and a
    positive maximum.
    """

    flat: np.ndarray      #: candidate utilities, rows concatenated in order
    counts: np.ndarray    #: candidates per row
    offsets: np.ndarray   #: ``counts`` cumulated; ``len(rows) + 1`` entries
    scaled: np.ndarray    #: ``flat / u_max`` per row (accuracy denominators)
    u_maxes: np.ndarray   #: per-row maxima (also feed the Corollary 1 search)

    @property
    def num_rows(self) -> int:
        return int(self.counts.size)


@register_mechanism
class ExponentialMechanism(PrivateMechanism):
    """Softmax-of-utilities recommender, the paper's ``A_E(epsilon)``."""

    name = "exponential"

    def probabilities(self, vector: UtilityVector) -> np.ndarray:
        # Always float64: the scalar paths (recommend's rng.choice validates
        # that probabilities sum to 1 within float64 tolerance) must not
        # inherit a float32 cache entry's rounding.
        values = np.asarray(vector.values, dtype=np.float64)
        exponents = (self._epsilon / self.sensitivity) * values
        exponents -= exponents.max()  # numerical stability; shift cancels
        weights = np.exp(exponents)
        return weights / weights.sum()

    def log_probabilities(self, vector: UtilityVector) -> np.ndarray:
        """Log of :meth:`probabilities`, stable for very small probabilities.

        Used by the edge-inference attack, whose likelihood ratios would
        underflow for low-utility candidates at large epsilon.
        """
        values = np.asarray(vector.values, dtype=np.float64)
        exponents = (self._epsilon / self.sensitivity) * values
        shifted = exponents - exponents.max()
        log_normalizer = np.log(np.exp(shifted).sum()) + exponents.max()
        return exponents - log_normalizer

    def expected_accuracy_compact(
        self, compact: CompactRows, workspace=None
    ) -> np.ndarray:
        """Exact expected accuracy for every row of a :class:`CompactRows`.

        Row ``j``'s value equals :meth:`expected_accuracy` on that row's
        utility vector, bit for bit. The compact form is
        epsilon-independent, so an epsilon grid of mechanisms (the
        experiment engine's common case) builds it once and each mechanism
        only pays its own exponent pass here.

        The row-wise stabilized softmax is organized so the expensive
        transcendental work is one flat vectorized pass: the per-row
        exponent shift comes from one ``maximum.reduceat`` and a single
        ``np.exp`` covers every candidate of every row. The final
        normalize-and-dot runs per row on contiguous slices because
        NumPy's pairwise summation is sensitive to element placement:
        summing a zero-padded row (or ``add.reduceat``, which accumulates
        sequentially) would regroup the partials and drift from the
        sequential evaluator by an ulp, and the engine's contract is exact
        agreement, not closeness.

        ``workspace`` (any object with a ``take(key, shape, dtype)``
        method, see :class:`repro.compute.workspace.Workspace`) lands the
        exponent array — the kernel's one full-width temporary — in a
        reused buffer; the arithmetic is unchanged, so the result is
        bit-for-bit the same with or without a workspace.

        Runs at ``compact.flat``'s dtype: float64 keeps the exact
        sequential contract; float32 is the documented-tolerance compute
        path.
        """
        if compact.num_rows == 0:
            return np.empty(0, dtype=np.float64)
        flat, counts, offsets = compact.flat, compact.counts, compact.offsets
        scale = self._epsilon / self.sensitivity
        if workspace is None:
            exponents = scale * flat
        else:
            exponents = workspace.take("expmech.exponents", flat.shape, flat.dtype)
            np.multiply(flat, scale, out=exponents)
        shifts = np.maximum.reduceat(exponents, offsets[:-1])
        # np.repeat for the per-row broadcasts: it is a sequential fill an
        # order of magnitude faster than a gather (np.take) of the same
        # size, and its two small temporaries per call are the price of
        # keeping this kernel's arithmetic identical in both modes.
        exponents -= np.repeat(shifts, counts)
        weights = np.exp(exponents, out=exponents)
        scaled = compact.scaled
        # Normalizer sums run per row (pairwise summation must see exactly
        # the per-vector slice), but the normalization itself is one flat
        # in-place division with the row sum broadcast back over each slice.
        sums = np.empty(compact.num_rows, dtype=flat.dtype)
        for row in range(compact.num_rows):
            sums[row] = weights[offsets[row]:offsets[row + 1]].sum()
        probabilities = np.divide(weights, np.repeat(sums, counts), out=weights)
        accuracies = np.empty(compact.num_rows, dtype=flat.dtype)
        for row in range(compact.num_rows):
            start, end = offsets[row], offsets[row + 1]
            accuracies[row] = np.dot(probabilities[start:end], scaled[start:end])
        return accuracies

    def recommend_vectors(
        self,
        vectors: "list[UtilityVector]",
        streams: "list[np.random.Generator]",
    ) -> np.ndarray:
        """One recommendation per utility vector, one RNG stream per vector.

        Gumbel-max over each vector's positive-utility support, plus one
        key for its zero bucket ``Z``: every zero-utility candidate has
        logit 0, and the maximum of ``|Z|`` i.i.d. standard Gumbels is
        distributed as ``log|Z| + G`` with its argmax uniform over ``Z``
        and independent of the maximum. So a single ``log|Z| + G`` key
        stands in for the bucket, and when it wins a uniform rank picks
        the node (:meth:`~repro.utility.base.UtilityVector.zero_candidate`).
        The draw is exactly :meth:`probabilities` over all candidates, at
        O(support) per vector on support-form rows.

        Row ``j`` consumes only ``streams[j]`` — ``support + 1`` Gumbels,
        then one integer if the bucket wins — so a pick does not depend
        on how rows are chunked, nor on whether the row is stored dense or
        support-form. Logits are formed in
        float64 from float32 rows too.
        """
        if len(vectors) != len(streams):
            raise MechanismError(
                f"got {len(vectors)} utility vectors but {len(streams)} RNG streams"
            )
        scale = self._epsilon / self.sensitivity
        picks = np.empty(len(vectors), dtype=np.int64)
        for row, (vector, stream) in enumerate(zip(vectors, streams)):
            ids, values = vector.support()
            zeros = vector.zero_count
            if ids.size == 0 and zeros == 0:
                raise MechanismError("cannot recommend from an empty candidate set")
            keys = stream.gumbel(size=ids.size + 1)
            keys[:-1] += scale * values.astype(np.float64, copy=False)
            keys[-1] += math.log(zeros) if zeros else -math.inf
            winner = int(np.argmax(keys))
            if winner < ids.size:
                picks[row] = ids[winner]
            else:
                picks[row] = vector.zero_candidate(int(stream.integers(zeros)))
        telemetry_runtime.count("mechanism.samples_drawn", len(vectors))
        return picks

    def privacy_ratio_bound(self) -> float:
        """Worst-case output ratio ``e^epsilon`` between one-edge neighbors."""
        return float(np.exp(self._epsilon))
