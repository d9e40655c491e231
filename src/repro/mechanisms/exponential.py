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

import numpy as np

from ..errors import MechanismError
from ..telemetry import runtime as telemetry_runtime
from ..utility.base import UtilityVector
from .base import PrivateMechanism, register_mechanism


@register_mechanism
class ExponentialMechanism(PrivateMechanism):
    """Softmax-of-utilities recommender, the paper's ``A_E(epsilon)``."""

    name = "exponential"

    def probabilities(self, vector: UtilityVector) -> np.ndarray:
        # Always float64: the scalar paths (recommend's rng.choice validates
        # that probabilities sum to 1 within float64 tolerance) must not
        # inherit a float32 row's rounding.
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

    def support_accuracies(
        self,
        values: np.ndarray,
        offsets: "np.ndarray | list[int]",
        zeros: "np.ndarray | list[int]",
    ) -> np.ndarray:
        """Exact expected accuracy of many rows from their positive supports.

        Row ``j``'s positive utilities are ``values[offsets[j]:offsets[j +
        1]]`` (non-empty, rows concatenated) and ``zeros[j]`` more
        candidates score zero. With ``s = epsilon / Delta f``, the row's
        maximum ``u_max``, the shift ``m = s u_max`` and the support
        weights ``w_i = e^{s u_i - m}``, the accuracy is

        ``sum_i w_i (u_i / u_max) / (sum_i w_i + |Z| e^{-m})``:

        a zero-utility candidate adds ``e^{-m}`` to the softmax
        denominator and nothing to the numerator, so the whole bucket is
        one closed-form term. This is an exact rewrite of the paper's
        ``sum_i p_i u_i / u_max`` over all candidates; it rounds
        differently from normalizing first, and tests hold it to a dense
        ``math.fsum`` reference.

        One flat pass per step over every row: one ``np.exp`` for all
        support entries and one pairwise ``add.reduceat`` per sum, whose
        per-segment result depends only on the segment, so a row's value
        is the same alone (:meth:`~repro.mechanisms.base.Mechanism.expected_accuracy`)
        or among others (the experiment engine). Arithmetic is float64 for float32 input too.
        """
        values = np.asarray(values, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if values.size == 0:
            return np.empty(0, dtype=np.float64)
        starts, counts = offsets[:-1], np.diff(offsets)
        u_maxes = np.maximum.reduceat(values, starts)
        scale = self._epsilon / self.sensitivity
        shifts = scale * u_maxes
        exponents = scale * values
        exponents -= np.repeat(shifts, counts)
        weights = np.exp(exponents, out=exponents)
        denominators = np.add.reduceat(weights, starts)
        denominators += np.asarray(zeros, dtype=np.float64) * np.exp(-shifts)
        weights *= values / np.repeat(u_maxes, counts)
        return np.add.reduceat(weights, starts) / denominators

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
