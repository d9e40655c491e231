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
draws one sample per utility vector by inverse-CDF sampling from two
uniforms per vector. The cells of a row's CDF are its positive-utility
support plus one cell for the whole zero-utility bucket, so a request
costs O(support), not O(num_nodes), and a bucket winner is named by a
uniform rank inside the bucket.
"""

from __future__ import annotations

import numpy as np

from ..errors import MechanismError
from ..rng import ensure_rng
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

    def recommend(
        self, vector: UtilityVector, seed: "int | np.random.Generator | None" = None
    ) -> int:
        """One recommendation: the one-row case of :meth:`recommend_vectors`,
        from one ``random((1, 2))`` draw of ``seed``'s generator."""
        return int(self.recommend_vectors([vector], ensure_rng(seed).random((1, 2)))[0])

    def recommend_vectors(
        self,
        vectors: "list[UtilityVector]",
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """One recommendation per utility vector, from two uniforms per vector.

        Row ``j``'s CDF has one cell per positive-utility candidate, with
        weight ``w_i = e^{s u_i - s u_max}`` (``s = epsilon / Delta f``),
        and one cell for its zero bucket ``Z`` with weight ``|Z| e^{-s
        u_max}``: every zero-utility candidate has weight ``e^{-s u_max}``.
        ``uniforms[j, 0]`` picks a cell. Only a support win searches the
        row's CDF; a bucket win takes rank ``floor(uniforms[j, 1] * |Z|)``
        inside the bucket
        (:meth:`~repro.utility.base.UtilityVector.zero_candidate`). The
        draw is exactly :meth:`probabilities` over all candidates, at
        O(support) per vector on support-form rows.

        The weights of every distinct row (a vector object repeated in
        ``vectors`` is weighed once) come from one ``np.exp`` pass and
        their sums from one ``add.reduceat``, whose per-segment result
        depends only on the segment. So a pick depends only on its row and
        its two uniforms: not on the other rows of the call, nor on
        whether the row is stored dense or support-form. Weights are
        formed in float64 from float32 rows too.
        """
        uniforms = np.asarray(uniforms, dtype=np.float64)
        if uniforms.shape != (len(vectors), 2):
            raise MechanismError(
                f"got {len(vectors)} utility vectors but uniforms of shape "
                f"{uniforms.shape}; need two per vector"
            )
        if not vectors:
            return np.empty(0, dtype=np.int64)
        if not (uniforms.min() >= 0.0 and uniforms.max() < 1.0):
            raise MechanismError("uniforms must lie in [0, 1)")
        # Weigh each distinct row once: a batch repeats popular users.
        distinct = {id(vector): vector for vector in vectors}
        slot = {key: row for row, key in enumerate(distinct)}
        rows = np.array([slot[id(vector)] for vector in vectors])
        supports = [vector.support() for vector in distinct.values()]
        counts = np.array([ids.size for ids, _ in supports], dtype=np.int64)
        zeros = np.array([vector.zero_count for vector in distinct.values()], dtype=np.int64)
        if not (counts + zeros).all():
            raise MechanismError("cannot recommend from an empty candidate set")
        offsets = np.zeros(len(supports) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        occupied = counts > 0
        starts = offsets[:-1][occupied]
        scale = self._epsilon / self.sensitivity
        weights = scale * np.concatenate([values for _, values in supports]).astype(
            np.float64, copy=False
        )
        shifts = np.zeros(len(supports))
        shifts[occupied] = np.maximum.reduceat(weights, starts)
        weights -= np.repeat(shifts, counts)
        np.exp(weights, out=weights)
        mass = np.zeros(len(supports))
        mass[occupied] = np.add.reduceat(weights, starts)
        # The support's cells fill [0, mass) of the row's total, the bucket's
        # cell the rest; an empty support (mass 0) always lands in the bucket.
        cuts = uniforms[:, 0] * (mass + zeros * np.exp(-shifts))[rows]
        in_bucket = (zeros[rows] > 0) & (cuts >= mass[rows])
        picks = np.empty(len(vectors), dtype=np.int64)
        for request in np.flatnonzero(~in_bucket).tolist():
            row = rows[request]
            cdf = weights[offsets[row]:offsets[row + 1]].cumsum()
            cell = int(cdf.searchsorted(cuts[request], side="right"))
            ids = supports[row][0]
            picks[request] = ids[min(cell, ids.size - 1)]  # cdf[-1] may round below mass
        for request in np.flatnonzero(in_bucket).tolist():
            # u2 * |Z| rounds below |Z| for every float64 u2 < 1.
            rank = int(uniforms[request, 1] * zeros[rows[request]])
            picks[request] = vectors[request].zero_candidate(rank)
        telemetry_runtime.count("mechanism.samples_drawn", len(vectors))
        return picks

    def privacy_ratio_bound(self) -> float:
        """Worst-case output ratio ``e^epsilon`` between one-edge neighbors."""
        return float(np.exp(self._epsilon))
