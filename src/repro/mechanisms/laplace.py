"""The Laplace mechanism (Definition 6; Dwork et al.).

``A_L(epsilon)`` perturbs every utility with independent Laplace noise of
scale ``Delta f / epsilon`` and recommends the candidate with the highest
noisy utility. It is epsilon-differentially private (Theorem 4: the noisy
utilities form a private histogram and the argmax is post-processing) and
"more closely mimics the optimal mechanism R_best" than the Exponential
mechanism does (Section 6).

Unlike the Exponential mechanism, the recommendation probabilities have no
simple closed form for more than two candidates; the paper evaluates the
mechanism's accuracy with 1,000 Monte-Carlo trials per target, and so do we
(vectorized, so a trial is one ``argmax`` over a noise matrix). For exactly
two candidates, Appendix E's Lemma 3 gives the closed form

``P[u1 + X1 > u2 + X2] = 1 - e^{-b d}/2 - b d e^{-b d}/4``

with ``b = epsilon / Delta f`` and ``d = u1 - u2 >= 0``; ``probabilities``
uses it so the n = 2 comparison benchmarks are exact.
"""

from __future__ import annotations

import numpy as np

from ..errors import MechanismError
from ..rng import ensure_rng
from ..telemetry import runtime as telemetry_runtime
from ..utility.base import UtilityVector
from .base import DEFAULT_TRIALS, PrivateMechanism, register_mechanism

#: Noise values drawn per Monte-Carlo block (8 MB of float64 per
#: buffer). Not a compute chunk size: blocks fill trials in stream order,
#: so this fixes which draws each trial gets and moving it changes every
#: Laplace estimate.
MC_BLOCK_ELEMENTS = 1_000_000


def laplace_argmax_probability_two(u1: float, u2: float, scale_inverse: float) -> float:
    """Lemma 3 closed form: probability that candidate 1 wins when n = 2.

    ``scale_inverse`` is ``1/b = epsilon / Delta f``; ``u1 >= u2`` is not
    required (the complement rule handles the other order). Ties are a
    measure-zero event split evenly, consistent with the formula's value of
    ``1/2 + ...`` at ``u1 = u2``... specifically the formula yields exactly
    1/2 when the utilities coincide.
    """
    difference = u1 - u2
    if difference < 0:
        return 1.0 - laplace_argmax_probability_two(u2, u1, scale_inverse)
    z = scale_inverse * difference
    return 1.0 - 0.5 * np.exp(-z) - 0.25 * z * np.exp(-z)


@register_mechanism
class LaplaceMechanism(PrivateMechanism):
    """Noisy-argmax recommender, the paper's ``A_L(epsilon)``."""

    name = "laplace"

    def __init__(self, epsilon: float, sensitivity: float = 1.0, trials: int = DEFAULT_TRIALS) -> None:
        super().__init__(epsilon, sensitivity)
        if trials < 1:
            raise MechanismError(f"trials must be >= 1, got {trials}")
        self.trials = int(trials)

    @property
    def noise_scale(self) -> float:
        """Scale ``b = Delta f / epsilon`` of the Laplace noise."""
        return self.sensitivity / self._epsilon

    def probabilities(self, vector: UtilityVector) -> np.ndarray:
        """Exact probabilities — only available for n <= 2 (Lemma 3).

        Raises :class:`NotImplementedError` for larger candidate sets; use
        :meth:`estimate_probabilities` or :meth:`expected_accuracy` there.
        """
        n = len(vector)
        if n == 1:
            return np.ones(1, dtype=np.float64)
        if n == 2:
            p1 = laplace_argmax_probability_two(
                float(vector.values[0]), float(vector.values[1]), 1.0 / self.noise_scale
            )
            return np.asarray([p1, 1.0 - p1], dtype=np.float64)
        raise NotImplementedError(
            "Laplace argmax probabilities have no closed form for n > 2; "
            "use estimate_probabilities (Monte-Carlo)"
        )

    def recommend(
        self, vector: UtilityVector, seed: "int | np.random.Generator | None" = None
    ) -> int:
        if len(vector) == 0:
            raise MechanismError("cannot recommend from an empty candidate set")
        telemetry_runtime.count("mechanism.samples_drawn")
        rng = ensure_rng(seed)
        noisy = vector.values + rng.laplace(0.0, self.noise_scale, size=len(vector))
        return int(vector.candidates[int(np.argmax(noisy))])

    def expected_accuracy(
        self,
        vector: UtilityVector,
        seed: "int | np.random.Generator | None" = None,
        trials: int | None = None,
        workspace=None,
    ) -> float:
        """Monte-Carlo accuracy: average utility of noisy-argmax picks / u_max.

        This is exactly the paper's procedure ("running 1,000 independent
        trials of A_L(epsilon) and averaging the utilities obtained"). For
        n <= 2 the Lemma 3 closed form is used instead, making the Appendix E
        benchmarks exact. ``workspace`` optionally supplies the reused
        noise buffers (see :meth:`_noise_buffers`); it never changes the
        result, only where the noise lands.
        """
        if len(vector) == 0:
            raise MechanismError("cannot evaluate accuracy on an empty candidate set")
        u_max = vector.u_max
        if u_max <= 0.0:
            raise MechanismError("accuracy undefined when all utilities are zero")
        if len(vector) <= 2:
            probs = self.probabilities(vector)
            return float(np.dot(probs, vector.values)) / u_max
        rng = ensure_rng(seed)
        trial_count = self.trials if trials is None else int(trials)
        return self._monte_carlo_accuracy(
            vector.values, u_max, rng, trial_count, workspace=workspace
        )

    def _noise_buffers(
        self, capacity: int, workspace
    ) -> "tuple[np.ndarray, np.ndarray]":
        """The two flat float64 draw buffers one Monte-Carlo call reuses.

        With a ``workspace`` (anything exposing ``take(key, shape,
        dtype)``, e.g. :class:`repro.compute.workspace.Workspace`) the
        buffers persist *across* calls too; without one they are
        allocated once per call and shared by every block of that call —
        the fix for the old per-block ``(trials_chunk, n)`` reallocation.
        """
        if workspace is not None:
            return (
                workspace.take("laplace.e1", capacity, np.float64),
                workspace.take("laplace.e2", capacity, np.float64),
            )
        return np.empty(capacity, dtype=np.float64), np.empty(capacity, dtype=np.float64)

    def _fill_laplace(
        self, rng: np.random.Generator, e1: np.ndarray, e2: np.ndarray
    ) -> np.ndarray:
        """Fill ``e1`` with Laplace(0, noise_scale) noise, in place.

        Draws two standard-exponential blocks directly into the reused
        buffers (``Generator.standard_exponential`` supports ``out=``,
        unlike ``Generator.laplace``) and uses that the difference of two
        independent Exp(1) variables is exactly standard Laplace. No
        allocation happens per block — only draws and in-place arithmetic.
        """
        rng.standard_exponential(out=e1)
        rng.standard_exponential(out=e2)
        np.subtract(e1, e2, out=e1)
        np.multiply(e1, self.noise_scale, out=e1)
        return e1

    def _monte_carlo_accuracy(
        self,
        values: np.ndarray,
        u_max: float,
        rng: np.random.Generator,
        trial_count: int,
        workspace=None,
    ) -> float:
        """Blocked noisy-argmax Monte-Carlo over one target's utility values.

        The single kernel shared by :meth:`expected_accuracy` and
        :meth:`expected_accuracy_batch`: each block fills a
        ``(trials_chunk, n)`` view of one *reused* noise buffer (see
        :meth:`_fill_laplace`) and resolves every trial with one
        vectorized argmax — no per-block allocation. Keeping one code
        path is what makes the batched experiment engine bit-identical
        to the sequential evaluator — same generator, same draw order,
        same accumulation.
        """
        total = 0.0
        n = values.size
        block_trials = max(1, min(trial_count, int(MC_BLOCK_ELEMENTS / max(1, n))))
        e1, e2 = self._noise_buffers(block_trials * n, workspace)
        winners = np.empty(block_trials, dtype=np.int64)
        picked = np.empty(block_trials, dtype=values.dtype)
        done = 0
        while done < trial_count:
            block = min(block_trials, trial_count - done)
            size = block * n
            noisy = self._fill_laplace(rng, e1[:size], e2[:size]).reshape(block, n)
            np.add(noisy, values, out=noisy)
            np.argmax(noisy, axis=1, out=winners[:block])
            np.take(values, winners[:block], out=picked[:block])
            total += float(picked[:block].sum())
            done += block
            telemetry_runtime.count("mechanism.mc_blocks")
        return (total / trial_count) / u_max

    def expected_accuracy_batch(
        self,
        vectors: "list[UtilityVector]",
        seeds: "list[np.random.Generator | int | None]",
        trials: "int | None" = None,
        workspace=None,
    ) -> np.ndarray:
        """Monte-Carlo accuracy for many targets, one RNG stream per target.

        Unlike the exponential mechanism's closed-form batch kernel, the
        Laplace noise cannot be drawn as one ``(targets, trials, n)`` tensor
        from a single stream without changing every target's noise: the
        sequential evaluator gives each target its own spawned generator so
        results are independent of sample composition, and this method keeps
        that contract. Each target therefore runs the shared blocked
        :meth:`_monte_carlo_accuracy` kernel (vectorized over its
        ``trials_chunk x n`` noise blocks) against its own stream, which
        makes the output bit-identical to calling :meth:`expected_accuracy`
        target by target — while still skipping all per-call graph and
        utility-vector recomputation the batched engine already amortized.
        """
        if len(vectors) != len(seeds):
            raise MechanismError(
                f"got {len(vectors)} vectors but {len(seeds)} RNG seeds"
            )
        return np.asarray(
            [
                self.expected_accuracy(
                    vector, seed=seed, trials=trials, workspace=workspace
                )
                for vector, seed in zip(vectors, seeds)
            ],
            dtype=np.float64,
        )

    def estimate_probabilities(
        self,
        vector: UtilityVector,
        trials: int = DEFAULT_TRIALS,
        seed: "int | np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Vectorized Monte-Carlo estimate of the argmax distribution.

        Shares the reused-buffer noise kernel of
        :meth:`_monte_carlo_accuracy`: one buffer pair per call, filled in
        place per block instead of reallocating the ``(block, n)`` matrix.
        """
        if trials < 1:
            raise MechanismError(f"trials must be >= 1, got {trials}")
        rng = ensure_rng(seed)
        values = vector.values
        n = values.size
        counts = np.zeros(n, dtype=np.float64)
        block_trials = max(1, min(trials, int(MC_BLOCK_ELEMENTS / max(1, n))))
        e1, e2 = self._noise_buffers(block_trials * n, None)
        winners = np.empty(block_trials, dtype=np.int64)
        done = 0
        while done < trials:
            block = min(block_trials, trials - done)
            size = block * n
            noisy = self._fill_laplace(rng, e1[:size], e2[:size]).reshape(block, n)
            np.add(noisy, values, out=noisy)
            np.argmax(noisy, axis=1, out=winners[:block])
            counts += np.bincount(winners[:block], minlength=n)
            done += block
        return counts / trials
