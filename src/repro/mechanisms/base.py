"""Recommendation-mechanism abstraction (Section 3.1 / Section 6).

The paper models an algorithm ``R`` as a probability vector over candidate
nodes; its expected utility is ``sum_i u_i p_i`` and its accuracy is that
expectation divided by ``u_max``. Mechanisms here consume a
:class:`~repro.utility.base.UtilityVector` and expose:

* :meth:`Mechanism.probabilities` — the exact vector ``p``;
* :meth:`Mechanism.recommend` — sample a single recommendation;
* :meth:`Mechanism.expected_accuracy` — ``sum_i p_i u_i / u_max``, exact
  for every built-in mechanism (Laplace included: the paper's 1,000-trial
  Monte Carlo estimates the same quantity).

Mechanisms are privacy-annotated: ``epsilon`` is ``None`` for non-private
baselines (R_best, uniform) and the differential-privacy parameter for the
private ones.
"""

from __future__ import annotations

import abc

import numpy as np

from ..errors import MechanismError, PrivacyParameterError
from ..rng import ensure_rng
from ..telemetry import runtime as telemetry_runtime
from ..utility.base import UtilityVector

#: Default sample count of :meth:`Mechanism.estimate_probabilities`.
DEFAULT_TRIALS = 1_000


class Mechanism(abc.ABC):
    """Base class for single-recommendation algorithms."""

    #: Short identifier used in result files and reports.
    name: str = "abstract"

    @property
    def epsilon(self) -> "float | None":
        """Differential-privacy parameter; ``None`` for non-private baselines."""
        return None

    @property
    def is_private(self) -> bool:
        """Whether the mechanism carries a differential-privacy guarantee."""
        return self.epsilon is not None

    @abc.abstractmethod
    def probabilities(self, vector: UtilityVector) -> np.ndarray:
        """Exact recommendation probabilities, parallel to ``vector.candidates``.

        :meth:`estimate_probabilities` checks a mechanism's sampler
        against them.
        """

    def recommend(
        self, vector: UtilityVector, seed: "int | np.random.Generator | None" = None
    ) -> int:
        """Sample one recommended node id for the vector's target."""
        if len(vector) == 0:
            raise MechanismError("cannot recommend from an empty candidate set")
        telemetry_runtime.count("mechanism.samples_drawn")
        rng = ensure_rng(seed)
        probs = self.probabilities(vector)
        index = int(rng.choice(len(vector), p=probs))
        return int(vector.candidates[index])

    def expected_accuracy(
        self,
        vector: UtilityVector,
        seed: "int | np.random.Generator | None" = None,
    ) -> float:
        """``E[u of recommendation] / u_max`` for this utility vector.

        The one-row case of a mechanism's flat ``support_accuracies(values,
        offsets, zeros)`` kernel where it has one, so the experiment
        engine's flat call reproduces it bit for bit; else ``sum_i p_i u_i
        / u_max`` from :meth:`probabilities`. ``seed`` is for subclasses
        that sample.
        """
        if len(vector) == 0:
            raise MechanismError("cannot evaluate accuracy on an empty candidate set")
        u_max = vector.u_max
        if u_max <= 0.0:
            raise MechanismError(
                "accuracy undefined when all utilities are zero "
                "(the paper drops such targets; see UtilityVector.has_signal)"
            )
        kernel = getattr(self, "support_accuracies", None)
        if kernel is not None:
            _, values = vector.support()
            return float(kernel(values, [0, values.size], [vector.zero_count])[0])
        probs = self.probabilities(vector)
        # Normalize before the dot product: accuracy is scale-invariant, and
        # dividing afterwards underflows to 0 for subnormal utility values.
        return float(np.dot(probs, vector.values / u_max))

    def estimate_probabilities(
        self,
        vector: UtilityVector,
        trials: int = DEFAULT_TRIALS,
        seed: "int | np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Monte-Carlo estimate of the probability vector."""
        if trials < 1:
            raise MechanismError(f"trials must be >= 1, got {trials}")
        rng = ensure_rng(seed)
        counts = np.zeros(len(vector), dtype=np.float64)
        index_of = {int(c): i for i, c in enumerate(vector.candidates)}
        for _ in range(trials):
            counts[index_of[self.recommend(vector, seed=rng)]] += 1.0
        return counts / trials

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        eps = self.epsilon
        suffix = f", epsilon={eps}" if eps is not None else ""
        return f"{type(self).__name__}(name={self.name!r}{suffix})"


class PrivateMechanism(Mechanism):
    """Base class for mechanisms parameterized by (epsilon, sensitivity)."""

    def __init__(self, epsilon: float, sensitivity: float = 1.0) -> None:
        if not np.isfinite(epsilon) or epsilon <= 0:
            raise PrivacyParameterError(f"epsilon must be a positive finite number, got {epsilon}")
        if not np.isfinite(sensitivity) or sensitivity <= 0:
            raise PrivacyParameterError(
                f"sensitivity must be a positive finite number, got {sensitivity}"
            )
        self._epsilon = float(epsilon)
        self.sensitivity = float(sensitivity)

    @property
    def epsilon(self) -> float:
        return self._epsilon


_MECHANISM_REGISTRY: dict[str, type] = {}


def register_mechanism(cls: type) -> type:
    """Class decorator adding a mechanism to the global registry.

    Mirrors :func:`repro.utility.base.register_utility`: the serving layer
    instantiates mechanisms by name so a deployment can be configured from
    flat data (CLI flags, config files) without importing concrete classes.
    """
    if not issubclass(cls, Mechanism):
        raise MechanismError(f"{cls!r} is not a Mechanism")
    _MECHANISM_REGISTRY[cls.name] = cls
    return cls


def mechanism_registry() -> dict[str, type]:
    """Snapshot of registered mechanism classes keyed by name."""
    return dict(_MECHANISM_REGISTRY)


def make_mechanism(name: str, **kwargs) -> Mechanism:
    """Instantiate a registered mechanism by name.

    Non-private baselines (``best``, ``uniform``) take no parameters;
    ``epsilon``/``sensitivity`` keywords are silently dropped for them so
    callers can pass one parameter bundle for any mechanism name.
    """
    try:
        cls = _MECHANISM_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_MECHANISM_REGISTRY)) or "(none)"
        raise MechanismError(f"unknown mechanism {name!r}; known: {known}") from None
    if not issubclass(cls, PrivateMechanism):
        kwargs = {k: v for k, v in kwargs.items() if k not in ("epsilon", "sensitivity")}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise MechanismError(
            f"cannot construct mechanism {name!r} from {sorted(kwargs) or 'no'} "
            f"keyword arguments: {exc}"
        ) from None


def validate_probability_vector(probs: np.ndarray, size: int) -> np.ndarray:
    """Check shape, non-negativity, and normalization of a probability vector."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (size,):
        raise MechanismError(f"probability vector has shape {probs.shape}, expected ({size},)")
    if probs.size and probs.min() < -1e-12:
        raise MechanismError("probabilities must be non-negative")
    total = float(probs.sum())
    if probs.size and abs(total - 1.0) > 1e-9:
        raise MechanismError(f"probabilities sum to {total}, expected 1")
    return np.clip(probs, 0.0, 1.0)
