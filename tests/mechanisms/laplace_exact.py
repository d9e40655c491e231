"""Test oracle: Laplace argmax probabilities by adaptive quadrature.

For more than two candidates the win probability has a one-dimensional
integral representation that adaptive quadrature evaluates candidate by
candidate:

``P[argmax = i] = Integral  f_b(x) * Prod_{j != i} F_b(u_i - u_j + x) dx``

where ``f_b`` / ``F_b`` are the Laplace(0, b) pdf/cdf and ``b = Delta f /
epsilon``: condition on candidate i's own noise being ``x``; every rival j
must then draw noise below ``u_i + x - u_j``, independently.

This costs O(n) per candidate and O(n^2) per row, with no grouping, power
series or panels, so it is an independent check of
:class:`repro.mechanisms.laplace.LaplaceMechanism`'s grouped kernel on
small rows. The integrand has kinks at ``x = 0`` and at every ``u_j -
u_i``; they are passed to ``quad`` as break points.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate

from repro.errors import MechanismError
from repro.utility.base import UtilityVector


def laplace_cdf(x: np.ndarray, scale: float) -> np.ndarray:
    """CDF of the Laplace(0, scale) distribution, vectorized."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(
        x < 0,
        0.5 * np.exp(np.minimum(x, 0.0) / scale),
        1.0 - 0.5 * np.exp(-np.maximum(x, 0.0) / scale),
    )


def laplace_pdf(x: float, scale: float) -> float:
    """PDF of the Laplace(0, scale) distribution."""
    return 0.5 / scale * float(np.exp(-abs(x) / scale))


def exact_argmax_probabilities(
    values: "np.ndarray | list[float]",
    epsilon: float,
    sensitivity: float = 1.0,
    tolerance: float = 1e-10,
) -> np.ndarray:
    """Exact win probability of every candidate under Laplace noise.

    Quadrature over the conditional-noise integral above. Suitable for up
    to a few thousand candidates (each probability is one adaptive
    ``quad`` with an O(n) integrand).
    """
    if epsilon <= 0 or sensitivity <= 0:
        raise MechanismError("epsilon and sensitivity must be positive")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise MechanismError("values must be a non-empty 1-d array")
    if values.size == 1:
        return np.ones(1)
    scale = sensitivity / epsilon
    probabilities = np.empty(values.size, dtype=np.float64)
    # Integrate in units of the noise scale for a well-conditioned domain.
    span = 60.0 * scale
    for i in range(values.size):
        gaps = values[i] - np.delete(values, i)

        def integrand(x: float, gaps=gaps) -> float:
            return laplace_pdf(x, scale) * float(
                np.prod(laplace_cdf(gaps + x, scale))
            )

        kinks = np.unique(np.append(-gaps[np.abs(gaps) < span], 0.0))
        value, _ = integrate.quad(
            integrand, -span, span, epsabs=tolerance, epsrel=tolerance,
            limit=400, points=kinks,
        )
        probabilities[i] = value
    total = probabilities.sum()
    if not 0.99 <= total <= 1.01:
        raise MechanismError(
            f"quadrature failed to normalize (sum={total}); widen the domain"
        )
    return probabilities / total


def exact_expected_accuracy(
    vector: UtilityVector, epsilon: float, sensitivity: float = 1.0
) -> float:
    """Exact (quadrature) expected accuracy of the Laplace mechanism."""
    u_max = vector.u_max
    if u_max <= 0:
        raise MechanismError("accuracy undefined when all utilities are zero")
    probabilities = exact_argmax_probabilities(vector.values, epsilon, sensitivity)
    return float(np.dot(probabilities, vector.values)) / u_max
