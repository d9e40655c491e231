"""Recommendation mechanisms: baselines and differentially private algorithms."""

from .base import (
    DEFAULT_TRIALS,
    Mechanism,
    PrivateMechanism,
    make_mechanism,
    mechanism_registry,
    register_mechanism,
    validate_probability_vector,
)
from .best import BestMechanism, UniformMechanism
from .exponential import ExponentialMechanism
from .laplace import LaplaceMechanism, laplace_argmax_probability_two
from .smoothing import SmoothingMechanism, smoothing_epsilon, smoothing_x_for_epsilon

__all__ = [
    "BestMechanism",
    "DEFAULT_TRIALS",
    "ExponentialMechanism",
    "LaplaceMechanism",
    "Mechanism",
    "PrivateMechanism",
    "SmoothingMechanism",
    "UniformMechanism",
    "laplace_argmax_probability_two",
    "make_mechanism",
    "mechanism_registry",
    "register_mechanism",
    "smoothing_epsilon",
    "smoothing_x_for_epsilon",
    "validate_probability_vector",
]
