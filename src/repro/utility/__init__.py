"""Utility functions scoring candidate recommendations (Section 3.1, 5)."""

from .base import (
    UtilityFunction,
    UtilityVector,
    candidate_nodes,
    make_utility,
    register_utility,
    utility_registry,
)
from .common_neighbors import CommonNeighbors
from .graph_distance import GraphDistance
from .neighborhood import AdamicAdar, JaccardCoefficient, PreferentialAttachment
from .pagerank import PersonalizedPageRank
from .sensitivity import SensitivityReport, probe_sensitivity
from .weighted_paths import PAPER_GAMMAS, WeightedPaths

__all__ = [
    "AdamicAdar",
    "CommonNeighbors",
    "GraphDistance",
    "JaccardCoefficient",
    "PAPER_GAMMAS",
    "PersonalizedPageRank",
    "PreferentialAttachment",
    "SensitivityReport",
    "UtilityFunction",
    "UtilityVector",
    "WeightedPaths",
    "candidate_nodes",
    "make_utility",
    "probe_sensitivity",
    "register_utility",
    "utility_registry",
]
