"""Graph engine: data structure, traversal, edits, I/O, statistics, generators."""

from .edits import EditPlan, promote_common_neighbors, promote_weighted_paths, swap_node_edges, weighted_paths_c
from .graph import SocialGraph
from .io import read_edge_list, write_edge_list
from .shared import CSRDescriptor, SharedCSR, SharedSocialGraph
from .paths import simple_path_counts, walks_equal_simple_paths_on_candidates
from .stats import (
    DegreeSummary,
    alpha_of_log_n,
    degree_histogram,
    degree_summary,
    edge_density,
    powerlaw_exponent_estimate,
    reciprocity,
)
from .traversal import (
    bfs_distances,
    connected_component,
    count_paths_up_to,
    k_hop_neighborhood,
    two_hop_counts,
    walk_counts,
)

__all__ = [
    "CSRDescriptor",
    "DegreeSummary",
    "EditPlan",
    "SharedCSR",
    "SharedSocialGraph",
    "SocialGraph",
    "alpha_of_log_n",
    "bfs_distances",
    "connected_component",
    "count_paths_up_to",
    "degree_histogram",
    "degree_summary",
    "edge_density",
    "k_hop_neighborhood",
    "powerlaw_exponent_estimate",
    "promote_common_neighbors",
    "promote_weighted_paths",
    "read_edge_list",
    "simple_path_counts",
    "reciprocity",
    "swap_node_edges",
    "two_hop_counts",
    "walk_counts",
    "walks_equal_simple_paths_on_candidates",
    "weighted_paths_c",
    "write_edge_list",
]
