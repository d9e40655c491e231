"""Datasets: synthetic replicas of the paper's graphs and deterministic toys.

The replicas substitute for the offline-unavailable SNAP ``wiki-Vote`` and
Twitter-sample datasets; see DESIGN.md's substitution table. Both accept a
``scale`` in (0, 1] shrinking nodes and edges proportionally (full scale
matches the published sizes) and a ``seed`` for reproducibility.
"""

from __future__ import annotations

from ..graphs.generators.replicas import build_replica, twitter_spec, wiki_vote_spec
from ..graphs.graph import SocialGraph
from . import toy

#: Default seeds give every example/benchmark the same replica instance.
DEFAULT_WIKI_SEED = 20110829  # VLDB 2011 started August 29th
DEFAULT_TWITTER_SEED = 20110903
DEFAULT_SYNTHETIC_SEED = 20110905

#: Power-law exponent of the synthetic scale dataset. 2.2 sits in the
#: 2-3 band the paper cites for real social networks (Section 5).
DEFAULT_SYNTHETIC_EXPONENT = 2.2


def wiki_vote(scale: float = 1.0, seed: int = DEFAULT_WIKI_SEED) -> SocialGraph:
    """Undirected Wikipedia-vote replica (7,115 nodes / 100,762 edges at scale 1)."""
    return build_replica(wiki_vote_spec(scale), seed=seed)


def twitter(scale: float = 1.0, seed: int = DEFAULT_TWITTER_SEED) -> SocialGraph:
    """Directed Twitter-sample replica (96,403 nodes / 489,986 edges at scale 1)."""
    return build_replica(twitter_spec(scale), seed=seed)


def synthetic_powerlaw(
    nodes: int,
    exponent: float = DEFAULT_SYNTHETIC_EXPONENT,
    seed: int = DEFAULT_SYNTHETIC_SEED,
    backend: str = "shm",
) -> SocialGraph:
    """Directed power-law graph at any size (10^5 to 10^7 nodes and beyond).

    Assembled chunk by chunk straight into a shared CSR segment by
    :func:`~repro.graphs.generators.powerlaw.build_powerlaw_shared`;
    ``backend`` picks the home: ``"shm"`` (POSIX shared memory),
    ``"mmap"`` (a temp file — out of core), or
    ``"heap"`` (convert to a classic mutable :class:`SocialGraph`; costs
    the per-node set structure, so only sensible well below 10^6 nodes).
    Same ``(nodes, exponent, seed)`` means the same graph on every
    backend, adjacency-identical between shared and heap.
    """
    from ..graphs.generators.powerlaw import build_powerlaw_shared

    shared = build_powerlaw_shared(
        nodes, exponent, seed=seed,
        backing="shm" if backend == "heap" else backend,
    )
    if backend != "heap":
        return shared
    try:
        return shared.to_heap()
    finally:
        shared.close()
        shared.unlink()


__all__ = [
    "DEFAULT_SYNTHETIC_EXPONENT",
    "DEFAULT_SYNTHETIC_SEED",
    "DEFAULT_TWITTER_SEED",
    "DEFAULT_WIKI_SEED",
    "synthetic_powerlaw",
    "toy",
    "twitter",
    "wiki_vote",
]
