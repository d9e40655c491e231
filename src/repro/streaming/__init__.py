"""Streaming layer: serve recommendations while the graph mutates.

Section 8 of the paper names dynamic graphs as its main open problem;
this package is the operational answer, the repo's fourth subsystem
(after serving, the batch engine, and the compute kernels):

* :class:`MutableSocialGraph` — a delta overlay (per-node add/remove
  sets) over a frozen CSR base: O(delta) row reads, in-place degree
  maintenance, epoch-based :meth:`~MutableSocialGraph.compact`, and a
  monotone ``(epoch, version)`` stamp;
* :class:`DirtyNodeTracker` — journals every mutation with the exact
  reverse-radius ball of targets whose utility rows can change (1 hop
  for common neighbors, ``max_length - 1`` for weighted paths), so the
  serving cache evicts rows instead of flushing
  (:mod:`repro.streaming.invalidation`);
* :class:`StreamingService` — interleaves mutation batches and
  recommendation batches over the existing :mod:`repro.compute`
  kernels, with an optional :class:`SlidingWindowAccountant` mode
  bounding epsilon over any trailing window of the event clock;
* :func:`synthetic_event_stream` / :func:`replay_stream` — reproducible
  add/remove/query arrival mixes and the driver behind the
  ``repro-social stream-sim`` CLI subcommand and
  ``benchmarks/bench_streaming.py``.
"""

from .engine import (
    SlidingWindowAccountant,
    StreamingService,
    StreamReplaySummary,
    replay_stream,
)
from .events import (
    KIND_ADD,
    KIND_QUERY,
    KIND_REMOVE,
    StreamEvent,
    synthetic_event_stream,
    to_edge_events,
)
from .invalidation import DirtyNodeTracker, MutationRecord, reverse_ball_layers
from .overlay import MutableSocialGraph

__all__ = [
    "DirtyNodeTracker",
    "KIND_ADD",
    "KIND_QUERY",
    "KIND_REMOVE",
    "MutableSocialGraph",
    "MutationRecord",
    "SlidingWindowAccountant",
    "StreamEvent",
    "StreamReplaySummary",
    "StreamingService",
    "replay_stream",
    "reverse_ball_layers",
    "synthetic_event_stream",
    "to_edge_events",
]
