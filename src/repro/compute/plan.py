"""Chunking plans: bound peak dense allocation for batched pipelines.

A few batched stages materialize per-target dense rows of width
``num_nodes`` (the gamma sweep's walk-count and score rows, the default
sparse score fill). Evaluating ``len(targets)`` targets in one
shot would allocate ``len(targets) x num_nodes`` floats — fine for a
figure run, fatal at the ROADMAP's millions-of-users scale. A
:class:`ComputePlan` splits the target list into chunks of
:func:`chunk_rows` targets, so a stage holding one chunk's dense
``rows x num_nodes`` block stays within the one byte budget
:data:`CHUNK_BYTES`, regardless of how many targets the caller asks for.
The program sizes its own chunks: no entry point takes a chunk size.

Plans are pure index arithmetic: a chunk is a ``[start, stop)`` window
into the caller's target order. Callers run the chunks in order on the
calling thread and concatenate the results, which — because every
kernel stage is per-target independent — reproduces the unchunked
output bit for bit, whatever the budget. Every dense block is float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import ComputeError

#: Byte budget of one chunk's dense ``rows x num_nodes`` float64 block:
#: every stage that allocates such a block (the gamma sweep and the
#: default ``UtilityFunction.support_scores``) takes :func:`chunk_rows` targets at a time. Small enough that the
#: workspace buffers those stages stream through stay cache-resident.
#: Read at call time.
CHUNK_BYTES = 4_000_000


def chunk_rows(num_nodes: int) -> int:
    """Targets per chunk on a ``num_nodes`` graph: the most whose float64
    ``rows x num_nodes`` block fits in :data:`CHUNK_BYTES`, at least one."""
    return max(1, CHUNK_BYTES // (8 * max(1, int(num_nodes))))


def contiguous_node_range(targets: np.ndarray) -> "tuple[int, int] | None":
    """``(lo, hi)`` when ``targets`` is exactly ``lo, lo+1, ..., hi-1``.

    The shape test behind zero-copy row slices: a chunk whose targets
    happen to be consecutive ascending node ids can be served as a CSR
    row slice (``indptr[lo:hi+1]`` plus views of ``indices``/``data``)
    instead of a fancy-index row gather. Returns ``None`` for empty,
    unsorted, duplicated, or gapped target arrays — callers then take
    the copying path. O(len) with one vectorized comparison, so probing
    never costs more than the gather it tries to avoid.
    """
    targets = np.asarray(targets)
    if targets.size == 0 or targets.ndim != 1:
        return None
    lo, hi = int(targets[0]), int(targets[-1]) + 1
    if hi - lo != targets.size:
        return None
    if not np.array_equal(targets, np.arange(lo, hi, dtype=targets.dtype)):
        return None
    return lo, hi


@dataclass(frozen=True)
class TargetChunk:
    """One ``[start, stop)`` window of the caller's target list."""

    index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start

    def take(self, items: Sequence) -> Sequence:
        """This chunk's slice of any sequence parallel to the target list."""
        return items[self.start : self.stop]


@dataclass(frozen=True)
class ComputePlan:
    """Budget-sized chunking of ``num_items`` targets on a ``num_nodes`` graph.

    Parameters
    ----------
    num_items:
        Length of the target list being split.
    num_nodes:
        Width of the dense rows the chunks materialize; every chunk but
        the last holds :func:`chunk_rows` targets.
    """

    num_items: int
    num_nodes: int

    def __post_init__(self) -> None:
        if self.num_items < 0:
            raise ComputeError(f"num_items must be >= 0, got {self.num_items}")

    @property
    def num_chunks(self) -> int:
        return -(-self.num_items // chunk_rows(self.num_nodes))

    def chunks(self) -> "list[TargetChunk]":
        """All chunks, in target order."""
        return list(self)

    def __iter__(self) -> Iterator[TargetChunk]:
        size = chunk_rows(self.num_nodes)
        for index, start in enumerate(range(0, self.num_items, size)):
            yield TargetChunk(index, start, min(start + size, self.num_items))

    def __len__(self) -> int:
        return self.num_chunks
