"""Chunking plans: bound peak dense allocation for batched pipelines.

Every batched pipeline in this repo ultimately materializes per-target
dense rows of width ``num_nodes`` (utility scores, candidate masks,
sampling logits). Evaluating ``len(targets)`` targets in one shot
therefore allocates ``len(targets) x num_nodes`` floats — fine for a
figure run, fatal at the ROADMAP's millions-of-users scale. A
:class:`ComputePlan` splits the target list into fixed-size chunks so the
kernels only ever hold ``chunk_size x num_nodes`` dense elements at a
time, regardless of how many targets the caller asks for.

Plans are pure index arithmetic: a chunk is a ``[start, stop)`` window
into the caller's target order. Callers run the chunks in order on the
calling thread and concatenate the results, which — because every
kernel stage is per-target independent — reproduces the unchunked
output bit for bit.

A plan also carries the pipeline's *compute dtype*: the element type the
dense kernel stages run at. ``float64`` (the default) keeps the engines
bit-identical to the sequential reference; ``float32`` halves every dense
buffer and is covered by the tolerance contract documented in
DESIGN.md ("memory dataflow"). :func:`resolve_dtype` is the single
normalization point every layer (configs, services, kernels) funnels
through, so ``"float32"``, ``np.float32``, and ``np.dtype("float32")``
all mean the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..errors import ComputeError

#: Compute dtypes the kernel stages support. float64 is the bit-exact
#: reference path; float32 is the opt-in half-memory path.
COMPUTE_DTYPES = ("float32", "float64")


def resolve_dtype(spec) -> np.dtype:
    """Normalize a compute-dtype spec to a ``np.dtype``.

    Accepts ``None`` (the float64 default), the strings of
    :data:`COMPUTE_DTYPES`, or anything ``np.dtype`` accepts — but only
    resolves to one of the two supported compute dtypes; anything else
    raises :class:`~repro.errors.ComputeError` so a typo'd config fails
    at plan time, not deep inside a kernel.
    """
    if spec is None:
        return np.dtype(np.float64)
    try:
        dtype = np.dtype(spec)
    except TypeError as exc:
        raise ComputeError(f"cannot resolve compute dtype from {spec!r}: {exc}") from None
    if dtype.name not in COMPUTE_DTYPES:
        raise ComputeError(
            f"unsupported compute dtype {dtype.name!r}; known: {COMPUTE_DTYPES}"
        )
    return dtype


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
    """Fixed-size chunking of ``num_items`` targets.

    Parameters
    ----------
    num_items:
        Length of the target list being split.
    chunk_size:
        Maximum targets per chunk. ``None`` means "one chunk with
        everything" — the unchunked layout older callers relied on.
    dtype:
        Compute dtype of the dense kernel stages (anything
        :func:`resolve_dtype` accepts; ``None`` means float64). Chunk
        geometry is dtype-independent; the plan just carries the choice
        to the kernels so one object describes the whole dense layout.

    With ``chunk_size = c`` and a graph of ``n`` nodes, every kernel stage
    holds at most ``c * n`` dense elements at a time instead of
    ``num_items * n`` (halved again under ``float32``).
    """

    num_items: int
    chunk_size: "int | None" = None
    dtype: "np.dtype | str | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.num_items < 0:
            raise ComputeError(f"num_items must be >= 0, got {self.num_items}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ComputeError(f"chunk_size must be >= 1, got {self.chunk_size}")
        object.__setattr__(self, "dtype", resolve_dtype(self.dtype))

    @property
    def effective_chunk_size(self) -> int:
        """The bound on dense rows a single chunk can materialize."""
        if self.chunk_size is None:
            return self.num_items
        return min(self.chunk_size, self.num_items)

    @property
    def num_chunks(self) -> int:
        if self.num_items == 0:
            return 0
        size = self.effective_chunk_size
        return -(-self.num_items // size) if size else 0

    def chunks(self) -> "list[TargetChunk]":
        """All chunks, in target order."""
        return list(self)

    def __iter__(self) -> Iterator[TargetChunk]:
        size = self.effective_chunk_size
        if size <= 0:
            return
        for index, start in enumerate(range(0, self.num_items, size)):
            yield TargetChunk(index, start, min(start + size, self.num_items))

    def __len__(self) -> int:
        return self.num_chunks
