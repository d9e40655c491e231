"""Reusable dense buffers for the batched numeric core.

The stages that still hold dense temporaries — the gamma sweep's
recombined score rows, Laplace noise blocks — take them from
here instead of allocating them fresh per chunk (or per *row*), which
once made a scale-1.0 experiment run spend a large share of its wall
clock inside the allocator and peak far above its working set. A
:class:`Workspace` is a small keyed arena that ends that churn: each
logical buffer is requested by name via :meth:`Workspace.take`, which
hands back a view into a capacity-grown flat array — the first request
per key allocates, every later request of the same or smaller size
reuses.

Ownership contract (the one rule every kernel must respect):

* a ``take(key, ...)`` view is valid until the **next** ``take`` with the
  same key — stages that need two simultaneous buffers use two keys;
* views must never escape the chunk that took them. Anything stored
  beyond the chunk (cached :class:`~repro.utility.base.UtilityVector`
  rows, returned evaluations) must be an owned copy. The kernels honor
  this by copying exactly at the escape points and nowhere else.

Reuse: chunks run inline on the calling thread, and the arena is
per-thread (:func:`get_workspace` hands each thread its own instance),
so a run reuses one arena across every chunk and callers on different
threads (an HTTP edge's compute thread, external submitters) never share
one. Nothing is ever shared between threads, so no locking exists or is
needed.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["Workspace", "get_workspace", "reset_workspace"]


class Workspace:
    """Keyed arena of reusable flat numpy buffers: one grown-and-reused
    buffer per ``(key, dtype)``.

    Counters (all monotonically increasing, never reset by ``take``):

    * ``takes`` — buffer requests served;
    * ``allocations`` — requests that had to allocate fresh memory
      (first use of a key or capacity growth). ``takes - allocations``
      is the reuse hit count;
    * ``high_water_bytes`` — peak arena residency ever observed at an
      allocation.
    """

    __slots__ = ("_buffers", "takes", "allocations", "high_water_bytes")

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, str], np.ndarray] = {}
        self.takes = 0
        self.allocations = 0
        self.high_water_bytes = 0

    def take(
        self, key: str, shape: "int | tuple[int, ...]", dtype=np.float64
    ) -> np.ndarray:
        """A ``shape``-shaped array of ``dtype`` for logical buffer ``key``.

        Contents are uninitialized (like ``np.empty``) — callers must
        fully overwrite or explicitly ``fill``. The view aliases the
        key's backing storage, so it is invalidated by the next ``take``
        of the same key and must not outlive the current chunk.
        """
        if isinstance(shape, int):
            shape = (shape,)
        size = math.prod(shape)
        dtype = np.dtype(dtype)
        self.takes += 1
        slot = (key, dtype.str)
        buffer = self._buffers.get(slot)
        if buffer is None or buffer.size < size:
            buffer = np.empty(max(size, 1), dtype=dtype)
            self._buffers[slot] = buffer
            self.allocations += 1
            resident = self.resident_bytes
            if resident > self.high_water_bytes:
                self.high_water_bytes = resident
        return buffer[:size].reshape(shape)

    @property
    def resident_bytes(self) -> int:
        """Total bytes currently held by the arena's backing buffers."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def bytes_resident(self) -> int:
        """Arena residency right now, in bytes (the telemetry gauge source).

        Method form of :attr:`resident_bytes` for callers scraping stats
        generically; :attr:`high_water_bytes` is the peak residency ever
        observed at an allocation.
        """
        return self.resident_bytes

    @property
    def num_buffers(self) -> int:
        return len(self._buffers)

    def clear(self) -> None:
        """Drop every backing buffer (counters are preserved)."""
        self._buffers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workspace(buffers={self.num_buffers}, "
            f"resident_bytes={self.resident_bytes}, takes={self.takes}, "
            f"allocations={self.allocations})"
        )


_LOCAL = threading.local()


def get_workspace() -> Workspace:
    """The calling thread's reusable arena.

    Created on first use and reused for every later chunk that thread
    runs, so the arena lives exactly as long as useful reuse does.
    """
    workspace = getattr(_LOCAL, "workspace", None)
    if workspace is None:
        workspace = Workspace()
        _LOCAL.workspace = workspace
    return workspace


def reset_workspace() -> "Workspace":
    """Replace the calling thread's arena with a fresh one (and return it).

    For benchmarks and tests that need clean counters or want to release
    the resident buffers of a completed large run.
    """
    workspace = Workspace()
    _LOCAL.workspace = workspace
    return workspace
