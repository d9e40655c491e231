"""Lightweight span contexts.

A span is one timed region of the pipeline — ``span("engine.chunk",
targets=64)`` — with a monotonic duration, optional attributes, and
parent/child nesting tracked through a per-thread stack. Spans exist to
answer "where did the wall clock go" for a single request or replay, not
to feed a distributed tracing backend, so the design stays minimal:

* finished spans accumulate as plain :class:`SpanRecord` rows on the
  owning :class:`Tracer` (bounded by ``max_spans``; the oldest half is
  summarized away into ``dropped`` when full);
* batched pipelines trace one span per chunk
  (:func:`repro.telemetry.runtime.traced_map`), so span counts are
  deterministic in the number of chunks;
* ``sample_rate`` keeps the hot path allocation-free when tracing is
  unwanted: rate 0 returns a shared no-op span (no object creation, no
  record); fractional rates keep every ``k``-th span deterministically
  (a counter, not an RNG — the same run always keeps the same spans).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..errors import TelemetryError

__all__ = ["NULL_SPAN", "SpanRecord", "Tracer"]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: primitives only, so a dump is plain JSON."""

    name: str
    start: float          #: wall-clock (``time.time``) start, for ordering
    duration: float       #: monotonic (``perf_counter``) elapsed seconds
    depth: int            #: nesting depth at creation (0 = root)
    parent: "str | None"  #: enclosing span's name, if any
    attrs: dict = field(default_factory=dict)


class _Span:
    """Live span context: times on enter/exit, records on the tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start_wall", "_start", "_parent", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        self._parent = stack[-1] if stack else None
        self._depth = len(stack)
        stack.append(self._name)
        self._start_wall = time.time()
        self._start = time.perf_counter()
        return self

    def annotate(self, **attrs) -> None:
        """Attach attributes discovered mid-span."""
        self._attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        stack = self._tracer._stack()
        if stack and stack[-1] == self._name:
            stack.pop()
        self._tracer._record(
            SpanRecord(
                name=self._name,
                start=self._start_wall,
                duration=duration,
                depth=self._depth,
                parent=self._parent,
                attrs=self._attrs,
            )
        )


class _NullSpan:
    """Shared do-nothing span: the disabled/sampled-out path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def annotate(self, **attrs) -> None:
        return None


#: The singleton no-op span handed out when tracing is disabled or the
#: span was sampled away.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans; one per :class:`~repro.telemetry.Telemetry`.

    Parameters
    ----------
    sample_rate:
        Fraction of spans to actually record, in [0, 1]. ``1.0`` records
        everything; ``0.0`` makes :meth:`span` return :data:`NULL_SPAN`
        (zero allocation); a fraction keeps spans at deterministic
        counter positions, so repeated runs trace the same spans.
    max_spans:
        Bound on retained records. When exceeded, the oldest half is
        dropped and counted in :attr:`dropped` — tracing must never be
        the thing that runs the service out of memory.
    """

    def __init__(self, sample_rate: float = 1.0, max_spans: int = 100_000) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise TelemetryError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if max_spans < 2:
            raise TelemetryError(f"max_spans must be >= 2, got {max_spans}")
        self.sample_rate = float(sample_rate)
        self.max_spans = int(max_spans)
        self._records: "list[SpanRecord]" = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._started = 0
        self.dropped = 0

    def _stack(self) -> "list[str]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attrs):
        """A context manager timing one region; records on clean *and*
        exceptional exit. Sampled-out calls return :data:`NULL_SPAN`."""
        if self.sample_rate <= 0.0:
            return NULL_SPAN
        if self.sample_rate < 1.0:
            with self._lock:
                self._started += 1
                keep = int(self._started * self.sample_rate) != int(
                    (self._started - 1) * self.sample_rate
                )
            if not keep:
                return NULL_SPAN
        return _Span(self, name, attrs)

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)
            if len(self._records) > self.max_spans:
                trim = len(self._records) // 2
                self.dropped += trim
                del self._records[:trim]

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def records(self) -> "list[SpanRecord]":
        """Finished spans, oldest first (a copy; safe to hold)."""
        with self._lock:
            return list(self._records)

    def drain(self) -> "list[SpanRecord]":
        """Remove and return every finished span."""
        with self._lock:
            records, self._records = self._records, []
            return records

    def count(self, name: "str | None" = None) -> int:
        """Number of retained spans (optionally only those named ``name``)."""
        with self._lock:
            if name is None:
                return len(self._records)
            return sum(1 for record in self._records if record.name == name)

    def total_seconds(self, name: str) -> float:
        """Summed duration of every retained span named ``name``."""
        with self._lock:
            return float(
                sum(r.duration for r in self._records if r.name == name)
            )
