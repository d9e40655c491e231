"""Lock-safe, mergeable metrics: counters, gauges, histograms.

The repo's only runtime window used to be after-the-fact benchmark JSON;
this module is the live side: a :class:`MetricsRegistry` that every layer
(serving, streaming, compute, mechanisms) writes into while it runs, and
that monitoring surfaces (``repro-social metrics``, ``--telemetry`` on
the simulators, ``bench_telemetry.py``) read back out.

Three metric kinds, chosen for mergeability:

* :class:`Counter` — monotone float/int accumulator (requests served,
  samples drawn). Merging sums.
* :class:`Gauge` — last-written value (cache residency, edge queue
  depth). Merging takes the **max**: the interesting question across
  registries is "how big did it get anywhere", and max is the only
  order-free choice that answers it.
* :class:`Histogram` — fixed-bucket distribution with count/sum/min/max,
  quantile estimates (p50/p95/p99) by linear interpolation inside the
  owning bucket. Fixed buckets are what make histograms mergeable by
  plain vector addition — no quantile sketch reconciliation.

Everything mutates under one registry lock (metric handles share it), so
a registry can be written from several threads (the HTTP edge's event
loop and its compute thread) without losing increments.
:meth:`MetricsRegistry.snapshot` produces a plain-dict, JSON-able form —
what ``--telemetry-out`` writes — and :meth:`MetricsRegistry.merge`
folds such a snapshot into a registry (``repro-social metrics`` rebuilds
one with :meth:`MetricsRegistry.from_snapshot`). Exporters: :meth:`MetricsRegistry.
to_json` and :meth:`MetricsRegistry.to_prometheus` (text exposition
format), plus :meth:`MetricsRegistry.render` for human CLI output.
"""

from __future__ import annotations

import bisect
import json
import math
import threading

from ..errors import TelemetryError

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram buckets for second-valued latencies: log-ish spacing
#: from 10 microseconds to 10 seconds. Everything slower lands in the
#: implicit +inf bucket.
DEFAULT_LATENCY_BUCKETS = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for count-valued observations (dirty-ball sizes, batch
#: sizes): powers of two up to 64k.
DEFAULT_SIZE_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
    1024.0, 4096.0, 16384.0, 65536.0,
)


class Counter:
    """Monotone accumulator. Merging sums values."""

    kind = "counter"
    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self._value = 0.0

    def inc(self, value: float = 1) -> None:
        if value < 0:
            raise TelemetryError(f"counter {self.name!r} cannot decrease ({value})")
        with self._lock:
            self._value += value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _state(self) -> dict:
        return {"kind": self.kind, "value": self._value}

    def _merge_locked(self, state: dict) -> None:
        self._value += float(state["value"])


class Gauge:
    """Last-written value. Merging takes the max."""

    kind = "gauge"
    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _state(self) -> dict:
        return {"kind": self.kind, "value": self._value}

    def _merge_locked(self, state: dict) -> None:
        self._value = max(self._value, float(state["value"]))


class Histogram:
    """Fixed-bucket distribution with interpolated quantile estimates.

    ``bounds`` are ascending finite upper bucket edges; an observation
    lands in the first bucket whose bound is >= the value, or in the
    implicit +inf bucket past the last bound. ``count``/``total``/
    ``min``/``max`` are exact; quantiles are estimated by linear
    interpolation between the owning bucket's edges (clamped to the
    observed min/max, so a single-sample histogram reports that sample).
    """

    kind = "histogram"
    __slots__ = ("name", "_lock", "bounds", "_counts", "_count", "_total", "_min", "_max")

    def __init__(
        self, name: str, lock: threading.Lock, bounds: "tuple[float, ...] | None" = None
    ) -> None:
        if bounds is None:
            bounds = DEFAULT_LATENCY_BUCKETS
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name!r} bounds must be non-empty and ascending"
            )
        if not all(math.isfinite(b) for b in bounds):
            raise TelemetryError(f"histogram {name!r} bounds must be finite")
        self.name = name
        self._lock = lock
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +inf bucket
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values) -> None:
        """Observe a batch under one lock acquisition.

        Semantically identical to observing each value in order; the
        serving layer buffers per-request latencies and flushes them here
        once per batch, halving the per-observation cost.
        """
        bounds = self.bounds
        bisect_left = bisect.bisect_left
        with self._lock:
            counts = self._counts
            for value in values:
                value = float(value)
                counts[bisect_left(bounds, value)] += 1
                self._total += value
                if value < self._min:
                    self._min = value
                if value > self._max:
                    self._max = value
            self._count += len(values)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    @property
    def mean(self) -> float:
        with self._lock:
            return self._total / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in [0, 100])."""
        if not 0 <= q <= 100:
            raise TelemetryError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = (q / 100.0) * self._count
            seen = 0
            for index, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                if seen + bucket_count >= rank:
                    low = self.bounds[index - 1] if index > 0 else min(self._min, self.bounds[0])
                    high = self.bounds[index] if index < len(self.bounds) else self._max
                    low = max(low, self._min)
                    high = min(high, self._max)
                    if high <= low:
                        return float(high if high > -math.inf else low)
                    fraction = (rank - seen) / bucket_count
                    return float(low + fraction * (high - low))
                seen += bucket_count
            return float(self._max)

    def _state(self) -> dict:
        return {
            "kind": self.kind,
            "bounds": list(self.bounds),
            "counts": list(self._counts),
            "count": self._count,
            "total": self._total,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
        }

    def _merge_locked(self, state: dict) -> None:
        if tuple(float(b) for b in state["bounds"]) != self.bounds:
            raise TelemetryError(
                f"histogram {self.name!r} bucket bounds differ; cannot merge"
            )
        for index, bucket_count in enumerate(state["counts"]):
            self._counts[index] += int(bucket_count)
        self._count += int(state["count"])
        self._total += float(state["total"])
        if state["min"] is not None:
            self._min = min(self._min, float(state["min"]))
        if state["max"] is not None:
            self._max = max(self._max, float(state["max"]))


class MetricsRegistry:
    """Named metrics behind one lock; the unit of merge and export.

    ``counter``/``gauge``/``histogram`` are get-or-create (a name keeps
    its first kind forever; re-requesting it with another kind raises) so
    instrumentation sites never need a registration phase.
    """

    def __init__(self) -> None:
        # Reentrant: render()/merge() hold the lock while touching metric
        # handles that re-acquire it for their own reads and updates.
        self._lock = threading.RLock()
        self._metrics: "dict[str, Counter | Gauge | Histogram]" = {}

    def _get_or_create(self, name: str, kind: type, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, self._lock, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TelemetryError(
                    f"metric {name!r} is a {metric.kind}, not a {kind.kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, buckets: "tuple[float, ...] | None" = None
    ) -> Histogram:
        return self._get_or_create(name, Histogram, bounds=buckets)

    def names(self) -> "list[str]":
        with self._lock:
            return sorted(self._metrics)

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def get(self, name: str):
        """The metric registered under ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    # ------------------------------------------------------------------
    # Merge / snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict (picklable, JSON-able) state of every metric."""
        with self._lock:
            return {name: metric._state() for name, metric in sorted(self._metrics.items())}

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` into this registry: counters add,
        gauges take the max, histograms add their bucket vectors. Unknown
        names are created with the snapshot's kind."""
        kinds = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
        for name, state in snapshot.items():
            kind = kinds.get(state.get("kind"))
            if kind is None:
                raise TelemetryError(f"cannot merge metric {name!r}: {state!r}")
            if kind is Histogram:
                metric = self.histogram(name, buckets=tuple(state["bounds"]))
            else:
                metric = self._get_or_create(name, kind)
            with self._lock:
                metric._merge_locked(state)

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` (the CLI's dump/watch
        path: a simulator writes the snapshot as JSON, the ``metrics``
        subcommand reloads and renders it)."""
        registry = cls()
        registry.merge(snapshot)
        return registry

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_json(self, indent: "int | None" = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (names sanitized to [a-z0-9_])."""
        lines: list[str] = []
        for name, state in self.snapshot().items():
            flat = _prometheus_name(name)
            kind = state["kind"]
            if kind == "counter":
                lines.append(f"# TYPE {flat} counter")
                lines.append(f"{flat}_total {_fmt(state['value'])}")
            elif kind == "gauge":
                lines.append(f"# TYPE {flat} gauge")
                lines.append(f"{flat} {_fmt(state['value'])}")
            else:
                lines.append(f"# TYPE {flat} histogram")
                cumulative = 0
                for bound, count in zip(state["bounds"], state["counts"]):
                    cumulative += count
                    lines.append(f'{flat}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
                lines.append(f'{flat}_bucket{{le="+Inf"}} {state["count"]}')
                lines.append(f"{flat}_sum {_fmt(state['total'])}")
                lines.append(f"{flat}_count {state['count']}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self) -> str:
        """Human-readable table for CLI output (p50/p95/p99 for histograms)."""
        lines: list[str] = []
        with self._lock:
            metrics = dict(sorted(self._metrics.items()))
        for name, metric in metrics.items():
            if isinstance(metric, Counter):
                lines.append(f"  {name:<44} {_fmt(metric.value)}")
            elif isinstance(metric, Gauge):
                lines.append(f"  {name:<44} {_fmt(metric.value)}")
            else:
                lines.append(
                    f"  {name:<44} count={metric.count} mean={metric.mean:.6g} "
                    f"p50={metric.percentile(50):.6g} p95={metric.percentile(95):.6g} "
                    f"p99={metric.percentile(99):.6g}"
                )
        return "\n".join(lines)


def _prometheus_name(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name.lower())


def _fmt(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
