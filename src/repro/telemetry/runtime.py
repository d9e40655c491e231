"""Ambient telemetry: activation, cheap helpers, and traced chunk maps.

Instrumentation points deep in the numeric core (mechanism sampling
loops, chunked kernels) cannot take a telemetry handle as a parameter
without threading it through every kernel signature. Instead they call
the module-level helpers here — :func:`count`, :func:`observe`,
:func:`span` — which write to whatever :class:`~repro.telemetry.
Telemetry` the *calling thread* has activated, and cost one thread-local
read plus a ``None`` check when nothing is active. That is the whole
disabled-mode contract: no allocation, no lock, no metric objects —
``bench_telemetry.py`` asserts it.

:func:`traced_map` runs a batched pipeline's chunks inline on the
calling thread, timing each one into the given telemetry. The chunks run
under whatever telemetry the caller has activated, so the ambient
helpers inside them record straight into the caller's registry.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from .tracing import NULL_SPAN

__all__ = ["activate", "count", "current", "observe", "set_gauge", "span", "traced_map"]

_LOCAL = threading.local()


def current():
    """The calling thread's active :class:`~repro.telemetry.Telemetry`, or ``None``."""
    return getattr(_LOCAL, "telemetry", None)


@contextmanager
def activate(telemetry):
    """Make ``telemetry`` the calling thread's ambient sink for the block.

    ``None`` deactivates for the block (the helpers become no-ops).
    Nesting restores the previous sink on exit, so a service can activate
    per request while a replay harness holds a longer activation.
    """
    previous = getattr(_LOCAL, "telemetry", None)
    _LOCAL.telemetry = telemetry
    try:
        yield telemetry
    finally:
        _LOCAL.telemetry = previous


def count(name: str, value: float = 1) -> None:
    """Increment a counter on the active telemetry (no-op when inactive)."""
    telemetry = getattr(_LOCAL, "telemetry", None)
    if telemetry is not None:
        telemetry.registry.counter(name).inc(value)


def observe(name: str, value: float, buckets=None) -> None:
    """Observe into a histogram on the active telemetry (no-op when inactive)."""
    telemetry = getattr(_LOCAL, "telemetry", None)
    if telemetry is not None:
        telemetry.registry.histogram(name, buckets=buckets).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the active telemetry (no-op when inactive)."""
    telemetry = getattr(_LOCAL, "telemetry", None)
    if telemetry is not None:
        telemetry.registry.gauge(name).set(value)


def span(name: str, **attrs):
    """A span on the active telemetry's tracer (the shared no-op when inactive)."""
    telemetry = getattr(_LOCAL, "telemetry", None)
    if telemetry is None:
        return NULL_SPAN
    return telemetry.tracer.span(name, **attrs)


def traced_map(fn, items, shared, telemetry, label: str) -> list:
    """``[fn(shared, item) for item in items]``, timed into ``telemetry``.

    With ``telemetry=None`` this is exactly the bare loop — the
    instrumented and bare paths share one call site so they cannot
    drift. Otherwise each chunk records one ``label`` span and one
    ``{label}.chunk_seconds`` observation, and the map as a whole one
    ``{label}.map_seconds`` observation and ``len(items)`` on the
    ``{label}.chunks`` counter.
    """
    if telemetry is None:
        return [fn(shared, item) for item in items]
    registry = telemetry.registry
    tracer = telemetry.tracer
    chunk_hist = registry.histogram(f"{label}.chunk_seconds")
    results = []
    started = time.perf_counter()
    for item in items:
        chunk_started = time.perf_counter()
        with tracer.span(label):
            results.append(fn(shared, item))
        chunk_hist.observe(time.perf_counter() - chunk_started)
    registry.histogram(f"{label}.map_seconds").observe(time.perf_counter() - started)
    registry.counter(f"{label}.chunks").inc(len(results))
    return results
