"""Telemetry layer: metrics, stage tracing, and the privacy-spend ledger.

The repo's sixth subsystem (after serving, the batch engine, the compute
kernels, streaming, and the fused numeric core): a live window into a
running service, where before the only observability was post-hoc
benchmark JSON. Three coordinated pieces behind one handle:

* :class:`~repro.telemetry.metrics.MetricsRegistry` — lock-safe
  counters/gauges/fixed-bucket histograms (p50/p95/p99), snapshotted to
  and rebuilt from JSON, exported as Prometheus text or JSON
  (:mod:`repro.telemetry.metrics`);
* :class:`~repro.telemetry.tracing.Tracer` — lightweight nested span
  contexts with monotonic timings; batched pipelines trace one span per
  chunk (:mod:`repro.telemetry.tracing`,
  :func:`~repro.telemetry.runtime.traced_map`);
* :class:`~repro.telemetry.ledger.PrivacyLedger` — the append-only
  journal of every epsilon charge, refusal, and sliding-window expiry,
  ``(epoch, version)``-stamped and reconcilable against the live
  accountants via :meth:`~repro.telemetry.ledger.PrivacyLedger.
  assert_consistent` (:mod:`repro.telemetry.ledger`).

Everything is opt-in: services take ``telemetry=None`` by default and the
ambient helpers in :mod:`repro.telemetry.runtime` reduce to a
thread-local read + ``None`` check, so the disabled hot path allocates
nothing (asserted by ``benchmarks/bench_telemetry.py``). Enable with::

    from repro.telemetry import Telemetry

    telemetry = Telemetry.create()
    service = RecommendationService(graph, telemetry=telemetry, seed=0)
    service.recommend_batch(range(64))
    print(telemetry.registry.render())
    telemetry.ledger.assert_consistent(budgets=service.budgets)

or from the CLI: ``repro-social serve-sim --telemetry`` /
``repro-social metrics dump <file>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ledger import (
    KIND_CHARGE,
    KIND_EDGE_REJECT,
    KIND_REFUSAL,
    KIND_WINDOW_CHARGE,
    KIND_WINDOW_EXPIRY,
    LedgerEntry,
    PrivacyLedger,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .runtime import activate, count, current, observe, set_gauge, span, traced_map
from .tracing import NULL_SPAN, SpanRecord, Tracer

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "Histogram",
    "KIND_CHARGE",
    "KIND_EDGE_REJECT",
    "KIND_REFUSAL",
    "KIND_WINDOW_CHARGE",
    "KIND_WINDOW_EXPIRY",
    "LedgerEntry",
    "MetricsRegistry",
    "NULL_SPAN",
    "PrivacyLedger",
    "SpanRecord",
    "Telemetry",
    "Tracer",
    "activate",
    "count",
    "current",
    "observe",
    "set_gauge",
    "span",
    "traced_map",
]


@dataclass
class Telemetry:
    """One handle bundling the registry, tracer, and ledger.

    Services hold at most one of these; every chunk, budget charge and
    refusal records into it on the thread that runs the request.
    """

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)
    ledger: PrivacyLedger = field(default_factory=PrivacyLedger)

    @classmethod
    def create(cls, sample_rate: float = 1.0, max_spans: int = 100_000) -> "Telemetry":
        """A fresh bundle; ``sample_rate`` tunes span tracing (0 disables)."""
        return cls(
            registry=MetricsRegistry(),
            tracer=Tracer(sample_rate=sample_rate, max_spans=max_spans),
            ledger=PrivacyLedger(),
        )

    def span(self, name: str, **attrs):
        """Shorthand for ``self.tracer.span`` (reads as ``telemetry.span(...)``)."""
        return self.tracer.span(name, **attrs)

    def dump(self) -> dict:
        """JSON-able full state: the ``--telemetry-out`` file format."""
        return {
            "metrics": self.registry.snapshot(),
            "spans": [
                {
                    "name": r.name, "start": r.start, "duration": r.duration,
                    "depth": r.depth, "parent": r.parent, "attrs": r.attrs,
                }
                for r in self.tracer.records()
            ],
            "ledger": self.ledger.as_dicts(),
        }
