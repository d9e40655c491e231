"""Tests for span tracing: nesting, sampling, collection, bounds."""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.errors import TelemetryError
from repro.telemetry import NULL_SPAN, SpanRecord, Telemetry, Tracer
from repro.telemetry.tracing import _NullSpan


class TestSpans:
    def test_span_records_name_and_positive_duration(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        (record,) = tracer.records()
        assert record.name == "work"
        assert record.duration >= 0.0
        assert record.depth == 0
        assert record.parent is None

    def test_nesting_tracks_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.records()  # inner finishes first
        assert (inner.name, inner.depth, inner.parent) == ("inner", 1, "outer")
        assert (outer.name, outer.depth, outer.parent) == ("outer", 0, None)

    def test_attrs_at_creation_and_annotate(self):
        tracer = Tracer()
        with tracer.span("chunk", targets=64) as span:
            span.annotate(cache_hits=10)
        (record,) = tracer.records()
        assert record.attrs == {"targets": 64, "cache_hits": 10}

    def test_span_records_on_exceptional_exit(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.count("doomed") == 1

    def test_records_are_picklable(self):
        tracer = Tracer()
        with tracer.span("work", n=3):
            pass
        restored = pickle.loads(pickle.dumps(tracer.records()))
        assert restored[0].name == "work"
        assert restored[0].attrs == {"n": 3}


class TestSampling:
    def test_rate_zero_returns_the_shared_null_span(self):
        tracer = Tracer(sample_rate=0.0)
        first = tracer.span("hot")
        second = tracer.span("hot")
        assert first is NULL_SPAN and second is NULL_SPAN
        with first:
            pass
        assert tracer.count() == 0

    def test_null_span_has_no_per_instance_state(self):
        assert _NullSpan.__slots__ == ()
        NULL_SPAN.annotate(ignored=True)  # no-op, no error

    def test_fractional_rate_keeps_a_deterministic_subset(self):
        def run():
            tracer = Tracer(sample_rate=0.25)
            for _ in range(100):
                with tracer.span("s"):
                    pass
            return tracer.count("s")

        counts = {run() for _ in range(3)}
        assert counts == {25}

    def test_rate_validated(self):
        with pytest.raises(TelemetryError):
            Tracer(sample_rate=1.5)
        with pytest.raises(TelemetryError):
            Tracer(sample_rate=-0.1)


class TestCollection:
    def test_drain_empties_the_tracer(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        drained = tracer.drain()
        assert [r.name for r in drained] == ["a"]
        assert tracer.records() == []

    def test_dump_span_rows_mirror_the_record_fields(self):
        """``Telemetry.dump`` (the ``--telemetry-out`` format) writes one
        JSON row per span with exactly the :class:`SpanRecord` fields."""
        telemetry = Telemetry.create()
        with telemetry.span("outer", targets=3):
            with telemetry.span("inner"):
                pass
        rows = json.loads(json.dumps(telemetry.dump()))["spans"]
        assert [row["name"] for row in rows] == ["inner", "outer"]
        record_fields = {f.name for f in dataclasses.fields(SpanRecord)}
        assert all(set(row) == record_fields for row in rows)
        assert rows[0]["parent"] == "outer" and rows[1]["attrs"] == {"targets": 3}

    def test_total_seconds_sums_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("a"):
                pass
        with tracer.span("b"):
            pass
        assert tracer.total_seconds("a") >= 0.0
        assert tracer.count("a") == 3
        assert tracer.count("b") == 1
        assert tracer.count() == 4


class TestBounds:
    def test_max_spans_trims_oldest_half(self):
        tracer = Tracer(max_spans=10)
        for index in range(11):
            with tracer.span(f"s{index}"):
                pass
        assert tracer.count() <= 10
        assert tracer.dropped > 0
        # Newest span always survives the trim.
        assert tracer.records()[-1].name == "s10"

    def test_max_spans_validated(self):
        with pytest.raises(TelemetryError):
            Tracer(max_spans=1)
