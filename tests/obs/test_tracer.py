"""Tracer unit tests: spans, sinks, totals, and nesting validation."""

import pytest

from repro.obs import Tracer, span_totals, validate_span_nesting
from repro.obs.clock import VirtualClock


def make_tracer():
    return Tracer(clock=VirtualClock())


class TestSpan:
    def test_span_reads_clock_on_enter_and_exit(self):
        tracer = make_tracer()
        clock = tracer.clock
        clock.charge(1.0)
        with tracer.span("work"):
            clock.charge(2.5)
        (record,) = tracer.records
        assert record.name == "work"
        assert record.track == "main"
        assert record.start_s == 1.0
        assert record.end_s == 3.5
        assert record.duration_s == 2.5

    def test_span_records_on_exception_path(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                tracer.clock.charge(1.0)
                raise RuntimeError("boom")
        (record,) = tracer.records
        assert record.name == "doomed"
        assert record.duration_s == 1.0

    def test_span_set_attaches_args(self):
        tracer = make_tracer()
        with tracer.span("step", args={"step": 1}) as span:
            span.set(loss=0.5)
        (record,) = tracer.records
        assert record.args == {"step": 1, "loss": 0.5}

    def test_nested_spans_nest_on_the_track(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            tracer.clock.charge(1.0)
            with tracer.span("inner"):
                tracer.clock.charge(1.0)
            tracer.clock.charge(1.0)
        assert validate_span_nesting(tracer.records) == []
        by_name = {r.name: r for r in tracer.records}
        assert by_name["outer"].start_s <= by_name["inner"].start_s
        assert by_name["inner"].end_s <= by_name["outer"].end_s


class TestRecordSpan:
    def test_explicit_timestamps(self):
        tracer = make_tracer()
        record = tracer.record_span("req", track="req0",
                                    start_s=0.25, end_s=0.75)
        assert record.duration_s == 0.5
        assert tracer.records == [record]

    def test_rejects_negative_duration(self):
        tracer = make_tracer()
        with pytest.raises(ValueError, match="ends"):
            tracer.record_span("bad", track="main", start_s=2.0, end_s=1.0)

    def test_sink_buffers_until_absorbed(self):
        tracer = make_tracer()
        buffer = []
        tracer.record_span("cast", track="cast", start_s=0.0, end_s=1.0,
                           sink=buffer)
        assert tracer.records == []
        tracer.absorb(buffer)
        assert [r.name for r in tracer.records] == ["cast"]


class TestAnalysis:
    def test_span_totals_sums_per_name(self):
        tracer = make_tracer()
        tracer.record_span("fwd", track="main", start_s=0.0, end_s=1.0)
        tracer.record_span("fwd", track="main", start_s=2.0, end_s=2.5)
        tracer.record_span("fwd", track="shard0", start_s=0.0, end_s=4.0)
        totals = span_totals(tracer.records)
        assert totals == {"fwd": 5.5}
        assert span_totals(tracer.records, track="main") == {"fwd": 1.5}

    def test_validate_span_nesting_flags_overlap(self):
        tracer = make_tracer()
        tracer.record_span("a", track="main", start_s=0.0, end_s=2.0)
        tracer.record_span("b", track="main", start_s=1.0, end_s=3.0)
        violations = validate_span_nesting(tracer.records)
        assert len(violations) == 1
        assert "overlaps" in violations[0]

    def test_overlap_across_tracks_is_fine(self):
        tracer = make_tracer()
        tracer.record_span("a", track="main", start_s=0.0, end_s=2.0)
        tracer.record_span("b", track="cast", start_s=1.0, end_s=3.0)
        assert validate_span_nesting(tracer.records) == []

    def test_shared_endpoints_are_well_nested(self):
        tracer = make_tracer()
        tracer.record_span("outer", track="main", start_s=0.0, end_s=2.0)
        tracer.record_span("inner", track="main", start_s=0.0, end_s=2.0)
        assert validate_span_nesting(tracer.records) == []
