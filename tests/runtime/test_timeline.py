"""Tests for the execution-timeline scheduler."""

import pytest

from repro.runtime.timeline import Span, Timeline


class TestSpan:
    def test_end(self):
        assert Span("cpu", "op", start=1.0, duration=2.0).end == 3.0

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="duration"):
            Span("cpu", "op", start=0.0, duration=-1.0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError, match="start"):
            Span("cpu", "op", start=-1.0, duration=1.0)


class TestScheduling:
    def test_same_resource_serializes(self):
        timeline = Timeline()
        first = timeline.schedule("cpu", "a", 2.0)
        second = timeline.schedule("cpu", "b", 1.0)
        assert first.start == 0.0
        assert second.start == 2.0

    def test_different_resources_overlap(self):
        timeline = Timeline()
        timeline.schedule("cpu", "a", 2.0)
        gpu_span = timeline.schedule("gpu", "b", 1.0)
        assert gpu_span.start == 0.0
        assert timeline.makespan() == 2.0

    def test_dependency_delays_start(self):
        timeline = Timeline()
        dep = timeline.schedule("cpu", "a", 2.0)
        span = timeline.schedule("gpu", "b", 1.0, after=dep)
        assert span.start == 2.0

    def test_multiple_dependencies_take_max(self):
        timeline = Timeline()
        short = timeline.schedule("cpu", "a", 1.0)
        long = timeline.schedule("gpu", "b", 3.0)
        span = timeline.schedule("pcie", "c", 1.0, after=[short, long])
        assert span.start == 3.0

    def test_zero_duration_allowed(self):
        timeline = Timeline()
        span = timeline.schedule("cpu", "noop", 0.0)
        assert span.end == span.start

    def test_figure9_overlap_pattern(self):
        """The casting-hidden-under-gather overlap of Figure 9(b): casting
        on the GPU must not extend the makespan when shorter than gather."""
        timeline = Timeline()
        gather = timeline.schedule("cpu", "gather", 10.0)
        cast = timeline.schedule("gpu", "casting", 4.0)
        timeline.schedule("cpu", "tcast", 3.0, after=[gather, cast])
        assert cast.end < gather.end
        assert timeline.makespan() == 13.0


class TestViews:
    def make(self):
        timeline = Timeline()
        timeline.schedule("cpu", "a", 2.0, bytes_moved=10)
        timeline.schedule("cpu", "a", 1.0, bytes_moved=5)
        timeline.schedule("gpu", "b", 4.0)
        return timeline

    def test_makespan(self):
        assert self.make().makespan() == 4.0

    def test_empty_makespan(self):
        assert Timeline().makespan() == 0.0

    def test_busy_time(self):
        timeline = self.make()
        assert timeline.busy_time("cpu") == 3.0
        assert timeline.busy_time("gpu") == 4.0

    def test_utilization(self):
        timeline = self.make()
        assert timeline.utilization("cpu") == pytest.approx(0.75)
        assert Timeline().utilization("cpu") == 0.0

    def test_breakdown_accumulates_ops(self):
        assert self.make().breakdown() == {"a": 3.0, "b": 4.0}

    def test_bytes_moved(self):
        assert self.make().bytes_moved("cpu") == 15

    def test_resources_first_use_order(self):
        assert self.make().resources() == ["cpu", "gpu"]


class TestValidation:
    def test_valid_schedule_passes(self):
        timeline = Timeline()
        timeline.schedule("cpu", "a", 1.0)
        timeline.schedule("cpu", "b", 1.0)
        timeline.validate()

    def test_hand_built_overlap_detected(self):
        timeline = Timeline()
        timeline.spans.append(Span("cpu", "a", start=0.0, duration=2.0))
        timeline.spans.append(Span("cpu", "b", start=1.0, duration=2.0))
        with pytest.raises(AssertionError, match="overlapping"):
            timeline.validate()

    def test_touching_spans_are_legal(self):
        timeline = Timeline()
        timeline.spans.append(Span("cpu", "a", start=0.0, duration=1.0))
        timeline.spans.append(Span("cpu", "b", start=1.0, duration=1.0))
        timeline.validate()
