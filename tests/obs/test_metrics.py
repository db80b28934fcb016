"""MetricRegistry unit tests: instruments, labels, and the JSON snapshot."""

import json
import threading

import pytest

from repro.obs import MetricRegistry, format_series


class TestSeriesIdentity:
    def test_format_series_sorts_labels(self):
        assert format_series("x", ()) == "x"
        assert (format_series("x", (("a", "1"), ("b", "2")))
                == "x{a=1,b=2}")

    def test_same_name_and_labels_returns_same_instrument(self):
        registry = MetricRegistry()
        first = registry.counter("cache.hits", policy="lfu", table=0)
        second = registry.counter("cache.hits", table=0, policy="lfu")
        assert first is second

    def test_distinct_labels_are_distinct_series(self):
        registry = MetricRegistry()
        a = registry.counter("cache.hits", policy="lru")
        b = registry.counter("cache.hits", policy="lfu")
        assert a is not b
        assert a.series == "cache.hits{policy=lru}"

    def test_kind_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")


class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricRegistry().counter("n")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        counter = MetricRegistry().counter("n")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)


def test_counter_thread_safe_under_contention():
    counter = MetricRegistry().counter("n")

    def spin():
        for _ in range(1000):
            counter.inc()

    threads = [threading.Thread(target=spin) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value == 4000


class TestGauge:
    def test_at_defaults_to_sample_index(self):
        gauge = MetricRegistry().gauge("loss")
        gauge.set(0.5)
        gauge.set(0.25)
        assert gauge.samples == [(0.0, 0.5), (1.0, 0.25)]

    def test_explicit_at_and_latest_value(self):
        gauge = MetricRegistry().gauge("loss")
        assert gauge.value is None
        gauge.set(0.5, at=3)
        assert gauge.samples == [(3.0, 0.5)]
        assert gauge.value == 0.5


class TestRegistryExport:
    def test_count_kernel_duck_protocol(self):
        registry = MetricRegistry()
        registry.count_kernel("gather_reduce")
        registry.count_kernel("gather_reduce")
        series = registry.counter("kernel.calls", op="gather_reduce")
        assert series.value == 2

    def test_series_sorted_by_canonical_name(self):
        registry = MetricRegistry()
        registry.counter("z")
        registry.counter("a", k="1")
        assert [m.series for m in registry.series()] == ["a{k=1}", "z"]

    def test_write_json_roundtrip(self, tmp_path):
        registry = MetricRegistry()
        registry.counter("n").inc(3)
        registry.gauge("loss").set(0.5, at=1)
        path = registry.write_json(tmp_path / "metrics.json")
        payload = json.loads(path.read_text())
        assert payload["n"] == {"kind": "counter", "value": 3.0}
        assert payload["loss"]["samples"] == [[1.0, 0.5]]

    def test_to_dict_is_deterministic(self):
        registry = MetricRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        assert list(registry.to_dict()) == ["a", "b"]
