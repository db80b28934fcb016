"""Exporter tests: Chrome trace payloads, validation, JSONL, manifests.

``fixtures/minimal_chrome_trace.json`` pins the exporter's on-disk schema
byte-for-byte: the test regenerates the same tiny trace and compares the
serialized payload to the checked-in file.  If the exporter's output format
changes intentionally, regenerate the fixture with
``python -m tests.obs.regen_fixture`` (see the module docstring there).
"""

import json
from pathlib import Path

import pytest

from repro.obs import (
    Observability,
    Tracer,
    chrome_trace_payload,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_manifest,
)
from repro.obs.clock import VirtualClock

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_records():
    """The pinned trace: two tracks, one nested pair, one annotated span."""
    tracer = Tracer(clock=VirtualClock())
    tracer.record_span("step", track="main", start_s=0.0, end_s=0.004,
                       args={"step": 0})
    tracer.record_span("forward", track="main", start_s=0.0, end_s=0.003)
    tracer.record_span("cast", track="cast", start_s=0.001, end_s=0.002)
    return tracer.records


class TestChromeTracePayload:
    def test_pinned_track_thread_ids(self):
        payload = chrome_trace_payload(fixture_records())
        names = {e["args"]["name"]: e["tid"]
                 for e in payload["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == {"main": 0, "cast": 1}

    def test_extra_tracks_sorted_after_pinned(self):
        tracer = Tracer(clock=VirtualClock())
        for track in ("shard1", "shard0", "main"):
            tracer.record_span("x", track=track, start_s=0.0, end_s=1.0)
        payload = chrome_trace_payload(tracer.records)
        names = {e["args"]["name"]: e["tid"]
                 for e in payload["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == {"main": 0, "shard0": 1, "shard1": 2}

    def test_events_in_microseconds_parents_first(self):
        payload = chrome_trace_payload(fixture_records())
        xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["step", "forward", "cast"]
        step = xs[0]
        assert step["ts"] == 0.0
        assert step["dur"] == pytest.approx(4000.0)
        assert step["args"] == {"step": 0}

    def test_metadata_lands_in_other_data(self):
        payload = chrome_trace_payload(fixture_records(),
                                       metadata={"seed": 7})
        assert payload["otherData"] == {"seed": 7}

    def test_payload_matches_checked_in_fixture(self):
        payload = chrome_trace_payload(fixture_records(),
                                       metadata={"experiment": "fixture"})
        rendered = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        pinned = (FIXTURES / "minimal_chrome_trace.json").read_text()
        assert rendered == pinned

    def test_serialization_is_deterministic(self, tmp_path):
        first = write_chrome_trace(tmp_path / "a.json", fixture_records())
        second = write_chrome_trace(tmp_path / "b.json", fixture_records())
        assert first.read_bytes() == second.read_bytes()


class TestValidateChromeTrace:
    def test_fixture_passes_and_counts_spans(self):
        payload = json.loads(
            (FIXTURES / "minimal_chrome_trace.json").read_text())
        assert validate_chrome_trace(payload) == 3

    def test_missing_events_list(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})

    def test_unsupported_phase(self):
        with pytest.raises(ValueError, match="unsupported phase"):
            validate_chrome_trace({"traceEvents": [
                {"name": "b", "ph": "B", "pid": 0, "tid": 0, "ts": 0}]})

    def test_unannounced_track(self):
        with pytest.raises(ValueError, match="no thread_name metadata"):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 0, "tid": 5,
                 "ts": 0.0, "dur": 1.0}]})

    def test_negative_duration(self):
        with pytest.raises(ValueError, match="negative"):
            validate_chrome_trace({"traceEvents": [
                {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
                 "args": {"name": "main"}},
                {"name": "x", "ph": "X", "pid": 0, "tid": 0,
                 "ts": 0.0, "dur": -1.0}]})


class TestWriters:
    def test_write_jsonl_one_object_per_line(self, tmp_path):
        path = write_jsonl(tmp_path / "steps.jsonl",
                           [{"step": 0, "loss": 0.5}, {"step": 1}])
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"step": 0, "loss": 0.5}, {"step": 1}]

    def test_manifest_pins_are_byte_stable(self, tmp_path):
        manifest = {"git_sha": "deadbeef", "written_at": "2026-01-01T00:00:00Z",
                    "experiment": "fixture"}
        a = write_manifest(tmp_path / "a.json", manifest)
        b = write_manifest(tmp_path / "b.json", manifest)
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["git_sha"] == "deadbeef"
        assert payload["experiment"] == "fixture"

    def test_manifest_stamps_git_sha_by_default(self, tmp_path):
        path = write_manifest(tmp_path / "m.json", {"experiment": "x"})
        payload = json.loads(path.read_text())
        assert set(payload) == {"experiment", "git_sha", "written_at"}


class TestObservabilitySession:
    def test_export_writes_trace_steps_and_manifest(self, tmp_path):
        obs = Observability(clock=VirtualClock())
        with obs.tracer.span("step"):
            obs.tracer.clock.charge(0.001)
        obs.record_step(step=0, loss=0.5)
        obs.annotate(experiment="unit")
        obs.metrics.counter("n").inc()
        written = obs.export(tmp_path / "run.trace.json",
                             metrics_path=tmp_path / "metrics.json")
        assert sorted(p.name for p in written) == [
            "metrics.json", "run.trace.json", "run.trace.manifest.json",
            "run.trace.steps.jsonl"]
        trace = json.loads((tmp_path / "run.trace.json").read_text())
        assert validate_chrome_trace(trace) == 1
        manifest = json.loads(
            (tmp_path / "run.trace.manifest.json").read_text())
        assert manifest["experiment"] == "unit"
        steps = (tmp_path / "run.trace.steps.jsonl").read_text().splitlines()
        assert json.loads(steps[0]) == {"step": 0, "loss": 0.5}
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["n"]["value"] == 1.0
