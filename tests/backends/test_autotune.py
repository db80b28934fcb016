"""Shape classification, decision caching, and the ``auto`` policy."""

import contextlib
import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.backends import (
    AutoBackend,
    Autotuner,
    KERNEL_NAMES,
    ShapeClass,
    get_backend,
)
from repro.backends.autotune import _bucket, _representative
from repro.core.indexing import IndexArray


@contextlib.contextmanager
def _racing_reader(read):
    """Call ``read`` in a loop on another thread; yields its ValueErrors."""
    done, errors = threading.Event(), []

    def loop():
        while not done.is_set():
            try:
                read()
            except ValueError as error:
                errors.append(error)
                return

    thread = threading.Thread(target=loop)
    thread.start()
    try:
        yield errors
    finally:
        done.set()
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestShapeClass:
    def test_log2_bucketing(self):
        assert [_bucket(v) for v in (0, 1, 2, 3, 4, 1023, 1024)] == [
            0, 1, 2, 2, 3, 10, 11,
        ]

    def test_representative_is_smallest_in_bucket(self):
        for value in (1, 2, 5, 64, 1000):
            bucket = _bucket(value)
            representative = _representative(bucket)
            assert _bucket(representative) == bucket
            assert representative <= value

    def test_classify_buckets_batch_pooling_dim(self):
        shape = ShapeClass.classify("gather_reduce", 1024, 16384, 64, np.float64)
        assert shape.batch_bucket == _bucket(1024)
        assert shape.pooling_bucket == _bucket(16)  # 16384 / 1024
        assert shape.dim_bucket == _bucket(64)
        assert shape.dtype == "float64"

    def test_nearby_shapes_share_a_class(self):
        a = ShapeClass.classify("gather_reduce", 1000, 16000, 60, np.float32)
        b = ShapeClass.classify("gather_reduce", 700, 11000, 40, np.float32)
        assert a == b

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            ShapeClass.classify("fft", 8, 8, 8, np.float64)
        assert set(KERNEL_NAMES) == {
            "gather_reduce", "casted_gather_reduce", "cast_indices",
            "expand_coalesce", "scatter_update",
        }

    def test_representative_shape_caps_total_lookups(self):
        shape = ShapeClass.classify("gather_reduce", 1 << 20, 1 << 24, 64,
                                    np.float64)
        batch, pooling, dim = shape.representative_shape(max_lookups=4096)
        assert batch * pooling <= 4096
        assert pooling == _representative(shape.pooling_bucket)
        assert dim == _representative(shape.dim_bucket)

    def test_cap_holds_when_pooling_alone_exceeds_it(self):
        """A single-output monster bag (pooling factor above the cap) must
        still yield a bounded probe."""
        shape = ShapeClass.classify("gather_reduce", 1, 1 << 20, 64,
                                    np.float64)
        batch, pooling, _ = shape.representative_shape(max_lookups=4096)
        assert batch * pooling <= 4096
        assert pooling == 4096


class _CountingBackend:
    """Minimal stand-in candidate with a controllable speed rank."""

    autotune_candidate = True

    def __init__(self, name, delegate=None):
        self.name = name
        self.calls = 0
        self._delegate = delegate or get_backend("vectorized")

    def __getattr__(self, attribute):
        return getattr(self._delegate, attribute)

    def gather_reduce(self, table, index, out=None, weights=None):
        self.calls += 1
        return self._delegate.gather_reduce(table, index, out=out, weights=weights)


class TestAutotuner:
    def test_validation(self):
        with pytest.raises(ValueError, match="repeats"):
            Autotuner(repeats=0)
        with pytest.raises(ValueError, match="max_probe_lookups"):
            Autotuner(max_probe_lookups=0)

    def test_default_candidates_exclude_oracles(self):
        names = [backend.name for backend in Autotuner().candidates()]
        assert "reference" not in names
        assert "auto" not in names
        assert "vectorized" in names

    def test_single_candidate_short_circuits_without_probing(self):
        probe = _CountingBackend("only")
        tuner = Autotuner(candidates=[probe])
        shape = ShapeClass.classify("gather_reduce", 64, 256, 8, np.float64)
        assert tuner.backend_for(shape) is probe
        assert probe.calls == 0  # never measured
        assert tuner.decisions() == {shape: "only"}
        assert tuner.timings() == {}

    def test_decisions_are_measured_once_and_cached(self):
        a = _CountingBackend("engine-a")
        b = _CountingBackend("engine-b")
        tuner = Autotuner(candidates=[a, b], repeats=2)
        shape = ShapeClass.classify("gather_reduce", 32, 128, 4, np.float64)
        first = tuner.backend_for(shape)
        calls_after_first = (a.calls, b.calls)
        # warmup + repeats timed runs, per candidate, exactly once
        assert calls_after_first == (3, 3)
        assert tuner.backend_for(shape) is first
        assert (a.calls, b.calls) == calls_after_first  # cache hit: no re-probe
        assert set(tuner.timings()[shape]) == {"engine-a", "engine-b"}

    def test_distinct_shape_classes_get_distinct_decisions(self):
        a = _CountingBackend("engine-a")
        b = _CountingBackend("engine-b")
        tuner = Autotuner(candidates=[a, b], repeats=1)
        small = ShapeClass.classify("gather_reduce", 8, 16, 4, np.float64)
        large = ShapeClass.classify("gather_reduce", 256, 4096, 32, np.float64)
        tuner.backend_for(small)
        tuner.backend_for(large)
        assert set(tuner.decisions()) == {small, large}


class TestAutoBackend:
    def test_registered_as_auto(self):
        assert isinstance(get_backend("auto"), AutoBackend)

    def test_delegates_to_tuned_winner(self, paper_index):
        winner = _CountingBackend("winner")
        auto = AutoBackend(tuner=Autotuner(candidates=[winner]))
        table = np.random.default_rng(0).standard_normal(
            (paper_index.num_rows, 4)
        )
        result = auto.gather_reduce(table, paper_index)
        assert winner.calls == 1
        expected = get_backend("vectorized").gather_reduce(table, paper_index)
        assert np.array_equal(result, expected)

    def test_every_kernel_routes_through_the_tuner(self, paper_index):
        auto = AutoBackend(tuner=Autotuner(
            candidates=[get_backend("vectorized")]
        ))
        rng = np.random.default_rng(1)
        table = rng.standard_normal((paper_index.num_rows, 4))
        gradients = rng.standard_normal((paper_index.num_outputs, 4))
        auto.gather_reduce(table, paper_index)
        cast = auto.cast_indices(paper_index)
        auto.casted_gather_reduce(gradients, cast)
        auto.expand_coalesce(paper_index, gradients)
        auto.scatter_update(table, cast.rows, np.zeros((cast.num_coalesced, 4)))
        kernels = {shape.kernel for shape in auto.tuner.decisions()}
        assert kernels == set(KERNEL_NAMES)

    def test_results_match_candidates_bitwise(self, paper_index):
        """Autotuning may move wall-clock only, never a bit of output."""
        auto = get_backend("auto")
        vectorized = get_backend("vectorized")
        rng = np.random.default_rng(2)
        table = rng.standard_normal((paper_index.num_rows, 8))
        assert np.array_equal(
            auto.gather_reduce(table, paper_index),
            vectorized.gather_reduce(table, paper_index),
        )


# ---------------------------------------------------------------------------
# Whole-step autotuning (ISSUE 10)
# ---------------------------------------------------------------------------
class TestStepShapeClass:
    def test_classify_buckets_and_exact_counts(self):
        from repro.backends.autotune import StepShapeClass

        shape = StepShapeClass.classify(1024, 64, 64, num_tables=4,
                                        num_shards=2)
        assert shape.batch_bucket == _bucket(1024)
        assert shape.pooling_bucket == _bucket(16)  # 64 lookups / 4 tables
        assert shape.dim_bucket == _bucket(64)
        assert shape.num_tables == 4
        assert shape.num_shards == 2

    def test_nearby_shapes_share_a_class(self):
        from repro.backends.autotune import StepShapeClass

        a = StepShapeClass.classify(1000, 60, 60, num_tables=4)
        b = StepShapeClass.classify(700, 44, 40, num_tables=4)
        assert a == b

    def test_table_and_shard_counts_split_classes(self):
        from repro.backends.autotune import StepShapeClass

        base = StepShapeClass.classify(256, 32, 32, num_tables=4)
        assert base != StepShapeClass.classify(256, 32, 32, num_tables=8)
        assert base != StepShapeClass.classify(256, 32, 32, num_tables=4,
                                               num_shards=2)

    def test_key_round_trips_through_parse(self):
        from repro.backends.autotune import StepShapeClass, _parse_step_key

        shape = StepShapeClass.classify(512, 48, 96, num_tables=3,
                                        num_shards=2)
        assert _parse_step_key(shape.key()) == shape

    @pytest.mark.parametrize("bad", [
        "", "batch1-pool2", "batch1-pool2-dim3-tables4-shardsX",
        "step-batch1-pool2-dim3-tables4-shards5",
        "batch1-pool2-dim3-tables4-shards5-extra",
    ])
    def test_malformed_keys_parse_to_none(self, bad):
        from repro.backends.autotune import _parse_step_key

        assert _parse_step_key(bad) is None

    def test_representative_respects_caps(self):
        from repro.backends.autotune import StepShapeClass

        shape = StepShapeClass.classify(1 << 20, 1 << 16, 1 << 12,
                                        num_tables=2)
        batch, pooling, dim = shape.representative(64, 32, 64)
        assert (batch, pooling, dim) == (64, 32, 64)

    def test_validation(self):
        from repro.backends.autotune import StepShapeClass

        with pytest.raises(ValueError, match="batch"):
            StepShapeClass.classify(0, 8, 8, num_tables=1)
        with pytest.raises(ValueError, match="num_tables"):
            StepShapeClass.classify(8, 8, 8, num_tables=0)


class _FakeProbeTrainer:
    """Counts ``train`` calls; the step tuner must never see a difference."""

    def __init__(self, log, backend_name):
        self._log = log
        self._backend = backend_name

    def train(self, batch, steps, rng):
        self._log.append((self._backend, batch, steps))


class TestStepAutotuner:
    SHAPE_ARGS = dict(batch=256, lookups_per_sample=32, dim=32, num_tables=2)

    def _shape(self):
        from repro.backends.autotune import StepShapeClass

        return StepShapeClass.classify(**self.SHAPE_ARGS)

    def _counting_tuner(self, monkeypatch, measured, **kwargs):
        """A tuner whose probes are deterministic table lookups; every
        probe is logged so caching behaviour is observable."""
        from repro.backends.autotune import StepAutotuner

        log = []

        def fake_measure(tuner_self, backend_name, shape):
            log.append(backend_name)
            return measured[backend_name]

        monkeypatch.setattr(StepAutotuner, "_measure", fake_measure)
        tuner = StepAutotuner(candidates=list(measured), **kwargs)
        return tuner, log

    def test_validation(self):
        from repro.backends.autotune import StepAutotuner

        with pytest.raises(ValueError, match="repeats"):
            StepAutotuner(repeats=0)
        with pytest.raises(ValueError, match="probe_steps"):
            StepAutotuner(probe_steps=0)

    def test_default_candidates_exclude_oracles(self):
        from repro.backends.autotune import StepAutotuner

        names = StepAutotuner().candidate_names()
        assert "reference" not in names
        assert "auto" not in names
        assert "vectorized" in names
        assert "blocked" in names

    def test_single_candidate_short_circuits_without_probing(self,
                                                             monkeypatch):
        tuner, log = self._counting_tuner(
            monkeypatch, {"vectorized": 1.0})
        assert tuner.backend_for(self._shape()) == "vectorized"
        assert log == []  # never measured
        assert tuner.timings() == {}

    def test_winner_is_fastest_probe_measured_once(self, monkeypatch):
        tuner, log = self._counting_tuner(
            monkeypatch, {"vectorized": 0.004, "blocked": 0.002})
        shape = self._shape()
        assert tuner.backend_for(shape) == "blocked"
        assert sorted(log) == ["blocked", "vectorized"]
        # Cache hit: repeated queries never re-probe, winner is stable.
        for _ in range(3):
            assert tuner.backend_for(shape) == "blocked"
        assert sorted(log) == ["blocked", "vectorized"]
        assert tuner.timings()[shape] == {
            "vectorized": 0.004, "blocked": 0.002,
        }

    def test_probe_runs_warmup_plus_best_of_k_steps(self, monkeypatch):
        """Satellite regression: every candidate's probe is one warmup
        run plus ``repeats`` timed runs of ``probe_steps`` real steps —
        the de-noising discipline the winner's stability rests on."""
        from repro.backends.autotune import StepAutotuner

        log = []
        monkeypatch.setattr(
            StepAutotuner, "_build_probe_trainer",
            lambda self, backend_name, shape, pooling, dim:
                _FakeProbeTrainer(log, backend_name),
        )
        tuner = StepAutotuner(candidates=["vectorized", "blocked"],
                              repeats=3, probe_steps=2)
        tuner.backend_for(self._shape())
        per_candidate = {
            name: [entry for entry in log if entry[0] == name]
            for name in ("vectorized", "blocked")
        }
        for name, runs in per_candidate.items():
            assert len(runs) == 1 + 3, name  # warmup + best-of-3
            assert all(steps == 2 for _, _, steps in runs), name

    def test_winner_stable_across_cache_roundtrip(self, monkeypatch,
                                                  tmp_path):
        """Satellite regression: the decision survives a process restart
        byte-for-byte — a second tuner over the same cache file reproduces
        the winner and its probe timings without measuring anything."""
        path = tmp_path / "cache.json"
        tuner, log = self._counting_tuner(
            monkeypatch, {"vectorized": 0.004, "blocked": 0.002},
            cache_path=path)
        shape = self._shape()
        assert tuner.backend_for(shape) == "blocked"
        assert path.is_file()
        reloaded, reload_log = self._counting_tuner(
            monkeypatch, {"vectorized": 0.001, "blocked": 0.999},
            cache_path=path)
        # Cached decision wins even though a fresh probe would now rank
        # the other engine first — stability beats re-measurement.
        assert reloaded.backend_for(shape) == "blocked"
        assert reload_log == []
        assert reloaded.timings()[shape] == {
            "vectorized": 0.004, "blocked": 0.002,
        }

    def _second_shape(self):
        from repro.backends.autotune import StepShapeClass

        return StepShapeClass.classify(
            **dict(self.SHAPE_ARGS, batch=4 * self.SHAPE_ARGS["batch"]))

    def test_failed_write_leaves_the_previous_cache_loadable(
            self, monkeypatch, tmp_path):
        """Satellite regression: the cache used to be rewritten in place,
        so a write that died midway left a truncated file behind."""
        from repro.backends.autotune import StepAutotuner

        path = tmp_path / "cache.json"
        tuner, _ = self._counting_tuner(
            monkeypatch, {"vectorized": 0.004, "blocked": 0.002},
            cache_path=path)
        tuner.backend_for(self._shape())
        before = path.read_bytes()

        def disk_full(source, destination):
            raise OSError("injected: no space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", disk_full)
            with pytest.raises(OSError, match="injected"):
                tuner.backend_for(self._second_shape())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["cache.json"]  # no scratch litter
        assert list(StepAutotuner(cache_path=path).decisions()) == [
            self._shape()
        ]

    def test_cache_on_disk_is_complete_json_whenever_it_is_visible(
            self, monkeypatch, tmp_path):
        """The only instant the cache path changes is ``os.replace``: what
        it swaps out and what it swaps in are both whole, loadable files."""
        from repro.backends.autotune import StepAutotuner

        path = tmp_path / "cache.json"
        tuner, _ = self._counting_tuner(
            monkeypatch, {"vectorized": 0.004, "blocked": 0.002},
            cache_path=path)
        tuner.backend_for(self._shape())
        real_replace, swaps = os.replace, []

        def checked_replace(source, destination):
            assert os.path.dirname(source) == str(tmp_path)  # same directory
            swaps.append((
                len(json.loads(path.read_text())["decisions"]),
                len(json.loads(Path(source).read_text())["decisions"]),
            ))
            real_replace(source, destination)

        monkeypatch.setattr(os, "replace", checked_replace)
        tuner.backend_for(self._second_shape())
        assert swaps == [(1, 2)]
        assert len(StepAutotuner(cache_path=path).decisions()) == 2

    def test_reader_racing_a_writer_never_sees_a_torn_file(
            self, monkeypatch, tmp_path):
        from repro.backends.autotune import StepAutotuner

        path = tmp_path / "cache.json"
        tuner, _ = self._counting_tuner(
            monkeypatch, {"vectorized": 0.004, "blocked": 0.002},
            cache_path=path)
        tuner.backend_for(self._shape())
        # Pad the payload so a torn write would have a wide window.
        tuner._timings[self._shape()].update(
            {f"padding-{i}": float(i) for i in range(2000)})
        with _racing_reader(lambda: StepAutotuner(cache_path=path)) as errors:
            for _ in range(200):
                tuner.save_cache()
        assert errors == []

    def test_missing_cache_file_is_empty(self, tmp_path):
        from repro.backends.autotune import StepAutotuner

        tuner = StepAutotuner(cache_path=tmp_path / "absent.json")
        assert tuner.load_cache() == 0
        assert tuner.decisions() == {}

    @pytest.mark.parametrize("payload", [
        "{not json",
        '{"version": 99, "decisions": {}}',
        '[]',
        '{"version": 1}',
        '{"version": 1, "decisions": {"bogus-key": {"winner": "x"}}}',
        '{"version": 1, "decisions": '
        '{"batch1-pool1-dim1-tables1-shards1": {}}}',
    ], ids=["not-json", "wrong-version", "not-a-dict", "no-decisions",
            "bad-key", "no-winner"])
    def test_malformed_cache_raises_value_error(self, tmp_path, payload):
        from repro.backends.autotune import StepAutotuner

        path = tmp_path / "cache.json"
        path.write_text(payload)
        with pytest.raises(ValueError, match="autotune cache"):
            StepAutotuner(cache_path=path)

    def test_publish_metrics_emits_step_series(self, monkeypatch):
        from repro.obs import MetricRegistry

        tuner, _ = self._counting_tuner(
            monkeypatch, {"vectorized": 0.004, "blocked": 0.002})
        tuner.backend_for(self._shape())
        metrics = MetricRegistry()
        tuner.publish_metrics(metrics)
        series = {metric.name for metric in metrics.series()}
        assert "autotune.decision" in series
        assert "autotune.probe_seconds" in series
        decision = next(m for m in metrics.series()
                        if m.name == "autotune.decision")
        labels = dict(decision.labels)
        assert labels["kernel"] == "step"
        assert labels["winner"] == "blocked"
