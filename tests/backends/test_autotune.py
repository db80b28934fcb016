"""Shape classification, decision caching, and the ``auto`` policy."""

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

    def test_one_available_candidate_means_no_probes(
            self, paper_index, monkeypatch):
        """Without numba, ``auto`` short-circuits to ``vectorized`` and
        times nothing."""
        from repro.backends import NumbaBackend

        monkeypatch.setattr(NumbaBackend, "available", classmethod(
            lambda cls: False))
        auto = AutoBackend()
        auto.gather_reduce(np.ones((paper_index.num_rows, 4)), paper_index)
        assert set(auto.tuner.decisions().values()) == {"vectorized"}
        assert auto.tuner.timings() == {}

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
