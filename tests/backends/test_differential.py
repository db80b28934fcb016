"""Randomized differential sweep: every backend vs. the pure-Python oracles.

The numerical contract pinned here (and referenced by the backends'
docstrings):

========== ======================== ====================================
backend    float64                  float32
========== ======================== ====================================
reference  exact (it IS the oracle) exact (accumulates in float64)
vectorized bit-identical            allclose vs. the oracle (accumulates
                                    in float32, rounding per partial sum
                                    instead of once at the end)
auto       bit-identical            bit-identical to ``vectorized`` (the
                                    same kernels under another name)
========== ======================== ====================================

Integer outputs — casted index arrays, coalesced row ids, scatter targets —
are exactly equal for every backend on every input.  ``float64``
bit-identity holds because all engines accumulate each output slot's
partial sums in the same (lookup) order, one addition at a time — the
vectorized backend reduces through ``repro.core.segment.segment_sum``
(one vectorised round per lookup rank, long segments folded row by row)
rather than ``np.add.reduceat``, whose pairwise partial sums would drift
by ulps.  The ``profile-*`` cases sweep the segment shapes that decide how
``segment_sum`` splits its work (uniform bags, Zipf row reuse, one giant
bag, empty bags, unsorted destinations).
"""

import zlib

import numpy as np
import pytest

from repro.backends import get_backend, registered_backends
from repro.backends.vectorized import cast_indices_vectorized
from repro.core.coalesce import gradient_coalesce_reference, gradient_expand
from repro.core.gather_reduce import gather_reduce_reference
from repro.core.casting import CastedIndex, tensor_casting_reference
from repro.core.indexing import IndexArray
from repro.core.scatter import gradient_scatter_reference
from repro.core.segment import sort_by_key

#: Documented comparison tolerance for float32 results of backends that
#: accumulate at working precision (see the table above).
FLOAT32_RTOL = 1e-5
FLOAT32_ATOL = 1e-6


#: Every registered engine.
BACKENDS = [get_backend(name) for name in registered_backends()]
BACKEND_IDS = [backend.name for backend in BACKENDS]
DTYPES = (np.float64, np.float32)


def _index_cases():
    """Degenerate and randomized index arrays, as (name, IndexArray)."""
    rng = np.random.default_rng(20260728)
    cases = [
        ("empty-batch", IndexArray([], [], num_rows=10, num_outputs=0)),
        ("no-lookups", IndexArray([], [], num_rows=10, num_outputs=4)),
        ("single-lookup", IndexArray([3], [0], num_rows=10, num_outputs=1)),
        (
            "all-same-src",
            IndexArray([5] * 20, np.repeat(np.arange(4), 5), num_rows=10,
                       num_outputs=4),
        ),
        (
            "paper-fig2",
            IndexArray(src=[1, 2, 4, 0, 2], dst=[0, 0, 0, 1, 1], num_rows=6),
        ),
    ]
    for seed, (rows, outputs, lookups) in enumerate(
        [(50, 8, 120), (500, 64, 2000), (37, 5, 61)]
    ):
        case_rng = np.random.default_rng(seed)
        cases.append((
            f"random-sorted-{seed}",
            IndexArray(
                case_rng.integers(0, rows, lookups),
                np.sort(case_rng.integers(0, outputs, lookups)),
                num_rows=rows,
                num_outputs=outputs,
            ),
        ))
        cases.append((
            f"random-unsorted-{seed}",
            IndexArray(
                case_rng.integers(0, rows, lookups),
                case_rng.integers(0, outputs, lookups),
                num_rows=rows,
                num_outputs=outputs,
            ),
        ))
    cases.extend(_segment_profile_cases(rng))
    return cases


def _segment_profile_cases(rng):
    """The segment-profile axis: long and ragged segments on both sides.

    ``dst`` shapes the forward segments (bags); ``src`` shapes the casted
    backward's and the coalesce's (row reuse).  Zipf-distributed rows give
    a few very long backward segments over a tail of singletons, so every
    case below straddles ``segment_sum``'s h-index cut one way or the
    other; sizes stay small because the oracle engines are Python loops.
    """
    rows = 300

    popularity = 1.0 / np.arange(1, rows + 1) ** 1.05
    popularity /= popularity.sum()

    def zipf_src(n):
        return rng.choice(rows, size=n, p=popularity)

    def bags(lengths):
        lengths = np.asarray(lengths)
        return np.repeat(np.arange(lengths.size), lengths), int(lengths.size)

    cases = []
    dst, outputs = bags([12] * 24)
    cases.append(("profile-uniform-bags", IndexArray(
        rng.integers(0, rows, dst.size), dst, num_rows=rows,
        num_outputs=outputs)))
    cases.append(("profile-zipf-rows", IndexArray(
        zipf_src(dst.size), dst, num_rows=rows, num_outputs=outputs)))
    dst, outputs = bags(np.minimum(rng.zipf(1.3, 40), 120))
    cases.append(("profile-zipf-bags", IndexArray(
        zipf_src(dst.size), dst, num_rows=rows, num_outputs=outputs)))
    dst, outputs = bags([400])
    cases.append(("profile-one-giant-bag", IndexArray(
        zipf_src(dst.size), dst, num_rows=rows, num_outputs=outputs)))
    dst, outputs = bags([0, 0, 5, 1, 0, 40, 3, 0, 0])
    cases.append(("profile-empty-bags", IndexArray(
        zipf_src(dst.size), dst, num_rows=rows, num_outputs=outputs)))
    dst, outputs = bags([1, 2, 3, 4, 5, 6, 60, 61, 0, 7])
    cases.append(("profile-unsorted-dst", IndexArray(
        zipf_src(dst.size), rng.permutation(dst), num_rows=rows,
        num_outputs=outputs)))
    return cases


CASES = _index_cases()
CASE_IDS = [name for name, _ in CASES]


def _assert_matches(actual, expected, dtype, context):
    assert actual.dtype == expected.dtype, context
    if dtype == np.float64:
        assert np.array_equal(actual, expected), context
    else:
        np.testing.assert_allclose(
            actual, expected, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL,
            err_msg=context,
        )


@pytest.fixture(params=BACKENDS, ids=BACKEND_IDS)
def backend(request):
    return request.param


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
class TestGatherReduce:
    def test_matches_oracle(self, backend, case, dtype, weighted):
        name, index = case
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        table = rng.standard_normal((index.num_rows, 7)).astype(dtype)
        weights = None
        if weighted:
            weights = rng.standard_normal(index.num_lookups).astype(dtype)
        result = backend.gather_reduce(table, index, weights=weights)
        expected = gather_reduce_reference(table, index, weights)
        _assert_matches(result, expected, dtype, f"{backend.name}/{name}")

    def test_accumulates_into_out(self, backend, case, dtype, weighted):
        """The ``out=`` contract: results add onto a pre-filled output.

        Deliberately allclose-only even for float64: with a *non-zero*
        pre-filled out, engines legitimately differ by association (the
        reference folds one bulk delta in, the loop engines add per
        lookup) — see KernelBackend.gather_reduce.  Bit-identity is
        guaranteed, and separately tested, for fresh outputs only.
        """
        name, index = case
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        table = rng.standard_normal((index.num_rows, 3)).astype(dtype)
        weights = None
        if weighted:
            weights = rng.standard_normal(index.num_lookups).astype(dtype)
        base = rng.standard_normal((index.num_outputs, 3)).astype(dtype)
        result = backend.gather_reduce(
            table, index, out=base.copy(), weights=weights
        )
        delta = gather_reduce_reference(table, index, weights)
        _assert_matches(result, (base + delta).astype(dtype), np.float32,
                        f"{backend.name}/{name}/out")


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
class TestCastIndices:
    def test_matches_oracle_exactly(self, backend, case):
        """Integer outputs admit no tolerance: every backend, bit for bit."""
        name, index = case
        cast = backend.cast_indices(index)
        oracle_src, oracle_dst = tensor_casting_reference(index.src, index.dst)
        assert np.array_equal(cast.casted_src, oracle_src), f"{backend.name}/{name}"
        assert np.array_equal(cast.casted_dst, oracle_dst), f"{backend.name}/{name}"
        assert np.array_equal(cast.rows, np.unique(index.src)), (
            f"{backend.name}/{name}"
        )
        assert cast.num_gradients == index.num_outputs


@pytest.mark.parametrize(
    "case",
    [case for case in CASES if case[1].num_lookups],
    ids=[name for name, index in CASES if index.num_lookups],
)
def test_vectorized_cast_seeds_the_lazy_segment_starts(case):
    """Algorithm 2's boundary scan hands the backward its segment layout
    for free; it must be exactly what the lazy path derives."""
    name, index = case
    cast = cast_indices_vectorized(index)
    seeded = cast.__dict__["_segment_starts"]  # set before any call
    assert cast.segment_starts() is seeded
    lazy = CastedIndex(
        cast.casted_src, cast.casted_dst, cast.rows, cast.num_gradients
    ).segment_starts()
    assert seeded.dtype == lazy.dtype, name
    assert np.array_equal(seeded, lazy), name
    assert np.array_equal(
        cast.casted_dst[seeded], np.arange(cast.num_coalesced)
    ), name


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_sort_by_key_is_the_stable_sort_of_every_profile(case):
    """Algorithm 2 line 3 and Algorithm 1 Step A share one SortByKey; on
    every profile it is the stable argsort pair it replaced in both."""
    name, index = case
    sorted_src, order = sort_by_key(index.src)
    stable = np.argsort(index.src, kind="stable")
    assert np.array_equal(order, stable), name
    assert np.array_equal(sorted_src, index.src[stable]), name


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
class TestBackwardPaths:
    def _oracle(self, index, gradients):
        expanded = gradient_expand(gradients, index.dst)
        return gradient_coalesce_reference(index.src, expanded)

    def test_expand_coalesce_matches_oracle(self, backend, case, dtype):
        name, index = case
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        gradients = rng.standard_normal((index.num_outputs, 5)).astype(dtype)
        rows, values = backend.expand_coalesce(index, gradients)
        oracle_rows, oracle_values = self._oracle(index, gradients)
        assert np.array_equal(rows, oracle_rows), f"{backend.name}/{name}"
        _assert_matches(values, oracle_values, dtype, f"{backend.name}/{name}")

    def test_casted_gather_reduce_matches_oracle(self, backend, case, dtype):
        """Algorithm 3 == Algorithm 1, per backend: the cast consumed by the
        fused backward is produced by the same backend, as at runtime."""
        name, index = case
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        gradients = rng.standard_normal((index.num_outputs, 5)).astype(dtype)
        cast = backend.cast_indices(index)
        rows, values = backend.casted_gather_reduce(gradients, cast)
        oracle_rows, oracle_values = self._oracle(index, gradients)
        assert np.array_equal(rows, oracle_rows), f"{backend.name}/{name}"
        _assert_matches(values, oracle_values, dtype, f"{backend.name}/{name}")


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
class TestScatterUpdate:
    def test_matches_oracle_exactly(self, backend, dtype):
        """One update per row and a dtype-homogeneous multiply: exact for
        every backend in both dtypes (no accumulation happens)."""
        rng = np.random.default_rng(7)
        table = rng.standard_normal((40, 6)).astype(dtype)
        rows = np.array([0, 3, 17, 39])
        gradients = rng.standard_normal((rows.size, 6)).astype(dtype)
        expected = gradient_scatter_reference(table, rows, gradients, lr=0.05)
        updated = backend.scatter_update(table.copy(), rows, gradients, lr=0.05)
        assert np.array_equal(updated, expected), backend.name

    def test_empty_rows_is_a_noop(self, backend, dtype):
        table = np.ones((4, 2), dtype=dtype)
        result = backend.scatter_update(
            table, np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=dtype)
        )
        assert np.array_equal(result, np.ones((4, 2), dtype=dtype))


class TestDispatcherValidation:
    """The core dispatcher bound-checks hand-built casts before any engine
    (compiled loop nests included) scatters through them."""

    def _cast(self, casted_src, casted_dst, rows, num_gradients=4):
        from repro.core.casting import CastedIndex

        return CastedIndex(
            casted_src=np.asarray(casted_src, dtype=np.int64),
            casted_dst=np.asarray(casted_dst, dtype=np.int64),
            rows=np.asarray(rows, dtype=np.int64),
            num_gradients=num_gradients,
        )

    def test_out_of_range_casted_src_rejected(self):
        from repro.core.gather_reduce import casted_gather_reduce

        gradients = np.zeros((4, 2))
        bad = self._cast([0, 4], [0, 1], [3, 7])  # src 4 >= num_gradients 4
        with pytest.raises(ValueError, match="casted_src"):
            casted_gather_reduce(gradients, bad)

    def test_out_of_range_casted_dst_rejected(self):
        from repro.core.gather_reduce import casted_gather_reduce

        gradients = np.zeros((4, 2))
        bad = self._cast([0, 1], [0, 2], [3, 7])  # dst 2 >= num_coalesced 2
        with pytest.raises(ValueError, match="casted_dst"):
            casted_gather_reduce(gradients, bad)

    def test_non_monotone_casted_dst_rejected(self):
        """Engines reduce over ``segment_starts()``: a hand-built cast whose
        slots are in range but out of order must fail loudly, not reduce
        each run as if it were a whole segment."""
        from repro.core.gather_reduce import casted_gather_reduce

        gradients = np.zeros((4, 2))
        bad = self._cast([0, 1, 2], [0, 1, 0], [3, 7])
        with pytest.raises(ValueError, match="casted_dst must be non-decreasing"):
            casted_gather_reduce(gradients, bad)

    def test_negative_ids_rejected(self):
        from repro.core.gather_reduce import casted_gather_reduce

        gradients = np.zeros((4, 2))
        with pytest.raises(ValueError, match="casted_src"):
            casted_gather_reduce(gradients, self._cast([-1, 0], [0, 1], [3, 7]))
        with pytest.raises(ValueError, match="casted_dst"):
            casted_gather_reduce(gradients, self._cast([0, 1], [-1, 0], [3, 7]))


class TestCrossBackendBitIdentity:
    """float64 results are bit-identical *across* backends, not merely close
    to the oracle — the property the trainers' backend knob relies on."""

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_gather_reduce_all_engines_identical(self, case):
        name, index = case
        rng = np.random.default_rng(11)
        table = rng.standard_normal((index.num_rows, 9))
        results = [b.gather_reduce(table, index) for b in BACKENDS]
        for other, b in zip(results[1:], BACKENDS[1:]):
            assert np.array_equal(results[0], other), f"{b.name}/{name}"

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_casted_backward_all_engines_identical(self, case):
        name, index = case
        rng = np.random.default_rng(13)
        gradients = rng.standard_normal((index.num_outputs, 9))
        results = []
        for b in BACKENDS:
            cast = b.cast_indices(index)
            results.append(b.casted_gather_reduce(gradients, cast))
        for (other_rows, other_vals), b in zip(results[1:], BACKENDS[1:]):
            assert np.array_equal(results[0][0], other_rows), f"{b.name}/{name}"
            assert np.array_equal(results[0][1], other_vals), f"{b.name}/{name}"

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_float32_working_precision_engines_identical(self, case):
        """vectorized and auto accumulate float32 sequentially in the same
        order — bit-identical to each other (only the float64-accumulating
        oracle is allowed to differ, within the documented tolerance)."""
        name, index = case
        rng = np.random.default_rng(17)
        table = rng.standard_normal((index.num_rows, 9)).astype(np.float32)
        engines = [b for b in BACKENDS if b.name not in ("reference",)]
        results = [b.gather_reduce(table, index) for b in engines]
        for other, b in zip(results[1:], engines[1:]):
            assert np.array_equal(results[0], other), f"{b.name}/{name}"
