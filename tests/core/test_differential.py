"""Randomized differential sweep: the core kernels vs. the pure-Python oracles.

The numerical contract pinned here: ``float64`` results are bit-identical
to the oracle; ``float32`` results are allclose to it (the kernels
accumulate in float32, rounding per partial sum, while the oracle
accumulates in float64 and rounds once at the end).

Integer outputs — casted index arrays, coalesced row ids, scatter targets —
are exactly equal on every input.  ``float64`` bit-identity holds because
the kernels accumulate each output slot's partial sums in the oracle's
(lookup) order, one addition at a time — they reduce through
``repro.core.segment.segment_sum`` (one vectorised round per lookup rank,
long segments folded row by row) rather than ``np.add.reduceat``, whose
pairwise partial sums would drift by ulps.  The ``profile-*`` cases sweep
the segment shapes that decide how ``segment_sum`` splits its work
(uniform bags, Zipf row reuse, one giant bag, empty bags, unsorted
destinations); every float input also comes contiguous, row-strided and
column-strided, and frozen, so no kernel relies on its input's layout or
writes it.  Each kernel reports one launch to the kernel observer, after
its empty-input early return.
"""

import zlib

import numpy as np
import pytest

from repro.core.coalesce import (
    expand_coalesce,
    gradient_coalesce_reference,
    gradient_expand,
)
from repro.core.gather_reduce import (
    casted_gather_reduce,
    gather_reduce,
    gather_reduce_reference,
)
from repro.core.casting import (
    CastedIndex,
    tensor_casting,
    tensor_casting_reference,
)
from repro.core.indexing import IndexArray
from repro.core.observe import observe_kernels
from repro.core.segment import sort_by_key

#: Documented comparison tolerance for float32 results, which the kernels
#: accumulate at working precision (see above).
FLOAT32_RTOL = 1e-5
FLOAT32_ATOL = 1e-6


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
    other; sizes stay small because the oracles are Python loops.
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


#: How a kernel's float input sits in memory: its own C-contiguous array,
#: every other row of a twice-as-tall array, or every other column of a
#: twice-as-wide one.
LAYOUTS = ["contiguous", "row-strided", "column-strided"]


def _random(name, shape, dtype, layout):
    """A standard-normal array seeded by case name, in ``layout``."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    values = rng.standard_normal(shape).astype(dtype)
    if layout == "contiguous":
        return values
    rows, cols = shape
    if layout == "row-strided":
        backing = np.zeros((2 * rows, cols), dtype=dtype)
        backing[::2] = values
        return backing[::2]
    backing = np.zeros((rows, 2 * cols), dtype=dtype)
    backing[:, ::2] = values
    return backing[:, ::2]


def _table(name, index, dtype, layout):
    """A ``(num_rows, 7)`` table, seeded by case name, in ``layout``."""
    return _random(name, (index.num_rows, 7), dtype, layout)


def _frozen(index):
    """A copy of ``index`` whose ``src`` and ``dst`` refuse writes."""
    frozen = IndexArray(index.src.copy(), index.dst.copy(),
                        num_rows=index.num_rows,
                        num_outputs=index.num_outputs)
    frozen.src.flags.writeable = False
    frozen.dst.flags.writeable = False
    return frozen


@pytest.mark.parametrize("dtype", DTYPES, ids=["f64", "f32"])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("layout", LAYOUTS)
class TestGatherReduce:
    def test_matches_oracle(self, layout, case, dtype):
        name, index = case
        table = _table(name, index, dtype, layout)
        result = gather_reduce(table, index)
        expected = gather_reduce_reference(table, index)
        _assert_matches(result, expected, dtype, name)

    def test_never_writes_its_inputs(self, layout, case, dtype):
        """The table and both index vectors are read-only to the kernel:
        frozen, any write would raise; the result is a fresh array."""
        name, index = case
        table = _table(name, index, dtype, layout)
        table.flags.writeable = False
        result = gather_reduce(table, _frozen(index))
        assert not np.shares_memory(result, table), name
        assert result.shape == (index.num_outputs, 7)
        _assert_matches(result, gather_reduce_reference(table, index), dtype,
                        f"{name}/frozen")


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
class TestCastIndices:
    def test_matches_oracle_exactly(self, case):
        """Integer outputs admit no tolerance: bit for bit."""
        name, index = case
        cast = tensor_casting(index)
        oracle_src, oracle_dst = tensor_casting_reference(index.src, index.dst)
        assert np.array_equal(cast.casted_src, oracle_src), name
        assert np.array_equal(cast.casted_dst, oracle_dst), name
        assert np.array_equal(cast.rows, np.unique(index.src)), name
        assert cast.num_gradients == index.num_outputs

    def test_never_writes_its_inputs(self, case):
        """The sort-by-key reads ``src`` and ``dst``; frozen, any write
        would raise."""
        name, index = case
        cast = tensor_casting(_frozen(index))
        oracle_src, oracle_dst = tensor_casting_reference(index.src, index.dst)
        assert np.array_equal(cast.casted_src, oracle_src), name
        assert np.array_equal(cast.casted_dst, oracle_dst), name


@pytest.mark.parametrize(
    "case",
    [case for case in CASES if case[1].num_lookups],
    ids=[name for name, index in CASES if index.num_lookups],
)
def test_cast_seeds_the_lazy_segment_starts(case):
    """Algorithm 2's boundary scan hands the backward its segment layout
    for free; it must be exactly what the lazy path derives."""
    name, index = case
    cast = tensor_casting(index)
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
@pytest.mark.parametrize("layout", LAYOUTS)
class TestBackwardPaths:
    def _oracle(self, index, gradients):
        expanded = gradient_expand(gradients, index.dst)
        return gradient_coalesce_reference(index.src, expanded)

    def _gradients(self, name, index, dtype, layout):
        """The ``(B, 5)`` gradient table, in ``layout``."""
        return _random(name, (index.num_outputs, 5), dtype, layout)

    def _check(self, result, index, gradients, dtype, context):
        rows, values = result
        oracle_rows, oracle_values = self._oracle(index, gradients)
        assert np.array_equal(rows, oracle_rows), context
        _assert_matches(values, oracle_values, dtype, context)

    def test_expand_coalesce_matches_oracle(self, layout, case, dtype):
        name, index = case
        gradients = self._gradients(name, index, dtype, layout)
        self._check(expand_coalesce(index, gradients), index, gradients,
                    dtype, name)

    def test_casted_gather_reduce_matches_oracle(self, layout, case, dtype):
        """Algorithm 3 == Algorithm 1: the fused backward consumes the
        kernel's own cast, as at runtime."""
        name, index = case
        gradients = self._gradients(name, index, dtype, layout)
        cast = tensor_casting(index)
        self._check(casted_gather_reduce(gradients, cast), index, gradients,
                    dtype, name)

    def test_casted_gather_reduce_derives_an_unseeded_layout(
            self, layout, case, dtype):
        """A cast built without the kernel's boundary scan — here, from the
        oracle's pair array — carries no segment layout; the backward
        derives it from ``casted_dst`` and lands on the same result."""
        name, index = case
        gradients = self._gradients(name, index, dtype, layout)
        casted_src, casted_dst = tensor_casting_reference(index.src,
                                                          index.dst)
        cast = CastedIndex(casted_src, casted_dst,
                           np.unique(index.src).astype(np.int64),
                           index.num_outputs)
        assert "_segment_starts" not in cast.__dict__
        self._check(casted_gather_reduce(gradients, cast), index, gradients,
                    dtype, name)

    def test_expand_coalesce_never_writes_its_inputs(self, layout, case,
                                                     dtype):
        """The gradient table and both index vectors are read-only to the
        baseline backward: frozen, any write would raise."""
        name, index = case
        gradients = self._gradients(name, index, dtype, layout)
        gradients.flags.writeable = False
        rows, values = expand_coalesce(_frozen(index), gradients)
        assert not np.shares_memory(values, gradients), name
        self._check((rows, values), index, gradients, dtype,
                    f"{name}/frozen")

    def test_casted_gather_reduce_never_writes_its_inputs(self, layout, case,
                                                          dtype):
        """The gradient table and every array of the cast are read-only to
        the fused backward: frozen, any write would raise."""
        name, index = case
        gradients = self._gradients(name, index, dtype, layout)
        cast = tensor_casting(index)
        arrays = (gradients, cast.casted_src, cast.casted_dst, cast.rows,
                  cast.segment_starts())
        for array in arrays:
            array.flags.writeable = False
        rows, values = casted_gather_reduce(gradients, cast)
        assert not np.shares_memory(values, gradients), name
        self._check((rows, values), index, gradients, dtype,
                    f"{name}/frozen")


@pytest.mark.parametrize(
    "op",
    ["gather_reduce", "tensor_casting", "expand_coalesce",
     "casted_gather_reduce"],
)
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_each_kernel_reports_once_past_its_early_return(case, op):
    """One launch, one ``count_kernel(op)`` — and an input with no lookups
    returns before it reports, so it counts nothing."""
    name, index = case
    gradients = np.ones((index.num_outputs, 3))
    cast = tensor_casting(index)
    launch = {
        "gather_reduce": lambda: gather_reduce(
            np.ones((index.num_rows, 3)), index),
        "tensor_casting": lambda: tensor_casting(index),
        "expand_coalesce": lambda: expand_coalesce(index, gradients),
        "casted_gather_reduce": lambda: casted_gather_reduce(gradients, cast),
    }[op]
    calls = []

    class Observer:
        def count_kernel(self, reported):
            calls.append(reported)

    with observe_kernels(Observer()):
        launch()
    assert calls == [op] * (index.num_lookups > 0), name


class TestCastValidation:
    """``casted_gather_reduce`` bound-checks a hand-built cast before it
    scatters through it."""

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
        """The kernel reduces over ``segment_starts()``: a hand-built cast
        whose slots are in range but out of order must fail loudly, not
        reduce each run as if it were a whole segment."""
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
