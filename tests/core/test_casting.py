"""Unit and property tests for Tensor Casting (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.casting import (
    CastedIndex,
    tensor_casting,
    tensor_casting_reference,
)
from repro.core.coalesce import expand_coalesce
from repro.core.gather_reduce import casted_gather_reduce
from repro.core.indexing import IndexArray
from tests.conftest import make_random_index


class TestPaperExample:
    """The exact worked example of Figures 7 and 8."""

    def test_casted_src_matches_figure_7(self, paper_index):
        cast = tensor_casting(paper_index)
        assert cast.casted_src.tolist() == [1, 0, 0, 1, 0]

    def test_casted_dst_matches_figure_8(self, paper_index):
        cast = tensor_casting(paper_index)
        assert cast.casted_dst.tolist() == [0, 1, 2, 2, 3]

    def test_rows_are_scatter_targets(self, paper_index):
        cast = tensor_casting(paper_index)
        assert cast.rows.tolist() == [0, 1, 2, 4]

    def test_counts(self, paper_index):
        cast = tensor_casting(paper_index)
        assert cast.num_lookups == 5
        assert cast.num_coalesced == 4
        assert cast.num_gradients == 2


class TestAgainstReference:
    def test_reference_matches_paper_example(self, paper_index):
        src, dst = tensor_casting_reference(paper_index.src, paper_index.dst)
        cast = tensor_casting(paper_index)
        assert np.array_equal(src, cast.casted_src)
        assert np.array_equal(dst, cast.casted_dst)

    @pytest.mark.parametrize("seed", range(8))
    def test_vectorized_matches_reference_random(self, seed):
        rng = np.random.default_rng(seed)
        index = make_random_index(rng, num_rows=30, batch=6, lookups=7)
        cast = tensor_casting(index)
        ref_src, ref_dst = tensor_casting_reference(index.src, index.dst)
        assert np.array_equal(cast.casted_src, ref_src)
        assert np.array_equal(cast.casted_dst, ref_dst)

    def test_reference_empty(self):
        src, dst = tensor_casting_reference(np.empty(0, int), np.empty(0, int))
        assert src.size == 0 and dst.size == 0


class TestStructuralInvariants:
    def test_casted_dst_monotone_nondecreasing(self, rng):
        index = make_random_index(rng, num_rows=50, batch=10, lookups=6)
        cast = tensor_casting(index)
        assert np.all(np.diff(cast.casted_dst) >= 0)

    def test_casted_dst_steps_by_at_most_one(self, rng):
        index = make_random_index(rng, num_rows=50, batch=10, lookups=6)
        cast = tensor_casting(index)
        assert np.all(np.diff(cast.casted_dst) <= 1)

    def test_casted_src_is_permuted_dst(self, rng):
        index = make_random_index(rng, num_rows=50, batch=10, lookups=6)
        cast = tensor_casting(index)
        assert sorted(cast.casted_src.tolist()) == sorted(index.dst.tolist())

    def test_rows_ascending_unique(self, rng):
        index = make_random_index(rng, num_rows=50, batch=10, lookups=6)
        cast = tensor_casting(index)
        assert np.all(np.diff(cast.rows) > 0)
        assert np.array_equal(cast.rows, index.unique_sources())

    def test_num_coalesced_equals_unique_sources(self, rng):
        index = make_random_index(rng, num_rows=20, batch=10, lookups=8)
        cast = tensor_casting(index)
        assert cast.num_coalesced == index.num_unique_sources()

    def test_empty_index(self):
        cast = tensor_casting(IndexArray([], [], num_rows=5, num_outputs=3))
        assert cast.num_lookups == 0
        assert cast.num_coalesced == 0
        assert cast.num_gradients == 3

    def test_segment_starts_name_every_coalesced_slot(self, rng):
        """The dense 0..u-1 ramp means segment k starts where casted_dst
        first reaches k — the invariant behind the argsort-free backward."""
        index = make_random_index(rng, num_rows=30, batch=10, lookups=6)
        cast = tensor_casting(index)
        starts = cast.segment_starts()
        assert starts.size == cast.num_coalesced
        assert np.array_equal(cast.casted_dst[starts],
                              np.arange(cast.num_coalesced))
        # Lazily derived once, then cached on the (frozen) dataclass.
        assert cast.segment_starts() is starts

    def test_segment_starts_empty_cast(self):
        cast = tensor_casting(IndexArray([], [], num_rows=5, num_outputs=3))
        assert cast.segment_starts().size == 0

    def test_single_lookup(self):
        cast = tensor_casting(IndexArray([3], [0], num_rows=5))
        assert cast.casted_src.tolist() == [0]
        assert cast.casted_dst.tolist() == [0]
        assert cast.rows.tolist() == [3]

    def test_all_same_row_coalesces_to_one(self):
        index = IndexArray([2, 2, 2, 2], [0, 1, 2, 3], num_rows=5)
        cast = tensor_casting(index)
        assert cast.num_coalesced == 1
        assert cast.casted_dst.tolist() == [0, 0, 0, 0]

    def test_stability_preserves_batch_order_within_row(self):
        # Two lookups of row 7 from batches 0 and 3: the stable sort must
        # keep their dst order, so casted_src lists 0 before 3.
        index = IndexArray([7, 1, 7], [0, 1, 3], num_rows=8, num_outputs=4)
        cast = tensor_casting(index)
        row7_positions = cast.casted_dst == cast.casted_dst[np.searchsorted(cast.rows, 7)]
        gathered = cast.casted_src[row7_positions]
        assert gathered.tolist() == [0, 3]


class TestDegenerateShapes:
    """Single-lookup and all-same-src arrays through cast *and* backward."""

    def test_single_lookup_matches_reference(self):
        index = IndexArray([3], [0], num_rows=5)
        cast = tensor_casting(index)
        ref_src, ref_dst = tensor_casting_reference(index.src, index.dst)
        assert np.array_equal(cast.casted_src, ref_src)
        assert np.array_equal(cast.casted_dst, ref_dst)

    def test_single_lookup_backward_roundtrip(self, rng):
        """One lookup: the coalesced gradient IS that sample's gradient."""
        index = IndexArray([3], [0], num_rows=5, num_outputs=2)
        grads = rng.standard_normal((2, 4))
        rows, coalesced = casted_gather_reduce(grads, tensor_casting(index))
        assert rows.tolist() == [3]
        assert np.array_equal(coalesced, grads[[0]])

    def test_all_same_src_matches_reference(self):
        index = IndexArray([2, 2, 2, 2], [3, 0, 2, 1], num_rows=5)
        cast = tensor_casting(index)
        ref_src, ref_dst = tensor_casting_reference(index.src, index.dst)
        assert np.array_equal(cast.casted_src, ref_src)
        assert np.array_equal(cast.casted_dst, ref_dst)
        # Stable sort on a constant key preserves the original dst order.
        assert cast.casted_src.tolist() == [3, 0, 2, 1]
        assert cast.rows.tolist() == [2]

    def test_all_same_src_backward_sums_every_gradient(self, rng):
        """All lookups hit one row: its gradient is the full-batch sum."""
        index = IndexArray([2, 2, 2, 2], [0, 1, 2, 3], num_rows=5)
        grads = rng.standard_normal((4, 3))
        rows, coalesced = casted_gather_reduce(grads, tensor_casting(index))
        assert rows.tolist() == [2]
        assert np.allclose(coalesced[0], grads.sum(axis=0))

    @pytest.mark.parametrize(
        "src, dst",
        [([3], [0]), ([2, 2, 2, 2], [0, 1, 2, 3])],
        ids=["single-lookup", "all-same-src"],
    )
    def test_degenerate_casted_equals_baseline(self, src, dst, rng):
        index = IndexArray(src, dst, num_rows=5)
        grads = rng.standard_normal((index.num_outputs, 3))
        rows_b, coal_b = expand_coalesce(index, grads)
        rows_c, coal_c = casted_gather_reduce(grads, tensor_casting(index))
        assert np.array_equal(rows_b, rows_c)
        assert np.allclose(coal_b, coal_c)


class TestAsIndexArray:
    def test_cast_is_a_gather_reduce_index(self, paper_index):
        cast = tensor_casting(paper_index)
        as_index = cast.as_index_array()
        assert isinstance(as_index, IndexArray)
        assert as_index.num_rows == paper_index.num_outputs
        assert as_index.num_outputs == cast.num_coalesced

    def test_empty_cast_round_trips(self):
        cast = tensor_casting(IndexArray([], [], num_rows=4, num_outputs=2))
        as_index = cast.as_index_array()
        assert as_index.num_lookups == 0


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 7)), min_size=1, max_size=60
    )
)
def test_property_cast_matches_reference(pairs):
    """For arbitrary (src, dst) pair lists the vectorized cast equals the
    literal Algorithm 2 transcription."""
    src = np.array([p[0] for p in pairs])
    dst = np.array([p[1] for p in pairs])
    index = IndexArray(src, dst, num_rows=20, num_outputs=8)
    cast = tensor_casting(index)
    ref_src, ref_dst = tensor_casting_reference(src, dst)
    assert np.array_equal(cast.casted_src, ref_src)
    assert np.array_equal(cast.casted_dst, ref_dst)


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 7)), min_size=1, max_size=60
    )
)
def test_property_cast_partitions_lookups(pairs):
    """Every lookup lands in exactly one coalesced slot, and slot k gathers
    exactly the dst ids whose src equals rows[k]."""
    src = np.array([p[0] for p in pairs])
    dst = np.array([p[1] for p in pairs])
    index = IndexArray(src, dst, num_rows=20, num_outputs=8)
    cast = tensor_casting(index)
    for slot, row in enumerate(cast.rows):
        expected = sorted(dst[src == row].tolist())
        gathered = sorted(cast.casted_src[cast.casted_dst == slot].tolist())
        assert gathered == expected
