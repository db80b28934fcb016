"""Unit and property tests for the fused gather-reduce kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.casting import tensor_casting
from repro.core.coalesce import expand_coalesce
from repro.core.gather_reduce import (
    casted_gather_reduce,
    gather_reduce,
    gather_reduce_reference,
    tcasted_grad_gather_reduce,
)
from repro.core.indexing import IndexArray
from tests.conftest import make_random_index


class TestForwardGatherReduce:
    def test_paper_example(self, paper_index):
        table = np.arange(12, dtype=np.float64).reshape(6, 2)
        out = gather_reduce(table, paper_index)
        assert np.allclose(out[0], table[1] + table[2] + table[4])
        assert np.allclose(out[1], table[0] + table[2])

    def test_matches_reference(self, rng):
        index = make_random_index(rng, num_rows=30, batch=7, lookups=6)
        table = rng.standard_normal((30, 5))
        assert np.allclose(
            gather_reduce(table, index), gather_reduce_reference(table, index)
        )

    def test_unsorted_dst_matches_reference(self, rng):
        """Exercises the stable-argsort path (dst not monotone)."""
        src = rng.integers(0, 20, 30)
        dst = rng.integers(0, 6, 30)
        index = IndexArray(src, dst, num_rows=20, num_outputs=6)
        table = rng.standard_normal((20, 3))
        assert np.allclose(
            gather_reduce(table, index), gather_reduce_reference(table, index)
        )

    def test_sorted_dst_uses_same_result_as_unsorted_permutation(self, rng):
        """Sorted segments and their stable-argsorted shuffle must agree."""
        src = rng.integers(0, 20, 24)
        dst_sorted = np.sort(rng.integers(0, 5, 24))
        index_sorted = IndexArray(src, dst_sorted, num_rows=20, num_outputs=5)
        perm = rng.permutation(24)
        index_shuffled = IndexArray(
            src[perm], dst_sorted[perm], num_rows=20, num_outputs=5
        )
        table = rng.standard_normal((20, 4))
        assert np.allclose(
            gather_reduce(table, index_sorted), gather_reduce(table, index_shuffled)
        )

    def test_empty_index_returns_zeros(self):
        table = np.ones((4, 3))
        out = gather_reduce(table, IndexArray([], [], num_rows=4, num_outputs=2))
        assert out.shape == (2, 3)
        assert np.all(out == 0)

    def test_output_slot_with_no_lookups_stays_zero(self):
        table = np.ones((4, 2))
        index = IndexArray([0, 1], [0, 2], num_rows=4, num_outputs=3)
        out = gather_reduce(table, index)
        assert np.all(out[1] == 0)

    def test_rejects_small_table(self, paper_index):
        with pytest.raises(ValueError, match="addresses"):
            gather_reduce(np.ones((3, 2)), paper_index)

    def test_rejects_1d_table(self, paper_index):
        with pytest.raises(ValueError, match="2-D"):
            gather_reduce(np.ones(6), paper_index)

    def test_dtype_preserved(self, paper_index):
        table = np.ones((6, 2), dtype=np.float32)
        assert gather_reduce(table, paper_index).dtype == np.float32


class TestCastedGatherReduce:
    def test_equals_baseline_on_paper_example(self, paper_index):
        grads = np.array([[1.0, 1.0], [10.0, 10.0]])
        cast = tensor_casting(paper_index)
        rows_c, coal_c = casted_gather_reduce(grads, cast)
        rows_b, coal_b = expand_coalesce(paper_index, grads)
        assert np.array_equal(rows_c, rows_b)
        assert np.allclose(coal_c, coal_b)

    @pytest.mark.parametrize("seed", range(6))
    def test_functional_equivalence_random(self, seed):
        """Section V's validation: casted backward == baseline backward."""
        rng = np.random.default_rng(seed)
        index = make_random_index(rng, num_rows=25, batch=9, lookups=7)
        grads = rng.standard_normal((9, 4))
        rows_b, coal_b = expand_coalesce(index, grads)
        rows_c, coal_c = tcasted_grad_gather_reduce(index, grads)
        assert np.array_equal(rows_b, rows_c)
        assert np.allclose(coal_b, coal_c)

    def test_rejects_small_gradient_table(self, paper_index):
        cast = tensor_casting(paper_index)
        with pytest.raises(ValueError, match="cast expects"):
            casted_gather_reduce(np.ones((1, 2)), cast)

    def test_rejects_1d_gradients(self, paper_index):
        cast = tensor_casting(paper_index)
        with pytest.raises(ValueError, match="2-D"):
            casted_gather_reduce(np.ones(4), cast)

    def test_no_expanded_tensor_needed(self, paper_index):
        """The casted path touches only (B, dim) and (u, dim) tensors."""
        grads = np.ones((2, 2))
        cast = tensor_casting(paper_index)
        rows, coal = casted_gather_reduce(grads, cast)
        assert coal.shape == (4, 2)  # u rows, never n


@settings(max_examples=50, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 5)), min_size=1, max_size=50
    ),
)
def test_property_casted_equals_baseline(pairs):
    """THE paper invariant: for any index array and gradients,
    coalesce(expand(g)) == casted_gather_reduce(g)."""
    src = np.array([p[0] for p in pairs])
    dst = np.array([p[1] for p in pairs])
    index = IndexArray(src, dst, num_rows=16, num_outputs=6)
    rng = np.random.default_rng(len(pairs))
    grads = rng.standard_normal((6, 3))
    rows_b, coal_b = expand_coalesce(index, grads)
    rows_c, coal_c = tcasted_grad_gather_reduce(index, grads)
    assert np.array_equal(rows_b, rows_c)
    assert np.allclose(coal_b, coal_c)


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 5)), min_size=1, max_size=40
    ),
)
def test_property_forward_linear_in_table(pairs):
    """Gather-reduce is linear: gr(a*T1 + b*T2) == a*gr(T1) + b*gr(T2)."""
    src = np.array([p[0] for p in pairs])
    dst = np.array([p[1] for p in pairs])
    index = IndexArray(src, dst, num_rows=16, num_outputs=6)
    rng = np.random.default_rng(7)
    table1 = rng.standard_normal((16, 2))
    table2 = rng.standard_normal((16, 2))
    combined = gather_reduce(2.0 * table1 + 3.0 * table2, index)
    separate = 2.0 * gather_reduce(table1, index) + 3.0 * gather_reduce(table2, index)
    assert np.allclose(combined, separate)
