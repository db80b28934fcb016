"""Unit and property tests for the baseline expand-coalesce (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coalesce import (
    expand_coalesce,
    gradient_coalesce,
    gradient_coalesce_reference,
    gradient_expand,
)
from repro.core.indexing import IndexArray
from tests.conftest import make_random_index


class TestGradientExpand:
    def test_paper_example_counts(self, paper_index):
        grads = np.array([[1.0, 2.0], [3.0, 4.0]])
        expanded = gradient_expand(grads, paper_index.dst)
        assert expanded.shape == (5, 2)
        # G[0] replicated 3x, G[1] replicated 2x (Figure 2(b) Step 1).
        assert np.array_equal(expanded[:3], np.tile(grads[0], (3, 1)))
        assert np.array_equal(expanded[3:], np.tile(grads[1], (2, 1)))

    def test_expansion_is_pure_replication(self, rng):
        grads = rng.standard_normal((4, 3))
        dst = np.array([3, 0, 0, 2, 1])
        expanded = gradient_expand(grads, dst)
        for i, d in enumerate(dst):
            assert np.array_equal(expanded[i], grads[d])

    def test_empty_dst(self):
        grads = np.ones((2, 3))
        assert gradient_expand(grads, np.empty(0, int)).shape == (0, 3)

    def test_rejects_1d_gradients(self):
        with pytest.raises(ValueError, match="2-D"):
            gradient_expand(np.ones(3), np.array([0]))

    def test_rejects_out_of_range_dst(self):
        with pytest.raises(ValueError, match="does not exist"):
            gradient_expand(np.ones((2, 3)), np.array([2]))

    @pytest.mark.parametrize("layout", ["row-strided", "F-ordered"])
    def test_take_equals_fancy_indexing_on_any_layout(self, rng, layout):
        """Gradient tables arrive as views (column slices of the
        interaction gradient); the ``take`` gather must equal
        ``gradients[dst]`` on every layout."""
        base = rng.standard_normal((16, 5)).astype(np.float32)
        grads = base[::2] if layout == "row-strided" else np.asfortranarray(base)
        assert not grads.flags.c_contiguous
        dst = rng.integers(0, grads.shape[0], 40)
        expanded = gradient_expand(grads, dst)
        assert expanded.dtype == grads.dtype
        assert np.array_equal(expanded, grads[dst])


class TestGradientCoalesce:
    def test_paper_example(self, paper_index):
        grads = np.array([[1.0, 1.0], [10.0, 10.0]])
        expanded = gradient_expand(grads, paper_index.dst)
        rows, coalesced = gradient_coalesce(paper_index.src, expanded)
        assert rows.tolist() == [0, 1, 2, 4]
        # Row 2 was gathered by both samples: G[0] + G[1] = 11.
        assert coalesced[rows.tolist().index(2)].tolist() == [11.0, 11.0]

    def test_no_duplicates_is_sorted_identity(self):
        src = np.array([3, 1, 2])
        expanded = np.array([[1.0], [2.0], [3.0]])
        rows, coalesced = gradient_coalesce(src, expanded)
        assert rows.tolist() == [1, 2, 3]
        assert coalesced[:, 0].tolist() == [2.0, 3.0, 1.0]

    def test_all_duplicates_sum(self):
        src = np.array([5, 5, 5])
        expanded = np.array([[1.0], [2.0], [3.0]])
        rows, coalesced = gradient_coalesce(src, expanded)
        assert rows.tolist() == [5]
        assert coalesced[0, 0] == pytest.approx(6.0)

    def test_empty_input(self):
        rows, coalesced = gradient_coalesce(np.empty(0, int), np.empty((0, 4)))
        assert rows.size == 0
        assert coalesced.shape == (0, 4)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="n, dim"):
            gradient_coalesce(np.array([1, 2]), np.ones((3, 2)))

    def test_rejects_2d_src(self):
        with pytest.raises(ValueError, match="1-D"):
            gradient_coalesce(np.ones((2, 2), dtype=int), np.ones((4, 2)))

    @pytest.mark.parametrize("layout", ["row-strided", "F-ordered"])
    def test_strided_expanded_is_exact(self, rng, layout):
        """The sorted copy is a ``take``; on a non-contiguous ``expanded``
        the result must still be the oracle's, bit for bit."""
        index = make_random_index(rng, num_rows=9, batch=8, lookups=6)
        grads = rng.standard_normal((8, 3))
        if layout == "row-strided":
            wide = np.repeat(grads[index.dst], 2, axis=0)
            expanded = wide[::2]
        else:
            expanded = np.asfortranarray(grads[index.dst])
        assert not expanded.flags.c_contiguous
        rows_v, coal_v = gradient_coalesce(index.src, expanded)
        rows_r, coal_r = gradient_coalesce_reference(index.src, expanded)
        assert np.array_equal(rows_v, rows_r)
        assert np.array_equal(coal_v, coal_r)
        rows_c, coal_c = gradient_coalesce(index.src, expanded.copy(order="C"))
        assert np.array_equal(rows_v, rows_c) and np.array_equal(coal_v, coal_c)

    def test_output_row_count_is_unique_count(self, rng):
        index = make_random_index(rng, num_rows=15, batch=10, lookups=6)
        expanded = rng.standard_normal((index.num_lookups, 4))
        rows, coalesced = gradient_coalesce(index.src, expanded)
        assert rows.size == index.num_unique_sources()
        assert coalesced.shape == (rows.size, 4)

    def test_mass_conservation(self, rng):
        """Coalescing only regroups gradients; the total sum is invariant."""
        index = make_random_index(rng, num_rows=15, batch=10, lookups=6)
        expanded = rng.standard_normal((index.num_lookups, 4))
        _, coalesced = gradient_coalesce(index.src, expanded)
        assert np.allclose(coalesced.sum(axis=0), expanded.sum(axis=0))


class TestReferenceOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_vectorized_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        index = make_random_index(rng, num_rows=12, batch=6, lookups=5)
        expanded = rng.standard_normal((index.num_lookups, 3))
        rows_v, coal_v = gradient_coalesce(index.src, expanded)
        rows_r, coal_r = gradient_coalesce_reference(index.src, expanded)
        assert np.array_equal(rows_v, rows_r)
        assert np.allclose(coal_v, coal_r)

    def test_reference_empty(self):
        rows, coal = gradient_coalesce_reference(np.empty(0, int), np.empty((0, 2)))
        assert rows.size == 0 and coal.shape == (0, 2)


class TestExpandCoalescePipeline:
    def test_equivalent_to_dense_accumulation(self, rng):
        """The sparse pipeline must equal the dense 'scatter-add' oracle."""
        index = make_random_index(rng, num_rows=25, batch=8, lookups=5)
        grads = rng.standard_normal((8, 4))
        rows, coalesced = expand_coalesce(index, grads)
        dense = np.zeros((25, 4))
        for s, d in zip(index.src, index.dst):
            dense[s] += grads[d]
        sparse_as_dense = np.zeros_like(dense)
        sparse_as_dense[rows] = coalesced
        assert np.allclose(sparse_as_dense, dense)

    def test_gradient_dtype_preserved(self, paper_index):
        grads = np.ones((2, 3), dtype=np.float32)
        _, coalesced = expand_coalesce(paper_index, grads)
        assert coalesced.dtype == np.float32


@settings(max_examples=50, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 4)), min_size=1, max_size=40
    ),
    dim=st.integers(1, 5),
)
def test_property_coalesce_equals_dense_oracle(pairs, dim):
    """Property: for arbitrary index arrays and gradient values, the
    expand-coalesce pipeline matches a dense scatter-add."""
    src = np.array([p[0] for p in pairs])
    dst = np.array([p[1] for p in pairs])
    index = IndexArray(src, dst, num_rows=12, num_outputs=5)
    rng = np.random.default_rng(len(pairs) * dim)
    grads = rng.standard_normal((5, dim))
    rows, coalesced = expand_coalesce(index, grads)
    dense = np.zeros((12, dim))
    for s, d in zip(src, dst):
        dense[s] += grads[d]
    rebuilt = np.zeros_like(dense)
    rebuilt[rows] = coalesced
    assert np.allclose(rebuilt, dense)
