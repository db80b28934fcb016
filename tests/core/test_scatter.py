"""Unit tests for the gradient-scatter model update."""

import numpy as np
import pytest

from repro.core import scatter
from repro.core.scatter import (
    UPDATE_BLOCK_BYTES,
    gradient_scatter_reference,
    row_blocks,
)
from repro.model.optim import SGD, Adagrad

F32, F64 = np.float32, np.float64


def descend(table, rows, gradients, lr=1.0):
    """Plain SGD through the one entry point of the sparse update."""
    SGD(lr=lr).apply_sparse(table, rows, gradients)


class TestGradientScatter:
    def test_basic_sgd_update(self):
        table = np.ones((4, 2))
        rows = np.array([1, 3])
        grads = np.array([[1.0, 1.0], [2.0, 2.0]])
        descend(table, rows, grads, lr=0.5)
        assert table[1].tolist() == [0.5, 0.5]
        assert table[3].tolist() == [0.0, 0.0]

    def test_untouched_rows_unchanged(self):
        table = np.full((4, 2), 7.0)
        descend(table, np.array([2]), np.ones((1, 2)), lr=1.0)
        assert np.all(table[[0, 1, 3]] == 7.0)

    def test_matches_reference(self, rng):
        table = rng.standard_normal((10, 3))
        rows = np.array([0, 4, 9])
        grads = rng.standard_normal((3, 3))
        expected = gradient_scatter_reference(table, rows, grads, lr=0.3)
        descend(table, rows, grads, lr=0.3)
        assert np.allclose(table, expected)

    def test_reference_does_not_mutate(self, rng):
        table = rng.standard_normal((5, 2))
        snapshot = table.copy()
        gradient_scatter_reference(table, np.array([1]), np.ones((1, 2)))
        assert np.array_equal(table, snapshot)

    def test_empty_rows_noop(self):
        table = np.ones((3, 2))
        descend(table, np.empty(0, int), np.empty((0, 2)))
        assert np.all(table == 1.0)

    def test_rejects_duplicate_rows(self):
        """Duplicate targets mean the gradients were never coalesced -
        exactly the hazard the paper's coalescing step exists to remove."""
        table = np.ones((4, 2))
        with pytest.raises(ValueError, match="coalesced"):
            descend(table, np.array([1, 1]), np.ones((2, 2)))

    @pytest.mark.parametrize(
        "rows",
        [[0, 2, 2, 5], [5, 2, 2, 0], [2, 5, 0, 2]],
        ids=["ascending-with-repeat", "descending", "shuffled"],
    )
    def test_rejects_duplicates_in_any_order(self, rows):
        """The ascending fast path proves uniqueness only for strictly
        ascending rows; every other order still reaches the sort."""
        table = np.ones((6, 2))
        with pytest.raises(ValueError, match="rows must be unique - scatter "
                                             "expects coalesced gradients"):
            descend(table, np.array(rows), np.ones((4, 2)))
        assert np.all(table == 1.0)

    @pytest.mark.parametrize(
        "rows", [[0, 2, 5], [5, 2, 0], [2, 5, 0]],
        ids=["ascending", "descending", "shuffled"],
    )
    def test_accepts_unique_rows_in_any_order(self, rows):
        table = np.ones((6, 2))
        descend(table, np.array(rows), np.ones((3, 2)), lr=1.0)
        assert np.all(table[[0, 2, 5]] == 0.0)
        assert np.all(table[[1, 3, 4]] == 1.0)

    def test_rejects_out_of_range_rows(self):
        with pytest.raises(IndexError, match="rows must lie in"):
            descend(np.ones((3, 2)), np.array([5]), np.ones((1, 2)))

    def test_rejects_negative_rows(self):
        with pytest.raises(IndexError, match="rows must lie in"):
            descend(np.ones((3, 2)), np.array([-1]), np.ones((1, 2)))

    def test_rejects_gradient_shape_mismatch(self):
        with pytest.raises(ValueError, match="gradients must have shape"):
            descend(np.ones((3, 2)), np.array([0]), np.ones((1, 3)))

    def test_rejects_1d_table(self):
        with pytest.raises(ValueError, match="2-D"):
            descend(np.ones(3), np.array([0]), np.ones((1, 1)))

    def test_rejects_2d_rows(self):
        with pytest.raises(ValueError, match="1-D"):
            descend(np.ones((3, 2)), np.ones((1, 1), int), np.ones((1, 2)))


class TestScatterWithOptimizer:
    def test_sgd_optimizer_matches_plain_scatter(self, rng):
        table = rng.standard_normal((6, 2))
        rows = np.array([0, 3, 5])
        grads = rng.standard_normal((3, 2))
        expected = gradient_scatter_reference(table, rows, grads, lr=0.1)
        SGD(lr=0.1).apply_sparse(table, rows, grads)
        assert np.allclose(table, expected)

    def test_adagrad_state_only_touches_updated_rows(self, rng):
        table = rng.standard_normal((6, 2))
        optimizer = Adagrad(lr=0.1)
        rows = np.array([1, 4])
        grads = rng.standard_normal((2, 2))
        optimizer.apply_sparse(table, rows, grads)
        accumulator = optimizer.state_tensors(table)["accumulator"]
        assert np.all(accumulator[[0, 2, 3, 5]] == 0.0)
        assert np.all(accumulator[rows] > 0.0)

    def test_optimizer_scatter_validates_duplicates(self):
        with pytest.raises(ValueError, match="coalesced"):
            Adagrad(lr=0.1).apply_sparse(
                np.ones((4, 2)), np.array([2, 2]), np.ones((2, 2))
            )

    def test_second_update_uses_accumulated_state(self, rng):
        """Adagrad's effective step must shrink across repeated updates."""
        table = np.zeros((3, 2))
        optimizer = Adagrad(lr=1.0)
        rows = np.array([0])
        grads = np.ones((1, 2))
        optimizer.apply_sparse(table, rows, grads)
        first_step = -table[0, 0]
        before = table[0, 0]
        optimizer.apply_sparse(table, rows, grads)
        second_step = before - table[0, 0]
        assert second_step < first_step


def block_height(table):
    """Rows per block, as ``row_blocks`` cuts them."""
    return row_blocks(table, np.zeros(1 << 20, dtype=np.int64))[0].stop


class TestRowBlocks:
    def test_block_is_a_quarter_mib_of_table_rows(self):
        assert UPDATE_BLOCK_BYTES == 256 * 1024
        assert block_height(np.empty((10, 64), F32)) == 1024
        assert block_height(np.empty((10, 64), F64)) == 512
        assert block_height(np.empty((10, 1 << 20), F64)) == 1   # never 0
        assert block_height(np.empty((10, 0), F32)) == UPDATE_BLOCK_BYTES

    def test_state_rows_share_the_block_bytes(self):
        """A stateful block spans a quarter MiB of table *and* state rows:
        f32 x 64 table rows, two f64 moments and one int64 counter each."""
        table = np.empty((2000, 64), F32)
        moment, counts = np.empty((2000, 64), F64), np.empty(2000, np.int64)
        blocks = row_blocks(table, np.arange(2000), moment, moment, counts)
        assert blocks[0] == slice(0, 2 ** 18 // (256 + 2 * 512 + 8))

    @pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 3079])
    def test_slices_tile_the_rows_in_order(self, count):
        table = np.empty((4000, 64), F32)
        rows = np.arange(count)
        blocks = row_blocks(table, rows)
        assert len(blocks) == -(-count // 1024)
        assert np.array_equal(
            np.concatenate([rows[b] for b in blocks] or [rows]), rows)
        assert all(rows[b].size == 1024 for b in blocks[:-1])

    @pytest.mark.parametrize("bad", [[3, -1], [0, 10], [10]])
    def test_a_row_outside_the_table_raises(self, bad):
        with pytest.raises(IndexError, match=r"rows must lie in \[0, 10\)"):
            row_blocks(np.empty((10, 2)), np.array(bad))


BLOCK = 16


@pytest.fixture
def shrunk(monkeypatch):
    """Cut updates of the ``case`` tables every ``BLOCK`` rows, through the
    one constant (nothing in the library sets it)."""
    def shrink(table):
        monkeypatch.setattr(
            scatter, "UPDATE_BLOCK_BYTES",
            BLOCK * table.shape[1] * table.itemsize)
        assert block_height(table) == BLOCK
    return shrink


class TestSgdUpdateRows:
    """The plain-SGD scatter (``SGD.apply_sparse``), walked in cache
    blocks, against the one-statement form it replaced, kept here verbatim
    as the oracle."""

    @staticmethod
    def oracle(table, rows, gradients, lr):
        table[rows] -= lr * gradients
        return table

    @staticmethod
    def case(param_dtype, grad_dtype, u, shuffled, dim=5, seed=0):
        rng = np.random.default_rng(seed + u)
        table = rng.standard_normal((4 * BLOCK + 9, dim)).astype(param_dtype)
        rows = np.sort(rng.choice(table.shape[0], u, replace=False))
        if shuffled:
            rng.shuffle(rows)
        gradients = rng.standard_normal((u, dim)).astype(grad_dtype)
        return table, rows, gradients

    @pytest.mark.parametrize("shuffled", [False, True],
                             ids=["ascending", "shuffled"])
    @pytest.mark.parametrize(
        "u", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("grad_dtype", [F32, F64], ids=["g32", "g64"])
    @pytest.mark.parametrize("param_dtype", [F32, F64], ids=["p32", "p64"])
    def test_equals_the_one_statement_update(
        self, shrunk, param_dtype, grad_dtype, u, shuffled
    ):
        table, rows, gradients = self.case(param_dtype, grad_dtype, u, shuffled)
        want = self.oracle(table.copy(), rows, gradients, 0.3)
        pristine = gradients.copy()
        whole = table.copy()
        descend(whole, rows, gradients, 0.3)
        shrunk(table)
        got = table.copy()
        descend(got, rows, gradients, 0.3)
        assert got.dtype == param_dtype
        assert np.array_equal(got, want) and np.array_equal(whole, want)
        assert np.array_equal(gradients, pristine)   # never written

    def test_updates_through_a_strided_shard_view(self, shrunk):
        table, rows, gradients = self.case(F32, F32, BLOCK + 3, True)
        shrunk(table)
        view, twin = table[1::2], table.copy()
        rows = rows[rows < view.shape[0]]
        gradients = gradients[: rows.size]
        self.oracle(twin[1::2], rows, gradients, 0.3)
        descend(view, rows, gradients, 0.3)
        assert not view.flags.c_contiguous
        assert np.array_equal(table, twin)

    @pytest.mark.parametrize("bad", [-1, 200])
    def test_a_row_outside_the_table_raises_and_writes_nothing(self, shrunk, bad):
        """The unchecked ``mode="clip"`` gather must never see such a row:
        it would read row 0 or the last row and store it somewhere else."""
        table, rows, gradients = self.case(F32, F32, 2 * BLOCK, False)
        shrunk(table)
        rows[-1] = bad          # in the second block: the first must not land
        before = table.copy()
        with pytest.raises(IndexError, match="rows must lie in"):
            SGD(lr=0.1).apply_sparse(table, rows, gradients)
        assert np.array_equal(table, before)
