"""Unit tests for the gradient-scatter model update."""

import numpy as np
import pytest

from repro.core.scatter import (
    gradient_scatter,
    gradient_scatter_reference,
    scatter_with_optimizer,
)
from repro.model.optim import SGD, Adagrad


class TestGradientScatter:
    def test_basic_sgd_update(self):
        table = np.ones((4, 2))
        rows = np.array([1, 3])
        grads = np.array([[1.0, 1.0], [2.0, 2.0]])
        gradient_scatter(table, rows, grads, lr=0.5)
        assert table[1].tolist() == [0.5, 0.5]
        assert table[3].tolist() == [0.0, 0.0]

    def test_untouched_rows_unchanged(self):
        table = np.full((4, 2), 7.0)
        gradient_scatter(table, np.array([2]), np.ones((1, 2)), lr=1.0)
        assert np.all(table[[0, 1, 3]] == 7.0)

    def test_updates_in_place_and_returns_table(self):
        table = np.zeros((3, 2))
        result = gradient_scatter(table, np.array([0]), np.ones((1, 2)))
        assert result is table

    def test_matches_reference(self, rng):
        table = rng.standard_normal((10, 3))
        rows = np.array([0, 4, 9])
        grads = rng.standard_normal((3, 3))
        expected = gradient_scatter_reference(table, rows, grads, lr=0.3)
        gradient_scatter(table, rows, grads, lr=0.3)
        assert np.allclose(table, expected)

    def test_reference_does_not_mutate(self, rng):
        table = rng.standard_normal((5, 2))
        snapshot = table.copy()
        gradient_scatter_reference(table, np.array([1]), np.ones((1, 2)))
        assert np.array_equal(table, snapshot)

    def test_empty_rows_noop(self):
        table = np.ones((3, 2))
        gradient_scatter(table, np.empty(0, int), np.empty((0, 2)))
        assert np.all(table == 1.0)

    def test_rejects_duplicate_rows(self):
        """Duplicate targets mean the gradients were never coalesced -
        exactly the hazard the paper's coalescing step exists to remove."""
        table = np.ones((4, 2))
        with pytest.raises(ValueError, match="coalesced"):
            gradient_scatter(table, np.array([1, 1]), np.ones((2, 2)))

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
            gradient_scatter(table, np.array(rows), np.ones((4, 2)))
        assert np.all(table == 1.0)

    @pytest.mark.parametrize(
        "rows", [[0, 2, 5], [5, 2, 0], [2, 5, 0]],
        ids=["ascending", "descending", "shuffled"],
    )
    def test_accepts_unique_rows_in_any_order(self, rows):
        table = np.ones((6, 2))
        gradient_scatter(table, np.array(rows), np.ones((3, 2)), lr=1.0)
        assert np.all(table[[0, 2, 5]] == 0.0)
        assert np.all(table[[1, 3, 4]] == 1.0)

    def test_rejects_out_of_range_rows(self):
        with pytest.raises(ValueError, match="outside"):
            gradient_scatter(np.ones((3, 2)), np.array([5]), np.ones((1, 2)))

    def test_rejects_negative_rows(self):
        with pytest.raises(ValueError, match="outside"):
            gradient_scatter(np.ones((3, 2)), np.array([-1]), np.ones((1, 2)))

    def test_rejects_gradient_shape_mismatch(self):
        with pytest.raises(ValueError, match="gradients must have shape"):
            gradient_scatter(np.ones((3, 2)), np.array([0]), np.ones((1, 3)))

    def test_rejects_1d_table(self):
        with pytest.raises(ValueError, match="2-D"):
            gradient_scatter(np.ones(3), np.array([0]), np.ones((1, 1)))

    def test_rejects_2d_rows(self):
        with pytest.raises(ValueError, match="1-D"):
            gradient_scatter(np.ones((3, 2)), np.ones((1, 1), int), np.ones((1, 2)))


class TestScatterWithOptimizer:
    def test_sgd_optimizer_matches_plain_scatter(self, rng):
        table_a = rng.standard_normal((6, 2))
        table_b = table_a.copy()
        rows = np.array([0, 3, 5])
        grads = rng.standard_normal((3, 2))
        gradient_scatter(table_a, rows, grads, lr=0.1)
        scatter_with_optimizer(table_b, rows, grads, SGD(lr=0.1))
        assert np.allclose(table_a, table_b)

    def test_adagrad_state_only_touches_updated_rows(self, rng):
        table = rng.standard_normal((6, 2))
        optimizer = Adagrad(lr=0.1)
        rows = np.array([1, 4])
        grads = rng.standard_normal((2, 2))
        scatter_with_optimizer(table, rows, grads, optimizer)
        accumulator = optimizer.state_tensors(table)["accumulator"]
        assert np.all(accumulator[[0, 2, 3, 5]] == 0.0)
        assert np.all(accumulator[rows] > 0.0)

    def test_optimizer_scatter_validates_duplicates(self):
        with pytest.raises(ValueError, match="coalesced"):
            scatter_with_optimizer(
                np.ones((4, 2)), np.array([2, 2]), np.ones((2, 2)), SGD(lr=0.1)
            )

    def test_second_update_uses_accumulated_state(self, rng):
        """Adagrad's effective step must shrink across repeated updates."""
        table = np.zeros((3, 2))
        optimizer = Adagrad(lr=1.0)
        rows = np.array([0])
        grads = np.ones((1, 2))
        scatter_with_optimizer(table, rows, grads, optimizer)
        first_step = -table[0, 0]
        before = table[0, 0]
        scatter_with_optimizer(table, rows, grads, optimizer)
        second_step = before - table[0, 0]
        assert second_step < first_step
