"""Tests for the extension optimizer: Adam."""

import numpy as np
import pytest

from repro.model.optim import Adam, make_optimizer, optimizer_names


class TestAdam:
    def test_first_dense_step_is_lr_sized(self):
        """With bias correction, the first Adam step is ~lr regardless of
        gradient magnitude."""
        opt = Adam(lr=0.1)
        param = np.zeros(3)
        opt.apply_dense(param, np.array([1.0, 10.0, 100.0]))
        assert np.allclose(param, -0.1, atol=1e-3)

    def test_dense_steps_shrink_for_constant_gradient(self):
        opt = Adam(lr=0.1)
        param = np.zeros(1)
        steps = []
        for _ in range(3):
            before = param[0]
            opt.apply_dense(param, np.ones(1))
            steps.append(before - param[0])
        assert steps[0] > 0
        assert all(abs(s - 0.1) < 0.02 for s in steps)  # ~lr while flat

    def test_lazy_per_row_bias_correction(self):
        """A row touched for the first time at global step 3 must still get
        a full-size first step (its own t=1)."""
        opt = Adam(lr=0.1)
        param = np.zeros((2, 1))
        for _ in range(3):
            opt.apply_sparse(param, np.array([0]), np.ones((1, 1)))
        before = param[1, 0]
        opt.apply_sparse(param, np.array([1]), np.ones((1, 1)))
        first_step_row1 = before - param[1, 0]
        assert first_step_row1 == pytest.approx(0.1, abs=1e-3)

    def test_untouched_rows_keep_zero_state(self):
        opt = Adam(lr=0.1)
        param = np.zeros((4, 2))
        opt.apply_sparse(param, np.array([1]), np.ones((1, 2)))
        state = opt.state_tensors(param)
        assert np.all(state["first_moment"][[0, 2, 3]] == 0.0)
        assert state["steps"][1] == 1
        assert np.all(state["steps"][[0, 2, 3]] == 0)

    @pytest.mark.parametrize("name", optimizer_names())
    def test_traffic_slots_count_the_row_state_tensors(self, name):
        """The traffic model charges one read-modify-write per ``(rows,
        dim)`` state tensor; Adam's per-row counters are not one."""
        from repro.core.traffic import OPTIMIZER_STATE_SLOTS

        param = np.zeros((5, 3))
        state = make_optimizer(name)._init_state(param)
        tensors = [t for t in state.values() if t.shape == param.shape]
        assert OPTIMIZER_STATE_SLOTS[name] == len(tensors)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", optimizer_names())
    def test_traffic_bills_the_state_at_its_stored_width(self, name, dtype):
        """Whatever the table's dtype, every ``(rows, dim)`` state tensor
        is as wide per element as the traffic model charges, and so are
        the per-row step counters (Adam's, and no other optimizer's)."""
        from repro.core.traffic import (
            OPTIMIZER_ROW_COUNTER_BYTES,
            OPTIMIZER_STATE_ITEMSIZE,
        )

        param = np.zeros((5, 3), dtype=dtype)
        state = make_optimizer(name)._init_state(param)
        for tensor in state.values():
            if tensor.shape == param.shape:
                assert tensor.dtype.itemsize == OPTIMIZER_STATE_ITEMSIZE
        counters = [t for t in state.values() if t.shape == param.shape[:1]]
        assert (sum(t.dtype.itemsize for t in counters)
                == OPTIMIZER_ROW_COUNTER_BYTES.get(name, 0))

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            Adam(lr=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            Adam(lr=0.1, eps=0.0)

    def test_training_with_adam_and_casted_backward(self):
        """End-to-end: Adam + casted backward trains and matches baseline."""
        from repro.core.indexing import IndexArray
        from repro.model.configs import RM1
        from repro.model.dlrm import DLRM

        config = RM1.with_overrides(
            num_tables=2, gathers_per_table=3, rows_per_table=100,
            bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
        )
        losses = {}
        for mode in ("baseline", "casted"):
            model = DLRM(config, rng=np.random.default_rng(1))
            opt = Adam(lr=0.01)
            data_rng = np.random.default_rng(2)
            run = []
            for _ in range(4):
                dense = data_rng.standard_normal((8, 8))
                indices = [
                    IndexArray(
                        data_rng.integers(0, 100, 24),
                        np.repeat(np.arange(8), 3), 100, 8,
                    )
                    for _ in range(2)
                ]
                labels = data_rng.integers(0, 2, 8).astype(float)
                run.append(model.train_step(dense, indices, labels, opt, mode=mode).loss)
            losses[mode] = run
        assert losses["baseline"] == losses["casted"]
