"""Tests for the optimizers, including the paper's Equations 1-2."""

import numpy as np
import pytest

from repro.core import scatter
from repro.model.optim import (
    OPTIMIZERS,
    SGD,
    Adagrad,
    Adam,
    Momentum,
    RMSprop,
    make_optimizer,
    optimizer_names,
)


class TestSGD:
    def test_dense_update(self):
        param = np.ones(4)
        SGD(lr=0.5).apply_dense(param, np.full(4, 2.0))
        assert np.allclose(param, 0.0)

    def test_sparse_update_touches_only_rows(self):
        param = np.ones((4, 2))
        SGD(lr=1.0).apply_sparse(param, np.array([1, 3]), np.ones((2, 2)))
        assert np.all(param[[0, 2]] == 1.0)
        assert np.all(param[[1, 3]] == 0.0)

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError, match="positive"):
            SGD(lr=0.0)

    def test_step_applies_to_all_pairs(self):
        a, b = np.ones(2), np.ones(3)
        SGD(lr=1.0).step([(a, np.ones(2)), (b, np.ones(3))])
        assert np.all(a == 0.0) and np.all(b == 0.0)


class TestMomentum:
    def test_first_step_equals_sgd(self):
        p_sgd, p_mom = np.ones(3), np.ones(3)
        grad = np.full(3, 0.5)
        SGD(lr=0.1).apply_dense(p_sgd, grad)
        Momentum(lr=0.1, momentum=0.9).apply_dense(p_mom, grad)
        assert np.allclose(p_sgd, p_mom)

    def test_velocity_accumulates(self):
        opt = Momentum(lr=1.0, momentum=0.5)
        param = np.zeros(1)
        grad = np.ones(1)
        opt.apply_dense(param, grad)  # v=1, p=-1
        opt.apply_dense(param, grad)  # v=1.5, p=-2.5
        assert param[0] == pytest.approx(-2.5)

    def test_sparse_velocity_per_row(self):
        opt = Momentum(lr=1.0, momentum=0.5)
        param = np.zeros((3, 1))
        opt.apply_sparse(param, np.array([0]), np.ones((1, 1)))
        opt.apply_sparse(param, np.array([0, 1]), np.ones((2, 1)))
        assert param[0, 0] == pytest.approx(-2.5)  # momentum built up
        assert param[1, 0] == pytest.approx(-1.0)  # fresh row: first step
        assert param[2, 0] == 0.0

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError, match="momentum"):
            Momentum(lr=0.1, momentum=1.0)


class TestAdagrad:
    """Equation 2: A_i = A_{i-1} + G^2; W -= lr * G / sqrt(eps + A)."""

    def test_first_dense_step_matches_equation(self):
        opt = Adagrad(lr=0.1, eps=1e-10)
        param = np.zeros(2)
        grad = np.array([2.0, 4.0])
        opt.apply_dense(param, grad)
        expected = -0.1 * grad / np.sqrt(1e-10 + grad**2)
        assert np.allclose(param, expected)

    def test_accumulator_grows_monotonically(self):
        opt = Adagrad(lr=0.1)
        param = np.zeros(1)
        for _ in range(3):
            opt.apply_dense(param, np.ones(1))
        acc = opt.state_tensors(param)["accumulator"]
        assert acc[0] == pytest.approx(3.0)

    def test_effective_step_shrinks(self):
        opt = Adagrad(lr=1.0)
        param = np.zeros(1)
        opt.apply_dense(param, np.ones(1))
        first = -param[0]
        prev = param[0]
        opt.apply_dense(param, np.ones(1))
        second = prev - param[0]
        assert 0 < second < first

    def test_sparse_matches_dense_on_touched_rows(self):
        dense_p = np.zeros((3, 2))
        sparse_p = np.zeros((3, 2))
        grad_rows = np.array([0, 2])
        grads = np.array([[1.0, 2.0], [3.0, 4.0]])
        dense_grad = np.zeros((3, 2))
        dense_grad[grad_rows] = grads
        opt_d, opt_s = Adagrad(lr=0.1), Adagrad(lr=0.1)
        opt_d.apply_dense(dense_p, dense_grad)
        opt_s.apply_sparse(sparse_p, grad_rows, grads)
        assert np.allclose(dense_p[grad_rows], sparse_p[grad_rows])

    def test_sparse_differs_from_dense_on_untouched_rows(self):
        """Sparse semantics: absent rows see no update and no state decay -
        this is exactly why frameworks coalesce instead of applying dense."""
        opt = Adagrad(lr=0.1)
        param = np.ones((2, 1))
        opt.apply_sparse(param, np.array([0]), np.ones((1, 1)))
        assert param[1, 0] == 1.0

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError, match="eps"):
            Adagrad(lr=0.1, eps=0.0)


class TestRMSprop:
    """Equation 1: A_i = g*A_{i-1} + (1-g)*G^2; W -= lr * G / sqrt(eps + A)."""

    def test_first_dense_step_matches_equation(self):
        opt = RMSprop(lr=0.1, gamma=0.9, eps=1e-8)
        param = np.zeros(2)
        grad = np.array([2.0, 4.0])
        opt.apply_dense(param, grad)
        acc = 0.1 * grad**2
        expected = -0.1 * grad / np.sqrt(1e-8 + acc)
        assert np.allclose(param, expected)

    def test_accumulator_is_ema(self):
        opt = RMSprop(lr=0.1, gamma=0.5)
        param = np.zeros(1)
        opt.apply_dense(param, np.full(1, 2.0))  # A = 0.5*4 = 2
        opt.apply_dense(param, np.zeros(1))  # A = 0.5*2 = 1
        acc = opt.state_tensors(param)["accumulator"]
        assert acc[0] == pytest.approx(1.0)

    def test_sparse_rows_independent(self):
        opt = RMSprop(lr=0.1)
        param = np.zeros((2, 1))
        opt.apply_sparse(param, np.array([0]), np.ones((1, 1)))
        acc = opt.state_tensors(param)["accumulator"]
        assert acc[0, 0] > 0.0
        assert acc[1, 0] == 0.0

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            RMSprop(lr=0.1, gamma=-0.1)


class TestStateManagement:
    def test_state_keyed_per_parameter(self):
        opt = Adagrad(lr=0.1)
        a, b = np.zeros(2), np.zeros(3)
        opt.apply_dense(a, np.ones(2))
        assert opt.state_tensors(b)["accumulator"].shape == (3,)
        assert opt.state_tensors(a)["accumulator"].shape == (2,)

    def test_coalesced_gradient_requirement_why(self):
        """The paper's core argument (Section II-B): applying duplicate
        gradients sequentially through a stateful optimizer differs from
        applying their coalesced sum - so coalescing is mandatory."""
        sequential = np.zeros((1, 1))
        coalesced = np.zeros((1, 1))
        opt_seq, opt_coal = Adagrad(lr=1.0), Adagrad(lr=1.0)
        # Two gradients of 1.0 for the same row.
        opt_seq.apply_sparse(sequential, np.array([0]), np.ones((1, 1)))
        opt_seq.apply_sparse(sequential, np.array([0]), np.ones((1, 1)))
        opt_coal.apply_sparse(coalesced, np.array([0]), np.full((1, 1), 2.0))
        assert not np.allclose(sequential, coalesced)


class TestRegistry:
    """The --optimizer choices derive from one registry (like --dataset)."""

    def test_expected_names_registered(self):
        assert optimizer_names() == ("sgd", "momentum", "adagrad", "rmsprop",
                                     "adam")

    def test_make_optimizer_builds_each_class(self):
        for name, cls in OPTIMIZERS.items():
            assert isinstance(make_optimizer(name, lr=0.2), cls)

    def test_name_is_case_insensitive(self):
        assert isinstance(make_optimizer("Adam", lr=0.1), Adam)

    def test_unknown_name_lists_candidates(self):
        with pytest.raises(ValueError) as excinfo:
            make_optimizer("warp-drive")
        for name in optimizer_names():
            assert name in str(excinfo.value)

    def test_kwargs_pass_through(self):
        opt = make_optimizer("momentum", lr=0.1, momentum=0.5)
        assert opt.momentum == 0.5


class TestStateExportImport:
    """Checkpoint plumbing: state keyed by stable names, not tensor identity."""

    def test_roundtrip_restores_exact_state(self):
        param = np.zeros((4, 2))
        source = Adam(lr=0.1)
        source.apply_sparse(param, np.array([1, 3]), np.ones((2, 2)))
        named = [("table_0", param)]
        exported = source.export_state(named)
        assert set(exported) == {
            "table_0.first_moment", "table_0.second_moment", "table_0.steps",
        }
        fresh_param = np.zeros((4, 2))
        target = Adam(lr=0.1)
        target.import_state([("table_0", fresh_param)], exported)
        for key, tensor in target.state_tensors(fresh_param).items():
            assert np.array_equal(tensor, source.state_tensors(param)[key])

    def test_imported_state_continues_identically(self):
        grads = np.full((1, 2), 0.5)
        rows = np.array([0])
        direct_param = np.zeros((2, 2))
        direct = Momentum(lr=0.1)
        for _ in range(3):
            direct.apply_sparse(direct_param, rows, grads)

        half_param = np.zeros((2, 2))
        half = Momentum(lr=0.1)
        half.apply_sparse(half_param, rows, grads)
        resumed_param = half_param.copy()
        resumed = Momentum(lr=0.1)
        resumed.import_state(
            [("p", resumed_param)], half.export_state([("p", half_param)])
        )
        for _ in range(2):
            resumed.apply_sparse(resumed_param, rows, grads)
        assert np.array_equal(direct_param, resumed_param)

    def test_state_imported_in_any_key_order_continues_identically(self):
        """The rule takes the state tensors positionally, so an import must
        rebuild them in the order ``_init_state`` allocates them."""
        rows, grads = np.array([0, 2]), np.full((2, 2), 0.5)
        direct_param, direct = np.zeros((3, 2)), Adam(lr=0.1)
        for _ in range(2):
            direct.apply_sparse(direct_param, rows, grads)
        half_param, half = np.zeros((3, 2)), Adam(lr=0.1)
        half.apply_sparse(half_param, rows, grads)
        exported = half.export_state([("p", half_param)])
        resumed_param, resumed = half_param.copy(), Adam(lr=0.1)
        resumed.import_state([("p", resumed_param)],
                             dict(reversed(list(exported.items()))))
        resumed.apply_sparse(resumed_param, rows, grads)
        assert np.array_equal(direct_param, resumed_param)

    def test_untrained_parameters_export_fresh_state(self):
        """Every slot is exported, so an import can require every slot."""
        exported = Adagrad(lr=0.1).export_state([("p", np.zeros(3))])
        assert list(exported) == ["p.accumulator"]
        assert not exported["p.accumulator"].any()

    @pytest.mark.parametrize("dropped", ["first_moment", "steps"])
    def test_missing_state_rejected_by_name(self, dropped):
        param = np.zeros((4, 2))
        source = Adam(lr=0.1)
        source.apply_sparse(param, np.array([1]), np.ones((1, 2)))
        exported = source.export_state([("table_0", param)])
        del exported[f"table_0.{dropped}"]
        target, fresh = Adam(lr=0.1), np.zeros((4, 2))
        with pytest.raises(ValueError, match=rf"missing table_0\.{dropped}"):
            target.import_state([("table_0", fresh)], exported)
        assert not any(
            tensor.any() for tensor in target.state_tensors(fresh).values()
        )

    def test_import_is_a_deep_copy(self):
        param = np.zeros(3)
        opt = Adagrad(lr=0.1)
        arrays = {"p.accumulator": np.ones(3)}
        opt.import_state([("p", param)], arrays)
        arrays["p.accumulator"][0] = 99.0
        assert opt.state_tensors(param)["accumulator"][0] == 1.0

    def test_unknown_parameter_name_rejected(self):
        with pytest.raises(ValueError, match="no known parameter"):
            Adagrad(lr=0.1).import_state(
                [("p", np.zeros(3))], {"q.accumulator": np.zeros(3)}
            )

    def test_wrong_state_keys_rejected(self):
        with pytest.raises(ValueError, match="expects"):
            Adagrad(lr=0.1).import_state(
                [("p", np.zeros(3))], {"p.velocity": np.zeros(3)}
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Adagrad(lr=0.1).import_state(
                [("p", np.zeros(3))], {"p.accumulator": np.zeros(5)}
            )

    def test_dotted_parameter_name_rejected_on_export(self):
        opt = Adagrad(lr=0.1)
        param = np.zeros(2)
        opt.apply_dense(param, np.ones(2))
        with pytest.raises(ValueError, match="separator"):
            opt.export_state([("bad.name", param)])


#: Every (optimizer, hyperparameter key) pair the registry defines.
HYPERPARAMETER_KEYS = [
    (name, key)
    for name in OPTIMIZERS
    for key in make_optimizer(name).hyperparameters()
]


class TestHyperparameters:
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), True],
        ids=["nan", "inf", "-inf", "True"])
    @pytest.mark.parametrize("name,key", HYPERPARAMETER_KEYS,
                             ids=[f"{n}-{k}" for n, k in HYPERPARAMETER_KEYS])
    def test_a_non_finite_or_bool_value_is_rejected_by_key(
        self, name, key, bad
    ):
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            make_optimizer(name, **{key: bad})

    def test_every_optimizer_reports_its_knobs(self):
        assert SGD(lr=0.3).hyperparameters() == {"lr": 0.3}
        assert Momentum(lr=0.1, momentum=0.8).hyperparameters() == {
            "lr": 0.1, "momentum": 0.8,
        }
        assert Adagrad(lr=0.1, eps=1e-9).hyperparameters() == {
            "lr": 0.1, "eps": 1e-9,
        }
        assert RMSprop(lr=0.1).hyperparameters() == {
            "lr": 0.1, "gamma": 0.9, "eps": 1e-8,
        }
        assert Adam(lr=0.1).hyperparameters() == {
            "lr": 0.1, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
        }


# ----------------------------------------------------------------------
# The cache-blocked sparse update against the unblocked rules it replaced
# ----------------------------------------------------------------------
def _zeros(state, key, param):
    return state.setdefault(key, np.zeros_like(param, dtype=np.float64))


def _unblocked_sgd(opt, state, param, rows, grads):
    param[rows] -= opt.lr * grads


def _unblocked_momentum(opt, state, param, rows, grads):
    velocity = _zeros(state, "velocity", param)
    velocity[rows] = opt.momentum * velocity[rows] + grads
    param[rows] -= opt.lr * velocity[rows]


def _unblocked_adagrad(opt, state, param, rows, grads):
    acc = _zeros(state, "accumulator", param)
    acc[rows] += grads * grads
    param[rows] -= opt.lr * grads / np.sqrt(opt.eps + acc[rows])


def _unblocked_rmsprop(opt, state, param, rows, grads):
    acc = _zeros(state, "accumulator", param)
    acc[rows] = opt.gamma * acc[rows] + (1.0 - opt.gamma) * grads * grads
    param[rows] -= opt.lr * grads / np.sqrt(opt.eps + acc[rows])


def _unblocked_adam(opt, state, param, rows, grads):
    m, v = _zeros(state, "first_moment", param), _zeros(
        state, "second_moment", param)
    counts = state.setdefault("steps", np.zeros(param.shape[0], np.int64))
    counts[rows] += 1
    steps = counts[rows].astype(np.float64)
    m[rows] = opt.beta1 * m[rows] + (1.0 - opt.beta1) * grads
    v[rows] = opt.beta2 * v[rows] + (1.0 - opt.beta2) * grads * grads
    m_hat = m[rows] / (1.0 - opt.beta1**steps)[:, None]
    v_hat = v[rows] / (1.0 - opt.beta2**steps)[:, None]
    param[rows] -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


#: name -> the parent commit's whole-array ``_apply_rows`` body, verbatim.
UNBLOCKED = {
    "sgd": _unblocked_sgd,
    "momentum": _unblocked_momentum,
    "adagrad": _unblocked_adagrad,
    "rmsprop": _unblocked_rmsprop,
    "adam": _unblocked_adam,
}
BLOCK, DIM, TABLE_ROWS = 8, 4, 48


def _dense_sgd(opt, state, param, grad):
    param -= opt.lr * grad


def _dense_momentum(opt, state, param, grad):
    velocity = _zeros(state, "velocity", param)
    velocity *= opt.momentum
    velocity += grad
    param -= opt.lr * velocity


def _dense_adagrad(opt, state, param, grad):
    acc = _zeros(state, "accumulator", param)
    acc += grad * grad
    param -= opt.lr * grad / np.sqrt(opt.eps + acc)


def _dense_rmsprop(opt, state, param, grad):
    acc = _zeros(state, "accumulator", param)
    acc *= opt.gamma
    acc += (1.0 - opt.gamma) * grad * grad
    param -= opt.lr * grad / np.sqrt(opt.eps + acc)


def _dense_adam(opt, state, param, grad):
    counts = state.setdefault(
        "steps", np.zeros(param.shape[0] if param.ndim > 1 else 1, np.int64))
    counts += 1
    step = int(counts.flat[0])
    m, v = _zeros(state, "first_moment", param), _zeros(
        state, "second_moment", param)
    m *= opt.beta1
    m += (1.0 - opt.beta1) * grad
    v *= opt.beta2
    v += (1.0 - opt.beta2) * grad * grad
    m_hat = m / (1.0 - opt.beta1**step)
    v_hat = v / (1.0 - opt.beta2**step)
    param -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


#: name -> the separate ``apply_dense`` body each optimizer had before one
#: rule served both updates, verbatim (Adam's scalar bias correction
#: included).
DENSE = {
    "sgd": _dense_sgd,
    "momentum": _dense_momentum,
    "adagrad": _dense_adagrad,
    "rmsprop": _dense_rmsprop,
    "adam": _dense_adam,
}


class TestDenseUpdate:
    def test_the_oracle_table_covers_every_registered_optimizer(self):
        assert set(DENSE) == set(OPTIMIZERS)

    @pytest.mark.parametrize("shape", [(7,), (5, 3)], ids=["1d", "2d"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["f32", "f64"])
    @pytest.mark.parametrize("name", sorted(DENSE))
    def test_three_steps_equal_the_dense_oracle(self, name, dtype, shape):
        rng = np.random.default_rng(len(shape))
        param = rng.standard_normal(shape).astype(dtype)
        twin, twin_state = param.copy(), {}
        opt = make_optimizer(name, lr=0.05)
        for _ in range(3):
            grad = rng.standard_normal(shape).astype(dtype)
            pristine = grad.copy()
            opt.apply_dense(param, grad)
            DENSE[name](opt, twin_state, twin, grad)
            assert np.array_equal(grad, pristine)
        assert param.dtype == dtype
        assert np.array_equal(param, twin)
        state = opt.state_tensors(param)
        assert set(state) == set(twin_state)
        for key, tensor in state.items():
            assert tensor.dtype == twin_state[key].dtype
            assert np.array_equal(tensor, twin_state[key]), key


def _block_height(param):
    return scatter.row_blocks(param, np.zeros(1 << 16, dtype=np.int64))[0].stop


def _shrink_block(monkeypatch, param):
    """``BLOCK`` rows of ``param`` per block, through the one constant
    (nothing in the library sets it)."""
    monkeypatch.setattr(
        scatter, "UPDATE_BLOCK_BYTES", BLOCK * DIM * param.itemsize)
    assert _block_height(param) == BLOCK


def _two_updates(param_dtype, grad_dtype, u, shuffled):
    rng = np.random.default_rng(u)
    param = rng.standard_normal((TABLE_ROWS, DIM)).astype(param_dtype)
    updates = []
    for _ in range(2):      # the second one meets non-zero state
        rows = np.sort(rng.choice(TABLE_ROWS, u, replace=False))
        if shuffled:
            rng.shuffle(rows)
        updates.append(
            (rows, rng.standard_normal((u, DIM)).astype(grad_dtype)))
    return param, updates


class TestBlockedSparseUpdate:
    def test_the_oracle_table_covers_every_registered_optimizer(self):
        assert set(UNBLOCKED) == set(OPTIMIZERS)

    @pytest.mark.parametrize("shuffled", [False, True],
                             ids=["ascending", "shuffled"])
    @pytest.mark.parametrize(
        "u", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64],
                             ids=["g32", "g64"])
    @pytest.mark.parametrize("param_dtype", [np.float32, np.float64],
                             ids=["p32", "p64"])
    @pytest.mark.parametrize("name", sorted(UNBLOCKED))
    def test_two_updates_equal_the_unblocked_rule(
        self, monkeypatch, name, param_dtype, grad_dtype, u, shuffled
    ):
        param, updates = _two_updates(param_dtype, grad_dtype, u, shuffled)
        _shrink_block(monkeypatch, param)
        twin, twin_state = param.copy(), {}
        opt = make_optimizer(name, lr=0.05)
        for rows, grads in updates:
            pristine = grads.copy()
            opt.apply_sparse(param, rows, grads)
            UNBLOCKED[name](opt, twin_state, twin, rows, grads)
            assert np.array_equal(grads, pristine)
        assert param.dtype == param_dtype
        assert np.array_equal(param, twin)
        state = opt.state_tensors(param)
        assert set(state) == set(twin_state)
        for key, tensor in state.items():
            assert tensor.dtype == twin_state[key].dtype
            assert np.array_equal(tensor, twin_state[key]), key

    @pytest.mark.parametrize("name", ["sgd", "adam"])
    def test_the_real_block_boundary(self, name):
        """No shrinking: one row more than a quarter-MiB block."""
        rng = np.random.default_rng(0)
        param = rng.standard_normal((40_000, 2)).astype(np.float32)
        u = _block_height(param) + 1
        assert u == 32_769
        rows = rng.permutation(param.shape[0])[:u]
        grads = rng.standard_normal((u, 2)).astype(np.float32)
        twin, twin_state = param.copy(), {}
        opt = make_optimizer(name, lr=0.05)
        opt.apply_sparse(param, rows, grads)
        UNBLOCKED[name](opt, twin_state, twin, rows, grads)
        assert np.array_equal(param, twin)

    @pytest.mark.parametrize("bad", [-1, TABLE_ROWS])
    @pytest.mark.parametrize("name", sorted(UNBLOCKED))
    def test_a_row_outside_the_table_raises_and_updates_nothing(
        self, monkeypatch, name, bad
    ):
        param, updates = _two_updates(np.float32, np.float32, 2 * BLOCK, False)
        _shrink_block(monkeypatch, param)
        opt = make_optimizer(name, lr=0.05)
        opt.apply_sparse(param, *updates[0])
        rows, grads = updates[1]
        rows[-1] = bad          # in the second block: the first must not land
        before = param.copy()
        state_before = {
            key: tensor.copy()
            for key, tensor in opt.state_tensors(param).items()
        }
        with pytest.raises(IndexError, match="rows must lie in"):
            opt.apply_sparse(param, rows, grads)
        assert np.array_equal(param, before)
        for key, tensor in opt.state_tensors(param).items():
            assert np.array_equal(tensor, state_before[key]), key


class TestCheckedSparseUpdate:
    """``apply_sparse`` is the one entry point of the sparse update: every
    optimizer refuses input that is not one coalesced gradient per row
    before it writes any row of the table or of its state.  No shrinking:
    2 100 rows of a float32 x 64 table span at least three real blocks of
    every optimizer's walk (1 024 table rows for SGD, fewer beside state)."""

    U, ROWS = 2100, 4000

    def prepared(self, name):
        """An optimizer whose state already holds one update, the rows and
        gradients of a second, and snapshots of the table and state."""
        rng = np.random.default_rng(7)
        param = rng.standard_normal((self.ROWS, 64)).astype(np.float32)
        opt = make_optimizer(name, lr=0.05)
        rows = np.sort(rng.choice(self.ROWS, self.U, replace=False))
        grads = rng.standard_normal((self.U, 64)).astype(np.float32)
        opt.apply_sparse(param, rows, grads)
        rows = np.sort(rng.choice(self.ROWS, self.U, replace=False))
        grads = rng.standard_normal((self.U, 64)).astype(np.float32)
        state = opt.state_tensors(param)
        before = param.copy(), {k: t.copy() for k, t in state.items()}
        return opt, param, rows, grads, before

    @staticmethod
    def assert_untouched(opt, param, before):
        assert np.array_equal(param, before[0])
        for key, tensor in opt.state_tensors(param).items():
            assert np.array_equal(tensor, before[1][key]), key

    @pytest.mark.parametrize("name", optimizer_names())
    def test_duplicate_rows_raise_and_write_nothing(self, name):
        opt, param, rows, grads, before = self.prepared(name)
        rows[-1] = rows[0]      # in the last block: the first must not land
        with pytest.raises(ValueError, match="rows must be unique"):
            opt.apply_sparse(param, rows, grads)
        self.assert_untouched(opt, param, before)

    @pytest.mark.parametrize("name", optimizer_names())
    def test_gradients_ending_one_row_into_the_last_block_raise(self, name):
        """Sliced per block, such gradients would hand the last block one
        row, which NumPy broadcasts over all of that block's rows."""
        opt, param, rows, grads, before = self.prepared(name)
        blocks = scatter.row_blocks(
            param, rows, *opt.state_tensors(param).values())
        assert len(blocks) >= 3 and rows[blocks[-1]].size > 1
        with pytest.raises(ValueError, match="gradients must have shape"):
            opt.apply_sparse(param, rows, grads[: blocks[-1].start + 1])
        self.assert_untouched(opt, param, before)

    @pytest.mark.parametrize("name", optimizer_names())
    def test_more_gradients_than_rows_raise_and_write_nothing(self, name):
        opt, param, rows, _, before = self.prepared(name)
        grads = np.ones((3072, 64), np.float32)
        with pytest.raises(ValueError, match="gradients must have shape"):
            opt.apply_sparse(param, rows, grads)
        self.assert_untouched(opt, param, before)

    @pytest.mark.parametrize("bad_row", [ROWS, -1], ids=["past-the-end", "negative"])
    @pytest.mark.parametrize("name", optimizer_names())
    def test_out_of_range_rows_raise_and_write_nothing(self, name, bad_row):
        opt, param, rows, grads, before = self.prepared(name)
        rows = np.sort(rows)
        rows[-1 if bad_row >= 0 else 0] = bad_row   # in the last / first block
        with pytest.raises(IndexError, match="rows must lie in"):
            opt.apply_sparse(param, rows, grads)
        self.assert_untouched(opt, param, before)

    @pytest.mark.parametrize("name", optimizer_names())
    def test_rows_that_are_not_1d_raise_and_write_nothing(self, name):
        opt, param, rows, grads, before = self.prepared(name)
        with pytest.raises(ValueError, match="rows must be 1-D"):
            opt.apply_sparse(param, rows.reshape(-1, 1), grads)
        self.assert_untouched(opt, param, before)

    @pytest.mark.parametrize("name", optimizer_names())
    def test_unsorted_unique_rows_update_like_sorted_ones(self, name):
        """Rows in any order pass the uniqueness check by sort and land
        exactly where the ascending update puts them, state included."""
        opt, param, rows, grads, _ = self.prepared(name)
        twin, twin_param, _, _, _ = self.prepared(name)
        perm = np.random.default_rng(3).permutation(rows.size)
        opt.apply_sparse(param, rows[perm], grads[perm])
        twin.apply_sparse(twin_param, rows, grads)
        assert np.array_equal(param, twin_param)
        mine, theirs = opt.state_tensors(param), twin.state_tensors(twin_param)
        assert mine.keys() == theirs.keys()
        for key in mine:
            assert np.array_equal(mine[key], theirs[key]), key
