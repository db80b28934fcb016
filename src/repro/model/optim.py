"""Optimizers with dense and sparse (row-coalesced) update rules.

Section II-B of the paper explains *why* gradient coalescing is mandatory:
"ML frameworks are designed to support a variety of optimization algorithms
(e.g., RMSprop, Adagrad, momentum, ...) which require the (potentially
multiple) gradients for updating a given model parameter ... to first be
accumulated into a single value".  These optimizers encode that contract:

* :meth:`Optimizer.apply_dense` updates a whole parameter tensor (MLP
  weights), and
* :meth:`Optimizer.apply_sparse` — the one entry point of the sparse
  update — updates only the ``rows`` of an embedding table that received a
  coalesced gradient, touching per-row optimizer state lazily — exactly the
  access pattern the gradient-scatter traffic model
  (:func:`repro.core.traffic.scatter_traffic`) accounts for — one cache
  block of rows at a time (:func:`repro.core.scatter.update_rows`, which
  rejects duplicate rows and mis-shaped gradients before any write).

Both run one row-local ``_rule`` per optimizer, its update equation spelled
once: ``apply_dense`` on the whole tensors, ``apply_sparse`` on the taken
rows of each block.  The rule updates the parameter and state it is handed
in place and is elementwise, so a block of rows sees exactly what the whole
tensor would.

Dtypes: a parameter keeps its dtype through every update, and the sparse
update runs in the dtype the gradient arrives in (the model's, see
:class:`repro.model.dlrm.DLRM`).  The accumulators of Momentum / Adagrad /
RMSprop / Adam (``_init_state``) are float64 whatever the parameter dtype:
a deliberate precision choice for long-running sums, what the
checkpoint schema validates on import, and the width the traffic model
bills them at (:data:`repro.core.traffic.OPTIMIZER_STATE_ITEMSIZE`).

RMSprop implements Equation 1 of the paper and Adagrad Equation 2,
symbol-for-symbol.  Every hyperparameter must be a finite real number (not
a bool) in its range; anything else is a :class:`ValueError` naming it at
construction.

Two pieces of plumbing make the optimizers first-class runtime citizens:

* the **registry** (:data:`OPTIMIZERS` / :func:`make_optimizer` /
  :func:`optimizer_names`) — the single source the CLI's ``--optimizer``
  choices derive from, mirroring the ``--dataset`` convention (unknown
  names raise listing the candidates);
* **state export/import** (:meth:`Optimizer.export_state` /
  :meth:`Optimizer.import_state` / :meth:`Optimizer.hyperparameters`) —
  per-parameter state keyed by *stable names* instead of tensor identity,
  which is what lets :mod:`repro.runtime.checkpoint` serialize a training
  job and resume it bit-identically.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Dict, Sequence, Tuple

import numpy as np

from ..core.scatter import update_rows

__all__ = [
    "Optimizer",
    "SGD",
    "Momentum",
    "Adagrad",
    "RMSprop",
    "Adam",
    "OPTIMIZERS",
    "make_optimizer",
    "optimizer_names",
]


def _checked(key: str, value: float, unit: bool = False) -> float:
    """``value`` as a float, if it is a finite real number (not a bool) in
    ``[0, 1)`` when ``unit`` or above 0 otherwise; a :class:`ValueError`
    naming ``key`` if it is not."""
    bounds = "in [0, 1)" if unit else "positive"
    if (
        isinstance(value, (bool, np.bool_))
        or not math.isfinite(value)
        or not (0.0 <= value < 1.0 if unit else value > 0)
    ):
        raise ValueError(f"{key} must be finite and {bounds}, got {value!r}")
    return float(value)


class Optimizer(ABC):
    """Base class holding per-parameter state keyed by tensor identity.

    State tensors are allocated lazily on first update, matching how
    embedding-table state is only ever touched for rows that train.  A
    subclass spells its update once, as :meth:`_rule`, which both
    applications call with the state tensors :meth:`_init_state` allocates
    after the gradient, in order (Adam supplies its own arguments: its step
    counters feed the bias corrections).
    """

    def __init__(self, lr: float) -> None:
        self.lr = _checked("lr", lr)
        self._state: dict[int, dict[str, np.ndarray]] = {}

    def _state_for(self, param: np.ndarray) -> dict[str, np.ndarray]:
        key = id(param)
        if key not in self._state:
            self._state[key] = self._init_state(param)
        return self._state[key]

    def _init_state(self, param: np.ndarray) -> dict[str, np.ndarray]:
        """Allocate zeroed state tensors shaped like ``param`` (default none)."""
        return {}

    def state_tensors(self, param: np.ndarray) -> dict[str, np.ndarray]:
        """Expose (and lazily create) the state tensors attached to ``param``."""
        return self._state_for(param)

    @abstractmethod
    def _rule(self, *args: Any, **kwargs: Any) -> None:
        """``_rule(param, grad, *state)``: the update equation, elementwise,
        applied in place to ``param`` and the ``state`` tensors shaped like
        it — whole tensors, or the taken rows of one block."""

    def apply_dense(self, param: np.ndarray, grad: np.ndarray) -> None:
        """Update a dense parameter tensor in place."""
        self._rule(param, grad, *self._state_for(param).values())

    def apply_sparse(
        self, param: np.ndarray, rows: np.ndarray, grads: np.ndarray
    ) -> None:
        """Update only ``param[rows]`` with the coalesced ``grads``.

        The one entry point of the sparse update.  The update rules below
        are all row-local, so :func:`~repro.core.scatter.update_rows` walks
        the rows in cache blocks and applies :meth:`_rule` to each block's
        parameter and state rows — bit-identical to one whole-array
        application, per-row state included.  They are not additive in the
        gradient, so ``rows`` must be unique; the walk checks that, the
        shapes (``param`` 2-D, ``rows`` 1-D, ``grads`` one row per row) and
        the row range before anything is updated: a :class:`ValueError`,
        or an :class:`IndexError` for a row outside ``param``, leaves
        ``param`` and its state untouched.  ``param`` keeps its dtype;
        ``grads`` is read in its own and never written.
        """
        update_rows(
            param, rows, self._rule, (grads,),
            tuple(self._state_for(param).values()),
        )

    def step(self, parameters: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Apply dense updates over ``(param, grad)`` pairs (MLP layers)."""
        for param, grad in parameters:
            self.apply_dense(param, grad)

    # ------------------------------------------------------------------
    # Checkpoint plumbing: state keyed by stable names, not tensor identity
    # ------------------------------------------------------------------
    def hyperparameters(self) -> Dict[str, float]:
        """The scalar knobs that define this optimizer's update rule.

        Persisted alongside exported state and verified on import — a
        resumed run with a different learning rate is a *different* run,
        and the checkpoint subsystem refuses to conflate the two.
        """
        return {"lr": self.lr}

    def export_state(
        self, named_params: Sequence[Tuple[str, np.ndarray]]
    ) -> Dict[str, np.ndarray]:
        """Flatten per-parameter state into ``{"name.key": array}`` entries.

        Every parameter's every state slot appears.  State is lazy, so a
        parameter that has not trained yet exports the zeroed tensors
        :meth:`_init_state` would start it from (without attaching them),
        and :meth:`import_state` can require the whole set: a checkpoint
        missing a member is damaged, not fresh.
        """
        exported: Dict[str, np.ndarray] = {}
        for name, param in named_params:
            if "." in name:
                raise ValueError(
                    f"parameter name {name!r} must not contain '.' (it is "
                    "the state-key separator)"
                )
            state = self._state.get(id(param)) or self._init_state(param)
            for key, tensor in state.items():
                exported[f"{name}.{key}"] = tensor
        return exported

    def import_state(
        self,
        named_params: Sequence[Tuple[str, np.ndarray]],
        arrays: Dict[str, np.ndarray],
    ) -> None:
        """Rebuild per-parameter state from :meth:`export_state` output.

        Every ``"name.key"`` entry is validated against the template
        :meth:`_init_state` would allocate for that parameter — unknown
        parameter names, unknown state keys, and shape/dtype mismatches all
        fail loudly (a checkpoint from a different optimizer or geometry
        must not half-apply) — and so does a missing entry: every
        parameter's every slot is required, and the error names the absent
        ``"name.key"`` members.  The import is all-or-nothing: every entry
        is validated and copied *before* any state slot is assigned, so a
        rejected import leaves existing state untouched.
        """
        by_name = dict(named_params)
        grouped: Dict[str, Dict[str, np.ndarray]] = {}
        for flat_key, tensor in arrays.items():
            name, _, key = flat_key.rpartition(".")
            if not name or name not in by_name:
                raise ValueError(
                    f"state entry {flat_key!r} names no known parameter "
                    f"(known: {', '.join(sorted(by_name)) or 'none'})"
                )
            grouped.setdefault(name, {})[key] = tensor
        pending: Dict[int, Dict[str, np.ndarray]] = {}
        missing: list[str] = []
        for name, param in by_name.items():
            template = self._init_state(param)
            entries = grouped.get(name, {})
            if not set(entries) <= set(template):
                raise ValueError(
                    f"state for {name!r} has keys {sorted(entries)}, this "
                    f"{type(self).__name__} expects {sorted(template)}"
                )
            absent = [key for key in template if key not in entries]
            if absent or not template:
                missing += [f"{name}.{key}" for key in absent]
                continue
            rebuilt: Dict[str, np.ndarray] = {}
            for key, expected in template.items():   # the rule's order
                tensor = np.asarray(entries[key])
                if tensor.shape != expected.shape or tensor.dtype != expected.dtype:
                    raise ValueError(
                        f"state {name}.{key} has shape {tensor.shape} dtype "
                        f"{tensor.dtype}, expected {expected.shape} "
                        f"{expected.dtype}"
                    )
                rebuilt[key] = tensor.copy()
            pending[id(param)] = rebuilt
        if missing:
            raise ValueError(
                f"optimizer state is missing {', '.join(missing)}"
            )
        self._state.update(pending)


class SGD(Optimizer):
    """Plain stochastic gradient descent: ``W <- W - lr * G``."""

    def _rule(self, param: np.ndarray, grad: np.ndarray) -> None:
        param -= self.lr * grad


class Momentum(Optimizer):
    """SGD with heavy-ball momentum: ``V <- m*V + G;  W <- W - lr*V``."""

    def __init__(self, lr: float, momentum: float = 0.9) -> None:
        super().__init__(lr)
        self.momentum = _checked("momentum", momentum, unit=True)

    def hyperparameters(self) -> Dict[str, float]:
        return {"lr": self.lr, "momentum": self.momentum}

    def _init_state(self, param: np.ndarray) -> dict[str, np.ndarray]:
        return {"velocity": np.zeros_like(param, dtype=np.float64)}

    def _rule(
        self, param: np.ndarray, grad: np.ndarray, velocity: np.ndarray
    ) -> None:
        velocity *= self.momentum
        velocity += grad
        param -= self.lr * velocity


class Adagrad(Optimizer):
    """Adagrad — Equation 2 of the paper.

    ``A_i = A_{i-1} + G_i^2;  W_i = W_{i-1} - lr * G_i / sqrt(eps + A_i)``
    """

    def __init__(self, lr: float, eps: float = 1e-10) -> None:
        super().__init__(lr)
        self.eps = _checked("eps", eps)

    def hyperparameters(self) -> Dict[str, float]:
        return {"lr": self.lr, "eps": self.eps}

    def _init_state(self, param: np.ndarray) -> dict[str, np.ndarray]:
        return {"accumulator": np.zeros_like(param, dtype=np.float64)}

    def _rule(self, param: np.ndarray, grad: np.ndarray, acc: np.ndarray) -> None:
        acc += grad * grad
        param -= self.lr * grad / np.sqrt(self.eps + acc)


class RMSprop(Optimizer):
    """RMSprop — Equation 1 of the paper.

    ``A_i = g*A_{i-1} + (1-g)*G_i^2;  W_i = W_{i-1} - lr * G_i / sqrt(eps + A_i)``
    """

    def __init__(self, lr: float, gamma: float = 0.9, eps: float = 1e-8) -> None:
        super().__init__(lr)
        self.gamma = _checked("gamma", gamma, unit=True)
        self.eps = _checked("eps", eps)

    def hyperparameters(self) -> Dict[str, float]:
        return {"lr": self.lr, "gamma": self.gamma, "eps": self.eps}

    def _init_state(self, param: np.ndarray) -> dict[str, np.ndarray]:
        return {"accumulator": np.zeros_like(param, dtype=np.float64)}

    def _rule(self, param: np.ndarray, grad: np.ndarray, acc: np.ndarray) -> None:
        acc *= self.gamma
        acc += (1.0 - self.gamma) * grad * grad
        param -= self.lr * grad / np.sqrt(self.eps + acc)


class Adam(Optimizer):
    """Adam with lazy (per-row) bias correction for sparse tables.

    Dense tensors use the standard global step count; embedding rows each
    carry their own update count, so a rarely-touched row's first update is
    bias-corrected as *its* first step — the "lazy Adam" semantics sparse
    frameworks implement, and a second optimizer state tensor that the
    scatter traffic model charges for (``OPTIMIZER_STATE_SLOTS["adam"]``).

    The two bias corrections ``1 - beta**step`` are inputs of the rule, in
    two spellings kept apart on purpose: Python scalars for a dense tensor,
    one float64 array entry per row for a table.  NumPy's vectorised
    ``power`` and Python's ``pow`` disagree in the last bit for some step
    counts, so sharing either spelling would move one of the two paths.
    """

    def __init__(
        self,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(lr)
        self.beta1 = _checked("beta1", beta1, unit=True)
        self.beta2 = _checked("beta2", beta2, unit=True)
        self.eps = _checked("eps", eps)

    def hyperparameters(self) -> Dict[str, float]:
        return {
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
        }

    def _init_state(self, param: np.ndarray) -> dict[str, np.ndarray]:
        return {
            "first_moment": np.zeros_like(param, dtype=np.float64),
            "second_moment": np.zeros_like(param, dtype=np.float64),
            "steps": np.zeros(param.shape[0] if param.ndim > 1 else 1,
                              dtype=np.int64),
        }

    def _rule(
        self,
        param: np.ndarray,
        grad: np.ndarray,
        correction1: float | np.ndarray,
        correction2: float | np.ndarray,
        m: np.ndarray,
        v: np.ndarray,
    ) -> None:
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / correction1
        v_hat = v / correction2
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def apply_dense(self, param: np.ndarray, grad: np.ndarray) -> None:
        state = self._state_for(param)
        state["steps"] += 1
        step = int(state["steps"].flat[0])
        self._rule(
            param, grad, 1.0 - self.beta1**step, 1.0 - self.beta2**step,
            state["first_moment"], state["second_moment"],
        )

    def apply_sparse(
        self, param: np.ndarray, rows: np.ndarray, grads: np.ndarray
    ) -> None:
        """The walk of :meth:`Optimizer.apply_sparse`, with the per-row step
        counters taken and stored like the moments: a block counts its rows'
        steps and derives their corrections itself, so a row outside
        ``param`` (caught before the first block) moves no counter."""

        def rule(
            p: np.ndarray, g: np.ndarray,
            m: np.ndarray, v: np.ndarray, steps: np.ndarray,
        ) -> None:
            steps += 1
            counts = steps.astype(np.float64)
            self._rule(p, g, (1.0 - self.beta1**counts)[:, None],
                       (1.0 - self.beta2**counts)[:, None], m, v)

        update_rows(param, rows, rule, (grads,),
                    tuple(self._state_for(param).values()))


# ----------------------------------------------------------------------
# Registry: the CLI's --optimizer choices derive from here
# ----------------------------------------------------------------------

#: Name -> class, the single source of truth for optimizer selection (the
#: ``--optimizer`` flag's candidates, mirroring the ``--dataset``
#: convention).
OPTIMIZERS: Dict[str, type] = {
    "sgd": SGD,
    "momentum": Momentum,
    "adagrad": Adagrad,
    "rmsprop": RMSprop,
    "adam": Adam,
}


def optimizer_names() -> tuple[str, ...]:
    """Registered optimizer names, in registry order."""
    return tuple(OPTIMIZERS)


def make_optimizer(name: str, lr: float = 0.1, **kwargs: float) -> Optimizer:
    """Instantiate a registered optimizer by (case-insensitive) name.

    Unknown names raise :class:`ValueError` listing the candidates — the
    CLI turns that into a clean exit code 2.  Extra ``kwargs`` pass through
    to the class (e.g. ``make_optimizer("momentum", lr=0.1, momentum=0.95)``).
    """
    key = name.lower() if isinstance(name, str) else name
    if key not in OPTIMIZERS:
        raise ValueError(
            f"unknown optimizer {name!r}; registered optimizers: "
            f"{', '.join(optimizer_names())}"
        )
    return OPTIMIZERS[key](lr=lr, **kwargs)
