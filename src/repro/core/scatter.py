"""Gradient scatter — the model-update primitive of embedding training.

After coalescing (whether via the baseline Algorithm 1 pipeline or via the
Tensor-Casted gather-reduce), each distinct embedding row touched during
forward propagation receives exactly one accumulated gradient, which the
optimizer uses to update that row in place (Figure 2(b), Step 3).  The
scatter datapath is the mirror image of the gather datapath — the same
streaming engine run in the opposite direction — which is why the paper's
NMP core covers both with one microarchitecture (Section IV-C, Figure 11).
"""

from __future__ import annotations

from typing import Protocol, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # runtime import stays deferred to avoid the cycle
    from ..backends.dispatch import BackendSpec

__all__ = [
    "SparseOptimizer",
    "gradient_scatter",
    "gradient_scatter_reference",
    "scatter_with_optimizer",
]


class SparseOptimizer(Protocol):
    """Anything exposing the sparse-update rule scatter dispatches through.

    The concrete implementations live in :mod:`repro.model.optim`; core
    only needs the one-method surface, kept as a Protocol so the kernel
    layer stays import-independent of the model layer.
    """

    def apply_sparse(
        self, param: np.ndarray, rows: np.ndarray, gradients: np.ndarray
    ) -> np.ndarray: ...


def _validate_scatter_args(
    table: np.ndarray, rows: np.ndarray, gradients: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    rows = np.asarray(rows)
    gradients = np.asarray(gradients)
    if table.ndim != 2:
        raise ValueError(f"table must be 2-D (rows, dim), got shape {table.shape}")
    if rows.ndim != 1:
        raise ValueError(f"rows must be 1-D, got shape {rows.shape}")
    if gradients.shape != (rows.size, table.shape[1]):
        raise ValueError(
            f"gradients must have shape {(rows.size, table.shape[1])}, "
            f"got {gradients.shape}"
        )
    if rows.size:
        if rows.min() < 0 or rows.max() >= table.shape[0]:
            raise ValueError("rows reference entries outside the table")
        # Casting and gradient_coalesce emit strictly ascending rows, which
        # proves uniqueness in O(u); only other orders pay for the sort.
        if not np.all(rows[1:] > rows[:-1]) and np.unique(rows).size != rows.size:
            raise ValueError(
                "rows must be unique - scatter expects coalesced gradients; "
                "run gradient_coalesce or casted_gather_reduce first"
            )
    return rows, gradients


def gradient_scatter(
    table: np.ndarray,
    rows: np.ndarray,
    gradients: np.ndarray,
    lr: float = 1.0,
    backend: BackendSpec = None,
) -> np.ndarray:
    """Plain-SGD scatter update: ``table[rows] -= lr * gradients`` in place.

    ``rows`` must be unique (i.e. already coalesced) — duplicate targets
    would make the update order-dependent, which is precisely the hazard
    coalescing exists to remove.  Dispatches into the selected kernel
    backend's ``scatter_update`` (name, instance, or ``None`` for the
    process default).

    Returns the table for call chaining.
    """
    rows, gradients = _validate_scatter_args(table, rows, gradients)
    if rows.size == 0:
        return table
    from ..backends.dispatch import resolve_backend  # deferred: avoids cycle

    return resolve_backend(backend).scatter_update(table, rows, gradients, lr=lr)


def gradient_scatter_reference(
    table: np.ndarray,
    rows: np.ndarray,
    gradients: np.ndarray,
    lr: float = 1.0,
) -> np.ndarray:
    """Row-at-a-time scatter (test oracle) on a *copy* of the table."""
    rows, gradients = _validate_scatter_args(table, rows, gradients)
    updated = np.array(table, copy=True)
    for k in range(rows.size):
        updated[int(rows[k])] = updated[int(rows[k])] - lr * gradients[k]
    return updated


def scatter_with_optimizer(
    table: np.ndarray,
    rows: np.ndarray,
    gradients: np.ndarray,
    optimizer: SparseOptimizer,
) -> np.ndarray:
    """Scatter through an optimizer's sparse-update rule.

    ``optimizer`` is any object exposing
    ``apply_sparse(param, rows, gradients)`` — see
    :mod:`repro.model.optim` for SGD/Momentum/Adagrad/RMSprop.  This is the
    entry point the paper's optimization-function discussion (Equations 1-2)
    motivates: the optimizer requires one *accumulated* gradient per row,
    which the unique-``rows`` contract guarantees.
    """
    rows, gradients = _validate_scatter_args(table, rows, gradients)
    optimizer.apply_sparse(table, rows, gradients)
    return table
