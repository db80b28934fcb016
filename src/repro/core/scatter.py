"""Gradient scatter — the model-update primitive of embedding training.

After coalescing (whether via the baseline Algorithm 1 pipeline or via the
Tensor-Casted gather-reduce), each distinct embedding row touched during
forward propagation receives exactly one accumulated gradient, which the
optimizer uses to update that row in place (Figure 2(b), Step 3).  The
scatter datapath is the mirror image of the gather datapath — the same
streaming engine run in the opposite direction — which is why the paper's
NMP core covers both with one microarchitecture (Section IV-C, Figure 11).

The update is a row-local read-modify-write, so it is walked in
:func:`row_blocks` — blocks of :data:`UPDATE_BLOCK_BYTES` of table rows,
whose cache lines are still resident when they are written back — by every
optimizer (:meth:`repro.model.optim.Optimizer.apply_sparse`) and by the
plain-SGD body :func:`sgd_update_rows`, the one spelling of
``table[rows] -= lr * gradients`` outside the ``reference`` oracle.  Its
rows move off NumPy's general fancy-index path both ways: ``take`` gathers
them and the whole-row store of :mod:`repro.core.segment` (one ``np.void``
element per row) writes them back, in place on a row-strided shard view.
"""

from __future__ import annotations

from typing import Protocol, TYPE_CHECKING

import numpy as np

from .segment import _store_rows

if TYPE_CHECKING:  # runtime import stays deferred to avoid the cycle
    from ..backends.dispatch import BackendSpec

__all__ = [
    "RowUpdateBuffers",
    "SparseOptimizer",
    "UPDATE_BLOCK_BYTES",
    "gradient_scatter",
    "gradient_scatter_reference",
    "row_blocks",
    "scatter_with_optimizer",
    "sgd_update_rows",
]

#: Bytes of table rows one block of a sparse update reads, modifies and
#: writes back: 1024 float32 x 64 rows.  Measured best of 256 ... 16 384
#: rows on a 4 MiB L2 (the whole ``(u, dim)`` update falls out of it between
#: the gather, scale, subtract and scatter passes; a quarter-MiB block does
#: not).  A constant, not an option: nothing in the library sets it, and the
#: tests shrink it by patching this one name.
UPDATE_BLOCK_BYTES = 256 * 1024


class SparseOptimizer(Protocol):
    """Anything exposing the sparse-update rule scatter dispatches through.

    The concrete implementations live in :mod:`repro.model.optim`; core
    only needs the one-method surface, kept as a Protocol so the kernel
    layer stays import-independent of the model layer.
    """

    def apply_sparse(
        self, param: np.ndarray, rows: np.ndarray, gradients: np.ndarray
    ) -> np.ndarray: ...


def row_blocks(table: np.ndarray, rows: np.ndarray) -> list[slice]:
    """Consecutive slices of ``rows``, :data:`UPDATE_BLOCK_BYTES` of
    ``table`` rows each (at least one row).

    Raises :class:`IndexError` when a row lies outside the table — before
    any block is handed out, so a blocked update stays all-or-nothing the
    way the single fancy-indexed statement it replaces was.
    """
    if rows.size and (rows.min() < 0 or rows.max() >= table.shape[0]):
        raise IndexError(
            f"rows must lie in [0, {table.shape[0]}), got range "
            f"[{rows.min()}, {rows.max()}]"
        )
    height = max(1, UPDATE_BLOCK_BYTES // max(1, table[:1].nbytes))
    return [slice(at, at + height) for at in range(0, rows.size, height)]


class RowUpdateBuffers:
    """The reused ``(block, dim)`` workspaces of :func:`sgd_update_rows`.

    Owned by whoever updates repeatedly (an :class:`~repro.model.optim.SGD`
    instance), so a step allocates nothing per table: the buffers are
    shared across tables and row counts and re-made only when the block
    height, the width or a dtype changes.
    """

    def __init__(self) -> None:
        self._arrays: tuple[np.ndarray, ...] = ()

    def get(
        self, shape: tuple[int, int], *dtypes: np.dtype
    ) -> tuple[np.ndarray, ...]:
        """One buffer of ``shape`` per dtype, the previous ones if they fit."""
        if [(a.shape, a.dtype) for a in self._arrays] != [
            (shape, dtype) for dtype in dtypes
        ]:
            self._arrays = tuple(np.empty(shape, dtype=d) for d in dtypes)
        return self._arrays


def sgd_update_rows(
    table: np.ndarray,
    rows: np.ndarray,
    gradients: np.ndarray,
    lr: float,
    buffers: RowUpdateBuffers | None = None,
) -> np.ndarray:
    """``table[rows] -= lr * gradients`` in place, one cache block at a time.

    Per block: gather the table rows into one reused buffer, scale the
    gradient slice into the other, subtract in place, store the rows back
    with one whole-row store (``_store_rows``: a 1-D index over row-wide
    ``np.void`` elements, no fancy 2-D assignment) — the arithmetic, dtypes
    and rounding of the one-statement form (``np.array_equal`` to it for
    every table / gradient dtype pair) with no ``(u, dim)`` temporary, and
    ``gradients`` is never written.
    ``rows`` must be unique; a row outside the table raises
    :class:`IndexError` before anything is written (:func:`row_blocks`
    checks the range once, so the gather itself runs unchecked —
    ``mode="clip"`` measured faster than ``mode="raise"``, which buffers).

    ``buffers`` defaults to fresh ones.  Returns the table.
    """
    blocks = row_blocks(table, rows)
    if not blocks:
        return table
    held, step = (buffers or RowUpdateBuffers()).get(
        (blocks[0].stop, table.shape[1]),
        table.dtype, np.result_type(lr, gradients.dtype),
    )
    for block in blocks:
        ids = rows[block]
        kept, scaled = held[: ids.size], step[: ids.size]
        np.take(table, ids, axis=0, out=kept, mode="clip")
        np.multiply(gradients[block], lr, out=scaled)
        np.subtract(kept, scaled, out=kept)
        _store_rows(table, ids, kept)
    return table


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
