"""Gradient scatter — the model-update primitive of embedding training.

After coalescing (whether via the baseline Algorithm 1 pipeline or via the
Tensor-Casted gather-reduce), each distinct embedding row touched during
forward propagation receives exactly one accumulated gradient, which the
optimizer uses to update that row in place (Figure 2(b), Step 3).  The
scatter datapath is the mirror image of the gather datapath — the same
streaming engine run in the opposite direction — which is why the paper's
NMP core covers both with one microarchitecture (Section IV-C, Figure 11).

The update is a row-local read-modify-write, so it has one walk,
:func:`update_rows`: blocks of :data:`UPDATE_BLOCK_BYTES` of table and
optimizer-state rows (:func:`row_blocks`), whose cache lines are still
resident when they are written back, each handed to a row-local rule.
Every optimizer's sparse update
(:meth:`repro.model.optim.Optimizer.apply_sparse`, plain SGD's included) is
that walk with its own rule, and the walk is the one place the update's
input is checked — before any row is written.  Its rows — of the table and
of any optimizer state — move off NumPy's general fancy-index path both
ways: ``take`` gathers them and the whole-row store of
:mod:`repro.core.segment` (one ``np.void`` element per row) writes them
back, in place on a row-strided shard view.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .segment import _store_rows

__all__ = [
    "UPDATE_BLOCK_BYTES",
    "gradient_scatter_reference",
    "row_blocks",
    "update_rows",
]

#: Bytes of rows — table and optimizer state — one block of a sparse update
#: reads, modifies and writes back: 1024 float32 x 64 table rows for SGD.
#: Measured best of 256 ... 16 384 rows on a 4 MiB L2 (the whole ``(u,
#: dim)`` update falls out of it between the gather, scale, subtract and
#: scatter passes; a quarter-MiB block does not).  State rows count toward
#: it: sized by the table rows alone, a stateful block touches two to four
#: times the pages between its gathers and its stores, and measured slower.
#: A constant, not an option: nothing in the library sets it, and the tests
#: shrink it by patching this one name.
UPDATE_BLOCK_BYTES = 256 * 1024


def row_blocks(
    table: np.ndarray, rows: np.ndarray, *states: np.ndarray
) -> list[slice]:
    """Consecutive slices of ``rows``, :data:`UPDATE_BLOCK_BYTES` of
    ``table`` and ``states`` rows together each (at least one row).

    Raises :class:`IndexError` when a row lies outside the table — before
    any block is handed out, so a blocked update stays all-or-nothing the
    way the single fancy-indexed statement it replaces was.
    """
    if rows.size and (rows.min() < 0 or rows.max() >= table.shape[0]):
        raise IndexError(
            f"rows must lie in [0, {table.shape[0]}), got range "
            f"[{rows.min()}, {rows.max()}]"
        )
    row_bytes = sum(tensor[:1].nbytes for tensor in (table, *states))
    height = max(1, UPDATE_BLOCK_BYTES // max(1, row_bytes))
    return [slice(at, at + height) for at in range(0, rows.size, height)]


def update_rows(
    table: np.ndarray,
    rows: np.ndarray,
    rule: Callable[..., object],
    inputs: Sequence[np.ndarray],
    states: Sequence[np.ndarray] = (),
) -> np.ndarray:
    """Apply a row-local update ``rule`` to ``table[rows]`` in place, one
    :func:`row_blocks` block at a time.

    Per block: ``take`` the parameter rows and each state tensor's rows,
    call ``rule(param_rows, *input_rows, *state_rows)`` — which updates the
    taken rows in place — and store every one of them back with one
    whole-row store (``_store_rows``: a 1-D index over row-wide ``np.void``
    elements, no fancy 2-D assignment).  ``inputs`` (the gradient, and
    anything else with one entry per row of ``rows``) are sliced like
    ``rows`` and never written; ``states`` (optimizer state) hold one row
    per table row — a 2-D one shaped like ``table``, a 1-D one, one element
    per row — and are updated alongside it.  A block spans
    :data:`UPDATE_BLOCK_BYTES` of all of their rows together, so no ``(u,
    dim)`` temporary is made and each block's lines are still cached when
    they are written back.

    The rule sees exactly what one whole-array application would, row for
    row, so the result is bit-identical to it.  The input is checked once,
    before anything is written, so a rejected update changes no row of the
    table or of its state: ``table`` must be 2-D, ``rows`` 1-D and unique
    (one coalesced gradient per row — the optimizers are not additive in
    it, paper Section II-B) and every input shaped ``(len(rows), dim)``,
    each a :class:`ValueError`; a row outside the table is an
    :class:`IndexError` (:func:`row_blocks` checks the range once, so the
    gathers run unchecked — ``mode="clip"`` measured faster than
    ``mode="raise"``, which buffers).  Returns the table.
    """
    rows = np.asarray(rows)
    inputs = [np.asarray(x) for x in inputs]
    if table.ndim != 2:
        raise ValueError(f"table must be 2-D (rows, dim), got shape {table.shape}")
    if rows.ndim != 1:
        raise ValueError(f"rows must be 1-D, got shape {rows.shape}")
    shape = (rows.size, table.shape[1])
    for x in inputs:
        if x.shape != shape:
            raise ValueError(f"gradients must have shape {shape}, got {x.shape}")
    # Casting and gradient_coalesce emit strictly ascending rows, which
    # proves uniqueness in O(u); only other orders pay for the sort.
    if not np.all(rows[1:] > rows[:-1]) and np.unique(rows).size != rows.size:
        raise ValueError(
            "rows must be unique - scatter expects coalesced gradients; "
            "run gradient_coalesce or casted_gather_reduce first"
        )
    tensors = (table, *states)
    for block in row_blocks(table, rows, *states):
        ids = rows[block]
        held = [np.take(t, ids, axis=0, mode="clip") for t in tensors]
        rule(held[0], *(x[block] for x in inputs), *held[1:])
        for tensor, kept in zip(tensors, held):
            _store_rows(tensor, ids, kept)
        del held, kept      # one block's rows live at a time
    return table


def gradient_scatter_reference(
    table: np.ndarray,
    rows: np.ndarray,
    gradients: np.ndarray,
    lr: float = 1.0,
) -> np.ndarray:
    """Row-at-a-time plain-SGD scatter (test oracle) on a *copy* of the
    table: ``table[rows] - lr * gradients``, one row at a time."""
    updated = np.array(table, copy=True)
    for k in range(rows.size):
        updated[int(rows[k])] = updated[int(rows[k])] - lr * gradients[k]
    return updated
