"""The ``numba`` backend — JIT-compiled loop kernels, gracefully optional.

The kernels below are written as plain Python loop nests over NumPy arrays:
when :mod:`numba` is importable they are ``njit``-compiled on first use into
tight machine-code loops (the shape a real accelerator kernel takes —
single-pass, no temporaries, counting-sort casting in ``O(n + num_rows)``
instead of ``O(n log n)``); when it is not, the backend simply reports
itself unavailable and the registry, autotuner and CLI all degrade to the
NumPy backends.  The *logic* stays testable either way — the differential
tests instantiate :class:`NumbaBackend` directly and run the uncompiled
Python bodies, so a container without numba still pins the kernels'
semantics and CI's numba leg only adds the compiled execution.

Accumulation order matches the reference oracle (per-slot sums in lookup
order, one scalar at a time in the tensor dtype), so float64 results are
bit-identical to every other backend; float32 results round per partial sum
like the vectorized backend (same documented tolerance).  The Python
scalar ``lr`` is pre-cast to the table dtype before entering the scatter
kernel so no float64 intermediate sneaks into a float32 update.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..core.casting import CastedIndex
from ..core.indexing import IndexArray
from .base import KernelBackend
from .registry import register_backend

try:  # pragma: no cover - exercised in the CI numba leg
    import numba
except ImportError:  # pragma: no cover - the default in minimal installs
    numba = None

__all__ = ["NumbaBackend", "HAVE_NUMBA"]

#: Whether the optional compiler is importable in this environment.
HAVE_NUMBA = numba is not None


# ----------------------------------------------------------------------
# Kernel bodies: plain Python loop nests, njit-compiled when possible.
# ----------------------------------------------------------------------
def _gather_reduce_kernel(
    table: np.ndarray, src: np.ndarray, dst: np.ndarray, out: np.ndarray
) -> np.ndarray:
    dim = table.shape[1]
    for i in range(src.shape[0]):
        row = src[i]
        slot = dst[i]
        for j in range(dim):
            out[slot, j] += table[row, j]
    return out


def _weighted_gather_reduce_kernel(
    table: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    dim = table.shape[1]
    for i in range(src.shape[0]):
        row = src[i]
        slot = dst[i]
        w = weights[i]
        for j in range(dim):
            out[slot, j] += w * table[row, j]
    return out


def _counting_sort_cast_kernel(
    src: np.ndarray, dst: np.ndarray, num_rows: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable counting-sort Tensor Casting: O(n + num_rows), argsort-free.

    ``num_rows`` is the parent table's height also for a shard's slice of a
    batch (shards name parent rows, :mod:`repro.core.sharding`), so ``N``
    shards histogram ``N * num_rows`` bins a step where shard-local row ids
    would have needed ``num_rows``.  Not timed: no session has had numba.
    """
    n = src.shape[0]
    counts = np.zeros(num_rows, dtype=np.int64)
    for i in range(n):
        counts[src[i]] += 1
    offsets = np.empty(num_rows, dtype=np.int64)
    total = np.int64(0)
    num_distinct = 0
    for row in range(num_rows):
        offsets[row] = total
        total += counts[row]
        if counts[row] > 0:
            num_distinct += 1
    casted_src = np.empty(n, dtype=np.int64)
    casted_dst = np.empty(n, dtype=np.int64)
    rows = np.empty(num_distinct, dtype=np.int64)
    cursor = offsets.copy()
    for i in range(n):  # stable placement: original order within each row
        row = src[i]
        casted_src[cursor[row]] = dst[i]
        cursor[row] += 1
    slot = 0
    for row in range(num_rows):
        count = counts[row]
        if count > 0:
            rows[slot] = row
            for position in range(offsets[row], offsets[row] + count):
                casted_dst[position] = slot
            slot += 1
    return casted_src, casted_dst, rows


def _expand_coalesce_kernel(
    src: np.ndarray, dst: np.ndarray, gradients: np.ndarray, num_rows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Faithful Algorithm 1: materialize the expanded gradients (Step 1),
    then coalesce along a stable counting-sort order of ``src`` (Step 2) —
    the same order a stable argsort yields, so accumulation matches the
    oracle element for element."""
    n = src.shape[0]
    dim = gradients.shape[1]
    expanded = np.empty((n, dim), dtype=gradients.dtype)
    for i in range(n):
        slot = dst[i]
        for j in range(dim):
            expanded[i, j] = gradients[slot, j]
    counts = np.zeros(num_rows, dtype=np.int64)
    for i in range(n):
        counts[src[i]] += 1
    num_distinct = 0
    cursor = np.empty(num_rows, dtype=np.int64)
    total = np.int64(0)
    for row in range(num_rows):
        cursor[row] = total
        total += counts[row]
        if counts[row] > 0:
            num_distinct += 1
    order = np.empty(n, dtype=np.int64)
    for i in range(n):  # stable placement: original order within each row
        row = src[i]
        order[cursor[row]] = i
        cursor[row] += 1
    rows = np.empty(num_distinct, dtype=np.int64)
    coalesced = np.zeros((num_distinct, dim), dtype=gradients.dtype)
    slot = -1
    previous = np.int64(-1)
    for position in range(n):
        i = order[position]
        current = src[i]
        if slot < 0 or current != previous:
            slot += 1
            rows[slot] = current
        for j in range(dim):
            coalesced[slot, j] += expanded[i, j]
        previous = current
    return rows, coalesced


def _scatter_update_kernel(
    table: np.ndarray, rows: np.ndarray, gradients: np.ndarray, lr: float
) -> np.ndarray:
    dim = table.shape[1]
    for k in range(rows.shape[0]):
        row = rows[k]
        for j in range(dim):
            table[row, j] -= lr * gradients[k, j]
    return table


_PYTHON_KERNELS: Dict[str, Callable] = {
    "gather_reduce": _gather_reduce_kernel,
    "weighted_gather_reduce": _weighted_gather_reduce_kernel,
    "counting_sort_cast": _counting_sort_cast_kernel,
    "expand_coalesce": _expand_coalesce_kernel,
    "scatter_update": _scatter_update_kernel,
}

if HAVE_NUMBA:  # pragma: no cover - exercised in the CI numba leg
    # ``nogil`` lets a cast on the cast-ahead worker run beside the step loop.
    _KERNELS: Dict[str, Callable] = {
        name: numba.njit(cache=True, nogil=True)(fn)
        for name, fn in _PYTHON_KERNELS.items()
    }
else:
    _KERNELS = dict(_PYTHON_KERNELS)


@register_backend
class NumbaBackend(KernelBackend):
    """JIT loop kernels; registered always, *available* only with numba.

    Instantiating the class directly (as the differential tests do) runs
    the uncompiled Python kernel bodies — slow but semantically identical —
    which is why availability gates the registry and autotuner rather than
    construction.
    """

    name = "numba"

    @classmethod
    def available(cls) -> bool:
        return HAVE_NUMBA

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        if HAVE_NUMBA:
            return None
        return "the optional 'numba' package is not installed"

    def gather_reduce(
        self,
        table: np.ndarray,
        index: IndexArray,
        out: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        out = self._alloc_out(table, index, out)
        if index.num_lookups == 0:
            return out
        if weights is None:
            return _KERNELS["gather_reduce"](table, index.src, index.dst, out)
        return _KERNELS["weighted_gather_reduce"](
            table, index.src, index.dst, weights, out
        )

    def cast_indices(self, index: IndexArray) -> CastedIndex:
        if index.num_lookups == 0:
            return self._empty_cast(index)
        casted_src, casted_dst, rows = _KERNELS["counting_sort_cast"](
            index.src, index.dst, index.num_rows
        )
        return CastedIndex(
            casted_src=casted_src,
            casted_dst=casted_dst,
            rows=rows,
            num_gradients=index.num_outputs,
        )

    def casted_gather_reduce(
        self, gradients: np.ndarray, casted: CastedIndex
    ) -> Tuple[np.ndarray, np.ndarray]:
        if casted.num_lookups == 0:
            empty = np.zeros(
                (casted.num_coalesced, gradients.shape[1]), dtype=gradients.dtype
            )
            return casted.rows, empty
        out = np.zeros(
            (casted.num_coalesced, gradients.shape[1]), dtype=gradients.dtype
        )
        return casted.rows, _KERNELS["gather_reduce"](
            gradients, casted.casted_src, casted.casted_dst, out
        )

    def expand_coalesce(
        self, index: IndexArray, gradients: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        if index.num_lookups == 0:
            return index.src.astype(np.int64), gradients[index.dst].copy()
        return _KERNELS["expand_coalesce"](
            index.src, index.dst, gradients, index.num_rows
        )

    def scatter_update(
        self,
        table: np.ndarray,
        rows: np.ndarray,
        gradients: np.ndarray,
        lr: float = 1.0,
    ) -> np.ndarray:
        if rows.size == 0:
            return table
        # Pre-cast so a float32 table sees a float32 multiply, matching the
        # NumPy backends' weak-scalar promotion (no float64 intermediate).
        return _KERNELS["scatter_update"](
            table, rows, gradients, table.dtype.type(lr)
        )

