"""The ``reference`` backend — the repo's pure-Python oracles as an engine.

This backend routes every kernel through the literal element-by-element
transcriptions that the test suite uses as ground truth
(:func:`repro.core.gather_reduce.gather_reduce_reference` and friends).  It
exists to pin down semantics, serve as the differential-test baseline, and
let a whole training step run on oracle code (``--backend reference``).

Numerical contract: the float oracles accumulate in float64 and round once
at the end, so for float64 tensors the reference backend is bit-identical
to every other backend (same sequential accumulation order); for float32
tensors it is the *more* accurate one and other backends agree within
documented tolerance (see ``tests/backends/test_differential.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.casting import CastedIndex, tensor_casting_reference
from ..core.coalesce import gradient_coalesce_reference, gradient_expand
from ..core.gather_reduce import gather_reduce_reference
from ..core.indexing import IndexArray
from .base import KernelBackend
from .registry import register_backend

__all__ = ["ReferenceBackend"]


@register_backend
class ReferenceBackend(KernelBackend):
    """Oracle-grade loop kernels (slow, trustworthy)."""

    name = "reference"

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
        out += gather_reduce_reference(table, index, weights)
        return out

    def cast_indices(self, index: IndexArray) -> CastedIndex:
        if index.num_lookups == 0:
            return self._empty_cast(index)
        casted_src, casted_dst = tensor_casting_reference(index.src, index.dst)
        # The paper's pseudo-code emits the pair array only; the distinct
        # rows (ascending, because the cast sorts by src) complete the
        # CastedIndex metadata.
        rows = np.unique(index.src)
        return CastedIndex(
            casted_src=casted_src,
            casted_dst=casted_dst,
            rows=rows.astype(np.int64),
            num_gradients=index.num_outputs,
        )

    def expand_coalesce(
        self, index: IndexArray, gradients: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        expanded = gradient_expand(gradients, index.dst)
        return gradient_coalesce_reference(index.src, expanded)

    def scatter_update(
        self,
        table: np.ndarray,
        rows: np.ndarray,
        gradients: np.ndarray,
        lr: float = 1.0,
    ) -> np.ndarray:
        # The oracle loop of gradient_scatter_reference, applied in place to
        # honor the kernel contract (the oracle itself updates a copy).
        for k in range(rows.size):
            row = int(rows[k])
            table[row] = table[row] - lr * gradients[k]
        return table
