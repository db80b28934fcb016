"""The ``vectorized`` backend — fused NumPy kernels (the default engine).

This is the performance workhorse, built on one deliberate design rule:
**every accumulation runs in lookup order, one partial sum at a time** —
the same order as the pure-Python oracle — so float64 results are
bit-identical to the oracle, and float32 results agree within documented
tolerance (the oracle accumulates float32 inputs in float64).  ``auto``,
the trainers' default name, is this engine registered a second time.

That order has one definition, :func:`repro.core.segment.segment_sum`: cut
the (sorted) destinations into segments, add the ``r``-th lookup of every
segment in one vectorised round per rank, stop the rounds at the h-index of
the segment lengths and fold the few longer segments whole, row by row.
Each output row sees ``((v0 + v1) + v2) + ...`` — what a per-lookup
scatter-add produces, bit for bit — in a number of NumPy calls bounded by
the data, with no dtype- or width-dependent engine choice.

The paper's identity is therefore literal here: the forward gather-reduce
is ``segment_sum`` over ``(table, src, dst)`` and the casted backward is the
same call over ``(gradients, casted_src, casted_dst)`` (Algorithm 3), fed
the segment layout that Algorithm 2's boundary scan already produced.
Tensor Casting itself uses the stable sort-by-key formulation
(:func:`repro.core.segment.sort_by_key`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.casting import CastedIndex
from ..core.coalesce import gradient_coalesce, gradient_expand
from ..core.indexing import IndexArray
from ..core.scatter import sgd_update_rows
from ..core.segment import segment_sum, sort_by_key
from .base import KernelBackend
from .registry import register_backend

__all__ = ["AutoBackend", "VectorizedBackend", "cast_indices_vectorized"]


def cast_indices_vectorized(index: IndexArray) -> CastedIndex:
    """Vectorized Algorithm 2: stable sort-by-key on ``src`` (line 3), reuse
    of the sorted ``dst`` as ``casted_src`` (line 4), boundary scan (lines
    5-8) and cumulative sum (line 9).

    Complexity is ``O(n log n)`` dominated by the sort; the paper's runtime
    hides this latency under forward propagation because the cast depends
    only on the index array, not on any gradient values.  The sort is
    :func:`repro.core.segment.sort_by_key`, the same call as Step A of the
    baseline coalesce, so neither backward mode sorts faster than the
    other.  Index-only work: every array of the cast is int64, and the
    gradient dtype never enters.
    """
    src, dst = index.src, index.dst
    n = src.size
    sorted_src, order = sort_by_key(src)  # line 3: SortByKey
    casted_src = dst[order]  # line 4: casted_src <- sorted_dst
    scan = np.empty(n, dtype=np.int64)  # lines 5-8: boundary scan
    scan[0] = 1
    scan[1:] = sorted_src[1:] != sorted_src[:-1]
    casted_dst = np.cumsum(scan) - 1  # line 9
    # The scan's ones are where each coalesced slot's run begins: the
    # distinct rows, and the segment layout the backward reduction wants —
    # index-only work, done here where the runtime can hide it.
    starts = np.flatnonzero(scan)
    return CastedIndex(
        casted_src=casted_src.astype(np.int64),
        casted_dst=casted_dst,
        rows=sorted_src[starts].astype(np.int64),
        num_gradients=index.num_outputs,
    ).with_segment_starts(starts)


@register_backend
class VectorizedBackend(KernelBackend):
    """Fused NumPy kernels; the process-default backend."""

    name = "vectorized"

    def gather_reduce(
        self,
        table: np.ndarray,
        index: IndexArray,
        out: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        return segment_sum(
            table, index.src, index.dst, index.num_outputs, out=out, weights=weights
        )

    def cast_indices(self, index: IndexArray) -> CastedIndex:
        if index.num_lookups == 0:
            return self._empty_cast(index)
        return cast_indices_vectorized(index)

    def casted_gather_reduce(
        self, gradients: np.ndarray, casted: CastedIndex
    ) -> Tuple[np.ndarray, np.ndarray]:
        # The forward primitive over the gradient table (Algorithm 3), with
        # the segment layout the cast stage already derived.
        return casted.rows, segment_sum(
            gradients, casted.casted_src, casted.casted_dst,
            casted.num_coalesced, starts=casted.segment_starts(),
        )

    def expand_coalesce(
        self, index: IndexArray, gradients: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        expanded = gradient_expand(gradients, index.dst)
        return gradient_coalesce(index.src, expanded)

    def scatter_update(
        self,
        table: np.ndarray,
        rows: np.ndarray,
        gradients: np.ndarray,
        lr: float = 1.0,
    ) -> np.ndarray:
        return sgd_update_rows(table, rows, gradients, lr)


@register_backend
class AutoBackend(VectorizedBackend):
    """``auto``: the trainers' default name for the vectorized kernels."""

    name = "auto"
