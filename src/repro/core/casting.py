"""Tensor Casting — Algorithm 2 of the paper.

Tensor Casting is the paper's central algorithmic contribution: it permutes
the forward ``(src, dst)`` index array into a *casted* ``(casted_src,
casted_dst)`` array so that the baseline two-step gradient expand-coalesce
(Algorithm 1) becomes a single fused *gradient gather-reduce* over the
"gradient table" (the ``(B, dim)`` tensor of backpropagated gradients):

* ``casted_src`` selects which gradient rows to gather — it is simply the
  ``dst`` half of the index array after a sort-by-``src`` key, because the
  ``dst`` id names the batch slot whose gradient must flow back to that row;
* ``casted_dst`` is where each gathered gradient is reduced — derived by
  scanning the sorted ``src`` ids for run boundaries and taking a cumulative
  sum, so gradients of the same embedding row land in the same coalesced slot.

Because everything the cast needs (the index array) is available at the start
of forward propagation, the cast can be computed *ahead of time* and off the
critical path — the runtime co-design of Section IV-B hides it under the
forward embedding gather (see :mod:`repro.runtime.systems`).

:func:`tensor_casting` is the sort-by-key kernel; the literal pseudo-code
transcription below (:func:`tensor_casting_reference`) is its test oracle,
and the two produce the identical cast (integer arrays, stable order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .indexing import IndexArray
from .observe import count_kernel
from .segment import run_starts, sort_by_key

__all__ = [
    "CastedIndex",
    "tensor_casting",
    "tensor_casting_reference",
    "hash_casting",
]


@dataclass(frozen=True)
class CastedIndex:
    """Result of Tensor Casting an :class:`~repro.core.indexing.IndexArray`.

    Attributes
    ----------
    casted_src:
        ``(n,)`` rows to gather from the gradient table (values in ``[0, B)``).
    casted_dst:
        ``(n,)`` coalesced slot each gathered gradient reduces into (values in
        ``[0, u)``).  Produced by :func:`tensor_casting` as a dense
        non-decreasing ``0..u-1`` ramp, so the gather-reduce kernel reduces
        contiguous segments straight into the coalesced output with no
        sortedness scan (see :meth:`segment_starts`).
    rows:
        ``(u,)`` embedding-table rows receiving each coalesced slot, ascending.
        These are the scatter targets of the subsequent model update.
    num_gradients:
        ``B`` — number of rows in the gradient table.
    """

    casted_src: np.ndarray
    casted_dst: np.ndarray
    rows: np.ndarray
    num_gradients: int

    @property
    def num_lookups(self) -> int:
        """Number of gradient gathers ``n`` (equals the forward lookup count)."""
        return int(self.casted_src.size)

    @property
    def num_coalesced(self) -> int:
        """Number of coalesced output slots ``u`` (distinct rows touched)."""
        return int(self.rows.size)

    def as_index_array(self) -> IndexArray:
        """View the cast as a regular :class:`IndexArray` over the gradient table.

        This is the formal statement of the paper's key insight: the casted
        backward pass *is* a gather-reduce, so it can execute on the very same
        kernel/accelerator datapath as the forward pass.
        """
        return IndexArray(
            self.casted_src,
            self.casted_dst,
            num_rows=max(self.num_gradients, 1),
            num_outputs=self.num_coalesced,
        )

    def segment_starts(self) -> np.ndarray:
        """``(u,)`` start offset of each coalesced slot's run in casted order.

        ``casted_dst`` is a dense monotone ``0..u-1`` ramp by construction,
        so the ``u`` segments map one-to-one onto the coalesced output slots
        — the segment layout :func:`repro.core.segment.segment_sum` reduces
        over.  Cached: seeded by the cast kernel when its boundary scan
        already holds it (:meth:`with_segment_starts`), derived from
        ``casted_dst`` on first use otherwise.
        """
        cached = getattr(self, "_segment_starts", None)
        if cached is None:
            cached = run_starts(self.casted_dst)
            object.__setattr__(self, "_segment_starts", cached)
        return cached

    def with_segment_starts(self, starts: np.ndarray) -> "CastedIndex":
        """Seed the :meth:`segment_starts` cache; returns ``self``.

        For cast kernels whose boundary scan (Algorithm 2, lines 5-8) has
        the run starts in hand, so the segment layout is index-only work
        done in the hideable cast stage rather than on the backward path.
        """
        object.__setattr__(self, "_segment_starts", starts)
        return self


def tensor_casting(index: IndexArray) -> CastedIndex:
    """Cast a forward index array for backward gather-reduce (Algorithm 2).

    Stable sort-by-key on ``src`` (line 3), reuse of the sorted ``dst`` as
    ``casted_src`` (line 4), boundary scan (lines 5-8) and cumulative sum
    (line 9).

    Complexity is ``O(n log n)``, dominated by the sort; the paper's runtime
    hides this latency under forward propagation because the cast depends
    only on the index array, not on any gradient values.  The sort is
    :func:`repro.core.segment.sort_by_key`, the same call as Step A of the
    baseline coalesce, so neither backward mode sorts faster than the
    other.  Index-only work: every array of the cast is int64, and the
    gradient dtype never enters.
    """
    if index.num_lookups == 0:
        empty = np.empty(0, dtype=np.int64)
        return CastedIndex(empty, empty.copy(), empty.copy(), index.num_outputs)
    count_kernel("tensor_casting")
    src, dst = index.src, index.dst
    sorted_src, order = sort_by_key(src)  # line 3: SortByKey
    casted_src = dst[order]  # line 4: casted_src <- sorted_dst
    scan = np.empty(src.size, dtype=np.int64)  # lines 5-8: boundary scan
    scan[0] = 1
    scan[1:] = sorted_src[1:] != sorted_src[:-1]
    casted_dst = np.cumsum(scan) - 1  # line 9
    # The scan's ones are where each coalesced slot's run begins: the
    # distinct rows, and the segment layout the backward reduction wants —
    # index-only work, done here where the runtime can hide it.
    starts = np.flatnonzero(scan)
    return CastedIndex(
        casted_src=casted_src.astype(np.int64, copy=False),
        casted_dst=casted_dst,
        rows=sorted_src[starts].astype(np.int64, copy=False),
        num_gradients=index.num_outputs,
    ).with_segment_starts(starts)


def tensor_casting_reference(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Literal pure-Python transcription of Algorithm 2 (test oracle).

    Returns the raw ``(casted_src, casted_dst)`` pair exactly as the paper's
    pseudo-code does, without the convenience metadata of
    :class:`CastedIndex`.
    """
    src = np.asarray(src)
    dst = np.asarray(dst)
    n = src.size
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = sorted(range(n), key=lambda i: (int(src[i]), i))  # line 3 (stable)
    sorted_src = [int(src[i]) for i in order]
    casted_src = [int(dst[i]) for i in order]  # line 4
    scan = [0] * n
    for i in range(1, n):  # lines 5-7
        scan[i] = 1 if sorted_src[i] != sorted_src[i - 1] else 0
    scan[0] = 1  # line 8
    casted_dst = []
    running = 0
    for value in scan:  # line 9: CumulativeSum(scan) - 1
        running += value
        casted_dst.append(running - 1)
    return (
        np.asarray(casted_src, dtype=np.int64),
        np.asarray(casted_dst, dtype=np.int64),
    )


def hash_casting(index: IndexArray, num_buckets: int | None = None) -> CastedIndex:
    """Hash-bucketing alternative to sort-based casting (ablation study).

    Instead of a full sort-by-key, rows are first partitioned into hash
    buckets and only bucket-local ordering is established.  The resulting
    cast is *functionally* identical (same coalesced sums, same scatter
    targets) but ``casted_dst`` slots are assigned in bucket order rather
    than ascending-row order, and the produced ``rows`` array reflects that
    ordering.  The paper chooses sort-based casting because the sorted cast
    yields a monotone ``casted_dst`` — a streaming-friendly access pattern
    for the NMP gather-reduce engine; this variant exists to quantify that
    design choice (see ``benchmarks/bench_ablation_casting_strategy.py``).
    """
    src, dst = index.src, index.dst
    n = src.size
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return CastedIndex(empty, empty.copy(), empty.copy(), index.num_outputs)
    if num_buckets is None:
        num_buckets = max(1, int(np.sqrt(index.num_rows)))
    # Knuth multiplicative hash keeps buckets balanced even for clustered ids.
    bucket = (src * np.int64(2654435761)) % np.int64(num_buckets)
    # Bucket-major, then row within bucket: a partial sort, cheaper in spirit
    # than the full sort (modelled as such by the cost models).
    order = np.lexsort((src, bucket))
    sorted_src = src[order]
    casted_src = dst[order]
    scan = np.empty(n, dtype=np.int64)
    scan[0] = 1
    scan[1:] = sorted_src[1:] != sorted_src[:-1]
    casted_dst = np.cumsum(scan) - 1
    rows = sorted_src[scan.astype(bool)]
    return CastedIndex(
        casted_src=casted_src.astype(np.int64, copy=False),
        casted_dst=casted_dst,
        rows=rows.astype(np.int64, copy=False),
        num_gradients=index.num_outputs,
    )
