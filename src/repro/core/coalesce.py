"""Baseline gradient expand-coalesce pipeline (Algorithm 1 of the paper).

During backpropagation the ``B`` gradient vectors produced by the DNN must
update every embedding row gathered during forward propagation.  The baseline
(the approach PyTorch and TensorFlow take, per Section II-B) does this in two
materialized steps:

1. **Expand** — replicate each backpropagated gradient once per lookup that
   fed its output slot, producing ``n`` expanded gradient vectors
   (the dual of the forward *reduce*).
2. **Coalesce** — sort the ``src`` ids so duplicate rows become adjacent, then
   accumulate gradients sharing a row into one coalesced vector per distinct
   row (Algorithm 1).  Coalescing is mandatory because optimizers such as
   RMSprop/Adagrad need the *summed* gradient per parameter (Equations 1-2).

Both a literal pure-Python transcription of Algorithm 1 (the test oracle) and
vectorized NumPy kernels are provided.  The memory-traffic consequences of
this two-step structure are modelled in :mod:`repro.core.traffic`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .indexing import IndexArray
from .observe import count_kernel
from .segment import segment_sum, sort_by_key

__all__ = [
    "gradient_expand",
    "gradient_coalesce",
    "gradient_coalesce_reference",
    "expand_coalesce",
]


def gradient_expand(gradients: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Expand ``B`` backpropagated gradients into ``n`` per-lookup gradients.

    ``expanded[i] = gradients[dst[i]]`` — each output slot's gradient is
    replicated once for every lookup that was reduced into that slot during
    forward propagation (Figure 2(b), Step 1).

    Parameters
    ----------
    gradients:
        ``(B, dim)`` gradients flowing back from the DNN.
    dst:
        ``(n,)`` destination slot of each forward lookup.

    Returns
    -------
    ``(n, dim)`` expanded gradient tensor.  Note this *materializes* the
    ``n``-row tensor; avoiding that materialization is exactly what Tensor
    Casting achieves.
    """
    gradients = np.asarray(gradients)
    if gradients.ndim != 2:
        raise ValueError(f"gradients must be 2-D (B, dim), got shape {gradients.shape}")
    dst = np.asarray(dst)
    if dst.size and (dst.min() < 0 or dst.max() >= gradients.shape[0]):
        raise ValueError("dst references a gradient row that does not exist")
    return gradients.take(dst, axis=0)


def gradient_coalesce(
    src: np.ndarray, expanded: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Coalesce expanded gradients sharing a ``src`` row (Algorithm 1).

    Vectorized equivalent of the paper's two-step procedure: a stable
    sort-by-src (Step A — :func:`repro.core.segment.sort_by_key`, the same
    call as Algorithm 2's SortByKey, so the comparator and the casted path
    pay the same sort) followed by segment accumulation of gradients with
    equal ids (Step B).  ``coalesced`` comes back in ``expanded``'s dtype —
    the table's, inside a training step (see
    :meth:`repro.model.embedding.EmbeddingBag.backward`).

    Returns
    -------
    rows:
        ``(u,)`` distinct source rows in ascending order.
    coalesced:
        ``(u, dim)`` accumulated gradient per distinct row, so
        ``coalesced[k]`` is the summed gradient for ``rows[k]``.
    """
    src = np.asarray(src)
    expanded = np.asarray(expanded)
    if src.ndim != 1:
        raise ValueError(f"src must be 1-D, got shape {src.shape}")
    if expanded.ndim != 2 or expanded.shape[0] != src.size:
        raise ValueError(
            f"expanded must be (n, dim) with n == len(src); got {expanded.shape} "
            f"for n={src.size}"
        )
    if src.size == 0:
        return src.astype(np.int64), expanded.copy()
    # Step A: sort src to make coalescable indices consecutive.
    sorted_src, order = sort_by_key(src)
    # Step B: accumulate runs of equal ids, each run one addend at a time in
    # sorted order — the oracle's association, which segment_sum keeps
    # (np.add.reduceat's pairwise partial sums would drift by ulps from the
    # oracle and break the trainers' bit-identity).  The sorted copy is
    # Algorithm 1's second (n, dim) intermediate and stays materialised (a
    # ``take``, like every casted-side gather): it is what core.traffic
    # bills this pipeline for.
    boundaries = np.empty(src.size, dtype=bool)
    boundaries[0] = True
    boundaries[1:] = sorted_src[1:] != sorted_src[:-1]
    starts = np.flatnonzero(boundaries)
    segment_ids = np.cumsum(boundaries) - 1
    coalesced = segment_sum(
        expanded.take(order, axis=0), None, segment_ids, starts.size,
        starts=starts,
    )
    return sorted_src[starts].astype(np.int64), coalesced


def gradient_coalesce_reference(
    src: np.ndarray, expanded: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Literal pure-Python transcription of Algorithm 1 (test oracle).

    Follows the pseudo-code line by line: argsort the ``src`` array, then walk
    the sorted ids accumulating gradients whose id matches the previous one.
    Returns the same ``(rows, coalesced)`` pair as :func:`gradient_coalesce`.
    """
    src = np.asarray(src)
    expanded = np.asarray(expanded)
    n = src.size
    if n == 0:
        return src.astype(np.int64), expanded.copy()
    sorted_pos = np.argsort(src, kind="stable")  # line 4: ArgSort(src)
    sorted_src = src[sorted_pos]  # line 5: Sort(src)
    coal_rows: list[int] = []
    coal_grad: list[np.ndarray] = []
    prev = None  # line 7: (i, prev) <- (-1, -1); `i` is len(coal_grad) - 1
    for j in range(n):  # line 8
        pos = sorted_pos[j]  # line 9
        curr = int(sorted_src[j])  # line 10
        if curr != prev:  # line 11
            coal_rows.append(curr)
            coal_grad.append(expanded[pos].astype(np.float64).copy())  # line 13
        else:
            coal_grad[-1] = coal_grad[-1] + expanded[pos]  # line 15
        prev = curr
    stacked = np.stack(coal_grad).astype(expanded.dtype)
    return np.asarray(coal_rows, dtype=np.int64), stacked


def expand_coalesce(
    index: IndexArray, gradients: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the full baseline two-step pipeline on an :class:`IndexArray`.

    This is the reference backward path the paper characterizes as the
    dominant training bottleneck; Tensor Casting's
    :func:`repro.core.gather_reduce.tcasted_grad_gather_reduce` computes the
    identical ``(rows, coalesced)`` result in one fused pass.  Runs
    :func:`gradient_expand`, then :func:`gradient_coalesce`.
    """
    gradients = np.asarray(gradients)
    if gradients.ndim != 2:
        raise ValueError(f"gradients must be 2-D (B, dim), got shape {gradients.shape}")
    if index.num_lookups and (
        index.dst.min() < 0 or index.dst.max() >= gradients.shape[0]
    ):
        raise ValueError("dst references a gradient row that does not exist")
    if index.num_lookups == 0:
        return index.src.astype(np.int64), gradients[index.dst].copy()
    count_kernel("expand_coalesce")
    return gradient_coalesce(index.src, gradient_expand(gradients, index.dst))
