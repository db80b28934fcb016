"""Fused tensor gather-reduce kernels (forward pass and Algorithm 3).

Gather-reduce is the unifying compute primitive of the paper: forward
propagation gathers embedding rows by ``src`` and reduces them into ``dst``
slots on the fly (Figure 2(a)), and — after Tensor Casting — backpropagation
performs the *same* operation over the gradient table (Figure 7,
Algorithm 3).  The public functions here validate arguments and run both
as one call, :func:`repro.core.segment.segment_sum`; the literal
pure-Python loop below (:func:`gather_reduce_reference`) is their test
oracle.

The fused formulation matters: reducing "on the fly inside on-chip registers"
means the ``n`` gathered vectors are never materialized to memory, which is
where the 2x memory-intensity reduction over expand-coalesce comes from
(quantified analytically in :mod:`repro.core.traffic`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .casting import CastedIndex, tensor_casting
from .indexing import IndexArray
from .observe import count_kernel
from .segment import segment_sum

__all__ = [
    "gather_reduce",
    "gather_reduce_reference",
    "casted_gather_reduce",
    "tcasted_grad_gather_reduce",
]


def gather_reduce(table: np.ndarray, index: IndexArray) -> np.ndarray:
    """Fused embedding gather-reduce (forward pass, Figure 2(a)).

    Computes ``out[dst[i]] += table[src[i]]`` for every lookup ``i`` into a
    fresh zero-initialised ``out`` (sum pooling).

    Parameters
    ----------
    table:
        ``(num_rows, dim)`` embedding table (or gradient table).
    index:
        The ``(src, dst)`` lookup description.

    Returns
    -------
    ``(num_outputs, dim)`` tensor of reduced embeddings.
    """
    table = np.asarray(table)
    if table.ndim != 2:
        raise ValueError(f"table must be 2-D (rows, dim), got shape {table.shape}")
    if table.shape[0] < index.num_rows:
        raise ValueError(
            f"table has {table.shape[0]} rows but index addresses {index.num_rows}"
        )
    if index.num_lookups == 0:
        return np.zeros((index.num_outputs, table.shape[1]), dtype=table.dtype)
    count_kernel("gather_reduce")
    return segment_sum(table, index.src, index.dst, index.num_outputs)


def gather_reduce_reference(table: np.ndarray, index: IndexArray) -> np.ndarray:
    """Element-by-element gather-reduce (test oracle).

    Walks the ``(src, dst)`` pairs one at a time, accumulating in float64 for
    a numerically trustworthy reference.
    """
    table = np.asarray(table)
    out = np.zeros((index.num_outputs, table.shape[1]), dtype=np.float64)
    for src, dst in zip(index.src, index.dst):
        out[int(dst)] += table[int(src)]
    return out.astype(table.dtype)


def casted_gather_reduce(
    gradients: np.ndarray, casted: CastedIndex
) -> Tuple[np.ndarray, np.ndarray]:
    """Gradient gather-reduce over a precomputed cast (Algorithm 3, Step B).

    Gathers rows of the ``(B, dim)`` gradient table selected by
    ``casted_src`` and reduces them into ``u`` coalesced slots named by
    ``casted_dst`` — producing exactly the coalesced gradients that the
    baseline expand-coalesce pipeline would, with no expanded intermediate.
    It is the forward kernel over the gradient table — the paper's key
    identity — fed the segment layout the cast already derived.

    Returns
    -------
    rows:
        ``(u,)`` embedding rows to scatter into (ascending for sort-based
        casts).
    coalesced:
        ``(u, dim)`` coalesced gradient per row.
    """
    gradients = np.asarray(gradients)
    if gradients.ndim != 2:
        raise ValueError(f"gradients must be 2-D (B, dim), got shape {gradients.shape}")
    if gradients.shape[0] < casted.num_gradients:
        raise ValueError(
            f"gradient table has {gradients.shape[0]} rows, cast expects "
            f"{casted.num_gradients}"
        )
    if casted.num_lookups == 0:
        return casted.rows, np.zeros(
            (casted.num_coalesced, gradients.shape[1]), dtype=gradients.dtype
        )
    # CastedIndex is an unvalidated frozen dataclass; bound-check a
    # hand-built cast here (the casting kernels always produce valid ones)
    # so the reduction never scatters out of bounds.
    src_lo, src_hi = int(casted.casted_src.min()), int(casted.casted_src.max())
    if src_lo < 0 or src_hi >= max(casted.num_gradients, 1):
        raise ValueError(
            f"casted_src ids must lie in [0, {casted.num_gradients}), got "
            f"range [{src_lo}, {src_hi}]"
        )
    dst_lo, dst_hi = int(casted.casted_dst.min()), int(casted.casted_dst.max())
    if dst_lo < 0 or dst_hi >= casted.num_coalesced:
        raise ValueError(
            f"casted_dst ids must lie in [0, {casted.num_coalesced}), got "
            f"range [{dst_lo}, {dst_hi}]"
        )
    if np.any(casted.casted_dst[1:] < casted.casted_dst[:-1]):
        # The reduction runs over CastedIndex.segment_starts(), which reads
        # runs of casted_dst as whole segments.
        raise ValueError("casted_dst must be non-decreasing (a casted ramp)")
    count_kernel("casted_gather_reduce")
    return casted.rows, segment_sum(
        gradients, casted.casted_src, casted.casted_dst,
        casted.num_coalesced, starts=casted.segment_starts(),
    )


def tcasted_grad_gather_reduce(
    index: IndexArray, gradients: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Full Tensor-Casted backward primitive (Algorithm 3).

    Step A runs Tensor Casting on the forward index array; Step B launches
    the gather-reduce kernel over the gradient table.  In the deployed
    runtime Step A is precomputed during forward propagation
    (:mod:`repro.runtime`), so only Step B sits on the backward critical
    path; this convenience wrapper performs both for functional use.
    """
    casted = tensor_casting(index)  # Step A
    return casted_gather_reduce(gradients, casted)  # Step B
