"""Core Tensor Casting primitives — the paper's algorithmic contribution.

This package implements the full embedding-training primitive inventory of
the paper (Section II-B, Figure 2) plus Tensor Casting itself (Section IV-A,
Algorithms 2-3):

* :mod:`~repro.core.indexing` — the ``(src, dst)`` index-array abstraction,
* :mod:`~repro.core.gather_reduce` — fused forward gather-reduce and the
  casted gradient gather-reduce,
* :mod:`~repro.core.segment` — ``segment_sum``, the order-preserving
  accumulation primitive the NumPy engines and the coalesce share,
* :mod:`~repro.core.coalesce` — the baseline gradient expand-coalesce
  pipeline (Algorithm 1),
* :mod:`~repro.core.casting` — Tensor Casting (Algorithm 2) and a
  hash-bucketing ablation variant,
* :mod:`~repro.core.scatter` — the gradient-scatter model update, the one
  checked row-block walk every optimizer's sparse update runs,
* :mod:`~repro.core.traffic` — analytic memory-traffic models (Figure 6).
"""

from .casting import (
    CastedIndex,
    hash_casting,
    tensor_casting,
    tensor_casting_reference,
)
from .coalesce import (
    expand_coalesce,
    gradient_coalesce,
    gradient_coalesce_reference,
    gradient_expand,
)
from .gather_reduce import (
    casted_gather_reduce,
    gather_reduce,
    gather_reduce_reference,
    tcasted_grad_gather_reduce,
)
from .indexing import IndexArray, concatenate
from .scatter import gradient_scatter_reference
from .sharding import (
    PARTITION_POLICIES,
    RowWisePartition,
    ShardPartition,
    ShardSlice,
    TableWisePartition,
    make_partition,
    reassemble_pooled,
)
from .traffic import (
    OPTIMIZER_STATE_ITEMSIZE,
    OPTIMIZER_STATE_SLOTS,
    Traffic,
    casted_gather_reduce_traffic,
    casting_reduction_factor,
    casting_traffic,
    coalesce_accumulate_traffic,
    coalesce_sort_traffic,
    expand_coalesce_traffic,
    expand_traffic,
    expected_shard_outputs,
    gather_reduce_traffic,
    scatter_traffic,
    sharded_exchange_bytes,
)

__all__ = [
    "CastedIndex",
    "IndexArray",
    "OPTIMIZER_STATE_ITEMSIZE",
    "OPTIMIZER_STATE_SLOTS",
    "PARTITION_POLICIES",
    "RowWisePartition",
    "ShardPartition",
    "ShardSlice",
    "TableWisePartition",
    "Traffic",
    "casted_gather_reduce",
    "casted_gather_reduce_traffic",
    "casting_reduction_factor",
    "casting_traffic",
    "coalesce_accumulate_traffic",
    "coalesce_sort_traffic",
    "concatenate",
    "expand_coalesce",
    "expand_coalesce_traffic",
    "expand_traffic",
    "expected_shard_outputs",
    "gather_reduce",
    "gather_reduce_reference",
    "gather_reduce_traffic",
    "gradient_coalesce",
    "gradient_coalesce_reference",
    "gradient_expand",
    "gradient_scatter_reference",
    "hash_casting",
    "make_partition",
    "reassemble_pooled",
    "scatter_traffic",
    "sharded_exchange_bytes",
    "tcasted_grad_gather_reduce",
    "tensor_casting",
    "tensor_casting_reference",
]
