#!/usr/bin/env python
"""Quickstart: Tensor Casting on the paper's own worked example.

Walks Figure 2 / Figure 7 / Figure 8 of the paper end to end with real
arrays: the forward gather-reduce, the baseline gradient expand-coalesce
(Algorithm 1), Tensor Casting (Algorithm 2), and the casted gradient
gather-reduce (Algorithm 3) — verifying that both backward paths produce
identical coalesced gradients, then quantifying the memory-traffic savings.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    SGD,
    IndexArray,
    casted_gather_reduce,
    casting_reduction_factor,
    expand_coalesce,
    gather_reduce,
    tensor_casting,
)
from repro.core.traffic import (
    casted_gather_reduce_traffic,
    expand_coalesce_traffic,
)


def main() -> None:
    # ------------------------------------------------------------------
    # The paper's example: batch of 2, sample 0 gathers rows {1, 2, 4},
    # sample 1 gathers rows {0, 2} (Figure 2(a)).
    # ------------------------------------------------------------------
    index = IndexArray(src=[1, 2, 4, 0, 2], dst=[0, 0, 0, 1, 1], num_rows=6)
    table = np.arange(6 * 4, dtype=np.float64).reshape(6, 4)

    print("== Forward: embedding gather-reduce (Figure 2a) ==")
    pooled = gather_reduce(table, index)
    print(f"reduced embeddings (B={index.num_outputs}, dim=4):\n{pooled}\n")

    # Gradients flowing back from the DNN: one per reduced output.
    gradients = np.array([[1.0, 1, 1, 1], [10.0, 10, 10, 10]])

    print("== Backward, baseline: expand + coalesce (Algorithm 1) ==")
    rows_base, coal_base = expand_coalesce(index, gradients)
    print(f"coalesced rows: {rows_base.tolist()}")
    print(f"coalesced grads:\n{coal_base}")
    print("note row 2 accumulated G[0]+G[1] = 11, exactly Figure 2(b)\n")

    print("== Backward, Tensor Casting (Algorithms 2+3, Figures 7-8) ==")
    cast = tensor_casting(index)
    print(f"casted src (gathers from the gradient table): {cast.casted_src.tolist()}")
    print(f"casted dst (coalesced slots):                 {cast.casted_dst.tolist()}")
    rows_cast, coal_cast = casted_gather_reduce(gradients, cast)
    assert np.array_equal(rows_base, rows_cast)
    assert np.allclose(coal_base, coal_cast)
    print("casted gather-reduce == baseline expand-coalesce  [VERIFIED]\n")

    print("== Model update: gradient scatter (Figure 2b step 3) ==")
    # One coalesced gradient per row, through the optimizer's sparse rule:
    # duplicate rows or mis-shaped gradients are refused before any write.
    SGD(lr=0.1).apply_sparse(table, rows_cast, coal_cast)
    print(f"updated table rows {rows_cast.tolist()}:\n{table[rows_cast]}\n")

    print("== Why cast? The 2x memory-intensity guarantee ==")
    n, batch = 1_638_400, 20_480  # RM1 at batch 2048: 800 lookups/sample
    unique = int(0.92 * n)
    baseline_traffic = expand_coalesce_traffic(n, batch, unique, dim=64)
    casted_traffic = casted_gather_reduce_traffic(n, unique, dim=64)
    factor = casting_reduction_factor(n, batch, unique, dim=64)
    print(f"RM1 @ batch 2048: expand-coalesce moves {baseline_traffic.total / 1e9:.2f} GB, "
          f"casted gather-reduce {casted_traffic.total / 1e9:.2f} GB")
    print(f"memory-intensity reduction: {factor:.2f}x (guaranteed >= 2)")


if __name__ == "__main__":
    main()
