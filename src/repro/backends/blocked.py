"""The ``blocked`` backend — cache-blocked gather-reduce loop tiling.

RecNMP's characterization (PAPERS.md) shows embedding gathers are
bandwidth-bound with heavy hot-entry reuse; the fix on a cache hierarchy is
classic loop blocking.  This backend processes the lookup stream in
*segment-aligned tiles* sized so one tile's working set — the gathered
slice, its transpose, and the output rows it lands in — fits in L2, then
reduces each tile with a per-column ``np.bincount`` C loop over a
cache-resident window of the output.

Bit-identity with the rest of the registry is preserved by construction
("bit-identical to ``vectorized``" means to
:func:`repro.core.segment.segment_sum`, the NumPy engines' one definition
of accumulation order — each output row summed one addend at a time in
lookup order):

* **float64, sorted destinations** (the casted backward's monotone
  ``casted_dst`` ramp, and the standard sample-major forward ``dst``):
  tiles are cut at segment boundaries so no output row spans two tiles —
  every output row is accumulated from zero in strict lookup order by one
  ``np.bincount`` call, exactly the order the oracle and ``segment_sum``
  use.  Bit-identical to both.
* **float32, or unsorted destinations**: tiles fall back to ``np.add.at``
  into the (running) output.  Chunked ``np.add.at`` into an accumulator is
  associativity-invariant to the chunking — each ``out[dst] += v`` is an
  independent sequential update — so this is the per-lookup scatter-add
  ``segment_sum`` reproduces, bit for bit (and within the documented
  float32 tolerance of the float64-accumulating oracle).

``segment_sum`` is several times faster than either tile loop at the
benchmark shapes, so ``auto`` no longer picks this engine; it stays
registered until the ROADMAP's engine-deletion step (its probes are what
leave the allocator's mmap threshold raised for the rest of the process).

The tile size is the backend's tunable knob (``BackendSpec`` accepts an
instance, so ``gather_reduce(..., backend=BlockedBackend(tile_lookups=4096))``
selects a custom tiling); the default is sized for a ~1 MiB L2 at the
paper's 64-wide embeddings and is what the autotuner probes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.casting import CastedIndex
from ..core.coalesce import gradient_coalesce, gradient_expand
from ..core.indexing import IndexArray
from ..core.scatter import sgd_update_rows
from .base import KernelBackend
from .registry import register_backend
from .vectorized import cast_indices_vectorized

__all__ = ["BlockedBackend", "DEFAULT_TILE_LOOKUPS"]

#: Lookups per tile.  2048 lookups x 64 dims x 8 bytes = 1 MiB gathered
#: slice — measured best on this host between 1024 and 4096 (see
#: ``benchmarks/bench_kernels.py``); the knob to turn for other L2 sizes.
DEFAULT_TILE_LOOKUPS = 2048


def _is_sorted(values: np.ndarray) -> bool:
    return bool(np.all(values[1:] >= values[:-1]))


@register_backend
class BlockedBackend(KernelBackend):
    """Cache-blocked kernels: segment-aligned tiles + per-tile bincount."""

    name = "blocked"

    def __init__(self, tile_lookups: int = DEFAULT_TILE_LOOKUPS) -> None:
        if tile_lookups <= 0:
            raise ValueError(
                f"tile_lookups must be positive, got {tile_lookups}"
            )
        self.tile_lookups = int(tile_lookups)

    # ------------------------------------------------------------------
    # The blocked scatter-add core
    # ------------------------------------------------------------------
    def _segment_sum_blocked(
        self,
        values_source: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        out: np.ndarray,
        weights: np.ndarray | None,
    ) -> np.ndarray:
        """``out[dst[i]] += weights[i] * values_source[src[i]]`` tile by tile.

        The gather is fused into each tile (``values_source[src[tile]]``) so
        the expanded slice never exceeds one tile — that, not the reduction,
        is where the cache win comes from.
        """
        n = src.size
        use_bincount = (
            out.dtype == np.float64
            and values_source.dtype == np.float64
            and out.shape[1] > 0
            and _is_sorted(dst)
        )
        start = 0
        while start < n:
            end = min(start + self.tile_lookups, n)
            if use_bincount and end < n:
                # Align the tile end to a segment boundary so no output row
                # is accumulated by two bincount calls (each call computes
                # its rows' sums from zero, in lookup order).
                seg = int(np.searchsorted(dst, dst[end], side="left"))
                if seg > start:
                    end = seg
                else:  # one segment spans the whole tile: take it whole
                    end = int(np.searchsorted(dst, dst[end], side="right"))
            tile_src = src[start:end]
            tile_dst = dst[start:end]
            gathered = values_source[tile_src]
            if weights is not None:
                gathered = gathered * weights[start:end, None]
            if use_bincount:
                d0 = int(tile_dst[0])
                width = int(tile_dst[-1]) - d0 + 1
                local = tile_dst - d0
                window = out[d0 : d0 + width]
                columns = np.ascontiguousarray(gathered.T)
                for j in range(out.shape[1]):
                    window[:, j] += np.bincount(
                        local, weights=columns[j], minlength=width
                    )
            else:
                # Per-lookup adds into the running output are what make the
                # tiling exact; segment_sum would fold each tile in bulk.
                # repro-lint: ignore[numeric-hazard]
                np.add.at(out, tile_dst, gathered)
            start = end
        return out

    # ------------------------------------------------------------------
    # The hot kernels
    # ------------------------------------------------------------------
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
        return self._segment_sum_blocked(
            table, index.src, index.dst, out, weights
        )

    def casted_gather_reduce(
        self, gradients: np.ndarray, casted: CastedIndex
    ) -> Tuple[np.ndarray, np.ndarray]:
        # casted_dst is a dense monotone 0..u-1 ramp by construction, so the
        # sorted fast path always applies for float64 casts.
        out = np.zeros(
            (casted.num_coalesced, gradients.shape[1]), dtype=gradients.dtype
        )
        if casted.num_lookups == 0:
            return casted.rows, out
        return casted.rows, self._segment_sum_blocked(
            gradients, casted.casted_src, casted.casted_dst, out, None
        )

    def cast_indices(self, index: IndexArray) -> CastedIndex:
        # The cast is integer bookkeeping with no float accumulation to
        # block; the argsort formulation is already cache-friendly.
        if index.num_lookups == 0:
            return self._empty_cast(index)
        return cast_indices_vectorized(index)

    def expand_coalesce(
        self, index: IndexArray, gradients: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        # The baseline pipeline materializes the expanded tensor by
        # definition (that is what casting removes); tiling cannot help, so
        # share the vectorized implementation.
        expanded = gradient_expand(gradients, index.dst)
        return gradient_coalesce(index.src, expanded)

    def scatter_update(
        self,
        table: np.ndarray,
        rows: np.ndarray,
        gradients: np.ndarray,
        lr: float = 1.0,
    ) -> np.ndarray:
        # Already cache-blocked: the one row-update body of every engine.
        return sgd_update_rows(table, rows, gradients, lr)
