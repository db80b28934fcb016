"""Embedding-bag layer with both backward strategies of the paper.

An :class:`EmbeddingBag` owns one embedding table and performs the pooled
(sum-reduced) lookup of Figure 2(a).  Its backward pass can run either way
the paper studies:

* ``mode="baseline"`` — the framework-default gradient expand-coalesce
  (Algorithm 1), materializing the ``n``-row expanded gradient tensor;
* ``mode="casted"`` — the Tensor-Casted gradient gather-reduce
  (Algorithms 2-3), optionally consuming a cast precomputed during forward
  propagation the way the paper's runtime hides casting latency.

Both paths produce the identical :class:`SparseGradient`; the paper validates
this functional equivalence on real systems (Section V) and the test suite
validates it here, including with property-based index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.casting import CastedIndex, tensor_casting
from ..core.coalesce import expand_coalesce
from ..core.gather_reduce import casted_gather_reduce, gather_reduce
from ..core.indexing import IndexArray
from .optim import Optimizer

__all__ = ["SparseGradient", "EmbeddingBag"]

_BACKWARD_MODES = ("baseline", "casted")

#: Bytes of float64 draws per init chunk: a table is filled in row chunks
#: of about this size, so building it costs its own bytes plus one chunk.
_INIT_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class SparseGradient:
    """Coalesced gradient of an embedding table.

    Attributes
    ----------
    rows:
        ``(u,)`` unique table rows that trained this iteration.
    values:
        ``(u, dim)`` accumulated gradient per row, in the dtype of the
        table it updates (see :meth:`EmbeddingBag.backward`).
    """

    rows: np.ndarray
    values: np.ndarray

    @property
    def nnz_rows(self) -> int:
        """Number of rows carrying a gradient (``u``)."""
        return int(self.rows.size)

    def to_dense(self, num_rows: int) -> np.ndarray:
        """Materialize as a dense ``(num_rows, dim)`` gradient (testing aid)."""
        dense = np.zeros((num_rows, self.values.shape[1]), dtype=self.values.dtype)
        dense[self.rows] = self.values
        return dense


class EmbeddingBag:
    """Sum-pooled embedding lookup over one table.

    Parameters
    ----------
    num_rows:
        Table height (millions to billions in production; Section II-B).
    dim:
        Embedding vector width (the paper's default is 64).
    rng:
        Generator for table initialization.
    dtype:
        Table dtype; float64 by default so finite-difference gradient checks
        are meaningful, float32 for footprint-faithful experiments.
    """

    def __init__(
        self,
        num_rows: int,
        dim: int,
        rng: np.random.Generator | None = None,
        dtype: np.dtype = np.float64,
    ) -> None:
        if num_rows <= 0 or dim <= 0:
            raise ValueError("num_rows and dim must be positive")
        rng = rng or np.random.default_rng(0)
        # DLRM-style uniform init scaled by table size, drawn chunk by chunk
        # into the table's own dtype.  Uniform draws are sequential, so the
        # table and the generator's final state equal one whole-table draw
        # cast to ``dtype``, without its float64 copy.
        bound = 1.0 / np.sqrt(num_rows)
        self.table = np.empty((num_rows, dim), dtype=dtype)
        chunk = max(1, _INIT_CHUNK_BYTES // (8 * dim))
        for start in range(0, num_rows, chunk):
            rows = min(chunk, num_rows - start)
            self.table[start:start + rows] = rng.uniform(
                -bound, bound, size=(rows, dim)
            )
        self._last_index: IndexArray | None = None

    @property
    def num_rows(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def forward(self, index: IndexArray) -> np.ndarray:
        """Gather-reduce the batch's lookups into ``(B, dim)`` pooled vectors."""
        if index.num_rows > self.num_rows:
            raise ValueError(
                f"index addresses {index.num_rows} rows, table has {self.num_rows}"
            )
        self._last_index = index
        return gather_reduce(self.table, index)

    def precompute_cast(self, index: IndexArray) -> CastedIndex:
        """Run Tensor Casting ahead of time (the runtime's hidden stage).

        In the deployed system this executes on the GPU concurrently with the
        CPU/NMP-side forward gather (Figure 9(b)); functionally it only needs
        the index array, which is available before forward propagation starts.
        """
        return tensor_casting(index)

    def backward(
        self,
        grad_output: np.ndarray,
        mode: str = "casted",
        cast: CastedIndex | None = None,
    ) -> SparseGradient:
        """Produce the coalesced table gradient for the cached forward index.

        Parameters
        ----------
        grad_output:
            ``(B, dim)`` gradients backpropagated from the dense DNN,
            brought to the table's dtype and to C order here (the model →
            kernel seam: inside a :class:`~repro.model.dlrm.DLRM` step the
            dtype already matches, and the interaction's per-table gradient
            is a strided view, copied once), so the returned
            :class:`SparseGradient` — and the row update it feeds — run in
            the table's dtype under both modes.
        mode:
            ``"baseline"`` for Algorithm 1 expand-coalesce, ``"casted"`` for
            the Tensor-Casted gather-reduce.
        cast:
            Optional precomputed :class:`CastedIndex` (ignored in baseline
            mode); when omitted in casted mode the cast runs inline.
        """
        if mode not in _BACKWARD_MODES:
            raise ValueError(f"mode must be one of {_BACKWARD_MODES}, got {mode!r}")
        index = self._last_index
        if index is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.ascontiguousarray(grad_output, dtype=self.table.dtype)
        if grad_output.shape != (index.num_outputs, self.dim):
            raise ValueError(
                f"grad_output must have shape {(index.num_outputs, self.dim)}, "
                f"got {grad_output.shape}"
            )
        if mode == "baseline":
            rows, values = expand_coalesce(index, grad_output)
        else:
            if cast is None:
                cast = tensor_casting(index)
            rows, values = casted_gather_reduce(grad_output, cast)
        return SparseGradient(rows=rows, values=values)

    def release(self) -> None:
        """Drop the index :meth:`forward` kept for :meth:`backward`, so the
        batch it belongs to is not kept alive into the next one."""
        self._last_index = None

    def apply_gradient(self, grad: SparseGradient,
                       optimizer: Optimizer) -> None:
        """Scatter the coalesced gradient into the table via the optimizer."""
        optimizer.apply_sparse(self.table, grad.rows, grad.values)

    def footprint_bytes(self) -> int:
        """Table size in bytes — the capacity burden motivating CPU/NMP placement."""
        return int(self.table.nbytes)
