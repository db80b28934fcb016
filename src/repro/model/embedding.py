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
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import DTypeLike

from ..core.casting import CastedIndex, tensor_casting
from ..core.coalesce import expand_coalesce
from ..core.gather_reduce import casted_gather_reduce, gather_reduce
from ..core.indexing import IndexArray
from ..core.scatter import SparseOptimizer, scatter_with_optimizer

if TYPE_CHECKING:  # runtime import stays deferred to avoid the cycle
    from ..backends.dispatch import BackendSpec

__all__ = ["SparseGradient", "EmbeddingBag", "inverse_lookup_counts"]

_BACKWARD_MODES = ("baseline", "casted")


def inverse_lookup_counts(index: IndexArray, dtype: DTypeLike) -> np.ndarray:
    """Per-output ``1 / lookup_count`` with empty bags mapped to zero.

    The mean-pooling scale factor, applied identically in the forward pass
    (to the pooled sums) and the backward pass (to the gradient table) by
    both :class:`EmbeddingBag` itself and the sharded executor — one
    definition so the two paths cannot drift.
    """
    counts = index.lookups_per_output().astype(dtype)
    inverse = np.zeros_like(counts)
    occupied = counts > 0
    inverse[occupied] = 1.0 / counts[occupied]
    return inverse


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
    backend:
        Kernel engine forwarded to every hot kernel this bag launches
        (gather-reduce, casting, expand-coalesce): a registered backend
        name, a :class:`~repro.backends.base.KernelBackend` instance, or
        ``None`` for the process default.  Plain attribute — the trainers
        assign their resolved backend here so a ``backend=`` knob set on a
        trainer reaches the model's kernels.
    """

    #: Supported pooling reductions.  ``"sum"`` is the paper's default;
    #: ``"mean"`` divides each pooled vector by its lookup count (both are
    #: weighted gather-reduces on the same datapath).
    POOLING_MODES = ("sum", "mean")

    def __init__(
        self,
        num_rows: int,
        dim: int,
        rng: np.random.Generator | None = None,
        dtype: np.dtype = np.float64,
        pooling: str = "sum",
        backend: "BackendSpec" = None,
    ) -> None:
        if num_rows <= 0 or dim <= 0:
            raise ValueError("num_rows and dim must be positive")
        if pooling not in self.POOLING_MODES:
            raise ValueError(
                f"pooling must be one of {self.POOLING_MODES}, got {pooling!r}"
            )
        rng = rng or np.random.default_rng(0)
        # DLRM-style uniform init scaled by table size.
        bound = 1.0 / np.sqrt(num_rows)
        self.table = rng.uniform(-bound, bound, size=(num_rows, dim)).astype(dtype)
        self.pooling = pooling
        self.backend = backend
        self._last_index: IndexArray | None = None
        self._last_inverse_counts: np.ndarray | None = None

    @property
    def num_rows(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def forward(self, index: IndexArray) -> np.ndarray:
        """Gather-reduce the batch's lookups into ``(B, dim)`` pooled vectors.

        Mean pooling divides each pooled vector by its lookup count (bags
        with zero lookups stay zero); the scale is cached so the backward
        pass applies it to the *gradient table* before either coalescing
        strategy — keeping baseline and casted paths identical by
        construction.
        """
        if index.num_rows > self.num_rows:
            raise ValueError(
                f"index addresses {index.num_rows} rows, table has {self.num_rows}"
            )
        self._last_index = index
        pooled = gather_reduce(self.table, index, backend=self.backend)
        if self.pooling == "mean":
            inverse = inverse_lookup_counts(index, self.table.dtype)
            self._last_inverse_counts = inverse
            pooled = pooled * inverse[:, None]
        else:
            self._last_inverse_counts = None
        return pooled

    def precompute_cast(self, index: IndexArray) -> CastedIndex:
        """Run Tensor Casting ahead of time (the runtime's hidden stage).

        In the deployed system this executes on the GPU concurrently with the
        CPU/NMP-side forward gather (Figure 9(b)); functionally it only needs
        the index array, which is available before forward propagation starts.
        """
        return tensor_casting(index, backend=self.backend)

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
            brought to the table's dtype here (the model → kernel seam; a
            no-op inside a :class:`~repro.model.dlrm.DLRM` step), so the
            returned :class:`SparseGradient` — and the row update it feeds
            — run in the table's dtype under both modes.
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
        grad_output = np.asarray(grad_output, dtype=self.table.dtype)
        if grad_output.shape != (index.num_outputs, self.dim):
            raise ValueError(
                f"grad_output must have shape {(index.num_outputs, self.dim)}, "
                f"got {grad_output.shape}"
            )
        if self._last_inverse_counts is not None:
            # Mean pooling: d(sum/c)/d(row) scales each slot's gradient by
            # 1/c.  Applied to the (B, dim) gradient table, so both backward
            # strategies see the same inputs.
            grad_output = grad_output * self._last_inverse_counts[:, None]
        if mode == "baseline":
            rows, values = expand_coalesce(index, grad_output, backend=self.backend)
        else:
            if cast is None:
                cast = tensor_casting(index, backend=self.backend)
            rows, values = casted_gather_reduce(
                grad_output, cast, backend=self.backend
            )
        return SparseGradient(rows=rows, values=values)

    def apply_gradient(self, grad: SparseGradient,
                       optimizer: SparseOptimizer) -> None:
        """Scatter the coalesced gradient into the table via the optimizer."""
        scatter_with_optimizer(self.table, grad.rows, grad.values, optimizer)

    def footprint_bytes(self) -> int:
        """Table size in bytes — the capacity burden motivating CPU/NMP placement."""
        return int(self.table.nbytes)
