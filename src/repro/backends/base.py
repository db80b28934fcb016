"""The :class:`KernelBackend` interface — one seam for every hot kernel.

The paper's central observation is that a *single* gather-reduce primitive
serves forward propagation, the casted backward pass, and (mirrored) the
gradient scatter — which makes the kernel layer the natural hardware
abstraction boundary.  A :class:`KernelBackend` is one implementation of
that primitive inventory:

* :meth:`~KernelBackend.gather_reduce` — the fused forward gather-reduce
  (Figure 2(a)), also the engine of the casted backward pass;
* :meth:`~KernelBackend.cast_indices` — Tensor Casting itself (Algorithm 2);
* :meth:`~KernelBackend.expand_coalesce` — the baseline two-step gradient
  pipeline (Algorithm 1);
* :meth:`~KernelBackend.scatter_update` — the plain-SGD model update;
* :meth:`~KernelBackend.casted_gather_reduce` — Algorithm 3 Step B, with a
  default implementation that *is* ``gather_reduce`` over the cast viewed as
  an index array (the paper's key identity), overridable when a backend has
  a faster fused path for the monotone casted layout.

Every registered backend must produce results interchangeable with the
pure-Python oracles in :mod:`repro.core`: exactly equal for integer outputs
and float64 tensors (identical accumulation order), and within documented
float32 tolerance where an implementation accumulates at a different
precision (see ``tests/backends/test_differential.py`` for the pinned
contract).  The core kernels in :mod:`repro.core` validate arguments and
dispatch here; backend methods themselves assume pre-validated inputs but
stay safe for direct calls on degenerate (empty) workloads.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Tuple

import numpy as np

from ..core.casting import CastedIndex
from ..core.indexing import IndexArray

__all__ = ["KernelBackend"]


class KernelBackend(abc.ABC):
    """Abstract base class of one kernel-engine implementation.

    Subclasses set :attr:`name` (the registry key) and implement the four
    hot kernels.
    """

    #: Registry key; also what ``--backend`` and the trainers' ``backend=``
    #: knob accept.
    name: ClassVar[str]

    # ------------------------------------------------------------------
    # The hot kernels
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def gather_reduce(
        self,
        table: np.ndarray,
        index: IndexArray,
        out: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """``out[dst[i]] += weights[i] * table[src[i]]`` for every lookup.

        The cross-backend bit-identity contract covers fresh (absent or
        zero-filled) ``out`` buffers — the only kind the trainers and
        sharded executor ever pass.  With a caller-provided *non-zero*
        ``out``, engines may fold their result in with a different
        association (one bulk add vs. per-lookup adds), so agreement there
        is within float tolerance only.
        """

    @abc.abstractmethod
    def cast_indices(self, index: IndexArray) -> CastedIndex:
        """Tensor Casting (Algorithm 2) over a forward index array."""

    @abc.abstractmethod
    def expand_coalesce(
        self, index: IndexArray, gradients: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Baseline two-step gradient pipeline; returns ``(rows, coalesced)``."""

    @abc.abstractmethod
    def scatter_update(
        self,
        table: np.ndarray,
        rows: np.ndarray,
        gradients: np.ndarray,
        lr: float = 1.0,
    ) -> np.ndarray:
        """In-place plain-SGD scatter: ``table[rows] -= lr * gradients``."""

    def casted_gather_reduce(
        self, gradients: np.ndarray, casted: CastedIndex
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Algorithm 3 Step B: gradient gather-reduce over a precomputed cast.

        Default implementation applies the paper's identity — the casted
        backward pass *is* a gather-reduce over the gradient table — so any
        backend gets a correct casted backward for free from its
        :meth:`gather_reduce`.  Backends override this when the monotone
        casted layout admits a faster fused path.
        """
        return casted.rows, self.gather_reduce(gradients, casted.as_index_array())

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _alloc_out(
        table: np.ndarray, index: IndexArray, out: np.ndarray | None
    ) -> np.ndarray:
        """The ``(num_outputs, dim)`` output, zero-allocated when absent."""
        if out is None:
            out = np.zeros((index.num_outputs, table.shape[1]), dtype=table.dtype)
        return out

    @staticmethod
    def _empty_cast(index: IndexArray) -> CastedIndex:
        """The cast of a lookup-free index array."""
        empty = np.empty(0, dtype=np.int64)
        return CastedIndex(empty, empty.copy(), empty.copy(), index.num_outputs)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
