"""Feature-interaction stage between embeddings and the top MLP (Figure 1).

DLRM combines the bottom-MLP output with the pooled embedding vectors before
the top MLP.  Two standard combiners are provided, both with hand-derived
backward passes:

* :class:`CatInteraction` — plain concatenation of all feature vectors;
* :class:`DotInteraction` — DLRM's default: every pairwise dot product
  between the dense vector and the per-table embedding vectors (strictly
  lower triangle), concatenated after the dense vector.

``DotInteraction`` saves the stacked features ``(B, F, dim)`` in
``forward`` and its ``backward`` drops them once read (``release`` drops
them after a forward-only pass), so they do not outlive the step;
``CatInteraction`` saves only the layout.  A second ``backward`` without a
``forward`` raises.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["CatInteraction", "DotInteraction", "interaction_output_dim"]


def interaction_output_dim(kind: str, num_tables: int, dim: int) -> int:
    """Output width of an interaction over ``num_tables`` embeddings of ``dim``.

    Used by :class:`repro.model.dlrm.DLRM` to size the top MLP's first layer
    and by the performance model to size activation transfers.
    """
    if kind == "cat":
        return (num_tables + 1) * dim
    if kind == "dot":
        num_features = num_tables + 1
        return dim + num_features * (num_features - 1) // 2
    raise ValueError(f"unknown interaction kind {kind!r}; expected 'cat' or 'dot'")


class CatInteraction:
    """Concatenate ``[dense, emb_1, ..., emb_T]`` along the feature axis."""

    kind = "cat"

    def __init__(self) -> None:
        self._num_tables: int | None = None
        self._dim: int | None = None

    def forward(self, dense: np.ndarray, embeddings: List[np.ndarray]) -> np.ndarray:
        _check_feature_shapes(dense, embeddings)
        self._num_tables = len(embeddings)
        self._dim = dense.shape[1]
        return np.concatenate([dense, *embeddings], axis=1)

    def backward(self, dout: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        if self._num_tables is None or self._dim is None:
            raise RuntimeError("backward called before forward")
        dim = self._dim
        expected = (self._num_tables + 1) * dim
        if dout.ndim != 2 or dout.shape[1] != expected:
            raise ValueError(f"dout must have width {expected}, got {dout.shape}")
        ddense = dout[:, :dim]
        dembs = [
            dout[:, (t + 1) * dim : (t + 2) * dim] for t in range(self._num_tables)
        ]
        return ddense, dembs

    def output_dim(self, num_tables: int, dim: int) -> int:
        return interaction_output_dim("cat", num_tables, dim)

    def forward_flops(self, batch: int, num_tables: int, dim: int) -> int:
        """Concatenation moves data but performs no arithmetic."""
        return 0


class DotInteraction:
    """DLRM dot interaction: pairwise dots of all feature vectors.

    With ``F = T + 1`` feature vectors of width ``dim`` stacked as
    ``Z in (B, F, dim)``, the output is ``[dense, lower_tri(Z @ Z^T)]`` with
    ``F(F-1)/2`` interaction terms (diagonal and upper triangle dropped, as
    in the open-source DLRM).
    """

    kind = "dot"

    def __init__(self) -> None:
        self._stacked: np.ndarray | None = None
        self._tri: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, dense: np.ndarray, embeddings: List[np.ndarray]) -> np.ndarray:
        _check_feature_shapes(dense, embeddings)
        stacked = np.stack([dense, *embeddings], axis=1)  # (B, F, dim)
        num_features = stacked.shape[1]
        rows, cols = np.tril_indices(num_features, k=-1)
        grams = np.einsum("bfd,bgd->bfg", stacked, stacked)
        self._stacked = stacked
        self._tri = (rows, cols)
        return np.concatenate([dense, grams[:, rows, cols]], axis=1)

    def backward(self, dout: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        stacked = self._stacked
        if stacked is None or self._tri is None:
            raise RuntimeError("backward called before forward")
        self._stacked = None
        rows, cols = self._tri
        batch, num_features, dim = stacked.shape
        expected = dim + rows.size
        if dout.ndim != 2 or dout.shape[1] != expected:
            raise ValueError(f"dout must have width {expected}, got {dout.shape}")
        ddense_direct = dout[:, :dim]
        dtri = dout[:, dim:]  # (B, F(F-1)/2)
        # d(z_f . z_g)/dz_f = z_g and vice versa; accumulate both halves.
        dgrams = np.zeros((batch, num_features, num_features), dtype=dout.dtype)
        dgrams[:, rows, cols] = dtri
        dgrams[:, cols, rows] = dtri
        dstacked = np.einsum("bfg,bgd->bfd", dgrams, stacked)
        ddense = dstacked[:, 0, :] + ddense_direct
        dembs = [dstacked[:, t + 1, :] for t in range(num_features - 1)]
        return ddense, dembs

    def release(self) -> None:
        self._stacked = None

    def output_dim(self, num_tables: int, dim: int) -> int:
        return interaction_output_dim("dot", num_tables, dim)

    def forward_flops(self, batch: int, num_tables: int, dim: int) -> int:
        """FLOPs of the batched Gram computation (2 per MAC)."""
        num_features = num_tables + 1
        return 2 * batch * num_features * num_features * dim


def _check_feature_shapes(dense: np.ndarray, embeddings: List[np.ndarray]) -> None:
    if dense.ndim != 2:
        raise ValueError(f"dense must be 2-D (batch, dim), got {dense.shape}")
    for position, emb in enumerate(embeddings):
        if emb.shape != dense.shape:
            raise ValueError(
                f"embedding output {position} has shape {emb.shape}, "
                f"expected {dense.shape} (all features must share batch and dim)"
            )
