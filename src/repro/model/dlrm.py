"""The full DLRM recommendation model (Figure 1), trained end to end.

Assembles the substrates into the paper's topology: a bottom MLP over
continuous features, one :class:`~repro.model.embedding.EmbeddingBag` per
categorical feature, a feature-interaction stage, and a top MLP ending in a
CTR logit.  The backward pass through the embedding layers runs either the
baseline expand-coalesce pipeline or the Tensor-Casted gather-reduce; both
yield bit-identical training trajectories (validated by the test suite),
because Tensor Casting "does not change the mathematical property of
gradient coalescing" (Section VI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.casting import CastedIndex
from ..core.indexing import IndexArray
from .configs import ModelConfig
from .embedding import EmbeddingBag, SparseGradient
from .interaction import CatInteraction, DotInteraction
from .layers import MLP
from .loss import bce_with_logits, sigmoid
from .optim import Optimizer

__all__ = ["DLRM", "StepStats"]


@dataclass(frozen=True)
class StepStats:
    """Bookkeeping returned by :meth:`DLRM.train_step`.

    Attributes
    ----------
    loss:
        Mean BCE of the mini-batch.
    lookups:
        Total embedding gathers ``n`` across tables.
    coalesced_rows:
        Total coalesced gradient rows ``u`` across tables (the scatter size).
    """

    loss: float
    lookups: int
    coalesced_rows: int


class DLRM:
    """Deep Learning Recommendation Model per the open-source reference.

    Parameters
    ----------
    config:
        A Table II :class:`~repro.model.configs.ModelConfig` (or any custom
        one).
    rng:
        Source of initialization randomness.
    dtype:
        Parameter dtype (float64 default for checkable gradients), exposed
        as :attr:`dtype`.

    The model owns its dtype.  Batches arrive in whatever float type their
    source emits (the sources emit float64 and cannot know the model they
    feed), so ``dense`` is coerced exactly once, where both are known — the
    training engine's draw, or :meth:`forward_from_pooled` for a direct
    caller — and from there every array a step
    produces carries :attr:`dtype`: pooled outputs, activations, logits,
    the ``dlogits`` of :func:`~repro.model.loss.bce_with_logits`, dense
    parameter gradients, the ``(B, dim)`` gradient tables and each
    :class:`~repro.model.embedding.SparseGradient`.  For the default
    float64 model every coercion is a no-op.
    """

    def __init__(
        self,
        config: ModelConfig,
        rng: np.random.Generator | None = None,
        dtype: np.dtype = np.float64,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.config = config
        self.dtype = np.dtype(dtype)
        self.bottom_mlp = MLP(config.bottom_mlp, rng=rng, dtype=dtype)
        self.embeddings = [
            EmbeddingBag(config.rows_per_table, config.embedding_dim, rng=rng, dtype=dtype)
            for _ in range(config.num_tables)
        ]
        if config.interaction == "dot":
            self.interaction = DotInteraction()
        else:
            self.interaction = CatInteraction()
        self.top_mlp = MLP(config.top_mlp_sizes(), rng=rng, dtype=dtype)
        self._grad_embeddings: List[np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(
        self, dense: np.ndarray, indices: Sequence[IndexArray]
    ) -> np.ndarray:
        """Compute the CTR logits for a mini-batch.

        Parameters
        ----------
        dense:
            ``(B, dense_features)`` continuous inputs.
        indices:
            One :class:`IndexArray` per embedding table, each with
            ``num_outputs == B``.

        Returns
        -------
        ``(B,)`` raw logits (apply :func:`repro.model.loss.sigmoid` for CTR).
        """
        if len(indices) != len(self.embeddings):
            raise ValueError(
                f"expected {len(self.embeddings)} index arrays, got {len(indices)}"
            )
        batch = dense.shape[0]
        for table_id, index in enumerate(indices):
            if index.num_outputs != batch:
                raise ValueError(
                    f"index array {table_id} pools into {index.num_outputs} outputs, "
                    f"batch is {batch}"
                )
        emb_outs = [
            bag.forward(index) for bag, index in zip(self.embeddings, indices)
        ]
        return self.forward_from_pooled(dense, emb_outs)

    def forward_from_pooled(
        self, dense: np.ndarray, emb_outs: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Dense half of the forward pass, given already-pooled embeddings.

        Split out so alternative embedding executors — notably the sharded
        runtime, whose pooled vectors arrive through a simulated all-to-all
        (:mod:`repro.model.sharded`) — can reuse the MLP/interaction stack
        unchanged.

        This is the data → model seam for a direct caller: ``dense`` is
        brought to the model's :attr:`dtype` here (no copy when it already
        matches, one ``(B, dense_features)`` cast otherwise), so the
        logits — and with them the whole backward pass — come back in
        :attr:`dtype`.  The training engine crosses the seam earlier, at
        the draw (:meth:`~repro.runtime.engine.TrainingEngine._draw`), so
        the source's float64 batch is gone before the step computes and
        this cast is a no-op there.
        """
        dense = np.asarray(dense, dtype=self.dtype)
        dense_out = self.bottom_mlp.forward(dense)
        interacted = self.interaction.forward(dense_out, list(emb_outs))
        logits = self.top_mlp.forward(interacted)
        return logits[:, 0]

    def release_activations(self) -> None:
        """Drop what the dense forward saved for a backward that will not
        run (a forward-only pass), so no activation outlives its step.
        ``CatInteraction`` saves no tensor, only the layout."""
        self.bottom_mlp.release()
        if isinstance(self.interaction, DotInteraction):
            self.interaction.release()
        self.top_mlp.release()

    def predict_ctr(
        self, dense: np.ndarray, indices: Sequence[IndexArray]
    ) -> np.ndarray:
        """Predicted click-through probability for a mini-batch."""
        return sigmoid(self.forward(dense, indices))

    def backward(
        self,
        dlogits: np.ndarray,
        mode: str = "casted",
        casts: Sequence[CastedIndex] | None = None,
    ) -> List[SparseGradient]:
        """Backpropagate, returning the per-table coalesced sparse gradients.

        Dense-layer gradients accumulate inside the MLP layers (retrieve via
        :meth:`dense_parameters`); the embedding gradients are returned so
        the caller (or :meth:`train_step`) can scatter them.

        Parameters
        ----------
        dlogits:
            ``(B,)`` loss gradient w.r.t. the logits.
        mode:
            ``"baseline"`` or ``"casted"`` embedding backward strategy.
        casts:
            Optional precomputed casts, one per table, emulating the
            runtime's hidden casting stage.
        """
        if casts is not None and len(casts) != len(self.embeddings):
            raise ValueError(
                f"expected {len(self.embeddings)} casts, got {len(casts)}"
            )
        demb_outs = self.backward_through_dense(dlogits)
        sparse_grads: List[SparseGradient] = []
        for table_id, (bag, demb) in enumerate(zip(self.embeddings, demb_outs)):
            cast = casts[table_id] if casts is not None else None
            sparse_grads.append(bag.backward(demb, mode=mode, cast=cast))
        return sparse_grads

    def backward_through_dense(self, dlogits: np.ndarray) -> List[np.ndarray]:
        """Dense half of the backward pass: MLPs and interaction only.

        Returns the per-table ``(B, dim)`` gradients w.r.t. the pooled
        embedding outputs — the gradient tables that either the in-process
        embedding bags or a sharded executor coalesce and scatter.  Dense
        parameter gradients accumulate inside the MLP layers as usual; the
        bottom MLP's input is data, so its input gradient is never formed.
        """
        dtop = self.top_mlp.backward(dlogits[:, None])
        ddense_out, demb_outs = self.interaction.backward(dtop)
        self.bottom_mlp.backward(ddense_out, input_grad=False)
        return demb_outs

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_step(
        self,
        dense: np.ndarray,
        indices: Sequence[IndexArray],
        labels: np.ndarray,
        optimizer: Optimizer,
        mode: str = "casted",
        precompute_casts: bool = False,
    ) -> StepStats:
        """One full SGD iteration: forward, loss, backward, update.

        ``precompute_casts=True`` mirrors the deployed runtime: Tensor
        Casting runs before the backward pass (during forward propagation in
        wall-clock terms) and the backward pass consumes the ready-made casts.
        """
        casts: List[CastedIndex] | None = None
        if precompute_casts and mode == "casted":
            casts = [bag.precompute_cast(idx)
                     for bag, idx in zip(self.embeddings, indices)]
        self.zero_grad()
        logits = self.forward(dense, indices)
        loss, dlogits = bce_with_logits(logits, labels)
        sparse_grads = self.backward(dlogits, mode=mode, casts=casts)
        optimizer.step(self.dense_parameters())
        for bag, grad in zip(self.embeddings, sparse_grads):
            bag.apply_gradient(grad, optimizer)
        return StepStats(
            loss=loss,
            lookups=sum(idx.num_lookups for idx in indices),
            coalesced_rows=sum(g.nnz_rows for g in sparse_grads),
        )

    # ------------------------------------------------------------------
    # Parameter plumbing
    # ------------------------------------------------------------------
    def dense_parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(param, grad)`` pairs of both MLPs for dense optimizer steps."""
        return self.bottom_mlp.parameters() + self.top_mlp.parameters()

    def all_parameters(self) -> List[np.ndarray]:
        """Every trainable tensor: dense MLP parameters + embedding tables.

        The single source of truth for whole-model parameter comparisons
        (e.g. the trainer equivalence checks) — extend here when the model
        grows a parameter group so no comparison silently misses it.
        """
        return [param for param, _ in self.dense_parameters()] + [
            bag.table for bag in self.embeddings
        ]

    def zero_grad(self) -> None:
        """Clear accumulated dense gradients before a new iteration."""
        self.bottom_mlp.zero_grad()
        self.top_mlp.zero_grad()

    def parameter_count(self) -> int:
        """Total trainable scalars, embeddings included."""
        dense = sum(p.size for p, _ in self.dense_parameters())
        sparse = sum(bag.table.size for bag in self.embeddings)
        return dense + sparse

    def embedding_footprint_bytes(self) -> int:
        """Aggregate embedding-table bytes (the capacity wall of Section I)."""
        return sum(bag.footprint_bytes() for bag in self.embeddings)
