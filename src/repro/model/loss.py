"""Click-through-rate losses for recommendation training.

DLRM-style models end in a single logit whose sigmoid is the predicted
click-through rate (Section II-B).  Training uses binary cross-entropy; the
fused logits formulation below is the numerically stable composition of
sigmoid and BCE, returning both the scalar loss and the logit gradient that
backpropagates into the top MLP.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["bce_with_logits", "sigmoid"]


def sigmoid(logits: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (predicted CTR), in float64."""
    # repro-lint: ignore[dtype-discipline] — probabilities are reported in float64
    logits = np.asarray(logits, dtype=np.float64)
    out = np.empty_like(logits)
    pos = logits >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    ex = np.exp(logits[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_with_logits(
    logits: np.ndarray, targets: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean binary cross-entropy from raw logits, with its gradient.

    Uses the standard stable form ``max(z, 0) - z*y + log(1 + exp(-|z|))``.

    Parameters
    ----------
    logits:
        ``(B,)`` raw model outputs.
    targets:
        ``(B,)`` click labels in ``[0, 1]``.

    Returns
    -------
    loss:
        Scalar mean BCE.
    dlogits:
        ``(B,)`` gradient of the mean loss w.r.t. the logits,
        ``(sigmoid(z) - y) / B``, in the float dtype the logits arrived in
        (float64 for non-float input) — this is the model → loss seam, and
        a float32 model's backward pass must not be promoted here.

    The ``(B,)`` evaluation itself always runs in float64, whatever arrives:
    the loss is a Python float, and ``log1p(exp(-|z|))`` over a mini-batch
    costs nothing next to the step.
    """
    arrived = np.asarray(logits).dtype
    # repro-lint: ignore[dtype-discipline] — the loss is evaluated in float64
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    # repro-lint: ignore[dtype-discipline] — and the labels join it there
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    if logits.shape != targets.shape:
        raise ValueError(
            f"logits and targets must have equal shape, got {logits.shape} "
            f"and {targets.shape}"
        )
    if logits.size == 0:
        raise ValueError("cannot compute loss of an empty batch")
    if targets.min() < 0.0 or targets.max() > 1.0:
        raise ValueError("targets must lie in [0, 1]")
    per_sample = (
        np.maximum(logits, 0.0)
        - logits * targets
        + np.log1p(np.exp(-np.abs(logits)))
    )
    loss = float(per_sample.mean())
    dlogits = (sigmoid(logits) - targets) / logits.size
    if arrived.kind == "f":
        dlogits = dlogits.astype(arrived, copy=False)
    return loss, dlogits
