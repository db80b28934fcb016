"""Hand-unrolled training step with one span per layer call, and its ledger.

The untraced pass of the benchmark times whole steps of the real
:class:`~repro.runtime.trainer.FunctionalTrainer`.  This module is the
*traced* pass: the same step, written out call by call in
:meth:`repro.model.dlrm.DLRM.train_step` order, with a span recorded
around every call into a layer's public function.  Layers are timed from
outside — nothing under ``src/`` knows it is being measured — and the
loss sequence is checked against the trainer's, so the unrolled step is
also the benchmark's independent reference for output correctness.

Layer names are this repo's modules: ``data`` (batch draw), ``core``
(casting), ``model.embedding`` (bag forward / backward), ``model.dense``
(MLPs + interaction, with ``zero_grad`` counted in backward),
``model.loss``, ``model.optim`` (dense step, sparse row update).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.traffic import (
    casted_gather_reduce_traffic,
    expand_coalesce_traffic,
    gather_reduce_traffic,
    scatter_traffic,
)
from repro.data.source import BatchSource
from repro.model.dlrm import DLRM
from repro.model.loss import bce_with_logits
from repro.model.optim import Optimizer

#: Span name of every layer call, and the ledger layer it is summed into.
#: ``zero_grad`` clears the dense gradients the backward pass accumulates
#: into, so its time belongs to ``model.dense.backward``.
SPAN_LAYER = {
    "data.draw": "data.draw",
    "core.casting": "core.casting",
    "model.dense.zero_grad": "model.dense.backward",
    "model.embedding.forward": "model.embedding.forward",
    "model.dense.forward": "model.dense.forward",
    "model.loss": "model.loss",
    "model.dense.backward": "model.dense.backward",
    "model.embedding.backward": "model.embedding.backward",
    "model.optim.dense": "model.optim.dense",
    "model.optim.sparse": "model.optim.sparse",
}
LAYERS = tuple(dict.fromkeys(SPAN_LAYER.values()))


@dataclass
class SpanLog:
    """In-memory span store: ``(id, parent, step, name, start_s, end_s)``.

    Every layer span's parent is its step's ``step`` span; spans of one
    step share the step id.  Nothing is written until the run ends.
    """

    rows: List[Tuple[int, Optional[int], int, str, float, float]] = field(
        default_factory=list
    )
    _next_id: int = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def call(self, name: str, parent: int, step: int,
             fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        start = perf_counter()
        out = fn(*args, **kwargs)
        end = perf_counter()
        self.rows.append((self.new_id(), parent, step, name, start, end))
        return out

    def as_dicts(self) -> List[Dict[str, Any]]:
        keys = ("id", "parent", "step", "name", "start_s", "end_s")
        return [dict(zip(keys, row)) for row in self.rows]


@dataclass(frozen=True)
class StepCounts:
    """What one step moved, recorded at the same boundaries as its spans."""

    loss: float
    lookups: int            # n, summed over tables
    coalesced_rows: int     # u, summed over tables
    forward_bytes: int
    backward_bytes: int
    sparse_update_bytes: int
    dtypes: Dict[str, str]


def traced_step(
    model: DLRM,
    source: BatchSource,
    optimizer: Optimizer,
    batch: int,
    rng: np.random.Generator,
    mode: str,
    log: SpanLog,
    step: int,
) -> StepCounts:
    """One closed-loop training step, a span around every layer call."""
    bags = model.embeddings
    sid = log.new_id()
    step_start = perf_counter()

    data = log.call("data.draw", sid, step, source.next_batch, batch, rng)
    casts: Sequence[Any] = [None] * len(bags)
    if mode == "casted":
        casts = [
            log.call("core.casting", sid, step, bag.precompute_cast, index)
            for bag, index in zip(bags, data.indices)
        ]
    log.call("model.dense.zero_grad", sid, step, model.zero_grad)
    pooled = [
        log.call("model.embedding.forward", sid, step, bag.forward, index)
        for bag, index in zip(bags, data.indices)
    ]
    logits = log.call("model.dense.forward", sid, step,
                      model.forward_from_pooled, data.dense, pooled)
    loss, dlogits = log.call("model.loss", sid, step,
                             bce_with_logits, logits, data.labels)
    grad_tables = log.call("model.dense.backward", sid, step,
                           model.backward_through_dense, dlogits)
    sparse = [
        log.call("model.embedding.backward", sid, step,
                 bag.backward, grad, mode=mode, cast=cast)
        for bag, grad, cast in zip(bags, grad_tables, casts)
    ]
    log.call("model.optim.dense", sid, step,
             optimizer.step, model.dense_parameters())
    for bag, grad in zip(bags, sparse):
        log.call("model.optim.sparse", sid, step,
                 bag.apply_gradient, grad, optimizer)

    log.rows.append((sid, None, step, "step", step_start, perf_counter()))
    return _count(mode, batch, data, pooled, sparse, bags[0].dim, float(loss))


def _count(mode: str, batch: int, data: Any, pooled: Sequence[np.ndarray],
           sparse: Sequence[Any], dim: int, loss: float) -> StepCounts:
    """Bytes per layer from ``core.traffic`` at the step's n, u, B, dim and
    the *observed* itemsizes (pooled output for the forward gather; sparse
    gradient values for the backward reduction and the row update)."""
    fwd = bwd = upd = lookups = rows = 0
    for index, out, grad in zip(data.indices, pooled, sparse):
        n, u, size = index.num_lookups, grad.nnz_rows, grad.values.itemsize
        lookups += n
        rows += u
        fwd += gather_reduce_traffic(n, batch, dim, out.itemsize).total
        if mode == "casted":
            bwd += casted_gather_reduce_traffic(n, u, dim, size).total
        else:
            bwd += expand_coalesce_traffic(n, batch, u, dim, size).total
        upd += scatter_traffic(u, dim, size, "sgd").total
    dtypes = {
        "dense": str(data.dense.dtype),
        "labels": str(data.labels.dtype),
        "pooled": str(pooled[0].dtype),
        "sparse_grad": str(sparse[0].values.dtype),
    }
    return StepCounts(loss, lookups, rows, fwd, bwd, upd, dtypes)


def ledger(log: SpanLog, first_step: int) -> Dict[str, Any]:
    """Per-layer time of the steps from ``first_step`` on.

    Returns ``{"wall_s": [...], "layer_s": {layer: [...]}}`` with one entry
    per step: the step span's duration and each layer's summed span time
    within it.  Layer spans never nest, so a layer's self time is its span
    time and ``wall - sum(layers)`` is what no layer accounts for.
    """
    walls: Dict[int, float] = {}
    layers: Dict[str, Dict[int, float]] = {name: {} for name in LAYERS}
    for _, _, step, name, start, end in log.rows:
        if step < first_step:
            continue
        if name == "step":
            walls[step] = end - start
        else:
            per_step = layers[SPAN_LAYER[name]]
            per_step[step] = per_step.get(step, 0.0) + (end - start)
    steps = sorted(walls)
    return {
        "wall_s": [walls[s] for s in steps],
        "layer_s": {
            name: [per_step.get(s, 0.0) for s in steps]
            for name, per_step in layers.items()
        },
    }
