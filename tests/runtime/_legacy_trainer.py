"""Frozen pre-refactor training loops: the engine refactor's golden oracle.

These functions are verbatim numeric transcriptions of the step loops that
lived in ``repro.runtime``'s trainer and pipeline modules *before*
the stage-graph engine refactor — the serial unsharded loop
(``_train_serial``) — with the wall-clock instrumentation stripped
(timing never touched the numerics).  They deliberately use only public
model/core APIs, never the trainers, so they cannot drift along with
future runtime refactors: they ARE the pre-refactor behavior, executable
on any platform/BLAS, which is what makes the differential bit-identity
suites in ``test_engine.py`` and ``test_policy.py`` meaningful.

The pipelined loops need no separate transcription: they were pinned
bit-identical to the serial loops (batches drawn in the same RNG order,
every phase running the same kernels), so "engine == legacy serial" plus
"engine pipelined == engine serial" covers both legacy paths.

Do not "modernize" this module — its value is that it never changes.
"""

from typing import List

import numpy as np

from repro.core.casting import precompute_casts
from repro.data.source import SourceExhausted, as_batch_source
from repro.model.loss import bce_with_logits


def legacy_train_serial(
    model,
    source,
    optimizer,
    batch: int,
    steps: int,
    rng: np.random.Generator,
    mode: str = "casted",
) -> List[float]:
    """The pre-refactor unsharded step loop; returns the per-step losses."""
    source = as_batch_source(source)
    losses: List[float] = []
    for _ in range(steps):
        try:
            data = source.next_batch(batch, rng)
        except SourceExhausted:
            break
        casts = None
        if mode == "casted":
            casts = precompute_casts(data.indices)
        model.zero_grad()
        logits = model.forward(data.dense, data.indices)
        loss, dlogits = bce_with_logits(logits, data.labels)
        losses.append(loss)
        sparse_grads = model.backward(dlogits, mode=mode, casts=casts)
        optimizer.step(model.dense_parameters())
        for bag, grad in zip(model.embeddings, sparse_grads):
            bag.apply_gradient(grad, optimizer)
    return losses
