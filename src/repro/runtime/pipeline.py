"""Pipelined cast-ahead training: the Section IV-B overlap, executed.

The paper's runtime co-design hides Tensor Casting off the critical path by
computing the cast for a batch *while the previous batch is still training*
— the cast needs nothing but the index arrays, which exist the moment the
batch is drawn.  :mod:`repro.runtime.systems` models that overlap
analytically; the engine's step loop **executes** it when its policy says
``lookahead=1`` (:meth:`repro.runtime.engine.TrainingEngine.execute`), and
:class:`PipelinedTrainer` is the name for exactly that setting.

Per-phase wall-clock timings record what the overlap bought: ``casting`` is
the worker-side cast time (hidden work), ``cast_wait`` is the part of it
the step loop still had to wait for (exposed work).  The measured
serial-vs-pipelined throughput ratio is compared against the analytic
``Ours(NMP)`` prediction by ``python -m repro overlap``
(:mod:`repro.experiments.overlap`).
"""

from __future__ import annotations

from typing import Any

from .engine import CastAheadWorker
from .trainer import FunctionalTrainer

__all__ = ["CastAheadWorker", "PipelinedTrainer"]


class PipelinedTrainer(FunctionalTrainer):
    """:class:`FunctionalTrainer` with ``lookahead=1``, and nothing else.

    Same constructor, same ``train`` / ``infer``, bit-identical parameters
    and losses for the same seed — only the wall-clock schedule differs:
    batch ``i+1`` casts on a background worker while batch ``i`` trains.
    It composes with every other axis (sharding, accumulation,
    ``mode="baseline"`` — where the cast stage only partitions the batch
    and the overlap hides just that).
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, lookahead=1, **kwargs)
