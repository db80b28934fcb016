"""Functional training driver with wall-clock phase instrumentation.

Everything in :mod:`repro.runtime.systems` predicts performance; this module
*measures* it, on the one real device available — the host CPU — by training
an actual :class:`~repro.model.dlrm.DLRM` on any
:class:`~repro.data.source.BatchSource` — the synthetic CTR stream, a
replayed trace, a Criteo-style file, or a data-plane wrapper around one —
and timing each phase of every iteration.  It is the
reproduction's analogue of the paper's real-system prototype.  A finite
source that exhausts mid-run stops the trainer cleanly (the report's
``steps`` records what actually trained).

The embedding tables always run through a
:class:`~repro.model.sharded.ShardedEmbeddingSet` of ``num_shards`` shards
(default 1): the embedding phases run shard by shard on the step loop
(each timed separately, standing in for ``N`` devices whose concurrency
the analytic :class:`~repro.runtime.systems.ShardedNMPSystem` models),
pooled vectors and gradient slices cross a simulated all-to-all whose byte
counts land in the report (attributed per pipeline stage — forward
exchange vs. backward exchange), and at one shard every kernel runs over
the tables' own index arrays, bit-identical to a plain single-device step.
Shards name rows of the model's own tables — there is no shard-local
storage, row numbering or optimizer state — so parameters and checkpoints
mean the same thing at every shard count and policy.

The trainer is a thin facade over the **stage-graph engine**
(:mod:`repro.runtime.engine`): each step is one plan of named stages
(:mod:`repro.runtime.stages`) run by the engine's one step loop under the
:class:`~repro.runtime.policy.SchedulePolicy` this constructor builds from
its ``lookahead`` argument, with :meth:`~FunctionalTrainer.infer` the
same policy restricted to the forward prefix.  Every combination of the
arguments composes.
The engine also funds checkpoint/resume (``start_step=`` plus
:mod:`repro.runtime.checkpoint`) and the callback protocol (``callbacks=``,
:class:`~repro.runtime.engine.TrainingCallback`).

Used by the examples, the end-to-end tests, and the kernel benchmarks.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..backends.dispatch import BackendSpec, resolve_backend
from ..data.source import BatchSource, as_batch_source, positive_int
from ..model.dlrm import DLRM
from ..model.embedding import _BACKWARD_MODES
from ..model.optim import Optimizer
from ..model.sharded import ShardedEmbeddingSet
from .engine import TrainingCallback, TrainingEngine
from .memory import retain_freed_memory
from .policy import SchedulePolicy
from .stages import InferenceReport, PhaseTimings, TrainingReport

if TYPE_CHECKING:
    from ..obs.session import Observability

__all__ = [
    "PhaseTimings",
    "TrainingReport",
    "InferenceReport",
    "FunctionalTrainer",
]


class FunctionalTrainer:
    """Train a real DLRM while timing each phase of every iteration.

    Parameters
    ----------
    model:
        The DLRM instance to train (mutated in place).
    stream:
        Any :class:`~repro.data.source.BatchSource` (synthetic stream,
        trace replay, file reader, or a wrapper around one); geometry must
        match the model, and anything else is a ``TypeError``.  A finite
        source that exhausts mid-run ends training cleanly after the last
        full batch.
    optimizer:
        Applied to dense and sparse parameters alike.
    num_shards:
        Logical devices the embedding tables are partitioned across
        (a positive integer, default ``1``).  Every embedding phase routes
        through a :class:`~repro.model.sharded.ShardedEmbeddingSet`; at one
        shard each table's slice is its own index array, so the split
        costs nothing and the kernels are the single-device ones.
    policy:
        Partition policy: ``"row"`` or ``"table"``.
    backend:
        Kernel engine for every hot kernel of the run: a registered backend
        name, a :class:`~repro.backends.base.KernelBackend` instance, or
        ``None`` for the process default.  Defaults to ``"auto"``, the
        name the trainers use for the ``vectorized`` kernels.  Resolved
        once here and threaded into the model's embedding bags and the
        sharded embedding set, so the whole run uses one engine regardless
        of which thread launches a kernel.  Note the bags' routing follows
        whichever trainer most recently constructed over — or trains — the
        model: :meth:`train` re-asserts it, so sharing one model between
        trainers with different backends is safe per run.
    lookahead:
        ``0`` (default) casts each batch inline, right before its compute.
        ``1`` is the paper's Section IV-B overlap: batch ``i+1`` is drawn
        on the step loop (same RNG order) and cast on a background
        :class:`~repro.runtime.engine.CastAheadWorker` while batch ``i``
        computes — bit-identical, with the exposed remainder reported as
        the ``cast_wait`` phase.

    Every combination of these composes, with either ``mode`` of
    :meth:`train` / :meth:`infer`.

    Constructing a trainer first calls
    :func:`~repro.runtime.memory.retain_freed_memory`, a process-wide
    allocator setting that keeps every engine's step free of page faults.
    """

    def __init__(
        self,
        model: DLRM,
        stream: BatchSource,
        optimizer: Optimizer,
        num_shards: int = 1,
        policy: str = "row",
        backend: BackendSpec = "auto",
        lookahead: int = 0,
    ) -> None:
        retain_freed_memory()
        stream = as_batch_source(stream)
        if stream.num_tables != len(model.embeddings):
            raise ValueError(
                f"stream produces {stream.num_tables} tables, model has "
                f"{len(model.embeddings)}"
            )
        num_shards = positive_int("num_shards", num_shards)
        #: The one record the engine's step loop reads; ``infer()`` runs
        #: the same record with ``forward_only`` set.
        self.policy = SchedulePolicy(lookahead=lookahead)
        self.model = model
        self.stream = stream
        self.optimizer = optimizer
        # Resolve the knob eagerly: unknown names fail at construction
        # (with the registered names listed), and the resolved instance is
        # shared by every dispatch site including the cast-ahead worker.
        self.backend = resolve_backend(backend)
        for bag in model.embeddings:
            bag.backend = self.backend
        self.sharded = ShardedEmbeddingSet(
            model.embeddings,
            num_shards=num_shards,
            policy=policy,
            backend=self.backend,
        )

    def train(
        self,
        batch: int,
        steps: int,
        rng: np.random.Generator,
        mode: str = "casted",
        callbacks: Sequence[TrainingCallback] = (),
        start_step: int = 0,
        obs: "Observability | None" = None,
    ) -> TrainingReport:
        """Run ``steps`` iterations, timing forward/backward/update phases.

        ``mode`` selects the embedding backward strategy (``"baseline"`` or
        ``"casted"``; anything else is a ``ValueError``); in casted mode the cast is computed eagerly right
        after batch generation — before the forward pass — mirroring the
        runtime's decoupled casting stage.  Both modes run at every shard
        count: each shard reduces the same shipped payload (gradient rows
        plus its pairs) with Algorithm 1 or Algorithm 3.

        ``callbacks`` are :class:`~repro.runtime.engine.TrainingCallback`
        hooks fired after each step and at run end (metrics loggers,
        checkpointers).  ``start_step`` resumes an interrupted job: the
        source is fast-forwarded by drawing and discarding that many
        batches (consuming the source and ``rng`` exactly as the skipped
        steps would have), and callbacks see global step numbers offset
        accordingly — restore parameters and optimizer state first with
        :func:`repro.runtime.checkpoint.restore_trainer`.

        ``obs`` (an :class:`~repro.obs.session.Observability`) records the
        run — per-stage trace spans, kernel counts, the JSONL step stream —
        without changing its numerics; ``None`` (default) records nothing.
        """
        return self._run(
            self.policy, batch, steps, rng, mode, callbacks, start_step, obs
        )

    def infer(
        self,
        batch: int,
        steps: int,
        rng: np.random.Generator,
        mode: str = "casted",
        callbacks: Sequence[TrainingCallback] = (),
        start_step: int = 0,
        obs: "Observability | None" = None,
    ) -> InferenceReport:
        """Score ``steps`` batches forward-only; parameters stay frozen.

        Runs :meth:`train`'s policy with ``forward_only`` set: the same
        stage objects, the same step loop, but the ``backward`` and
        ``optimize`` stages are never invoked, so model parameters and
        optimizer state are untouched (the serving plane's frozen-parameter
        guarantee) while the forward outputs are bit-identical to the
        training path's forward for the same batch and backend.  ``mode``
        keeps its training meaning (``"casted"`` exercises the casting
        stage exactly as the serving pipeline would); ``start_step``
        fast-forwards the source as in
        :meth:`train`, which is how a restored checkpoint resumes serving
        the stream where training left off.
        """
        report = self._run(
            replace(self.policy, forward_only=True),
            batch, steps, rng, mode, callbacks, start_step, obs,
        )
        assert isinstance(report, InferenceReport)
        return report

    def _run(
        self,
        policy: SchedulePolicy,
        batch: int,
        steps: int,
        rng: np.random.Generator,
        mode: str,
        callbacks: Sequence[TrainingCallback],
        start_step: int,
        obs: "Observability | None",
    ) -> TrainingReport:
        """The one body behind :meth:`train` and :meth:`infer`."""
        self._begin_run(batch, steps, mode, start_step)
        return TrainingEngine(self, obs=obs).run(
            batch, steps, rng, mode,
            policy=policy, callbacks=callbacks, start_step=start_step,
        )

    def _begin_run(
        self, batch: int, steps: int, mode: str, start_step: int = 0
    ) -> None:
        """Validate a run's arguments and point the model at this trainer.

        Runs before anything is drawn, so a rejected run consumes neither
        the source nor the RNG.
        """
        if mode not in _BACKWARD_MODES:
            raise ValueError(
                f"mode must be one of {_BACKWARD_MODES}, got {mode!r}"
            )
        positive_int("batch", batch)
        positive_int("steps", steps)
        if (
            isinstance(start_step, bool)
            or not isinstance(start_step, (int, np.integer))
            or start_step < 0
        ):
            raise ValueError(
                f"start_step must be a non-negative integer, got {start_step!r}"
            )
        # Re-assert kernel routing: another trainer constructed over the
        # same model would have re-pointed the bags' backend; whichever
        # trainer runs, *its* engine runs — keeping the report's
        # ``backend`` field truthful.
        for bag in self.model.embeddings:
            bag.backend = self.backend

    # ------------------------------------------------------------------
    # Parameter naming — the checkpoint subsystem's stable key space
    # ------------------------------------------------------------------
    def named_parameters(self) -> List[Tuple[str, np.ndarray]]:
        """Stable ``(name, tensor)`` pairs for every trainable parameter.

        Dense MLP parameters (``dense_{i}``, in
        :meth:`~repro.model.dlrm.DLRM.dense_parameters` order) and the
        embedding tables (``table_{t}``) — the same names, tensors and
        optimizer-state keys at every shard count, which is what lets one
        checkpoint restore into any shard count or policy.
        """
        named: List[Tuple[str, np.ndarray]] = [
            (f"dense_{i}", param)
            for i, (param, _) in enumerate(self.model.dense_parameters())
        ]
        named += [
            (f"table_{t}", bag.table)
            for t, bag in enumerate(self.model.embeddings)
        ]
        return named
