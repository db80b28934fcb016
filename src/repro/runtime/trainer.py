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

The trainer runs one device: the embedding phases call the model's own
:class:`~repro.model.embedding.EmbeddingBag` layers table by table.
Multi-device sharding is modelled, not executed
(:class:`~repro.runtime.systems.ShardedNMPSystem`, ``repro scaling``).

The trainer is a thin facade over the **training engine**
(:mod:`repro.runtime.engine`): every step runs the engine's one step body
in its one step loop, with the cast inline or ahead as the ``lookahead``
argument says, and :meth:`~FunctionalTrainer.infer` is the same run
without the backward and the update.
The engine also funds checkpoint/resume (``start_step=`` plus
:mod:`repro.runtime.checkpoint`) and the callback protocol (``callbacks=``,
:class:`~repro.runtime.engine.TrainingCallback`).

Used by the examples, the end-to-end tests, and the repo benchmark.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..data.source import BatchSource, as_batch_source
from ..model.dlrm import DLRM
from ..model.optim import Optimizer
from .engine import TrainingCallback, TrainingEngine
from .memory import retain_freed_memory
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
    lookahead:
        ``0`` (default) casts each batch inline, right before its compute.
        ``1`` is the paper's Section IV-B overlap: batch ``i+1`` is drawn
        on the step loop (same RNG order) and cast on a background
        :class:`~repro.runtime.engine.CastAheadWorker` while batch ``i``
        computes — bit-identical, with the exposed remainder reported as
        the ``cast_wait`` phase.  Either value composes with either
        ``mode`` of :meth:`train` / :meth:`infer`.

    Constructing a trainer first calls
    :func:`~repro.runtime.memory.retain_freed_memory`, a process-wide
    allocator setting that keeps every step free of page faults.

    :attr:`torn_step` is ``None`` while the parameters and optimizer state
    are those of a completed step.  A step that fails after its first
    parameter write sets it to that step's global number (see
    :mod:`repro.runtime.engine`), and :meth:`train`, :meth:`infer` and
    :func:`~repro.runtime.checkpoint.save_checkpoint` then raise until
    :func:`~repro.runtime.checkpoint.restore_trainer` clears it.
    """

    #: Read-only record, not an option: the frozen end-to-end benchmark
    #: (``benchmarks/e2e/run.py``'s ``describe_backend`` and its contract
    #: test) reads ``trainer.backend.name``.  Nothing in ``src/`` reads it;
    #: it goes with the benchmark contract change ROADMAP.md's first open
    #: item plans.
    backend = SimpleNamespace(name="auto")

    def __init__(
        self,
        model: DLRM,
        stream: BatchSource,
        optimizer: Optimizer,
        lookahead: int = 0,
    ) -> None:
        retain_freed_memory()
        stream = as_batch_source(stream)
        if stream.num_tables != len(model.embeddings):
            raise ValueError(
                f"stream produces {stream.num_tables} tables, model has "
                f"{len(model.embeddings)}"
            )
        if isinstance(lookahead, bool) or lookahead not in (0, 1):
            raise ValueError(f"lookahead must be 0 or 1, got {lookahead!r}")
        self.lookahead = lookahead
        self.model = model
        self.stream = stream
        self.optimizer = optimizer
        self.torn_step: int | None = None

    def ensure_intact(self, action: str) -> None:
        """Raise ``RuntimeError`` if a failed step tore the parameters.

        ``action`` names what was refused (``"train"``, ``"infer"``, ...).
        """
        if self.torn_step is not None:
            raise RuntimeError(
                f"cannot {action}: step {self.torn_step} failed after its "
                "first parameter write, so parameters and optimizer state "
                "are part-updated; restore a checkpoint with "
                "restore_trainer first"
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
        ``"casted"``; anything else is a ``ValueError``, as are a
        non-positive ``batch`` or ``steps`` and a negative ``start_step``,
        all raised before anything is drawn); in casted mode the cast is
        computed eagerly right after batch generation — before the forward
        pass — mirroring the runtime's decoupled casting stage.

        ``callbacks`` are :class:`~repro.runtime.engine.TrainingCallback`
        hooks fired after each step and at run end (metrics loggers,
        checkpointers).  ``start_step`` resumes an interrupted job: the
        source is fast-forwarded by drawing and discarding that many
        batches (consuming the source and ``rng`` exactly as the skipped
        steps would have), and callbacks see global step numbers offset
        accordingly — restore parameters and optimizer state first with
        :func:`repro.runtime.checkpoint.restore_trainer`.

        ``obs`` (an :class:`~repro.obs.session.Observability`) records the
        run — per-phase trace spans, kernel counts, the JSONL step stream —
        without changing its numerics; ``None`` (default) records nothing.
        """
        return TrainingEngine(self, obs=obs).run(
            batch, steps, rng, mode, callbacks, start_step
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

        Runs :meth:`train`'s step body in the same step loop, with the same
        checks, but never backpropagates or updates, so model parameters and
        optimizer state are untouched while the forward outputs are
        bit-identical to the training path's forward for the same batch —
        an evaluation pass over the trained (or checkpoint-restored)
        model.  ``mode`` keeps its training meaning (``"casted"`` runs the
        casting stage as training does); ``start_step`` fast-forwards the
        source as in :meth:`train`, which is how a restored checkpoint
        scores the stream where training left off.
        """
        report = TrainingEngine(self, obs=obs).run(
            batch, steps, rng, mode, callbacks, start_step, forward_only=True
        )
        assert isinstance(report, InferenceReport)
        return report

    # ------------------------------------------------------------------
    # Parameter naming — the checkpoint subsystem's stable key space
    # ------------------------------------------------------------------
    def named_parameters(self) -> List[Tuple[str, np.ndarray]]:
        """Stable ``(name, tensor)`` pairs for every trainable parameter.

        Dense MLP parameters (``dense_{i}``, in
        :meth:`~repro.model.dlrm.DLRM.dense_parameters` order) and the
        embedding tables (``table_{t}``) — the checkpoint's names for the
        tensors and their optimizer state.
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
