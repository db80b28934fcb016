"""Checkpoint/resume for training jobs: parameters + optimizer state + step.

Long-running training jobs need to survive interruption.  This module
serializes everything a resumed run needs to continue **bit-identically**:

* every model parameter (dense MLP tensors and embedding tables, under the
  trainer's stable :meth:`~repro.runtime.trainer.FunctionalTrainer.
  named_parameters` names);
* every parameter's optimizer state slots
  (:meth:`~repro.model.optim.Optimizer.export_state` — velocity,
  accumulators, Adam moments and per-row step counts), keyed by the same
  names — ``table_{t}`` for an embedding table's per-row state, whatever
  shard count or partition policy trained it;
* the optimizer's class name and hyperparameters (verified on restore — a
  resumed run with a different update rule is a different run);
* the global step counter.

The format is a plain ``.npz`` zip of ``.npy`` members — no pickling,
portable across platforms, same family as the batch-trace format of
:mod:`repro.data.trace`.  Writes go through a uniquely named temporary in
the same directory, renamed into place on success, so an interrupted save
never corrupts an existing checkpoint and two writers never share a
temporary.

Shards name rows of the model's own tables (:mod:`repro.core.sharding`), so
a checkpoint carries no trace of the layout that wrote it: one saved at 2
row shards restores into a 1-shard, a 4-shard or a table-policy trainer
and continues the same run.

Resume contract (pinned by ``tests/runtime/test_checkpoint.py``): restore
a fresh trainer with :func:`restore_trainer`, then train the remaining
steps with ``start_step=<restored step>`` — the engine fast-forwards the
batch source by that many draws, so on a replayed trace (or any
deterministic source) the resumed run produces parameters identical to an
uninterrupted one.  What is *not* checkpointed: the batch source itself
(the ``start_step`` fast-forward replays it instead).

:class:`CheckpointCallback` plugs the saver into the engine's callback
protocol: a checkpoint every ``every`` steps plus one at run end.
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from ..data.source import non_negative_int, positive_int
from ..data.trace import _member, _open_npz, _scalar, _with_npz_suffix
from .engine import RunEvent, StepEvent, TrainingCallback

if TYPE_CHECKING:  # runtime import would cycle through the trainer facade
    from .trainer import FunctionalTrainer

__all__ = [
    "Checkpoint",
    "CheckpointCallback",
    "latest_checkpoint",
    "load_checkpoint",
    "restore_trainer",
    "save_checkpoint",
]

#: Bumped when the on-disk checkpoint layout changes.
_CHECKPOINT_VERSION = 1

#: File-name pattern :class:`CheckpointCallback` writes and
#: :func:`latest_checkpoint` scans for.
_CHECKPOINT_NAME = "checkpoint-{step:08d}.npz"
_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d+)\.npz$")


@dataclass(frozen=True)
class Checkpoint:
    """A loaded checkpoint, ready to apply to a compatible trainer."""

    step: int
    optimizer_class: str
    hyperparameters: Dict[str, float]
    params: Dict[str, np.ndarray]
    state: Dict[str, np.ndarray]


def save_checkpoint(
    path: str | Path, trainer: "FunctionalTrainer", step: int
) -> Path:
    """Serialize ``trainer``'s training state at global ``step`` to ``path``.

    Returns the written path (with the ``.npz`` suffix added if missing).
    The write is atomic: the archive goes to a uniquely named temporary
    file in the same directory and is renamed over ``path`` only on
    success, so a reader — or a second writer of the same path — sees the
    previous file or the new one, and a failed write leaves the previous
    file in place and nothing behind.  A torn trainer (a step failed after
    its first parameter write) is refused with ``RuntimeError`` before
    anything is written.
    """
    trainer.ensure_intact("save a checkpoint")
    non_negative_int("step", step)
    path = _with_npz_suffix(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: Dict[str, np.ndarray] = {
        "checkpoint_version": np.asarray(_CHECKPOINT_VERSION),
        "step": np.asarray(int(step)),
        "optimizer_class": np.asarray(type(trainer.optimizer).__name__),
    }
    for key, value in trainer.optimizer.hyperparameters().items():
        payload[f"hyper/{key}"] = np.asarray(float(value))
    named = trainer.named_parameters()
    for name, param in named:
        payload[f"param/{name}"] = param
    for flat_key, tensor in trainer.optimizer.export_state(named).items():
        payload[f"state/{flat_key}"] = tensor
    handle, scratch = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            np.savez_compressed(stream, **payload)
        os.replace(scratch, path)
    finally:
        Path(scratch).unlink(missing_ok=True)
    return path


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Reads every member before returning, so a damaged file fails here —
    before :func:`restore_trainer` touches a trainer — with a
    ``ValueError`` naming the path and, where there is one, the member
    (empty, truncated, not a zip, a flipped byte, a missing member, a
    header field that is not a scalar).
    """
    path = Path(path)
    what = "repro training checkpoint"
    with _open_npz(path, what) as archive:
        if "checkpoint_version" not in archive.files:
            raise ValueError(f"{path} is not a {what}")
        version = _scalar(archive, path, "checkpoint_version")
        if version != _CHECKPOINT_VERSION:
            raise ValueError(
                f"{path} uses checkpoint version {version}, this reader "
                f"understands {_CHECKPOINT_VERSION}"
            )
        step = _scalar(archive, path, "step")
        optimizer_class = _scalar(archive, path, "optimizer_class", "U")
        hyper: Dict[str, float] = {}
        params: Dict[str, np.ndarray] = {}
        state: Dict[str, np.ndarray] = {}
        for key in archive.files:
            if key.startswith("hyper/"):
                hyper[key[len("hyper/"):]] = float(
                    _scalar(archive, path, key, "f")
                )
            elif key.startswith("param/"):
                params[key[len("param/"):]] = _member(archive, path, key)
            elif key.startswith("state/"):
                state[key[len("state/"):]] = _member(archive, path, key)
    return Checkpoint(
        step=step,
        optimizer_class=optimizer_class,
        hyperparameters=hyper,
        params=params,
        state=state,
    )


def restore_trainer(
    trainer: "FunctionalTrainer", source: "str | Path | Checkpoint"
) -> int:
    """Apply a checkpoint to ``trainer``; returns the restored global step.

    ``source`` is a path or an already-loaded :class:`Checkpoint` (load
    once when restoring the same checkpoint into several trainers).
    Validates before mutating anything: the optimizer class and
    hyperparameters must match exactly, the checkpoint's parameter set must
    coincide with the trainer's (same names, shapes, dtypes), and every
    optimizer-state entry must name one of those parameters — a checkpoint
    from a different model geometry or update rule (or one written when
    state was still keyed per shard) fails loudly rather than half-applying
    (the optimizer-state import itself is all-or-nothing, and parameters
    are only overwritten after it succeeds).  Every parameter's optimizer
    state must be present: a missing member is a ``ValueError`` naming it.
    The trainer's shard count and
    partition policy are not part of the contract: any layout restores any
    checkpoint.  On success the trainer's parameters and optimizer state
    equal the saved run's, and a torn trainer's mark is cleared; continue
    with ``trainer.train(batch, remaining_steps, rng, start_step=<returned
    step>)`` for a bit-identical resumption.
    """
    checkpoint = (
        source if isinstance(source, Checkpoint) else load_checkpoint(source)
    )
    opt_name = type(trainer.optimizer).__name__
    if checkpoint.optimizer_class != opt_name:
        raise ValueError(
            f"checkpoint was taken with optimizer "
            f"{checkpoint.optimizer_class}, trainer uses {opt_name}"
        )
    hyper = {k: float(v) for k, v in trainer.optimizer.hyperparameters().items()}
    if checkpoint.hyperparameters != hyper:
        raise ValueError(
            f"checkpoint hyperparameters {checkpoint.hyperparameters} differ "
            f"from the trainer's {hyper}; resuming with different knobs "
            "would not continue the same run"
        )
    named = dict(trainer.named_parameters())
    missing = sorted(set(named) - set(checkpoint.params))
    extra = sorted(set(checkpoint.params) - set(named))
    if missing or extra:
        raise ValueError(
            f"checkpoint parameter set does not match the trainer "
            f"(missing: {missing or 'none'}, unexpected: {extra or 'none'})"
        )
    for name, saved in checkpoint.params.items():
        param = named[name]
        if saved.shape != param.shape or saved.dtype != param.dtype:
            raise ValueError(
                f"parameter {name!r} has shape {param.shape} dtype "
                f"{param.dtype}, checkpoint holds {saved.shape} {saved.dtype}"
            )
    # Optimizer state first (all-or-nothing, every entry validated against
    # the parameter it names), parameters after — a rejected checkpoint
    # leaves the trainer exactly as it was.
    trainer.optimizer.import_state(list(named.items()), checkpoint.state)
    for name, saved in checkpoint.params.items():
        np.copyto(named[name], saved)
    trainer.torn_step = None
    return checkpoint.step


def latest_checkpoint(directory: str | Path) -> Optional[Path]:
    """The highest-step ``checkpoint-*.npz`` in ``directory`` (or ``None``).

    Scans the file names :class:`CheckpointCallback` writes; other files
    are ignored, so a checkpoint directory can hold traces or logs too.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    best: Optional[Path] = None
    best_step = -1
    for candidate in directory.iterdir():
        match = _CHECKPOINT_RE.match(candidate.name)
        if match and int(match.group(1)) > best_step:
            best_step = int(match.group(1))
            best = candidate
    return best


class CheckpointCallback(TrainingCallback):
    """Save a checkpoint every ``every`` steps, plus one at run end.

    Files land in ``directory`` as ``checkpoint-<step>.npz`` (global step
    numbers, so a resumed job keeps extending the same sequence);
    :func:`latest_checkpoint` finds the newest.  ``saved`` lists every path
    written this run, ``last_path`` the most recent.
    """

    def __init__(self, directory: str | Path, every: int = 1) -> None:
        self.every = positive_int("every", every)
        self.directory = Path(directory)
        self.saved: List[Path] = []
        self.last_path: Optional[Path] = None
        self._last_saved_step: Optional[int] = None

    def _save(self, trainer: "FunctionalTrainer", step: int) -> None:
        path = save_checkpoint(
            self.directory / _CHECKPOINT_NAME.format(step=step), trainer, step
        )
        self.saved.append(path)
        self.last_path = path
        self._last_saved_step = step

    def on_step_end(self, event: StepEvent) -> None:
        if event.step % self.every == 0:
            self._save(event.trainer, event.step)

    def on_run_end(self, event: RunEvent) -> None:
        # The final state is always persisted, but never written twice.
        if self._last_saved_step != event.step:
            self._save(event.trainer, event.step)
