"""The schedule policy record and the one table of cross-feature rejections.

The paper's runtime argument (Section IV-B) is that casting is index-only
work a scheduler may place anywhere.  The engine therefore has *one* step
loop (:meth:`repro.runtime.engine.TrainingEngine.execute`) and everything
that used to be a sibling ``Schedule`` subclass is a field of
:class:`SchedulePolicy` — orthogonal axes that compose by construction:

``lookahead``
    ``0`` casts batch ``i`` inline, right before its compute; ``1`` casts
    batch ``i+1`` on the :class:`~repro.runtime.engine.CastAheadWorker`
    while batch ``i`` computes (the Section IV-B overlap).
``accum_steps``
    Micro-batches drawn and merged per optimizer step (identity at 1).
``forward_only``
    Run the ``gather → exchange → forward`` prefix only (``infer()``).
``executor`` / ``workers``
    Where a sharded trainer's per-shard cast / gather / backward run:
    ``"inline"`` on the calling thread, or a ``"thread"`` pool of
    ``workers`` (default: one per shard) from :mod:`repro.runtime.parallel`.

Combinations that genuinely cannot work are rows of :data:`CAPABILITIES` —
predicate plus reason — and nowhere else: the trainer constructor, the
CLI's exit-2 validation and the README's table all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import numpy as np

__all__ = [
    "CAPABILITIES",
    "Capability",
    "EXECUTORS",
    "Features",
    "SchedulePolicy",
    "check_capabilities",
    "positive_int",
]

#: Shard executor kinds, in the order the README lists them.
EXECUTORS = ("inline", "thread")


def positive_int(name: str, value: Any) -> int:
    """``value`` as an ``int``, or a ``ValueError`` naming the argument.

    Accepts Python and NumPy integers; rejects ``bool`` (``True`` would
    otherwise train one step), floats, strings and anything below 1.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value <= 0
    ):
        raise ValueError(
            f"{name} must be a positive integer, got {value!r}"
        )
    return int(value)


@dataclass(frozen=True)
class SchedulePolicy:
    """How the one step loop runs (see the module docstring for the axes)."""

    lookahead: int = 0
    accum_steps: int = 1
    forward_only: bool = False
    executor: str = "inline"
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.lookahead, bool) or self.lookahead not in (0, 1):
            raise ValueError(
                f"lookahead must be 0 or 1, got {self.lookahead!r}"
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {', '.join(EXECUTORS)}, "
                f"got {self.executor!r}"
            )
        object.__setattr__(
            self, "accum_steps", positive_int("accum_steps", self.accum_steps)
        )
        if self.workers is not None:
            object.__setattr__(
                self, "workers", positive_int("workers", self.workers)
            )


@dataclass(frozen=True)
class Features:
    """What a capability predicate may look at.

    ``mode`` is ``None`` while still unknown (the constructor has no
    ``mode`` yet, the CLI never has one) — predicates compare against
    concrete values, so an unknown never rejects.
    """

    sharded: bool = False
    mode: Optional[str] = None
    executor: str = "inline"
    workers: Optional[int] = None


@dataclass(frozen=True)
class Capability:
    """One combination the runtime rejects, and why."""

    name: str
    rejects: Callable[[Features], bool]
    reason: str


#: Every cross-feature rejection of the training runtime.  Anything not
#: listed here composes (and is covered by ``tests/runtime/test_policy.py``).
CAPABILITIES: Tuple[Capability, ...] = (
    Capability(
        "sharded × baseline",
        lambda f: f.sharded and f.mode not in (None, "casted"),
        "sharded training supports mode='casted' only: the per-shard "
        "exchange payload is the casted index representation",
    ),
    Capability(
        "shard pool × unsharded",
        lambda f: f.executor != "inline" and not f.sharded,
        "schedule='parallel' fans per-shard work out to a worker pool and "
        "requires a sharded trainer; pass num_shards",
    ),
    Capability(
        "workers × inline executor",
        lambda f: f.executor == "inline" and f.workers is not None,
        "workers sizes the shard worker pool and requires "
        "schedule='parallel'",
    ),
)


def check_capabilities(features: Features) -> None:
    """Raise ``ValueError(reason)`` for the first row that rejects."""
    for row in CAPABILITIES:
        if row.rejects(features):
            raise ValueError(row.reason)
