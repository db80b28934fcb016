"""The schedule policy record the engine's one step loop reads.

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

Every trainer runs its shards — one by default — one after another on the
step loop, in one stage plan for both backward modes; how far N devices
could take them is the analytic
:class:`~repro.runtime.systems.ShardedNMPSystem`'s question, not a policy.
No combination of these axes, shard counts and modes is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["SchedulePolicy", "positive_int"]


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

    def __post_init__(self) -> None:
        if isinstance(self.lookahead, bool) or self.lookahead not in (0, 1):
            raise ValueError(
                f"lookahead must be 0 or 1, got {self.lookahead!r}"
            )
        object.__setattr__(
            self, "accum_steps", positive_int("accum_steps", self.accum_steps)
        )
