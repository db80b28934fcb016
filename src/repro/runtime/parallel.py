"""Shard executors: where a sharded step's per-shard work runs.

A sharded step has three per-shard phases — Tensor Casting, the local
gather-reduce, and the casted gradient gather-reduce — and the stages of
:mod:`repro.runtime.stages` *map* each of them over the shards through one
of the two executors here:

:class:`InlineShardExecutor`
    Every shard on the calling thread, in shard order: the default, and the
    path the frozen ``tests/runtime/_legacy_trainer.py`` oracle pins.
:class:`ThreadShardExecutor`
    A persistent :class:`~concurrent.futures.ThreadPoolExecutor`.  Correct
    under any backend; what it buys is whatever ``python -m repro scaling
    --schedule parallel`` measures on the host at hand.

Both call the *same* pure functions (:func:`~repro.model.sharded
.cast_slices`, :func:`~repro.model.sharded.gather_slices`,
:func:`~repro.model.sharded.reduce_payload`) — the stage hands
:meth:`~InlineShardExecutor.map` the function and one argument tuple per
shard — and return one :class:`ShardResult` per shard **in shard-index
order**; the stage applies them in that order, so the reduction order — and
every parameter bit — is the same wherever a shard ran and whichever worker
finished first.  Each result carries the clock reads taken around the work,
so per-shard wall timings (and, in traced runs, one span per phase on the
worker's track) survive the trip across the pool boundary.  A worker
exception re-raises in the caller at the barrier and the ``with`` block
joins the pool cleanly — the crash-propagation contract pinned by
``tests/runtime/test_parallel_schedule.py``.

A worker-process pool is deliberately absent: CHANGES.md (PR 16) records
the measurement a re-add must beat.

This module is on the sanctioned wall-clock list of the repro-lint
determinism rule: workers *measure* (``time.perf_counter`` phase intervals)
but never *decide* — no timing value feeds back into what gets computed.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "InlineShardExecutor",
    "ShardResult",
    "ThreadShardExecutor",
    "make_shard_executor",
]

#: A context-manager factory a stage hands to :meth:`map`; the pool waits
#: for its futures inside it so the stage times the barrier as ``sync``.
Barrier = Callable[[], ContextManager[Any]]


@dataclass(frozen=True)
class ShardResult:
    """One shard's product of one phase, with the clock reads around it.

    ``track`` is ``None`` for inline work (the stage picks its own track);
    the pool sets it to the obs track of the worker that ran the shard.
    """

    value: Any
    start_s: float
    end_s: float
    track: Optional[str] = None


class InlineShardExecutor:
    """Run every shard's work on the calling thread, in shard order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock

    def _timed(
        self, fn: Callable[..., Any], args: Tuple[Any, ...],
        on_worker: bool = False,
    ) -> ShardResult:
        """``fn(*args)`` between two clock reads, on whichever thread calls."""
        start = self._clock()
        value = fn(*args)
        return ShardResult(
            value, start, self._clock(),
            threading.current_thread().name if on_worker else None,
        )

    def map(
        self,
        fn: Callable[..., Any],
        payloads: Sequence[Tuple[Any, ...]],
        barrier: Barrier,
    ) -> List[ShardResult]:
        """``fn(*payload)`` for one payload per shard; results in shard order.

        ``fn`` is pure in its arguments, so a result is identical no matter
        which thread produced it.
        """
        return [self._timed(fn, payload) for payload in payloads]

    def shutdown(self) -> None:
        """Join the workers (nothing to join inline)."""

    def __enter__(self) -> "InlineShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


class ThreadShardExecutor(InlineShardExecutor):
    """Fan the shards out to a persistent thread pool; barrier; shard order.

    Exiting the ``with`` block joins the workers, including after a worker
    exception re-raised at the barrier.
    """

    def __init__(
        self, workers: int, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        super().__init__(clock)
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="shard-worker"
        )
        self._tracks: Dict[Optional[str], str] = {}
        # Two threads map through one pool under look-ahead (the cast-ahead
        # worker and the step loop), so track assignment is guarded.
        self._tracks_lock = threading.Lock()

    def map(
        self,
        fn: Callable[..., Any],
        payloads: Sequence[Tuple[Any, ...]],
        barrier: Barrier,
    ) -> List[ShardResult]:
        futures = [
            self._executor.submit(self._timed, fn, payload, True)
            for payload in payloads
        ]
        with barrier():
            results = [future.result() for future in futures]
        # Tracks are named here, in shard order, not on the workers: which
        # thread becomes ``worker0`` must not depend on who finished first.
        with self._tracks_lock:
            return [
                replace(result, track=self._tracks.setdefault(
                    result.track, f"worker{len(self._tracks)}"
                ))
                for result in results
            ]

    def shutdown(self) -> None:
        """Stop accepting work and join the workers."""
        self._executor.shutdown(wait=True)


def make_shard_executor(
    kind: str, workers: int, clock: Callable[[], float] = time.perf_counter
) -> InlineShardExecutor:
    """The executor of ``kind`` (``"inline"`` or ``"thread"``).

    ``workers`` sizes the thread pool; ``clock`` times the per-shard work
    (a traced run passes its tracer's clock, so worker spans land on the
    same time axis as the step loop's).
    """
    if kind == "inline":
        return InlineShardExecutor(clock)
    return ThreadShardExecutor(workers, clock)
