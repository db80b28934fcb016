"""Shard executors: where a sharded step's per-shard work runs.

A sharded step has three per-shard phases — Tensor Casting, the local
gather-reduce, and the casted gradient gather-reduce — and the stages of
:mod:`repro.runtime.stages` *map* each of them over the shards through one
of the executors here:

:class:`InlineShardExecutor`
    Every shard on the calling thread, in shard order: the default, and the
    path the frozen ``tests/runtime/_legacy_trainer.py`` oracle pins.
:class:`ThreadShardExecutor`
    A persistent :class:`~concurrent.futures.ThreadPoolExecutor`.  Correct
    under any backend, *fast* under one whose kernels release the GIL (the
    ``numba-parallel`` engine's ``nogil`` kernels).
:class:`ProcessShardExecutor`
    Worker processes that re-map the embedding tables from POSIX shared
    memory (:class:`SharedTableArena` moves the bags' tables there at
    trainer construction, *before* the shard views are built, so the
    optimizer's scatter-updates land in memory every worker sees).  Task
    payloads — index slices out, casts / partial pooled sums / coalesced
    gradients back — are pickled through the pool's call queue: the
    functional counterpart of the all-to-all the byte accounting in
    :mod:`repro.model.sharded` already charges.

All three run the *same* pure functions (:func:`~repro.model.sharded
.cast_slices`, :func:`~repro.model.sharded.gather_slices`,
:func:`~repro.model.sharded.reduce_payload`) and return one
:class:`ShardResult` per shard **in shard-index order**; the stage applies
them in that order, so the reduction order — and every parameter bit — is
the same wherever a shard ran and whichever worker finished first.  Each
result carries the clock reads taken around the work, so per-shard wall
timings (and, in traced runs, one span per phase on the worker's track)
survive the trip across the pool boundary.  A worker exception re-raises in
the caller at the barrier and the ``with`` block joins the pool cleanly —
the crash-propagation contract pinned by
``tests/runtime/test_parallel_schedule.py``.

This module is on the sanctioned wall-clock list of the repro-lint
determinism rule: workers *measure* (``time.perf_counter`` phase intervals)
but never *decide* — no timing value feeds back into what gets computed.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import get_all_start_methods, get_context, shared_memory
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

import numpy as np

from ..backends.base import KernelBackend
from ..backends.dispatch import BackendSpec, resolve_backend
from ..backends.registry import registered_backends
from ..core.sharding import make_partition
from ..model.sharded import cast_slices, gather_slices, reduce_payload

if TYPE_CHECKING:  # runtime imports would cycle through the trainer facade
    from ..model.embedding import EmbeddingBag
    from ..model.sharded import ShardedEmbeddingSet

__all__ = [
    "InlineShardExecutor",
    "ProcessShardExecutor",
    "ShardResult",
    "SharedTableArena",
    "TableDescriptor",
    "ThreadShardExecutor",
    "make_shard_executor",
]

#: ``(shm_name, shape, dtype_str)`` — everything a worker process needs to
#: re-map one embedding table from shared memory.
TableDescriptor = Tuple[str, Tuple[int, ...], str]

#: A context-manager factory a stage hands to :meth:`map`; pools wait for
#: their futures inside it so the stage times the barrier as ``sync``.
Barrier = Callable[[], ContextManager[Any]]


@dataclass(frozen=True)
class ShardResult:
    """One shard's product of one phase, with the clock reads around it.

    ``track`` is ``None`` for inline work (the stage picks its own track);
    pools set it to the obs track of the worker that ran the shard.
    """

    value: Any
    start_s: float
    end_s: float
    track: Optional[str] = None


def _shard_op(
    op: str,
    payload: Any,
    views: Sequence[Optional[np.ndarray]],
    backend: BackendSpec,
    clock: Callable[[], float] = time.perf_counter,
    worker: Optional[str] = None,
) -> ShardResult:
    """Run one shard's ``cast`` / ``gather`` / ``backward`` and time it.

    ``payload`` is the shard's index slices (``cast``, ``gather``) or its
    backward all-to-all payload (``backward``) — pure in its inputs, so the
    result is identical no matter which thread or process runs it.
    """
    start = clock()
    if op == "cast":
        value: Any = cast_slices(payload, backend)
    elif op == "gather":
        value = gather_slices(views, payload, backend)
    else:
        value = reduce_payload(payload, backend)
    return ShardResult(value, start, clock(), worker)


class InlineShardExecutor:
    """Run every shard's work on the calling thread, in shard order."""

    kind = "inline"

    def __init__(
        self,
        sharded: "ShardedEmbeddingSet",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._sharded = sharded
        self._clock = clock

    def map(
        self, op: str, payloads: Sequence[Any], barrier: Barrier
    ) -> List[ShardResult]:
        """``op`` over one payload per shard; results in shard order."""
        sharded = self._sharded
        return [
            _shard_op(
                op, payload, sharded.shard_views(shard), sharded.backend,
                self._clock,
            )
            for shard, payload in enumerate(payloads)
        ]

    def shutdown(self) -> None:
        """Join the workers (nothing to join inline)."""

    def __enter__(self) -> "InlineShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.shutdown()
        return False


class _PooledShardExecutor(InlineShardExecutor):
    """Fan the shards out to a persistent pool; barrier; shard-order results.

    Subclasses supply :meth:`_submit`.  Exiting the ``with`` block joins the
    workers, including after a worker exception re-raised at the barrier.
    """

    _executor: "ThreadPoolExecutor | ProcessPoolExecutor"

    def __init__(self, sharded: "ShardedEmbeddingSet") -> None:
        super().__init__(sharded)
        self._tracks: Dict[str, str] = {}
        # Two threads map through one pool under look-ahead (the cast-ahead
        # worker and the step loop), so track assignment is guarded.
        self._tracks_lock = threading.Lock()

    def _submit(
        self, op: str, shard: int, payload: Any
    ) -> "Future[ShardResult]":
        raise NotImplementedError

    def map(
        self, op: str, payloads: Sequence[Any], barrier: Barrier
    ) -> List[ShardResult]:
        futures = [
            self._submit(op, shard, payload)
            for shard, payload in enumerate(payloads)
        ]
        with barrier():
            results = [future.result() for future in futures]
        return [
            replace(result, track=self._track(result.track))
            for result in results
        ]

    def _track(self, worker: Optional[str]) -> str:
        """Stable obs track per worker (``worker0``, ``worker1``, ...)."""
        with self._tracks_lock:
            return self._tracks.setdefault(
                str(worker), f"worker{len(self._tracks)}"
            )

    def shutdown(self) -> None:
        """Stop accepting work and join the workers."""
        self._executor.shutdown(wait=True)


class ThreadShardExecutor(_PooledShardExecutor):
    """Per-shard work on a persistent thread pool."""

    kind = "thread"

    def __init__(self, sharded: "ShardedEmbeddingSet", workers: int) -> None:
        super().__init__(sharded)
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="shard-worker"
        )

    def _submit(
        self, op: str, shard: int, payload: Any
    ) -> "Future[ShardResult]":
        sharded = self._sharded
        return self._executor.submit(
            _thread_shard_op, op, payload, sharded.shard_views(shard),
            sharded.backend,
        )


def _thread_shard_op(
    op: str,
    payload: Any,
    views: Sequence[Optional[np.ndarray]],
    backend: BackendSpec,
) -> ShardResult:
    return _shard_op(
        op, payload, views, backend,
        worker=threading.current_thread().name,
    )


# ----------------------------------------------------------------------
# Process mode
# ----------------------------------------------------------------------

@dataclass
class _WorkerState:
    """Per-process state a shard worker builds once in its initializer."""

    views: List[List[Optional[np.ndarray]]]
    backend: KernelBackend
    label: str
    #: Keeps the shared-memory mappings alive for the worker's lifetime.
    segments: Tuple[shared_memory.SharedMemory, ...]


_WORKER: Optional[_WorkerState] = None


def _attach_shm(
    descriptor: TableDescriptor,
) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Map one parent-owned table segment into this process.

    The parent owns the segment's lifetime, so the worker's attach must not
    enroll it for cleanup: ``track=False`` on Python ≥ 3.13.  Before that,
    attaching re-registers with the resource tracker the worker shares with
    the parent — an idempotent set-add on top of the parent's own
    registration, cleared by the arena's ``unlink`` — so no counter-action
    is needed (and unregistering here would clobber the parent's entry).
    """
    name, shape, dtype = descriptor
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= keyword
        shm = shared_memory.SharedMemory(name=name)
    return shm, _shm_backed(shm, tuple(shape), np.dtype(dtype))


def _init_worker(
    descriptors: Sequence[TableDescriptor],
    num_shards: int,
    policy: str,
    backend: BackendSpec,
) -> None:
    """Process-pool initializer: map tables, rebuild views, resolve backend.

    The views are rebuilt with the same ``make_partition(policy,
    num_shards).shard_view`` calls the parent's
    :class:`~repro.model.sharded.ShardedEmbeddingSet` used, over arrays that
    alias the parent's shared-memory pages — so a worker's gather always
    reads the *live* post-update parameter values.
    """
    global _WORKER
    attached = [_attach_shm(descriptor) for descriptor in descriptors]
    partition = make_partition(policy, num_shards)
    views = [
        [
            partition.shard_view(table, table_id, shard)
            for shard in range(num_shards)
        ]
        for table_id, (_, table) in enumerate(attached)
    ]
    _WORKER = _WorkerState(
        views=views,
        backend=resolve_backend(backend),
        label=f"pid-{os.getpid()}",
        segments=tuple(shm for shm, _ in attached),
    )


def _process_shard_op(op: str, shard: int, payload: Any) -> ShardResult:
    """Worker-side task: this process's views + backend, shipped payload."""
    state = _WORKER
    if state is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("shard worker process was never initialized")
    return _shard_op(
        op, payload, [row[shard] for row in state.views], state.backend,
        worker=state.label,
    )


def _portable_backend(spec: BackendSpec) -> BackendSpec:
    """A backend spec worker processes can resolve on their side.

    Registered engines travel by name (each worker resolves its own
    singleton — nothing stateful crosses the process boundary); unregistered
    instances (tests inject these) are shipped as-is and must survive the
    start method in use (under ``fork`` they are inherited, not pickled).
    """
    if isinstance(spec, KernelBackend):
        return spec.name if spec.name in registered_backends() else spec
    return spec


class ProcessShardExecutor(_PooledShardExecutor):
    """Per-shard work on worker processes over shared-memory table views.

    The GIL-free mode for plain-Python backends: each worker process maps
    the tables from the trainer's :class:`SharedTableArena` once at startup
    and serves per-shard tasks from its own interpreter.  Prefers the
    ``fork`` start method (cheap startup, initializer args inherited rather
    than pickled) and falls back to ``spawn`` where ``fork`` is unavailable.
    """

    kind = "process"

    def __init__(
        self,
        sharded: "ShardedEmbeddingSet",
        workers: int,
        descriptors: Sequence[TableDescriptor],
    ) -> None:
        super().__init__(sharded)
        start_method = (
            "fork" if "fork" in get_all_start_methods() else "spawn"
        )
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=get_context(start_method),
            initializer=_init_worker,
            initargs=(
                tuple(descriptors),
                sharded.num_shards,
                sharded.policy,
                _portable_backend(sharded.backend),
            ),
        )
        # The pool forks its workers on the first submit.  Do that here, on
        # the constructing thread, so it never happens from (or alongside)
        # the cast-ahead thread of a look-ahead run.
        self._executor.submit(os.getpid).result()

    def _submit(
        self, op: str, shard: int, payload: Any
    ) -> "Future[ShardResult]":
        return self._executor.submit(_process_shard_op, op, shard, payload)


def make_shard_executor(
    kind: str,
    sharded: "ShardedEmbeddingSet",
    workers: Optional[int] = None,
    descriptors: Optional[Sequence[TableDescriptor]] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> InlineShardExecutor:
    """The executor of ``kind`` (``"inline"``, ``"thread"``, ``"process"``).

    ``workers`` defaults to one per shard; ``clock`` times inline work (a
    traced run passes its tracer's clock), pools always use
    ``time.perf_counter`` — it shares its CLOCK_MONOTONIC origin across
    processes on Linux, which is what lets worker spans land on one trace.
    """
    if kind == "inline":
        return InlineShardExecutor(sharded, clock)
    count = workers if workers is not None else sharded.num_shards
    if kind == "thread":
        return ThreadShardExecutor(sharded, count)
    if descriptors is None:
        raise ValueError(
            "the process executor needs shared-memory table descriptors; "
            "construct the trainer with schedule='parallel', "
            "parallel_mode='process' so a SharedTableArena backs the "
            "embedding tables"
        )
    return ProcessShardExecutor(sharded, count, descriptors)


# ----------------------------------------------------------------------
# Shared-memory arena
# ----------------------------------------------------------------------

def _unlink_segments(
    segments: Tuple[shared_memory.SharedMemory, ...],
) -> None:
    for shm in segments:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double close
            pass


class _ShmArray(np.ndarray):
    """An ndarray that owns the :class:`SharedMemory` segment backing it.

    ``np.ndarray(buffer=shm.buf)`` alone does **not** keep the segment's
    mapping alive: numpy releases the Py_buffer after construction, so once
    the :class:`SharedMemory` object is garbage-collected its ``__del__``
    unmaps the pages and every surviving view dangles (a segfault, not an
    exception).  Holding the segment on the array ties the mapping's
    lifetime to the data: views chain to this array through ``base``, so the
    mapping lives exactly as long as anything that can read it — a trained
    model keeps its shm-backed tables valid after the trainer (and its
    arena) are gone.
    """

    _shm: Optional[shared_memory.SharedMemory] = None


def _shm_backed(
    shm: shared_memory.SharedMemory, shape: Tuple[int, ...], dtype: np.dtype
) -> np.ndarray:
    """A writable array over ``shm`` whose lifetime keeps ``shm`` mapped."""
    array = np.ndarray(shape, dtype=dtype, buffer=shm.buf).view(_ShmArray)
    array._shm = shm
    return array


class SharedTableArena:
    """Move embedding tables into POSIX shared memory, in place.

    Each bag's table is copied into one ``multiprocessing.shared_memory``
    segment and the bag re-pointed at the shm-backed array.  Built by the
    trainer *before* it constructs the
    :class:`~repro.model.sharded.ShardedEmbeddingSet`, so the shard views
    (and the ``id(param)``-keyed optimizer state hung off them) alias the
    shared pages — every scatter-update the optimizer makes is immediately
    visible to worker processes mapping the same segments via
    :attr:`descriptors`.

    :meth:`close` unlinks the segments (removing the ``/dev/shm`` names —
    the resource that would otherwise outlive the process).  Live views keep
    their mapping valid after unlink; the OS reclaims the pages when the
    last reference drops.  A finalizer unlinks as a garbage-collection
    backstop, so an un-closed arena cannot leak segments past this
    process's lifetime under normal interpreter shutdown.
    """

    def __init__(self, bags: Sequence["EmbeddingBag"]) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self.descriptors: List[TableDescriptor] = []
        for bag in bags:
            table = np.ascontiguousarray(bag.table)
            shm = shared_memory.SharedMemory(create=True, size=table.nbytes)
            shared = _shm_backed(shm, table.shape, table.dtype)
            shared[...] = table
            bag.table = shared
            self._segments.append(shm)
            self.descriptors.append(
                (shm.name, table.shape, str(table.dtype))
            )
        self._finalizer = weakref.finalize(
            self, _unlink_segments, tuple(self._segments)
        )

    @property
    def closed(self) -> bool:
        """Whether the segments have been unlinked."""
        return not self._finalizer.alive

    def close(self) -> None:
        """Unlink every segment (idempotent; live views stay readable)."""
        self._finalizer()
