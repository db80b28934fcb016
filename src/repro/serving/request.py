"""Requests, the FIFO request queue, and request→batch coalescing.

The serving plane's unit of work is the :class:`Request`: a few samples
(one user's candidate items, DeepRecSys's "query") that arrived at a
scheduled offset of an :class:`~repro.data.arrivals.ArrivalProcess`.
:func:`generate_requests` builds a seeded request stream from any
:class:`~repro.data.source.BatchSource` (equal seeds give the identical
schedule).

:class:`RequestQueue` is the FIFO of arrived-but-undispatched requests the
dynamic batcher drains, and :func:`coalesce_requests` concatenates the
queued requests' payloads into one :class:`~repro.data.source.CTRBatch`
for the engine: dense rows and labels stack; each table's
:class:`~repro.core.indexing.IndexArray` concatenates with the ``dst``
(sample) ids offset by the preceding requests' sample counts while ``src``
row ids are untouched — requests share the same embedding tables, so only
the *output* side shifts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.indexing import IndexArray
from ..data.arrivals import ArrivalProcess
from ..data.source import BatchSource, CTRBatch, SourceExhausted, as_batch_source

__all__ = [
    "Request",
    "RequestQueue",
    "coalesce_requests",
    "generate_requests",
]


@dataclass(frozen=True)
class Request:
    """One serving query: a scheduled arrival plus its payload samples."""

    request_id: int
    #: Scheduled arrival offset in simulation seconds (0.0 = stream origin).
    arrival_s: float
    data: CTRBatch

    @property
    def num_samples(self) -> int:
        """Samples (candidate items) this query carries."""
        return self.data.size


class RequestQueue:
    """FIFO of arrived-but-undispatched requests.

    The batcher's working set: arrivals :meth:`push` in arrival order, a
    dispatch :meth:`take`\\ s the oldest ``count`` — never reordering, so
    every batch is a contiguous arrival-ordered slice (the FIFO invariant
    pinned by ``tests/serving/test_batcher.py``).
    """

    def __init__(self, requests: Sequence[Request] = ()) -> None:
        self._pending: "deque[Request]" = deque(requests)

    def push(self, request: Request) -> None:
        self._pending.append(request)

    def take(self, count: int) -> List[Request]:
        """Remove and return the oldest ``count`` requests (fewer if short)."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        taken = []
        while self._pending and len(taken) < count:
            taken.append(self._pending.popleft())
        return taken

    def oldest(self) -> Optional[Request]:
        """The longest-waiting request (``None`` when empty)."""
        return self._pending[0] if self._pending else None

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)


def generate_requests(
    source: BatchSource,
    num_requests: int,
    samples_per_request: Optional[int],
    process: ArrivalProcess,
    rng: np.random.Generator,
) -> List[Request]:
    """Draw a seeded request stream: payloads from ``source``, times from ``process``.

    Each request carries ``samples_per_request`` samples drawn as one small
    batch from ``source`` and the next scheduled offset of ``process``
    (first request at 0.0).  ``samples_per_request=None`` takes whatever the
    source yields — how trace replay serves each recorded batch as one
    request.  A finite source that exhausts early simply yields fewer
    requests.  Determinism: equal source/process/rng seeds reproduce the
    identical stream — the property the serving sweeps rely on to give
    every batching policy the same workload.
    """
    if num_requests <= 0:
        raise ValueError(f"num_requests must be positive, got {num_requests}")
    if samples_per_request is not None and samples_per_request <= 0:
        raise ValueError(
            f"samples_per_request must be positive, got {samples_per_request}"
        )
    source = as_batch_source(source)
    requests: List[Request] = []
    for request_id in range(num_requests):
        try:
            data = source.next_batch(samples_per_request, rng)
        except SourceExhausted:
            break
        requests.append(
            Request(
                request_id=request_id,
                arrival_s=process.next_offset(),
                data=data,
            )
        )
    return requests


def coalesce_requests(requests: Sequence[Request]) -> CTRBatch:
    """Concatenate queued requests into one engine batch (FIFO order kept).

    Sample-major concatenation: request ``k``'s samples occupy output rows
    ``[sum(sizes[:k]), sum(sizes[:k+1]))`` of the coalesced batch, so the
    batch's logits slice back to per-request responses by the same offsets.
    All requests must share table geometry (same source ⇒ always true).
    """
    if not requests:
        raise ValueError("cannot coalesce an empty request list")
    if len(requests) == 1:
        return requests[0].data
    first = requests[0].data
    num_tables = len(first.indices)
    for request in requests[1:]:
        if len(request.data.indices) != num_tables:
            raise ValueError(
                f"request {request.request_id} carries "
                f"{len(request.data.indices)} tables, expected {num_tables}"
            )
    dense = np.concatenate([r.data.dense for r in requests], axis=0)
    labels = np.concatenate([r.data.labels for r in requests], axis=0)
    total_samples = int(labels.shape[0])
    indices: List[IndexArray] = []
    for table in range(num_tables):
        parts = [r.data.indices[table] for r in requests]
        num_rows = parts[0].num_rows
        for request, part in zip(requests, parts):
            if part.num_rows != num_rows:
                raise ValueError(
                    f"request {request.request_id} table {table} has "
                    f"num_rows={part.num_rows}, expected {num_rows}"
                )
        src = np.concatenate([part.src for part in parts])
        offsets = np.cumsum([0] + [r.num_samples for r in requests[:-1]])
        dst = np.concatenate(
            [part.dst + offset for part, offset in zip(parts, offsets)]
        )
        indices.append(
            IndexArray(src, dst, num_rows=num_rows, num_outputs=total_samples)
        )
    return CTRBatch(dense=dense, indices=indices, labels=labels)
