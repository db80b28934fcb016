"""Dynamic batching policy: when does a queue of requests become a batch?

DeepRecSys's central scheduling insight: under a tail-latency SLA the
right batch size is a *tradeoff* — bigger batches amortize per-batch
engine overhead (higher throughput) but make early arrivals wait (higher
tail latency) — and the right point depends on the arrival profile.  The
:class:`DynamicBatcher` implements the classic two-knob policy:

``max_batch_requests``
    dispatch as soon as this many requests are queued (the throughput
    knob);
``max_wait_s``
    never hold the oldest queued request longer than this before
    dispatching whatever is queued (the latency knob — the timeout
    invariant pinned by ``tests/serving/test_batcher.py``).

The batcher is strictly *online*: its decisions depend only on the queue
and the current time, never on future arrivals.  The hill-climbing tuner
that searches ``max_batch_requests`` against a measured SLA lives in
:func:`repro.serving.harness.tune_batch_size` (it needs the simulator).
"""

from __future__ import annotations

from dataclasses import dataclass

from .request import RequestQueue

__all__ = ["BatchingPolicy", "DynamicBatcher"]


@dataclass(frozen=True)
class BatchingPolicy:
    """The two dispatch knobs plus a display name for reports."""

    max_batch_requests: int
    max_wait_s: float
    name: str = "dynamic"

    def __post_init__(self) -> None:
        if (
            isinstance(self.max_batch_requests, bool)
            or not isinstance(self.max_batch_requests, int)
            or self.max_batch_requests < 1
        ):
            raise ValueError(
                "max_batch_requests must be a positive integer, got "
                f"{self.max_batch_requests!r}"
            )
        if not self.max_wait_s >= 0:
            raise ValueError(
                f"max_wait_s must be non-negative, got {self.max_wait_s}"
            )

    @classmethod
    def no_batching(cls) -> "BatchingPolicy":
        """The degenerate policy: every request dispatches alone, instantly."""
        return cls(max_batch_requests=1, max_wait_s=0.0, name="single")


class DynamicBatcher:
    """Online dispatch decisions for one :class:`BatchingPolicy`."""

    def __init__(self, policy: BatchingPolicy) -> None:
        self.policy = policy

    def should_dispatch(self, queue: RequestQueue, now: float) -> bool:
        """Dispatch now?  Full batch, or the oldest request hit its timeout."""
        if not queue:
            return False
        if len(queue) >= self.policy.max_batch_requests:
            return True
        # Same arithmetic as next_deadline_s (arrival + wait, never the
        # rearranged now - arrival), so waking exactly at the deadline
        # always dispatches — rearranging is off by a float ulp.
        return now >= self.next_deadline_s(queue)

    def next_deadline_s(self, queue: RequestQueue) -> float:
        """Simulation time at which the oldest queued request times out.

        ``inf`` for an empty queue — there is nothing to time out.
        """
        oldest = queue.oldest()
        if oldest is None:
            return float("inf")
        return oldest.arrival_s + self.policy.max_wait_s

    def take_batch(self, queue: RequestQueue) -> list:
        """Drain the oldest ``max_batch_requests`` requests (FIFO slice)."""
        return queue.take(self.policy.max_batch_requests)
