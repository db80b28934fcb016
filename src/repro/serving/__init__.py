"""The latency-bounded serving plane: requests, batching, tail SLAs.

Training reproduces the paper's *throughput* story; this package serves
the trained model under production-style traffic, the DeepRecSys side of
the related work: seeded arrival processes generate :class:`Request`
streams, a :class:`RequestQueue` + :class:`DynamicBatcher` coalesce them
into engine batches under max-batch-size/max-wait knobs (plus a
hill-climbing tuner against the SLA), an executor scores each batch
through the engine's forward-only
:meth:`~repro.runtime.trainer.FunctionalTrainer.infer`, and the
:class:`ServingSimulator` rolls per-request latency (queue wait + batch
execution) into p50/p95/p99 and QPS-under-SLA on an injectable clock —
virtual by default, so simulated traffic runs faster than real time.
"""

from .batcher import BatchingPolicy, DynamicBatcher
from .clock import Clock, RealTimeClock, VirtualClock
from .execution import EngineExecutor, ExecutionResult, FixedLatencyExecutor
from .harness import (
    CompletedRequest,
    ServingReport,
    ServingSimulator,
    tune_batch_size,
)
from .request import Request, RequestQueue, coalesce_requests, generate_requests

__all__ = [
    "BatchingPolicy",
    "Clock",
    "CompletedRequest",
    "DynamicBatcher",
    "EngineExecutor",
    "ExecutionResult",
    "FixedLatencyExecutor",
    "RealTimeClock",
    "Request",
    "RequestQueue",
    "ServingReport",
    "ServingSimulator",
    "VirtualClock",
    "coalesce_requests",
    "generate_requests",
    "tune_batch_size",
]
