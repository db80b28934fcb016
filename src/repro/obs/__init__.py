"""Structured tracing and metrics for training runs and kernels.

The observability plane records *where time goes* — the paper's whole
argument (Fig. 4 motivates Tensor Casting with a stage breakdown; Fig. 12
wins on one) is a timeline argument, and aggregate
:class:`~repro.runtime.stages.PhaseTimings` totals cannot show overlap.
This package adds the record you can actually look at:

* :class:`Tracer` — nested spans on named tracks (the step loop records on
  ``main``) with timestamps from an injectable
  :class:`~repro.obs.clock.Clock`;
* :class:`MetricRegistry` — labeled counters and gauges
  (``cache.hits{policy=lfu}``, ``kernel.calls{op=gather_reduce}``);
* exporters — Chrome trace-event JSON (load it in Perfetto or
  ``chrome://tracing``), a JSONL step-record stream, and a run manifest
  (config, git SHA, seed);
* :class:`Observability` — the bundle of all of the above that threads
  through every ``obs=`` seam (trainer, engine, CLI ``--trace-out`` /
  ``--metrics-out``).

Observability is disabled by default: with ``obs=None`` the instrumented
code paths are bit-identical to their uninstrumented behavior.
"""

from .clock import unix_time, utc_timestamp
from .export import (
    chrome_trace_payload,
    git_revision,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_manifest,
)
from .metrics import Counter, Gauge, MetricRegistry, format_series
from .session import Observability
from .tracer import Span, SpanRecord, Tracer, span_totals, validate_span_nesting

__all__ = [
    "Counter",
    "Gauge",
    "MetricRegistry",
    "Observability",
    "Span",
    "SpanRecord",
    "Tracer",
    "chrome_trace_payload",
    "format_series",
    "git_revision",
    "span_totals",
    "unix_time",
    "utc_timestamp",
    "validate_chrome_trace",
    "validate_span_nesting",
    "write_chrome_trace",
    "write_jsonl",
    "write_manifest",
]
