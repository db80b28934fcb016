"""Labeled metric series: counters, gauges, and histograms.

A :class:`MetricRegistry` holds every series of one observed run, keyed by
``(name, labels)`` — ``cache.hits{policy=lfu}`` and
``kernel.calls{op=gather_reduce}`` are distinct series of
the ``cache.hits`` / ``kernel.calls`` metrics.  Three instrument kinds:

* :class:`Counter` — monotone event count (kernel calls, training steps);
* :class:`Gauge` — a sampled time series of ``(at, value)`` points (loss
  per step, prefetch queue depth per draw);
* :class:`Histogram` — a value distribution with percentile summaries.

All mutation goes through one registry-wide lock: the cast-ahead worker
counts kernel calls concurrently with the step loop, and a plain float
``+=`` is not atomic across bytecodes.  The registry also speaks the core
kernels' duck-typed observer protocol directly
(:meth:`MetricRegistry.count_kernel`), so
:func:`repro.core.observe.observe_kernels` can be handed a registry
without an adapter — and without :mod:`repro.core` ever importing this
package.

:meth:`MetricRegistry.to_dict` renders every series deterministically
(sorted names, sorted labels), which is what makes the exported metrics
JSON byte-stable for identical runs.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "format_series",
]

#: A frozen, sorted label set — the hashable half of a series key.
Labels = Tuple[Tuple[str, str], ...]

PathLike = Union[str, "Path"]


def _freeze_labels(labels: Mapping[str, object]) -> Labels:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def format_series(name: str, labels: Labels) -> str:
    """Canonical series name: ``name{key=value,...}`` (sorted keys)."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class _Metric:
    """Shared identity plumbing of one series (name + frozen labels)."""

    kind = "metric"

    def __init__(self, name: str, labels: Labels,
                 lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock

    @property
    def series(self) -> str:
        """The canonical ``name{labels}`` identity of this series."""
        return format_series(self.name, self.labels)


class Counter(_Metric):
    """Monotone event counter."""

    kind = "counter"

    def __init__(self, name: str, labels: Labels,
                 lock: threading.Lock) -> None:
        super().__init__(name, labels, lock)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount

    def summary(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge(_Metric):
    """A sampled time series: ``(at, value)`` points in record order."""

    kind = "gauge"

    def __init__(self, name: str, labels: Labels,
                 lock: threading.Lock) -> None:
        super().__init__(name, labels, lock)
        self.samples: List[Tuple[float, float]] = []

    def set(self, value: float, at: Optional[float] = None) -> None:
        """Record one sample; ``at`` defaults to the next sample index."""
        with self._lock:
            stamp = float(at) if at is not None else float(len(self.samples))
            self.samples.append((stamp, float(value)))

    @property
    def value(self) -> Optional[float]:
        """The most recent sample's value (``None`` before any sample)."""
        if not self.samples:
            return None
        return self.samples[-1][1]

    def summary(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "value": self.value,
            "samples": [list(sample) for sample in self.samples],
        }


class Histogram(_Metric):
    """A value distribution with nearest-rank percentile summaries."""

    kind = "histogram"

    def __init__(self, name: str, labels: Labels,
                 lock: threading.Lock) -> None:
        super().__init__(name, labels, lock)
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        with self._lock:
            self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) of the observations."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.values:
            raise ValueError("cannot take a percentile of zero observations")
        ordered = sorted(self.values)
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> Dict[str, Any]:
        if not self.values:
            return {"kind": self.kind, "count": 0}
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": sum(self.values),
            "min": min(self.values),
            "max": max(self.values),
            "mean": sum(self.values) / self.count,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


#: What ``MetricRegistry`` stores — the three instrument kinds.
Metric = Union[Counter, Gauge, Histogram]


class MetricRegistry:
    """Every metric series of one observed run, created on first touch.

    ``registry.counter("kernel.calls", op="gather_reduce")`` returns the
    same :class:`Counter` on every call with the same name and labels;
    asking for an existing series under a different instrument kind is an
    error (one series, one meaning).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, Labels], Metric] = {}

    def _get(self, kind: type, name: str,
             labels: Mapping[str, object]) -> Metric:
        key = (name, _freeze_labels(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = kind(name, key[1], self._lock)
                self._metrics[key] = metric
            elif not isinstance(metric, kind):
                raise ValueError(
                    f"series {format_series(*key)} already registered as a "
                    f"{metric.kind}, not a {kind.kind}"
                )
            return metric

    def counter(self, name: str, **labels: object) -> Counter:
        metric = self._get(Counter, name, labels)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        metric = self._get(Gauge, name, labels)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, **labels: object) -> Histogram:
        metric = self._get(Histogram, name, labels)
        assert isinstance(metric, Histogram)
        return metric

    # ------------------------------------------------------------------
    # The core kernels' duck-typed observer protocol
    # ------------------------------------------------------------------
    def count_kernel(self, op: str) -> None:
        """One core-kernel launch (``kernel.calls{op=...}``)."""
        self.counter("kernel.calls", op=op).inc()

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def series(self) -> List[Metric]:
        """Every registered series, sorted by canonical name."""
        with self._lock:
            metrics = list(self._metrics.values())
        return sorted(metrics, key=lambda metric: metric.series)

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic ``{series_name: summary}`` snapshot."""
        return {metric.series: metric.summary() for metric in self.series()}

    def write_json(self, path: PathLike) -> Path:
        """Write :meth:`to_dict` as sorted, indented JSON; returns the path."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return out
