"""Labeled metric series: counters and gauges.

A :class:`MetricRegistry` holds every series of one observed run, keyed by
``(name, labels)`` — ``cache.hits{policy=lfu}`` and
``kernel.calls{op=gather_reduce}`` are distinct series of
the ``cache.hits`` / ``kernel.calls`` metrics.  Two instrument kinds:

* :class:`Counter` — monotone event count (kernel calls, training steps);
* :class:`Gauge` — a sampled time series of ``(at, value)`` points (loss
  per step).

All mutation goes through one registry-wide lock, so threads may share a
registry: a plain float ``+=`` is not atomic across bytecodes.  The registry also speaks the core
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
import threading
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
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


#: What ``MetricRegistry`` stores — the two instrument kinds.
Metric = Union[Counter, Gauge]


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
