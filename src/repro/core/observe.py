"""Kernel-call counting: one process-wide observer the core kernels report to.

Each of the four core kernels (:func:`~repro.core.gather_reduce.gather_reduce`,
:func:`~repro.core.casting.tensor_casting`,
:func:`~repro.core.coalesce.expand_coalesce` and
:func:`~repro.core.gather_reduce.casted_gather_reduce`) calls
:func:`count_kernel` once per non-empty launch.  Outside an
:func:`observe_kernels` scope that is one global read; inside it, the
observer — a :class:`~repro.obs.metrics.MetricRegistry`, which records
``kernel.calls{op=...}`` — sees every launch.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Protocol

__all__ = ["KernelObserver", "count_kernel", "observe_kernels"]


class KernelObserver(Protocol):
    """What :func:`observe_kernels` needs: one callback per kernel launch."""

    def count_kernel(self, op: str) -> None:
        """Called once per core-kernel launch with the kernel's name."""


_OBSERVER: Optional[KernelObserver] = None


def count_kernel(op: str) -> None:
    """Report one launch of kernel ``op`` to the observer, if any."""
    if _OBSERVER is not None:
        _OBSERVER.count_kernel(op)


@contextmanager
def observe_kernels(observer: KernelObserver) -> Iterator[KernelObserver]:
    """Count every kernel launched inside the scope into ``observer``.

    Process-wide: a kernel needs no handle to report, so every launch in
    the scope lands in the same counts, whoever calls it.  Nested scopes
    restore the previous observer on exit.
    """
    global _OBSERVER
    previous = _OBSERVER
    _OBSERVER = observer
    try:
        yield observer
    finally:
        _OBSERVER = previous
