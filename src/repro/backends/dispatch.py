"""Backend resolution: how the thin core dispatchers pick an engine.

Every hot kernel in :mod:`repro.core` accepts a ``backend=`` argument that
may be a backend *name*, a :class:`~repro.backends.base.KernelBackend`
instance, or ``None`` meaning "the process default" (:data:`initially
<_DEFAULT_NAME>` the ``vectorized`` NumPy engine, so plain library use keeps
its historical behavior).  The trainers resolve their ``backend=`` knob once
at construction and thread the resulting *instance* through the model and
sharded executor, so a training run never consults mutable process state —
:func:`set_default_backend` / :func:`use_backend` exist for scripts and the
CLI, which set the default before any kernel runs.

Because every hot-kernel call site funnels through :func:`resolve_backend`
(the core dispatchers resolve per invocation), this module is also where
the observability plane counts kernel launches: inside an
:func:`observe_kernels` scope, resolution wraps the resolved engine in a
transparent counting proxy that reports each call to the observer — a
:class:`KernelObserver`, which
:class:`~repro.obs.metrics.MetricRegistry` satisfies directly
(``kernel.calls{backend=...,op=...}``).  Outside the scope (the default)
resolution is unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Protocol, Tuple, TYPE_CHECKING, Union

from .base import KernelBackend
from .registry import get_backend

if TYPE_CHECKING:
    import numpy as np

    from ..core.casting import CastedIndex
    from ..core.indexing import IndexArray

__all__ = [
    "BackendSpec",
    "KernelObserver",
    "get_default_backend",
    "observe_kernels",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]

#: Anything a ``backend=`` argument accepts.
BackendSpec = Union[str, KernelBackend, None]

_DEFAULT_NAME = "vectorized"


class KernelObserver(Protocol):
    """What :func:`observe_kernels` needs: one callback per kernel launch."""

    def count_kernel(self, op: str, backend: str) -> None:
        """Called once per hot-kernel invocation with the op and engine name."""


_OBSERVER: Optional[KernelObserver] = None


class _CountingBackend(KernelBackend):
    """Transparent proxy: count each kernel call, then delegate.

    Never registered — instances exist only inside an
    :func:`observe_kernels` scope, created per resolution.  The reported
    engine name is the *wrapped* backend's, so counts attribute to the
    engine that actually ran.
    """

    name = "counting"

    def __init__(self, inner: KernelBackend,
                 observer: KernelObserver) -> None:
        self._inner = inner
        self._observer = observer

    def _count(self, op: str) -> None:
        self._observer.count_kernel(op, self._inner.name)

    def gather_reduce(
        self,
        table: "np.ndarray",
        index: "IndexArray",
        out: "np.ndarray | None" = None,
        weights: "np.ndarray | None" = None,
    ) -> "np.ndarray":
        self._count("gather_reduce")
        return self._inner.gather_reduce(table, index, out=out, weights=weights)

    def cast_indices(self, index: "IndexArray") -> "CastedIndex":
        self._count("cast_indices")
        return self._inner.cast_indices(index)

    def expand_coalesce(
        self, index: "IndexArray", gradients: "np.ndarray"
    ) -> "Tuple[np.ndarray, np.ndarray]":
        self._count("expand_coalesce")
        return self._inner.expand_coalesce(index, gradients)

    def scatter_update(
        self,
        table: "np.ndarray",
        rows: "np.ndarray",
        gradients: "np.ndarray",
        lr: float = 1.0,
    ) -> "np.ndarray":
        self._count("scatter_update")
        return self._inner.scatter_update(table, rows, gradients, lr=lr)

    def casted_gather_reduce(
        self, gradients: "np.ndarray", casted: "CastedIndex"
    ) -> "Tuple[np.ndarray, np.ndarray]":
        self._count("casted_gather_reduce")
        return self._inner.casted_gather_reduce(gradients, casted)


@contextmanager
def observe_kernels(observer: KernelObserver) -> Iterator[KernelObserver]:
    """Count every kernel dispatched inside the scope into ``observer``.

    Process-wide (like :func:`use_backend`), deliberately: the cast-ahead
    worker thread dispatches kernels for the same run, and its calls must
    land in the same counts.  Nested scopes restore the previous observer
    on exit.
    """
    global _OBSERVER
    previous = _OBSERVER
    _OBSERVER = observer
    try:
        yield observer
    finally:
        _OBSERVER = previous


def get_default_backend() -> str:
    """Name of the backend ``backend=None`` resolves to."""
    return _DEFAULT_NAME


def set_default_backend(name: str) -> None:
    """Set the process-wide default backend (validates the name eagerly)."""
    global _DEFAULT_NAME
    get_backend(name)  # raises UnknownBackendError with the names listed
    _DEFAULT_NAME = name


def resolve_backend(spec: BackendSpec = None) -> KernelBackend:
    """Resolve a ``backend=`` argument to a concrete backend instance.

    Inside an :func:`observe_kernels` scope the resolved engine comes back
    wrapped in the counting proxy; callers that cache the result (the
    trainers resolve once at construction) therefore resolve *outside* any
    scope and stay un-proxied — the per-call core dispatchers are the
    counted path.
    """
    if spec is None:
        resolved = get_backend(_DEFAULT_NAME)
    elif isinstance(spec, KernelBackend):
        resolved = spec
    else:
        resolved = get_backend(spec)
    if _OBSERVER is not None and not isinstance(resolved, _CountingBackend):
        return _CountingBackend(resolved, _OBSERVER)
    return resolved


@contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    """Temporarily swap the process default backend (not thread-scoped).

    The cast-ahead worker (``lookahead=1``) reads the backend *instance*
    its trainer resolved at construction, never this default — so scoping
    the default per-thread buys nothing; keep overlapping trainers on
    explicit ``backend=`` arguments instead.
    """
    previous = _DEFAULT_NAME
    set_default_backend(name)
    try:
        yield get_backend(name)
    finally:
        set_default_backend(previous)
