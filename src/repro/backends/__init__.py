"""Pluggable kernel engines behind one dispatch seam.

The paper reduces every embedding-training primitive to one gather-reduce
datapath; this package makes that observation operational as a
hardware-abstraction seam.  Every hot kernel of :mod:`repro.core`
(``gather_reduce``, ``cast_indices``/Tensor Casting, ``expand_coalesce``,
``scatter_update``, plus the fused casted backward) dispatches through a
:class:`~repro.backends.base.KernelBackend`, selected by name from a
registry:

* ``reference`` — the pure-Python oracle loops (semantics ground truth);
* ``vectorized`` — fused NumPy kernels: every reduction, forward and
  casted backward alike, is :func:`repro.core.segment.segment_sum` (one
  vectorised round per lookup rank over sorted segments, long segments
  folded row by row — lookup order, bit for bit); the process default;
* ``auto`` — the trainers' default name for the same vectorized kernels.

No engine choice decides whether a step faults: the trainer's allocator
setting (:func:`repro.runtime.memory.retain_freed_memory`) does, for every
engine alike.

All backends are result-interchangeable: bit-identical for float64 (each
output row summed one addend at a time in lookup order — the oracle's
association, which ``segment_sum`` defines once for the NumPy engines)
and within documented tolerance for float32 — pinned by the randomized
differential tests in ``tests/backends/``.  Select an engine per call (``gather_reduce(...,
backend="reference")``), per trainer (``FunctionalTrainer(...,
backend="auto")``), per process (:func:`set_default_backend`,
``python -m repro --backend``), or temporarily (:func:`use_backend`).
"""

from .base import KernelBackend
from .registry import (
    UnknownBackendError,
    get_backend,
    register_backend,
    registered_backends,
)
from .dispatch import (
    BackendSpec,
    get_default_backend,
    resolve_backend,
    set_default_backend,
    use_backend,
)

# Import order below fixes the registration order — the order `--backend
# all` benchmarks sweep and error messages list the names in.
from .reference import ReferenceBackend
from .vectorized import AutoBackend, VectorizedBackend

__all__ = [
    "AutoBackend",
    "BackendSpec",
    "KernelBackend",
    "ReferenceBackend",
    "UnknownBackendError",
    "VectorizedBackend",
    "get_backend",
    "get_default_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]
