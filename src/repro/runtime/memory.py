"""The allocator policy of a training step: keep freed memory for reuse.

Every step allocates the same temporaries — the forward's gathered rows,
``segment_sum``'s rank rounds, the ``(u, dim)`` coalesced gradient,
Algorithm 1's ``(n, dim)`` expansion — and frees them before the next.
glibc serves a block above its mmap threshold (128 KiB, raised dynamically
as large blocks are freed, but never past 32 MiB on 64-bit) with a private
``mmap`` and unmaps it on ``free``, so each step faults every page of those
temporaries in afresh: thousands of minor faults per step at the
benchmark's shape, and a memory-bound step (RecNMP, PAPERS.md) pays for
each one.  Fixing the threshold well above any step temporary keeps them
in the heap; raising the trim threshold keeps the heap from handing the
pages back; from then on a step reuses pages an earlier step touched.

:func:`retain_freed_memory` makes that decision once per process;
:class:`~repro.runtime.trainer.FunctionalTrainer` calls it first thing,
so every training step is fault-free (``tests/runtime/test_fault_gate.py``).
"""

from __future__ import annotations

import ctypes
import os
import platform
import warnings

__all__ = ["retain_freed_memory"]

#: ``mallopt`` parameter numbers from glibc's ``malloc.h``.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

#: Blocks up to this size come from the heap, never a private mapping —
#: above the paper shape's largest step temporary (a 42 MB ``(n, dim)``
#: float32 array per table at batch 2048).
MMAP_THRESHOLD_BYTES = 256 << 20
#: Free memory the heap keeps at its top before trimming it back.
TRIM_THRESHOLD_BYTES = 512 << 20

#: Module state on purpose: the allocator it governs is one per process.
_decided = False


def _mallopt(param: int, value: int) -> int:
    """glibc's ``mallopt(param, value)``: 1 on success, 0 on failure."""
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return int(mallopt(param, value))


def _malloc_tuned_by_user() -> bool:
    """Whether the environment already configures glibc malloc."""
    if any(name.startswith("MALLOC_") for name in os.environ):
        return True
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    return any(
        item.strip().startswith("glibc.malloc.")
        for item in tunables.split(":")
    )


def retain_freed_memory() -> bool:
    """Keep freed step temporaries in the heap for the rest of the process.

    On glibc, sets ``M_MMAP_THRESHOLD`` to :data:`MMAP_THRESHOLD_BYTES` and
    ``M_TRIM_THRESHOLD`` to :data:`TRIM_THRESHOLD_BYTES` through
    ``mallopt``.  The setting is **process-wide**: it governs every
    allocation the process makes afterwards, not only this trainer's.  It
    is decided once per process; later calls do nothing.

    Nothing is changed off glibc, or when any ``MALLOC_*`` variable or a
    ``glibc.malloc.*`` entry in ``GLIBC_TUNABLES`` is set — the user has
    already decided.  A ``mallopt`` call that fails is reported as a
    :class:`RuntimeWarning`; the step still runs, only with faults.

    Returns whether the settings were applied by this call.
    """
    global _decided
    if _decided:
        return False
    _decided = True
    if platform.libc_ver()[0] != "glibc" or _malloc_tuned_by_user():
        return False
    applied = True
    for name, param, value in (
        ("M_MMAP_THRESHOLD", M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
        ("M_TRIM_THRESHOLD", M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES),
    ):
        if _mallopt(param, value) == 0:
            applied = False
            warnings.warn(
                f"mallopt({name}, {value}) failed; freed step temporaries "
                "return to the kernel and each step faults them in again",
                RuntimeWarning, stacklevel=2,
            )
    return applied
