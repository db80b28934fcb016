"""Backend registry: name → :class:`~repro.backends.base.KernelBackend`.

Backends self-register at import time via the :func:`register_backend`
decorator (importing :mod:`repro.backends` pulls every built-in backend in,
so the registry is always populated once the package is imported).  Every
registered engine runs everywhere NumPy does.  Lookup failures are
deliberately loud and helpful: an unknown name lists every registered
backend, verbatim as the ``python -m repro --backend`` error message.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from .base import KernelBackend

__all__ = [
    "UnknownBackendError",
    "get_backend",
    "register_backend",
    "registered_backends",
]


class UnknownBackendError(ValueError):
    """Raised for a backend name that was never registered."""


#: Registration order is preserved — it is the order ``--backend all``
#: benchmarks sweep and error messages list the names in.
_REGISTRY: Dict[str, Type[KernelBackend]] = {}
_INSTANCES: Dict[str, KernelBackend] = {}


def register_backend(cls: Type[KernelBackend]) -> Type[KernelBackend]:
    """Class decorator adding a backend to the registry under ``cls.name``."""
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(f"backend class {cls.__name__} must set a non-empty name")
    if name in _REGISTRY and _REGISTRY[name] is not cls:
        raise ValueError(f"backend name {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def registered_backends() -> Tuple[str, ...]:
    """Every registered backend name, in registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> KernelBackend:
    """Resolve a backend name to its (singleton) instance.

    Instances are cached per name, so every dispatch site in the process
    shares one instance of each engine.
    """
    if name not in _REGISTRY:
        raise UnknownBackendError(
            f"unknown kernel backend {name!r}; registered backends: "
            f"{', '.join(registered_backends())}"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = _REGISTRY[name]()
    return _INSTANCES[name]
