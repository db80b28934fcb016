"""Registry and dispatch-default behavior."""

import numpy as np
import pytest

from repro.backends import (
    AutoBackend,
    KernelBackend,
    ReferenceBackend,
    UnknownBackendError,
    VectorizedBackend,
    get_backend,
    get_default_backend,
    register_backend,
    registered_backends,
    resolve_backend,
    set_default_backend,
    use_backend,
)
from repro.backends.registry import _INSTANCES


class TestRegistry:
    def test_builtin_backends_registered_in_order(self):
        assert registered_backends() == (
            "reference",
            "vectorized",
            "auto",
        )

    def test_get_backend_returns_singletons(self):
        assert get_backend("vectorized") is get_backend("vectorized")
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("auto"), AutoBackend)

    def test_unknown_backend_lists_registered_names(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("tpu")
        message = str(excinfo.value)
        for name in registered_backends():
            assert name in message

    def test_errors_are_value_errors(self):
        """The CLI and trainers catch ValueError; the registry's error is."""
        assert issubclass(UnknownBackendError, ValueError)

    def test_register_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_backend
            class Impostor(VectorizedBackend):  # pragma: no cover - rejected
                name = "vectorized"

    def test_register_rejects_missing_name(self):
        with pytest.raises(ValueError, match="non-empty name"):
            register_backend(type("Anonymous", (KernelBackend,), {}))

    def test_auto_is_the_vectorized_engine(self):
        """``auto`` is a second name for the vectorized kernels: it
        overrides none of them."""
        for kernel in ("gather_reduce", "casted_gather_reduce",
                       "cast_indices", "expand_coalesce"):
            assert kernel not in vars(AutoBackend)
            assert (getattr(AutoBackend, kernel)
                    is getattr(VectorizedBackend, kernel))


class TestDispatch:
    def test_default_backend_is_vectorized(self):
        assert get_default_backend() == "vectorized"
        assert isinstance(resolve_backend(None), VectorizedBackend)

    def test_resolve_accepts_names_and_instances(self):
        assert resolve_backend("reference") is get_backend("reference")
        probe = ReferenceBackend()
        assert resolve_backend(probe) is probe

    def test_set_default_validates_eagerly(self):
        with pytest.raises(UnknownBackendError):
            set_default_backend("fpga")
        assert get_default_backend() == "vectorized"

    def test_use_backend_scopes_and_restores(self):
        assert get_default_backend() == "vectorized"
        with use_backend("reference") as backend:
            assert isinstance(backend, ReferenceBackend)
            assert get_default_backend() == "reference"
            assert isinstance(resolve_backend(None), ReferenceBackend)
        assert get_default_backend() == "vectorized"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("reference"):
                raise RuntimeError("boom")
        assert get_default_backend() == "vectorized"


class TestKernelRouting:
    """Dispatchers actually route to the requested engine."""

    def test_core_kernels_accept_instance_specs(self, paper_index):
        from repro.core.gather_reduce import gather_reduce

        class Recording(VectorizedBackend):
            name = "recording"  # NOT registered - passed by instance

            def __init__(self):
                self.calls = 0

            def gather_reduce(self, table, index):
                self.calls += 1
                return super().gather_reduce(table, index)

        probe = Recording()
        table = np.ones((paper_index.num_rows, 3))
        gather_reduce(table, paper_index, backend=probe)
        assert probe.calls == 1
        assert "recording" not in registered_backends()

    def test_default_routing_matches_explicit_vectorized(self, paper_index):
        from repro.core.gather_reduce import gather_reduce

        table = np.arange(paper_index.num_rows * 3, dtype=np.float64).reshape(-1, 3)
        assert np.array_equal(
            gather_reduce(table, paper_index),
            gather_reduce(table, paper_index, backend="vectorized"),
        )

    def test_instance_cache_covers_registered_names(self):
        for name in registered_backends():
            get_backend(name)
        assert set(_INSTANCES) >= set(registered_backends())
