"""Shared fixtures for the Tensor Casting reproduction test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.casting import CastedIndex, tensor_casting_reference
from repro.core.coalesce import gradient_coalesce_reference, gradient_expand
from repro.core.gather_reduce import gather_reduce_reference
from repro.core.indexing import IndexArray
from repro.model import embedding
from repro.runtime.systems import SystemHardware


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic per-test generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def paper_index() -> IndexArray:
    """The worked example of Figures 2/7/8: batch 2, lookups {1,2,4} and {0,2}."""
    return IndexArray(src=[1, 2, 4, 0, 2], dst=[0, 0, 0, 1, 1], num_rows=6)


def make_random_index(
    rng: np.random.Generator,
    num_rows: int = 100,
    batch: int = 8,
    lookups: int = 5,
) -> IndexArray:
    """Helper: a pooled-bag index array with uniform lookups."""
    src = rng.integers(0, num_rows, batch * lookups)
    dst = np.repeat(np.arange(batch), lookups)
    return IndexArray(src, dst, num_rows=num_rows, num_outputs=batch)


@pytest.fixture(scope="session")
def shared_hardware() -> SystemHardware:
    """One hardware description per session.

    DRAM-pattern efficiencies are measured by the cycle-level simulator on
    first use and cached inside the device models, so sharing the instance
    keeps the suite fast.
    """
    return SystemHardware()


def _cast_reference(index: IndexArray) -> CastedIndex:
    casted_src, casted_dst = tensor_casting_reference(index.src, index.dst)
    return CastedIndex(casted_src, casted_dst,
                       np.unique(index.src).astype(np.int64),
                       index.num_outputs)


def _expand_coalesce_reference(index, gradients):
    return gradient_coalesce_reference(
        index.src, gradient_expand(gradients, index.dst))


def _casted_gather_reduce_reference(gradients, cast):
    return cast.rows, gather_reduce_reference(gradients,
                                              cast.as_index_array())


#: Each core kernel the model calls -> its pure-Python oracle.
ORACLE_KERNELS = {
    "gather_reduce": gather_reduce_reference,
    "tensor_casting": _cast_reference,
    "expand_coalesce": _expand_coalesce_reference,
    "casted_gather_reduce": _casted_gather_reduce_reference,
}


@pytest.fixture
def oracle_kernels(monkeypatch):
    """A context manager inside which the model's four core kernels are
    their ``*_reference`` oracles: whole training steps run on oracle code.
    """

    @contextmanager
    def swapped():
        with monkeypatch.context() as patch:
            for name, oracle in ORACLE_KERNELS.items():
                patch.setattr(embedding, name, oracle)
            yield

    return swapped
