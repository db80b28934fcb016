"""``retain_freed_memory``: one allocator decision per process, or none.

Every case runs against a substituted ``mallopt`` that records its calls,
so nothing here changes the test process's allocator;
``test_fault_gate.py`` measures what the real setting does to a step.
"""

import numpy as np
import pytest

from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import SGD
from repro.runtime import memory
from repro.runtime.trainer import FunctionalTrainer

#: ``mallopt(M_MMAP_THRESHOLD, 256 MiB)`` then ``mallopt(M_TRIM_THRESHOLD,
#: 512 MiB)``: the mmap threshold sits above one table's 42 MB ``(n, dim)``
#: float32 array at the paper's batch 2048 x 80 gathers.
SETTINGS = [(-3, 256 << 20), (-1, 512 << 20)]


@pytest.fixture
def mallopt(monkeypatch):
    """A fresh process as far as the decision goes: glibc, no malloc
    environment, nothing decided yet; returns the recorded calls."""
    calls = []

    def fake(param, value):
        calls.append((param, value))
        return fake.result

    fake.result = 1
    monkeypatch.setattr(memory, "_mallopt", fake)
    monkeypatch.setattr(memory, "_decided", False)
    monkeypatch.setattr(memory.platform, "libc_ver", lambda: ("glibc", "2.36"))
    for name in list(memory.os.environ):
        if name.startswith("MALLOC_"):
            monkeypatch.delenv(name)
    monkeypatch.delenv("GLIBC_TUNABLES", raising=False)
    fake.calls = calls
    return fake


def test_the_settings_are_applied_once_per_process(mallopt):
    assert memory.retain_freed_memory() is True
    assert mallopt.calls == SETTINGS
    assert memory.retain_freed_memory() is False
    assert mallopt.calls == SETTINGS


@pytest.mark.parametrize("name,value", [
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_ARENA_MAX", "2"),
])
def test_a_malloc_variable_means_the_user_decided(
        mallopt, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert memory.retain_freed_memory() is False
    assert mallopt.calls == []


@pytest.mark.parametrize("tunables,skips", [
    ("glibc.malloc.mmap_threshold=131072", True),
    ("glibc.pthread.rseq=0:glibc.malloc.trim_threshold=0", True),
    ("glibc.pthread.rseq=0", False),
])
def test_a_glibc_malloc_tunable_means_the_user_decided(
        mallopt, monkeypatch, tunables, skips):
    monkeypatch.setenv("GLIBC_TUNABLES", tunables)
    assert memory.retain_freed_memory() is not skips
    assert mallopt.calls == ([] if skips else SETTINGS)


@pytest.mark.parametrize("libc", [("", ""), ("musl", "1.2")])
def test_nothing_changes_off_glibc(mallopt, monkeypatch, libc):
    monkeypatch.setattr(memory.platform, "libc_ver", lambda: libc)
    assert memory.retain_freed_memory() is False
    assert mallopt.calls == []


def test_a_failing_mallopt_is_reported(mallopt):
    mallopt.result = 0
    with pytest.warns(RuntimeWarning, match="failed; freed step") as record:
        assert memory.retain_freed_memory() is False
    assert [str(w.message).split(",")[0] for w in record] == [
        "mallopt(M_MMAP_THRESHOLD", "mallopt(M_TRIM_THRESHOLD",
    ]
    assert mallopt.calls == SETTINGS


def test_the_trainer_makes_the_decision(mallopt):
    """Every trainer asks; only the first one in the process decides."""
    config = RM1.with_overrides(
        num_tables=1, gathers_per_table=2, rows_per_table=16,
        bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
    )
    stream = SyntheticCTRStream(
        num_tables=1, num_rows=16, lookups_per_sample=2,
        dense_features=config.dense_features, seed=0,
    )
    model = DLRM(config, rng=np.random.default_rng(0))
    FunctionalTrainer(model, stream, SGD(lr=0.1))
    FunctionalTrainer(model, stream, SGD(lr=0.1))
    assert mallopt.calls == SETTINGS
