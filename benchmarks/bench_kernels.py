"""Kernel-level wall-clock benchmarks (the Section V real-system story).

These are *real* measurements on the host CPU, not simulation: the casted
gradient gather-reduce moves roughly half the vector bytes of the baseline
expand-coalesce and skips the expanded-tensor materialization, so it wins in
actual NumPy wall-clock — the same mechanism behind the paper's software-only
1.2-2.8x.  pytest-benchmark reports ops/sec for each primitive.

Every hot-kernel benchmark is parametrized over the pluggable kernel engine
(:mod:`repro.backends`).  Select with ``--backend NAME``; ``--backend all``
sweeps every registered backend side by side (the registry's order), which is
how the reference oracle and the vectorized NumPy engine (``auto`` is the
same kernels under another name) are compared on identical workloads.

Set ``BENCH_SMOKE=1`` to shrink the workload to a CI-friendly smoke size.
"""

import os
import time

import numpy as np
import pytest

from repro.backends import get_backend, registered_backends
from repro.core.casting import hash_casting, tensor_casting
from repro.core.coalesce import expand_coalesce
from repro.core.gather_reduce import casted_gather_reduce, gather_reduce
from repro.core.indexing import IndexArray
from repro.data.distributions import ZipfDistribution
from repro.model.optim import SGD

_SMOKE = os.environ.get("BENCH_SMOKE") == "1"
# A mid-sized workload: 64K lookups pooled into 4K outputs, 64-dim vectors
# (tiny shapes under BENCH_SMOKE).
if _SMOKE:
    BATCH, LOOKUPS, ROWS, DIM = 256, 4, 2_000, 16
else:
    BATCH, LOOKUPS, ROWS, DIM = 4_096, 16, 200_000, 64


def pytest_generate_tests(metafunc):
    """Expand ``kernel_backend`` from the ``--backend`` option."""
    if "kernel_backend" not in metafunc.fixturenames:
        return
    spec = metafunc.config.getoption("--backend")
    if spec == "all":
        names = list(registered_backends())
    elif spec is None:
        names = ["vectorized"]
    else:
        get_backend(spec)  # fail fast, listing the registered names
        names = [spec]
    metafunc.parametrize("kernel_backend", names)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    index = IndexArray(
        rng.integers(0, ROWS, BATCH * LOOKUPS),
        np.repeat(np.arange(BATCH), LOOKUPS),
        num_rows=ROWS,
        num_outputs=BATCH,
    )
    table = rng.standard_normal((ROWS, DIM)).astype(np.float32)
    gradients = rng.standard_normal((BATCH, DIM)).astype(np.float32)
    return index, table, gradients


def test_forward_gather_reduce(benchmark, workload, kernel_backend):
    index, table, _ = workload
    result = benchmark(gather_reduce, table, index, backend=kernel_backend)
    assert result.shape == (BATCH, DIM)


def test_backward_baseline_expand_coalesce(benchmark, workload, kernel_backend):
    index, _, gradients = workload
    rows, _ = benchmark(expand_coalesce, index, gradients,
                        backend=kernel_backend)
    assert rows.size == index.num_unique_sources()


def test_backward_casted_gather_reduce(benchmark, workload, kernel_backend):
    """Algorithm 3 Step B alone - the only part on the backward critical
    path once the runtime hides the cast."""
    index, _, gradients = workload
    cast = tensor_casting(index)
    rows, _ = benchmark(casted_gather_reduce, gradients, cast,
                        backend=kernel_backend)
    assert rows.size == cast.num_coalesced


def test_casting_stage(benchmark, workload, kernel_backend):
    """Algorithm 2 alone - the part the runtime hides under forward."""
    index, _, _ = workload
    cast = benchmark(tensor_casting, index, backend=kernel_backend)
    assert cast.num_lookups == index.num_lookups


def test_hash_casting_stage(benchmark, workload):
    index, _, _ = workload
    cast = benchmark(hash_casting, index)
    assert cast.num_lookups == index.num_lookups


def test_gradient_scatter_update(benchmark, workload):
    index, table, gradients = workload
    cast = tensor_casting(index)
    rows, coalesced = casted_gather_reduce(gradients, cast)

    benchmark(SGD(lr=1e-6).apply_sparse, table, rows, coalesced)


def _best_of(func, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_timings(workload):
    """Best-of-k per-primitive wall-clock, printed.

    Both backward modes are also timed on a Zipf(1.05) index of the same
    shape (the ``emb_skew`` regime: long casted segments over a tail of
    singletons, many ``segment_sum`` rounds).  Nothing here asserts speed.
    """
    index, table, gradients = workload
    cast = tensor_casting(index)
    skewed = IndexArray(
        ZipfDistribution(ROWS, 1.05).sample(
            index.num_lookups, np.random.default_rng(1)),
        index.dst,
        num_rows=ROWS,
        num_outputs=BATCH,
    )
    skewed_cast = tensor_casting(skewed)
    repeats = 3 if _SMOKE else 5
    timings = {
        "gather_reduce": _best_of(
            lambda: gather_reduce(table, index, backend="vectorized"), repeats
        ),
        "expand_coalesce": _best_of(
            lambda: expand_coalesce(index, gradients, backend="vectorized"),
            repeats,
        ),
        "casted_gather_reduce": _best_of(
            lambda: casted_gather_reduce(gradients, cast,
                                         backend="vectorized"),
            repeats,
        ),
        "tensor_casting": _best_of(
            lambda: tensor_casting(index, backend="vectorized"), repeats
        ),
        "zipf1.05/expand_coalesce": _best_of(
            lambda: expand_coalesce(skewed, gradients, backend="vectorized"),
            repeats,
        ),
        "zipf1.05/casted_gather_reduce": _best_of(
            lambda: casted_gather_reduce(gradients, skewed_cast,
                                         backend="vectorized"),
            repeats,
        ),
    }
    for kernel, seconds in sorted(timings.items()):
        print(f"\n[kernels] {kernel}: {seconds * 1e3:.3f} ms best of {repeats}")
    assert all(seconds > 0 for seconds in timings.values())


@pytest.mark.skipif(
    _SMOKE, reason="A/B wall-clock assertion needs the full-size workload"
)
def test_casted_beats_baseline_wallclock(workload):
    """Direct A/B: exposed backward path, baseline vs casted (cast hidden)."""
    index, _, gradients = workload
    cast = tensor_casting(index)

    baseline = _best_of(lambda: expand_coalesce(index, gradients))
    casted = _best_of(lambda: casted_gather_reduce(gradients, cast))
    print(f"\n[kernels] exposed backward: baseline {baseline * 1e3:.2f} ms vs "
          f"casted {casted * 1e3:.2f} ms -> {baseline / casted:.2f}x")
    assert casted < baseline


@pytest.mark.skipif(
    _SMOKE, reason="A/B wall-clock assertion needs the full-size workload"
)
def test_vectorized_beats_reference_casted_backward(workload):
    """Backend A/B at the paper's default shapes: the fused vectorized
    engine must beat the pure-Python oracle on the casted backward
    gather-reduce (the ISSUE's acceptance bar for the backend subsystem)."""
    index, _, gradients = workload
    cast = tensor_casting(index)

    reference = _best_of(
        lambda: casted_gather_reduce(gradients, cast, backend="reference"),
        repeats=3,
    )
    vectorized = _best_of(
        lambda: casted_gather_reduce(gradients, cast, backend="vectorized")
    )
    print(f"\n[backends] casted backward: reference {reference * 1e3:.2f} ms "
          f"vs vectorized {vectorized * 1e3:.2f} ms -> "
          f"{reference / vectorized:.1f}x")
    assert vectorized < reference
