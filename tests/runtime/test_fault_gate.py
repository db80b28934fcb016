"""Every training step takes no page faults: the allocator is decided once.

A step allocates the same temporaries every time and frees them before the
next.  Under glibc's default policy each block above the mmap threshold is
a fresh mapping, unmapped again on ``free``, so every step faults its
temporaries in afresh — thousands of minor faults per step at the shapes
below.  ``FunctionalTrainer`` calls
:func:`repro.runtime.memory.retain_freed_memory`, which fixes the mmap
threshold at 256 MiB and the trim threshold at 512 MiB, so a step reuses
the pages an earlier step touched.

The gate holds every axis the default trainer takes and one table whose ``(n, dim)`` float32 array (42 MB at batch
2048 x 80 gathers) is past the 32 MiB cap of glibc's *dynamic* threshold,
under 100 faults per step in both modes.  The instrument test runs the
same step with ``MALLOC_MMAP_THRESHOLD_`` set — glibc's default threshold,
fixed, which ``retain_freed_memory`` leaves alone — and must see it fault.

Faults are counted in a fresh interpreter per cell, with the caller's
``MALLOC_*`` and ``GLIBC_TUNABLES`` cleared, so neither an earlier test's
allocations nor the user's malloc tuning can warm the heap for the run
under test.

The same interpreter reports its peak resident set: the default trainer's
run — build and every step, both modes — must peak at the interpreter it
started from plus its tables plus :data:`STEP_ALLOWANCE_BYTES`.  Building
each table as one float64 draw cast down instead of chunk by chunk breaks
it.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="ru_minflt per step under glibc malloc is a Linux/glibc measurement",
)

WARMUP_STEPS, MEASURED_STEPS = 5, 10
MAX_FAULTS_PER_STEP = 100
MODES = ("casted", "baseline")
#: Peak resident bytes the default cell may hold above its interpreter and
#: its tables: one init chunk and the steps' heap.  It read 22.5 MiB (the
#: whole-table float64 init: 46 MiB) on x86-64 Linux, glibc, NumPy 2.
STEP_ALLOWANCE_BYTES = 34 << 20

#: RM1 with ``argv[1]``'s table overrides, f32; ``argv[1]`` also holds the
#: optimizer name, the trainer keywords and the batch size.
SCRIPT = f"""
import json, resource, sys
import numpy as np
from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import make_optimizer
from repro.runtime.trainer import FunctionalTrainer

optimizer, trainer_kwargs, tables, batch = json.loads(sys.argv[1])
start_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
config = RM1.with_overrides(**tables)
model = DLRM(config, rng=np.random.default_rng(0), dtype=np.float32)
stream = SyntheticCTRStream(
    num_tables=config.num_tables, num_rows=config.rows_per_table,
    lookups_per_sample=config.gathers_per_table,
    dense_features=config.dense_features, seed=0)
trainer = FunctionalTrainer(
    model, stream, make_optimizer(optimizer, lr=0.1), **trainer_kwargs)
faults = {{}}
for mode in {MODES!r}:
    rng = np.random.default_rng(1)
    trainer.train(batch, {WARMUP_STEPS}, rng, mode=mode)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trainer.train(batch, {MEASURED_STEPS}, rng, mode=mode)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    faults[mode] = (after - before) / {MEASURED_STEPS}
print(json.dumps({{
    "faults": faults,
    "start_rss_bytes": start_rss * 1024,
    "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
    "table_bytes": sum(bag.table.nbytes for bag in model.embeddings),
}}))
"""

#: The benchmark's table shape, at batch 256.
BENCHMARK_TABLES = (
    {"num_tables": 4, "gathers_per_table": 32, "rows_per_table": 100_000}, 256)
#: One table at the paper's pooling and batch: a 42 MB ``(n, dim)`` array.
PAPER_BATCH_TABLE = (
    {"num_tables": 1, "gathers_per_table": 80, "rows_per_table": 100_000},
    2048)

#: id -> (optimizer, trainer keywords, (table overrides, batch)).
CELLS = {
    "sgd": ("sgd", {}, BENCHMARK_TABLES),
    "adam": ("adam", {}, BENCHMARK_TABLES),
    "lookahead": ("sgd", {"lookahead": 1}, BENCHMARK_TABLES),
    "42mb-table": ("sgd", {}, PAPER_BATCH_TABLE),
}


@pytest.fixture(scope="module")
def measured_run():
    """``measured_run(cell, **env) -> {"faults": {mode: faults per step},
    "start_rss_bytes", "peak_rss_bytes", "table_bytes"}``, one fresh
    interpreter per distinct (cell, env), measured once per module."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    base_env = {
        name: value for name, value in os.environ.items()
        if not name.startswith("MALLOC_") and name != "GLIBC_TUNABLES"
    }
    base_env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    measured = {}

    def measure(cell, **env):
        optimizer, trainer_kwargs, (tables, batch) = CELLS[cell]
        arg = json.dumps([optimizer, trainer_kwargs, tables, batch])
        key = (arg, tuple(sorted(env.items())))
        if key not in measured:
            result = subprocess.run(
                [sys.executable, "-c", SCRIPT, arg], env={**base_env, **env},
                check=True, capture_output=True, text=True, timeout=600,
            )
            measured[key] = json.loads(result.stdout.strip().splitlines()[-1])
        return measured[key]

    return measure


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_the_step_is_fault_free(measured_run, cell, mode):
    faults = measured_run(cell)["faults"][mode]
    assert faults < MAX_FAULTS_PER_STEP, (
        f"the {cell} trainer's {mode} step took {faults:.1f} minor faults "
        f"per step (gate: < {MAX_FAULTS_PER_STEP}); every step maps and "
        "faults in its temporaries afresh unless retain_freed_memory() "
        "kept them in the heap"
    )


@pytest.mark.parametrize("mode", MODES)
def test_the_measurement_sees_a_faulting_step(measured_run, mode):
    """The instrument itself: with glibc's default threshold fixed by the
    environment, ``retain_freed_memory`` stands aside and the same default
    step faults on every step."""
    run = measured_run("sgd", MALLOC_MMAP_THRESHOLD_="131072")
    assert run["faults"][mode] >= MAX_FAULTS_PER_STEP


def test_the_default_trainer_peaks_at_its_tables(measured_run):
    """Only the default allocator policy is gated: the instrument cell's
    ``MALLOC_*`` setting hands freed blocks back, which moves the peak."""
    run = measured_run("sgd")
    above = run["peak_rss_bytes"] - run["start_rss_bytes"] - run["table_bytes"]
    assert above <= STEP_ALLOWANCE_BYTES, (
        f"the default trainer peaked {above / 2**20:.1f} MiB above its "
        f"interpreter and its {run['table_bytes'] / 2**20:.1f} MiB of tables "
        f"(gate: {STEP_ALLOWANCE_BYTES / 2**20:.0f} MiB): a table build or a "
        "step holds more than one table's work at a time"
    )
