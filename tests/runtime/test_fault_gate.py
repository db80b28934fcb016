"""The default step takes no page faults: why ``auto`` and ``blocked`` stay.

Neither ``auto`` nor ``blocked`` wins a kernel on a NumPy-only install, but
``auto``'s first-sight probes (one timed micro-benchmark per candidate, per
shape class) leave the allocator holding the step's working set.  Every
later step reuses that memory instead of mapping and faulting in fresh
pages: at the shape below the default trainer reads about one minor fault
per step, where an explicit ``backend="vectorized"`` reads two to three
thousand.  Take the probes away — a fixed engine, or a registry where
``auto`` has one candidate and short-circuits — and this gate fails.  It
pins the reason until per-trainer workspaces make every engine fault-free,
on every policy axis the default trainer takes.

Faults are counted in a fresh interpreter per trainer, so nothing an
earlier test allocated or tuned can warm the heap for the run under test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="ru_minflt per step is a Linux measurement",
)

WARMUP_STEPS, MEASURED_STEPS = 5, 10
MAX_FAULTS_PER_STEP = 100
MODES = ("casted", "baseline")

#: RM1 at the benchmark's table shape, f32, batch 256; ``argv[1]`` holds
#: the optimizer name and the trainer keywords.
SCRIPT = f"""
import json, resource, sys
import numpy as np
from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import make_optimizer
from repro.runtime.trainer import FunctionalTrainer

optimizer, trainer_kwargs = json.loads(sys.argv[1])
config = RM1.with_overrides(
    num_tables=4, gathers_per_table=32, rows_per_table=100_000)
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
    trainer.train(256, {WARMUP_STEPS}, rng, mode=mode)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trainer.train(256, {MEASURED_STEPS}, rng, mode=mode)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    faults[mode] = (after - before) / {MEASURED_STEPS}
print(json.dumps(faults))
"""

#: The default trainer (``backend`` left at ``auto``) on each axis a
#: workspace change must keep fault-free: id -> (optimizer, keywords).
DEFAULT_TRAINERS = {
    "sgd": ("sgd", {}),
    "adam": ("adam", {}),
    "lookahead": ("sgd", {"lookahead": 1}),
    "row-shards": ("sgd", {"num_shards": 2}),
    "accum": ("sgd", {"accum_steps": 2}),
}


@pytest.fixture(scope="module")
def faults_per_step():
    """``faults_per_step(optimizer, kwargs) -> {mode: faults}``, one fresh
    interpreter per distinct trainer, measured once per module."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    measured = {}

    def measure(optimizer, trainer_kwargs):
        key = json.dumps([optimizer, trainer_kwargs], sort_keys=True)
        if key not in measured:
            result = subprocess.run(
                [sys.executable, "-c", SCRIPT, key], env=env, check=True,
                capture_output=True, text=True, timeout=600,
            )
            measured[key] = json.loads(result.stdout.strip().splitlines()[-1])
        return measured[key]

    return measure


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("trainer", sorted(DEFAULT_TRAINERS))
def test_the_default_step_is_fault_free(faults_per_step, trainer, mode):
    faults = faults_per_step(*DEFAULT_TRAINERS[trainer])[mode]
    assert faults < MAX_FAULTS_PER_STEP, (
        f"the default {trainer} trainer's {mode} step took {faults:.1f} "
        f"minor faults per step (gate: < {MAX_FAULTS_PER_STEP}); without "
        "auto's probes every step maps and faults in its temporaries afresh"
    )


@pytest.mark.skipif(
    any(name.startswith("MALLOC_") for name in os.environ),
    reason="glibc malloc tuning can make a fixed engine fault-free too",
)
@pytest.mark.parametrize("mode", MODES)
def test_the_measurement_sees_a_faulting_step(faults_per_step, mode):
    """The instrument itself: a fixed engine, which runs no probes, faults
    on every step today.  When workspaces make this test fail, ``auto`` has
    lost its reason to be the default (ROADMAP item 2)."""
    faults = faults_per_step("sgd", {"backend": "vectorized"})[mode]
    assert faults >= MAX_FAULTS_PER_STEP
