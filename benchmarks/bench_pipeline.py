"""Pipelined vs serial trainer wall-clock (the Section IV-B overlap, measured).

Times whole training runs of :class:`FunctionalTrainer` serial
(``lookahead=0``) and double-buffered (``lookahead=1``) on the same
down-scaled DLRM, at the default single shard and at 2 shards.  The pipelined rows should match
or beat the serial rows: the casting stage (index splitting included) of
batch ``i+1`` runs on a background worker while batch ``i`` trains.

Set ``BENCH_SMOKE=1`` to shrink every shape to a seconds-long smoke run
(used by the CI benchmarks job to catch bit-rot without paying full size).
"""

import os

import numpy as np
import pytest

from repro.data.generator import SyntheticCTRStream
from repro.model import DLRM, SGD
from repro.model.configs import RM1
from repro.runtime.trainer import FunctionalTrainer

_SMOKE = os.environ.get("BENCH_SMOKE") == "1"
BATCH, STEPS = (64, 2) if _SMOKE else (1024, 6)
CONFIG = RM1.with_overrides(
    num_tables=4,
    gathers_per_table=8 if _SMOKE else 16,
    rows_per_table=2_000 if _SMOKE else 50_000,
    bottom_mlp=(32, 16),
    top_mlp=(16, 1),
    embedding_dim=16,
)


def make_trainer(lookahead, num_shards=1):
    model = DLRM(CONFIG, rng=np.random.default_rng(0), dtype=np.float32)
    stream = SyntheticCTRStream(
        num_tables=CONFIG.num_tables,
        num_rows=CONFIG.rows_per_table,
        lookups_per_sample=CONFIG.gathers_per_table,
        dense_features=CONFIG.dense_features,
        seed=0,
    )
    return FunctionalTrainer(model, stream, SGD(lr=0.1), num_shards=num_shards,
                             lookahead=lookahead)


@pytest.mark.parametrize("lookahead", [0, 1], ids=["serial", "pipelined"])
def test_unsharded_training_wallclock(benchmark, lookahead):
    trainer = make_trainer(lookahead)
    rng = np.random.default_rng(1)
    report = benchmark(lambda: trainer.train(BATCH, STEPS, rng))
    assert report.steps == STEPS
    assert report.wall_seconds > 0


@pytest.mark.parametrize("lookahead", [0, 1], ids=["serial", "pipelined"])
def test_sharded_training_wallclock(benchmark, lookahead):
    trainer = make_trainer(lookahead, num_shards=2)
    rng = np.random.default_rng(1)
    report = benchmark(lambda: trainer.train(BATCH, STEPS, rng))
    assert report.steps == STEPS
    assert report.exchange_bytes == (
        report.forward_exchange_bytes + report.backward_exchange_bytes
    )


def test_pipeline_hides_the_cast():
    """The pipeline's exposed cast wait is a small fraction of the cast cost.

    This is the executed analogue of Figure 9(b): the casting stage still
    runs in full (worker-side ``casting`` time), but the step loop barely
    waits for it (``cast_wait``).
    """
    trainer = make_trainer(1)
    report = trainer.train(BATCH, STEPS, np.random.default_rng(1))
    casting = report.timings.totals["casting"]
    cast_wait = report.timings.totals["cast_wait"]
    print(
        f"\n[pipeline] casting (hidden) {casting * 1e3:.2f} ms vs "
        f"cast_wait (exposed) {cast_wait * 1e3:.2f} ms"
    )
    assert casting > 0
    # On a loaded or single-core host the worker may get no spare cycles, so
    # the wait can approach the full cast time; only assert hiding where the
    # hardware can actually provide it (cf. the overlap formatter's note).
    if not _SMOKE and (os.cpu_count() or 1) >= 2:
        assert cast_wait < casting
