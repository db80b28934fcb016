#!/usr/bin/env python
"""Train a DLRM click-through-rate model end to end — both backward paths.

The scenario the paper's introduction motivates: an ads/e-commerce CTR model
with sparse categorical features (Criteo-like popularity skew) and dense
continuous features.  This example:

1. builds a down-scaled RM1-style DLRM,
2. trains it twice — once with the framework-default expand-coalesce
   backward, once with the Tensor-Casted backward — on identical data,
3. verifies the loss trajectories are *identical* (casting changes no
   mathematics, Section VI) while reporting the wall-clock phase breakdown
   that shows where the casted backward saves time.

Run:  python examples/train_ctr_model.py
"""

import numpy as np

from repro import DLRM, SGD, SyntheticCTRStream, ZipfDistribution, get_model
from repro.runtime import FunctionalTrainer

BATCH = 256
STEPS = 20
ROWS_PER_TABLE = 20_000


def build_model_and_stream(seed: int):
    """A laptop-sized RM1 variant with Criteo-like lookup skew."""
    config = get_model("RM1").with_overrides(
        num_tables=4, gathers_per_table=16, rows_per_table=ROWS_PER_TABLE
    )
    model = DLRM(config, rng=np.random.default_rng(seed))
    distributions = [
        ZipfDistribution(ROWS_PER_TABLE, exponent=1.1, shift=3.0)
        for _ in range(config.num_tables)
    ]
    stream = SyntheticCTRStream(
        num_tables=config.num_tables,
        num_rows=ROWS_PER_TABLE,
        lookups_per_sample=config.gathers_per_table,
        dense_features=config.dense_features,
        distributions=distributions,
        seed=seed,
    )
    return model, stream


def main() -> None:
    reports = {}
    for mode in ("baseline", "casted"):
        model, stream = build_model_and_stream(seed=7)
        trainer = FunctionalTrainer(model, stream, SGD(lr=0.2))
        reports[mode] = trainer.train(
            BATCH, STEPS, rng=np.random.default_rng(123), mode=mode
        )

    base, cast = reports["baseline"], reports["casted"]
    print(f"== Training a CTR model for {STEPS} steps at batch {BATCH} ==")
    print(f"loss: {base.initial_loss:.4f} -> {base.final_loss:.4f} (baseline backward)")
    print(f"loss: {cast.initial_loss:.4f} -> {cast.final_loss:.4f} (casted backward)")
    drift = max(abs(a - b) for a, b in zip(base.losses, cast.losses))
    print(f"max per-step loss difference: {drift:.2e}  "
          f"{'[IDENTICAL TRAJECTORIES]' if drift < 1e-9 else '[MISMATCH!]'}\n")
    if drift >= 1e-9:
        raise SystemExit("the casted and baseline trajectories differ")

    print("wall-clock phase breakdown (seconds):")
    phases = sorted(set(base.timings.totals) | set(cast.timings.totals))
    for phase in phases:
        b = base.timings.totals.get(phase, 0.0)
        c = cast.timings.totals.get(phase, 0.0)
        print(f"  {phase:10s} baseline={b:7.3f}s  casted={c:7.3f}s")
    b_bwd = base.timings.totals.get("backward", 0.0)
    c_bwd = cast.timings.totals.get("backward", 0.0) + cast.timings.totals.get(
        "casting", 0.0
    )
    if c_bwd > 0:
        print(f"\nembedding+DNN backward path: baseline {b_bwd:.3f}s vs "
              f"casted {c_bwd:.3f}s (incl. casting) -> {b_bwd / c_bwd:.2f}x")
    print("(the casting phase is the part the deployed runtime hides under "
          "forward propagation)")


if __name__ == "__main__":
    main()
