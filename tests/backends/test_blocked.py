"""The ``blocked`` engine's tiling seams, at tile sizes that force them.

The registry-wide differential sweep (``test_differential.py``) already
runs the blocked backend, but its cases are smaller than the default
2048-lookup tile — the tiled loops collapse to a single iteration there.
These tests construct :class:`~repro.backends.blocked.BlockedBackend`
instances with tiny tiles so every kernel crosses many tile boundaries,
then pin the contract that makes tiling safe:

* float64 sorted-destination results are **bit-identical** to the oracle
  and the ``vectorized`` engine (segment-aligned tiles, per-tile bincount
  in lookup order);
* float32 and unsorted-destination results are **bit-identical to the
  vectorized engine** (chunked ``np.add.at`` is invariant to the
  chunking, and ``segment_sum`` reproduces a per-lookup scatter-add bit
  for bit) and within documented tolerance of the float64 oracle;
* the results do not depend on the tile size at all — any two tilings of
  the same input agree bit for bit;
* the trainers stay bit-identical when the blocked engine runs under the
  sharded *parallel* schedule (ISSUE 10's satellite: the new engine must
  compose with every schedule, not just the serial one).
"""

import zlib

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.blocked import BlockedBackend
from repro.core.gather_reduce import gather_reduce_reference
from repro.core.indexing import IndexArray
from repro.core import scatter
from repro.data.generator import SyntheticCTRStream
from repro.model.configs import RM1
from repro.model.dlrm import DLRM
from repro.model.optim import SGD
from repro.runtime.trainer import FunctionalTrainer

FLOAT32_RTOL = 1e-5
FLOAT32_ATOL = 1e-6

VECTORIZED = get_backend("vectorized")

#: Tile sizes chosen to cut the 500-lookup cases into ~500, ~170, and ~30
#: tiles respectively — every boundary alignment path runs many times.
TINY_TILES = (1, 3, 16)

DIM = 5


def _cases():
    cases = []
    rng = np.random.default_rng(20260808)
    for seed, sorted_dst in ((0, True), (1, False), (2, True)):
        case_rng = np.random.default_rng(seed)
        dst = case_rng.integers(0, 40, 500)
        if sorted_dst:
            dst = np.sort(dst)
        cases.append((
            f"random-{'sorted' if sorted_dst else 'unsorted'}-{seed}",
            IndexArray(
                case_rng.integers(0, 90, 500), dst,
                num_rows=90, num_outputs=40,
            ),
        ))
    # One segment far wider than any tiny tile: the segment-alignment
    # search cannot split it, so the whole-segment fallback must engage.
    cases.append((
        "one-wide-segment",
        IndexArray(
            rng.integers(0, 30, 200), np.zeros(200, dtype=np.int64),
            num_rows=30, num_outputs=1,
        ),
    ))
    # A wide segment in the middle of narrow ones.
    cases.append((
        "mixed-segment-widths",
        IndexArray(
            rng.integers(0, 30, 120),
            np.sort(np.concatenate([
                np.arange(10), np.full(100, 10), 11 + np.arange(10)
            ])),
            num_rows=30, num_outputs=21,
        ),
    ))
    return cases


CASES = _cases()
CASE_IDS = [name for name, _ in CASES]


@pytest.mark.parametrize("tile", TINY_TILES)
@pytest.mark.parametrize("dtype", (np.float64, np.float32), ids=["f64", "f32"])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("weighted", [False, True],
                         ids=["unweighted", "weighted"])
class TestTiledGatherReduce:
    def test_matches_oracle_and_vectorized(self, tile, dtype, case, weighted):
        name, index = case
        rng = np.random.default_rng(zlib.crc32(f"{name}-{tile}".encode()))
        table = rng.standard_normal((index.num_rows, DIM)).astype(dtype)
        weights = None
        if weighted:
            weights = rng.standard_normal(index.num_lookups).astype(dtype)
        blocked = BlockedBackend(tile_lookups=tile)
        result = blocked.gather_reduce(table, index, weights=weights)
        oracle = gather_reduce_reference(table, index, weights)
        if dtype == np.float64:
            assert np.array_equal(result, oracle), f"{name}/tile={tile}"
        else:
            np.testing.assert_allclose(
                result, oracle, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL,
                err_msg=f"{name}/tile={tile}",
            )
        # Both dtypes: bitwise-identical to the vectorized engine (same
        # accumulation order, merely tiled).
        vectorized = VECTORIZED.gather_reduce(table, index, weights=weights)
        assert np.array_equal(result, vectorized), f"{name}/tile={tile}"

    def test_tile_size_never_changes_the_bits(self, tile, dtype, case,
                                              weighted):
        """Any two tilings of the same input agree exactly — the whole
        point of segment alignment and chunk-invariant add.at."""
        name, index = case
        rng = np.random.default_rng(zlib.crc32(f"{name}-inv".encode()))
        table = rng.standard_normal((index.num_rows, DIM)).astype(dtype)
        weights = None
        if weighted:
            weights = rng.standard_normal(index.num_lookups).astype(dtype)
        tiny = BlockedBackend(tile_lookups=tile).gather_reduce(
            table, index, weights=weights)
        default = BlockedBackend().gather_reduce(
            table, index, weights=weights)
        assert np.array_equal(tiny, default), f"{name}/tile={tile}"


@pytest.mark.parametrize("tile", TINY_TILES)
@pytest.mark.parametrize("dtype", (np.float64, np.float32), ids=["f64", "f32"])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
class TestTiledCastedBackward:
    def test_casted_backward_matches_vectorized(self, tile, dtype, case):
        """Algorithm 3 Step B through tiny tiles: identical rows, and
        values bit-identical to the vectorized engine in both dtypes
        (the casted ramp is always sorted, so f64 takes the bincount
        path and f32 the chunked-add.at path)."""
        name, index = case
        rng = np.random.default_rng(
            zlib.crc32(f"{name}-cast-{tile}".encode()))
        gradients = rng.standard_normal(
            (index.num_outputs, DIM)).astype(dtype)
        blocked = BlockedBackend(tile_lookups=tile)
        cast = blocked.cast_indices(index)
        rows, values = blocked.casted_gather_reduce(gradients, cast)
        want_rows, want_values = VECTORIZED.casted_gather_reduce(
            gradients, VECTORIZED.cast_indices(index))
        assert np.array_equal(rows, want_rows), f"{name}/tile={tile}"
        assert np.array_equal(values, want_values), f"{name}/tile={tile}"


class TestScatterUpdateIsTheSharedBody:
    """``scatter_update`` has no tile loop of its own any more: it is
    :func:`repro.core.scatter.sgd_update_rows`, the row-update body every
    engine and :class:`~repro.model.optim.SGD` run, which blocks by bytes
    of table rows.  Swept here at block heights that cut the update many
    times, against the one-statement form kept verbatim as the oracle."""

    @pytest.mark.parametrize("block_rows", (1, 3, 7))
    @pytest.mark.parametrize("dtype", (np.float64, np.float32),
                             ids=["f64", "f32"])
    def test_blocked_update_matches_unblocked(
        self, monkeypatch, block_rows, dtype
    ):
        rng = np.random.default_rng(11)
        table = rng.standard_normal((50, DIM)).astype(dtype)
        rows = np.flatnonzero(rng.random(50) < 0.5)
        gradients = rng.standard_normal((rows.size, DIM)).astype(dtype)
        unblocked = table.copy()
        unblocked[rows] -= 0.05 * gradients
        # Nothing in the library sets the block size; shrink the constant.
        monkeypatch.setattr(scatter, "UPDATE_BLOCK_BYTES",
                            block_rows * DIM * table.itemsize)
        assert len(scatter.row_blocks(table, rows)) == -(-rows.size // block_rows)
        for engine in (BlockedBackend(), VECTORIZED):
            assert np.array_equal(
                engine.scatter_update(table.copy(), rows, gradients, lr=0.05),
                unblocked)

    @pytest.mark.parametrize("bad", [-1, 50])
    def test_rejects_rows_outside_the_table(self, bad):
        table = np.ones((50, DIM))
        with pytest.raises(IndexError, match="rows must lie in"):
            BlockedBackend().scatter_update(
                table, np.array([3, bad]), np.ones((2, DIM)), lr=0.05)
        assert np.all(table == 1.0)


class TestConstruction:
    @pytest.mark.parametrize("bad", [0, -1, -2048])
    def test_rejects_nonpositive_tile_lookups(self, bad):
        with pytest.raises(ValueError, match="tile_lookups"):
            BlockedBackend(tile_lookups=bad)

    def test_registered_instance_uses_default_tiles(self):
        backend = get_backend("blocked")
        assert isinstance(backend, BlockedBackend)
        assert backend.tile_lookups > 0


class TestBlockedUnderEverySchedule:
    """The new engine composes with the sharded and parallel schedules."""

    TINY = RM1.with_overrides(
        num_tables=3,
        gathers_per_table=6,
        rows_per_table=400,
        bottom_mlp=(8, 8),
        top_mlp=(8, 1),
        embedding_dim=8,
    )

    def _run(self, backend, **kwargs):
        model = DLRM(self.TINY, rng=np.random.default_rng(0))
        stream = SyntheticCTRStream(
            num_tables=self.TINY.num_tables,
            num_rows=self.TINY.rows_per_table,
            lookups_per_sample=self.TINY.gathers_per_table,
            dense_features=self.TINY.dense_features,
            seed=0,
        )
        trainer = FunctionalTrainer(
            model, stream, SGD(lr=0.1), backend=backend, **kwargs)
        report = trainer.train(32, 2, np.random.default_rng(1))
        return model, report

    def test_parallel_schedule_matches_serial_vectorized(self):
        """Blocked engine on the parallel schedule == vectorized engine on
        the serial schedule, at the same sharding (the pinned invariant:
        schedules and engines never change the numbers; the shard
        partition is part of the workload, so it is held fixed)."""
        serial_model, serial = self._run("vectorized", num_shards=2)
        parallel_model, parallel = self._run(
            "blocked", num_shards=2, schedule="parallel", workers=2)
        assert parallel.losses == serial.losses
        for got, want in zip(
            parallel_model.all_parameters(), serial_model.all_parameters()
        ):
            assert np.array_equal(got, want)

    def test_grad_accum_schedule_runs_on_blocked(self):
        accum_model, accum = self._run("blocked", accum_steps=2)
        assert accum.steps == 2
        assert accum.samples == 2 * 2 * 32
        assert accum.backend == "blocked"
