"""Partitioning embedding tables and index arrays across logical devices.

Production recommendation training shards its embedding tables
*model-parallel* across devices — the tables are far too large for any one
memory pool (Section I's capacity wall) — and pays an all-to-all exchange to
route pooled vectors and gradients between the table owners and the sample
owners.  This repository models that regime analytically
(:class:`~repro.runtime.systems.ShardedNMPSystem`, which places the
``Ours(NMP)`` record's per-shard primitives once per shard, and
:func:`~repro.core.traffic.sharded_exchange_bytes`) and executes one
device; this module is the index-level reference the model is checked
against (``tests/core/test_sharding.py``):

* :class:`RowWisePartition` — rows of every table are striped across shards
  (row ``r`` lives on shard ``r % N``), the load-balanced default;
* :class:`TableWisePartition` — whole tables are assigned round-robin to
  shards, the placement DLRM-style systems use when tables are many and
  small;
* :meth:`ShardPartition.split` — carve one mini-batch
  :class:`~repro.core.indexing.IndexArray` into per-shard sub-arrays whose
  ``src`` ids are the lookups the shard owns and whose ``dst`` ids are
  compacted to the output slots that shard actually touches.  When one
  shard owns the whole table (one shard, or the table policy) the split is
  free: that shard's slice *is* the table's index array.

There is one row space.  A shard *names* rows of the parent table — ``src``
stays the parent's row id, the way RecNMP's rank-level units are addressed
in the host's single address space with interleaving deciding ownership
(PAPERS.md) — so :meth:`ShardPartition.owner_of_rows` is everything a
partition knows.

The compaction is the point of contact with Tensor Casting: each sub-array is
a self-contained ``(src, dst)`` index array, so each shard could run
Algorithm 2 *independently* on its slice, and the resulting casted index
arrays name only the gradient-table rows the shard needs — which is exactly
the compact payload the backward all-to-all ships.  Its ``num_touched`` is
what :func:`repro.core.traffic.expected_shard_outputs` predicts (see
:func:`repro.core.traffic.sharded_exchange_bytes` for the analytic byte
count and :class:`repro.sim.interconnect.AllToAll` for its latency).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from .indexing import IndexArray

__all__ = [
    "ShardSlice",
    "ShardPartition",
    "RowWisePartition",
    "TableWisePartition",
    "PARTITION_POLICIES",
    "make_partition",
]


@dataclass(frozen=True)
class ShardSlice:
    """One shard's view of a mini-batch index array.

    Attributes
    ----------
    shard:
        Owning shard id.
    index:
        The shard's :class:`IndexArray`: ``src`` values are rows of the
        parent table (the ones this shard owns), ``dst`` values are
        positions into ``touched``.
    touched:
        Ascending global output slots (gradient-table rows) this shard's
        lookups feed.  These are the rows the backward all-to-all must
        deliver to the shard, and the rows whose forward partial sums the
        shard would ship back to the sample owners.  ``None`` for a *whole*
        slice — the shard owns every lookup of the table, ``index`` is the
        table's own index array and its ``dst`` are global slots already.
    positions:
        Positions of this slice's lookups in the original flat index array
        (ascending), kept so tests can reassemble losslessly; ``None`` for
        a whole slice, whose positions are all of them.
    """

    shard: int
    index: IndexArray
    touched: Optional[np.ndarray] = None
    positions: Optional[np.ndarray] = None

    @property
    def num_lookups(self) -> int:
        """Lookups routed to this shard."""
        return self.index.num_lookups

    @cached_property
    def num_touched(self) -> int:
        """Distinct global output slots the shard participates in.

        For a whole slice these are the outputs with at least one lookup —
        an empty bag receives nothing, whichever way the table is split.
        """
        if self.touched is None:
            return int(np.count_nonzero(self.index.lookups_per_output()))
        return int(self.touched.size)


class ShardPartition:
    """Base class: a placement of table rows onto ``num_shards`` devices."""

    policy = "abstract"

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = int(num_shards)

    # -- row placement --------------------------------------------------
    def owner_of_rows(self, table_id: int, rows: np.ndarray) -> np.ndarray:
        """Owning shard of each global row id of ``table_id``."""
        raise NotImplementedError

    def sole_owner(self, table_id: int) -> Optional[int]:
        """The shard owning every row of ``table_id``, if one does."""
        return 0 if self.num_shards == 1 else None

    # -- index splitting -------------------------------------------------
    def split(self, index: IndexArray, table_id: int) -> List[Optional[ShardSlice]]:
        """Split one table's mini-batch index array by owning shard.

        Returns a length-``num_shards`` list; entries are ``None`` for shards
        that receive no lookups of this table in this batch (an *empty
        shard* — skew or table-wise placement make it routine).  A table with a :meth:`sole_owner`
        costs nothing to split: the owner's slice is ``index`` itself.
        """
        owner = self.sole_owner(table_id)
        if owner is not None:
            whole: List[Optional[ShardSlice]] = [None] * self.num_shards
            if index.num_lookups:
                whole[owner] = ShardSlice(shard=owner, index=index)
            return whole
        owners = self.owner_of_rows(table_id, index.src)
        slices: List[Optional[ShardSlice]] = []
        for shard in range(self.num_shards):
            positions = np.flatnonzero(owners == shard)
            if positions.size == 0:
                slices.append(None)
                continue
            dst_global = index.dst[positions]
            touched = np.unique(dst_global)
            local = IndexArray(
                index.src[positions],
                np.searchsorted(touched, dst_global),
                num_rows=index.num_rows,
                num_outputs=int(touched.size),
            )
            slices.append(
                ShardSlice(
                    shard=shard,
                    index=local,
                    touched=touched,
                    positions=positions,
                )
            )
        return slices


class RowWisePartition(ShardPartition):
    """Stripe each table's rows across shards: row ``r`` on shard ``r % N``.

    The modulo striping keeps popular rows spread out even under power-law
    popularity (consecutive ids tend to have correlated popularity in real
    catalogs), the same motivation as TensorDIMM's address interleaving —
    here applied at device rather than rank granularity.
    """

    policy = "row"

    def owner_of_rows(self, table_id: int, rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows) % self.num_shards


class TableWisePartition(ShardPartition):
    """Assign whole tables round-robin: table ``t`` on shard ``t % N``.

    Lookups never split within a table, so per-shard index arrays are exactly
    the original per-table arrays — the cheapest exchange bookkeeping — at
    the cost of load imbalance when tables differ in size or traffic.
    """

    policy = "table"

    def owner_of_table(self, table_id: int) -> int:
        """The single shard holding all of ``table_id``."""
        if table_id < 0:
            raise ValueError(f"table_id must be non-negative, got {table_id}")
        return table_id % self.num_shards

    def owner_of_rows(self, table_id: int, rows: np.ndarray) -> np.ndarray:
        owner = self.owner_of_table(table_id)
        return np.full(np.asarray(rows).shape, owner, dtype=np.int64)

    def sole_owner(self, table_id: int) -> Optional[int]:
        return self.owner_of_table(table_id)


#: Registered partition policies, keyed by CLI/trainer spelling.
PARTITION_POLICIES = {
    "row": RowWisePartition,
    "table": TableWisePartition,
}


def make_partition(policy: str, num_shards: int) -> ShardPartition:
    """Instantiate a partition by policy name (``"row"`` or ``"table"``)."""
    try:
        cls = PARTITION_POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown partition policy {policy!r}; expected one of "
            f"{sorted(PARTITION_POLICIES)}"
        ) from None
    return cls(num_shards)
