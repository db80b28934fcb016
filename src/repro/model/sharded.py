"""Model-parallel embedding execution across ``N`` logical devices.

:class:`ShardedEmbeddingSet` is the multi-device counterpart of a list of
:class:`~repro.model.embedding.EmbeddingBag` layers: the same tables, striped
across shards by a :mod:`repro.core.sharding` policy, with each training
phase executed shard by shard the way ``N`` real devices would execute it in
parallel:

1. **Split** — each table's mini-batch index array is carved into per-shard
   sub-arrays (`plan_batch`);
2. **Cast** — in casted mode, each shard runs Tensor Casting
   *independently* on its sub-arrays (`cast_shard`), producing casted index
   arrays that name only the gradient rows that shard needs;
3. **Forward** — each shard gather-reduces the rows it owns
   (`forward_shard`), and the partial pooled sums cross the simulated
   all-to-all back to the sample owners (`assemble_pooled`);
4. **Backward** — the backward all-to-all delivers each shard its slice of
   the gradient tables plus its pairs, over which the shard coalesces one
   table's gradient at a time (`backward_table`): the casted gather-reduce
   (Algorithm 3) over its cast, or the baseline expand-coalesce
   (Algorithm 1) over its raw pairs when it was never cast;
5. **Update** — each coalesced gradient names parent-table rows its shard
   owns, so the optimizer scatters it straight into ``bag.table``
   (:meth:`~repro.model.optim.Optimizer.apply_sparse`), before the next
   table's gradient is reduced.

Shards hold no storage and no row numbering of their own: a shard's index
sub-arrays name rows of the wrapped bags' tables (:mod:`repro.core.sharding`),
and every kernel gathers from and scatters into ``bag.table`` itself.  Every
shard count therefore updates the very same parameters — and the very same
per-row optimizer state — and with ``num_shards=1`` (the trainer's default)
every phase runs the single-table kernels over the table's own index
arrays, bit-for-bit (the equivalence the test suite pins down).  Exchange
payloads are counted in bytes as they are "moved" — the functional
analogue of the
analytic :func:`repro.core.traffic.sharded_exchange_bytes` model, with one
deliberate difference: index pairs are charged at this runtime's in-memory
``int64`` width (8 bytes per id), whereas the analytic model charges the
DLRM ``int32`` wire format (``WorkloadStats.index_itemsize``), so the two
pair terms differ by exactly 2x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.casting import CastedIndex, tensor_casting
from ..core.coalesce import expand_coalesce
from ..core.gather_reduce import casted_gather_reduce, gather_reduce
from ..core.indexing import IndexArray
from ..core.sharding import ShardPartition, ShardSlice, make_partition, reassemble_pooled
from .embedding import EmbeddingBag

__all__ = ["ShardedStepPlan", "ShardedEmbeddingSet"]

_INDEX_ITEMSIZE = 8  # int64 ids, both halves of a (src, dst) pair


@dataclass
class ShardedStepPlan:
    """Per-batch working state of one sharded embedding pass.

    Everything is indexed ``[table][shard]``; ``None`` marks a shard that
    received no lookups of that table (an empty shard), and in ``casts``
    also a shard that was never cast (baseline mode).  Byte counters
    accumulate the simulated all-to-all payloads of this batch.
    """

    indices: List[IndexArray]
    slices: List[List[Optional[ShardSlice]]]
    casts: List[List[Optional[CastedIndex]]] = field(default_factory=list)
    partials: List[List[Optional[np.ndarray]]] = field(default_factory=list)
    table_grads: Optional[List[np.ndarray]] = None
    forward_exchange_bytes: int = 0
    backward_exchange_bytes: int = 0

    @property
    def exchange_bytes(self) -> int:
        """Total simulated all-to-all payload of the step (both directions)."""
        return self.forward_exchange_bytes + self.backward_exchange_bytes

    def tables_on(self, shard: int) -> List[int]:
        """The tables with lookups on ``shard``, in table order."""
        return [
            table_id for table_id, row in enumerate(self.slices)
            if row[shard] is not None
        ]


class ShardedEmbeddingSet:
    """A set of embedding tables partitioned across ``num_shards`` devices.

    Parameters
    ----------
    bags:
        The embedding layers to shard.  Their tables are neither copied
        nor re-numbered — shards address them by row id — so the wrapping
        :class:`~repro.model.dlrm.DLRM` remains the single source of truth
        for parameters.
    num_shards:
        Logical device count ``N``.
    policy:
        ``"row"`` (stripe rows) or ``"table"`` (whole tables round-robin);
        see :mod:`repro.core.sharding`.
    """

    def __init__(
        self,
        bags: Sequence[EmbeddingBag],
        num_shards: int,
        policy: str = "row",
    ) -> None:
        if not bags:
            raise ValueError("need at least one embedding bag to shard")
        self.bags = list(bags)
        self.partition: ShardPartition = make_partition(policy, num_shards)

    @property
    def num_shards(self) -> int:
        return self.partition.num_shards

    @property
    def num_tables(self) -> int:
        return len(self.bags)

    @property
    def policy(self) -> str:
        return self.partition.policy

    @property
    def tables(self) -> List[np.ndarray]:
        """The parent table of every bag — what every shard gathers from."""
        return [bag.table for bag in self.bags]

    # ------------------------------------------------------------------
    # Phase 1: split
    # ------------------------------------------------------------------
    def plan_batch(self, indices: Sequence[IndexArray]) -> ShardedStepPlan:
        """Split every table's index array by owning shard."""
        if len(indices) != self.num_tables:
            raise ValueError(
                f"expected {self.num_tables} index arrays, got {len(indices)}"
            )
        slices = [
            self.partition.split(index, table_id)
            for table_id, index in enumerate(indices)
        ]
        num_shards = self.num_shards
        plan = ShardedStepPlan(
            indices=list(indices),
            slices=slices,
            casts=[[None] * num_shards for _ in range(self.num_tables)],
            partials=[[None] * num_shards for _ in range(self.num_tables)],
        )
        return plan

    # ------------------------------------------------------------------
    # Phase 2: per-shard Tensor Casting
    # ------------------------------------------------------------------
    def cast_shard(self, plan: ShardedStepPlan, shard: int) -> None:
        """Run Algorithm 2 on every sub-array routed to ``shard``.

        Each shard casts only its own slice, so cast work parallelizes with
        shard count and depends only on index data available before forward
        propagation.  A shard left uncast backpropagates through the
        baseline expand-coalesce instead (:meth:`backward_table`).
        """
        for table_id, row in enumerate(plan.slices):
            slice_ = row[shard]
            if slice_ is not None:
                plan.casts[table_id][shard] = tensor_casting(slice_.index)

    # ------------------------------------------------------------------
    # Phase 3: forward
    # ------------------------------------------------------------------
    def forward_shard(self, plan: ShardedStepPlan, shard: int) -> None:
        """Gather-reduce ``shard``'s lookups into partial pooled sums.

        A slice's ``src`` names rows of the parent table, whole, so the
        gather costs what the lookups cost, not what the table does.
        """
        for table_id, (table, row) in enumerate(zip(self.tables, plan.slices)):
            slice_ = row[shard]
            if slice_ is not None:
                plan.partials[table_id][shard] = gather_reduce(
                    table, slice_.index
                )

    def assemble_pooled(self, plan: ShardedStepPlan) -> List[np.ndarray]:
        """Forward all-to-all: ship partials to sample owners and sum them.

        Returns one ``(B, dim)`` pooled tensor per table — the tensors
        :meth:`repro.model.dlrm.DLRM.forward_from_pooled` consumes.
        """
        pooled_outputs: List[np.ndarray] = []
        for table_id, bag in enumerate(self.bags):
            index = plan.indices[table_id]
            row = plan.slices[table_id]
            pooled_outputs.append(reassemble_pooled(
                row,
                plan.partials[table_id],
                num_outputs=index.num_outputs,
                dim=bag.dim,
                dtype=bag.table.dtype,
            ))
            vec_bytes = bag.dim * bag.table.dtype.itemsize
            plan.forward_exchange_bytes += sum(
                s.num_touched * vec_bytes for s in row if s is not None
            )
        return pooled_outputs

    # ------------------------------------------------------------------
    # Phase 4: backward
    # ------------------------------------------------------------------
    def prepare_backward(
        self, plan: ShardedStepPlan, grad_tables: Sequence[np.ndarray]
    ) -> None:
        """Hand the gradient tables to the per-table backward passes.

        Brings each gradient table to its table's dtype once per step
        (shards then slice the shared result, not once per shard).  Called
        by the engine outside the per-shard timing windows so the one-time
        work is not charged to whichever shard happens to run first.
        """
        if len(grad_tables) != self.num_tables:
            raise ValueError(
                f"expected {self.num_tables} gradient tables, got {len(grad_tables)}"
            )
        plan.table_grads = [
            np.asarray(grad, dtype=bag.table.dtype)
            for bag, grad in zip(self.bags, grad_tables)
        ]

    def backward_table(
        self, plan: ShardedStepPlan, shard: int, table_id: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Coalesce one table's gradient on ``shard`` (Algorithm 3 or 1).

        The backward all-to-all delivers ``grad_tables[t][touched]`` — only
        the gradient rows the shard's lookups feed, C-contiguous whatever
        layout the dense backward handed over — plus the shard's pairs: its
        cast if :meth:`cast_shard` ran, reduced by the casted gather-reduce,
        or its raw index sub-array, reduced by the baseline expand-coalesce.
        Both ship the same count of ``(src, dst)`` ids, and both payloads
        are accounted into ``plan.backward_exchange_bytes``.  Returns the
        ``(rows, values)`` pair the optimizer's
        :meth:`~repro.model.optim.Optimizer.apply_sparse` scatters into
        ``bags[table_id].table``: the rows are parent-table rows the shard
        owns, so the update needs no communication and no translation.

        :meth:`prepare_backward` must have staged the step's gradient
        tables, and ``table_id`` must have lookups on ``shard``
        (:meth:`ShardedStepPlan.tables_on`).
        """
        if plan.table_grads is None:
            raise RuntimeError(
                "backward_table called before prepare_backward staged the "
                "gradient tables"
            )
        slice_ = plan.slices[table_id][shard]
        if slice_ is None:
            raise ValueError(
                f"table {table_id} has no lookups on shard {shard}"
            )
        grad = plan.table_grads[table_id]
        grad_slice = np.ascontiguousarray(
            grad if slice_.touched is None
            else grad.take(slice_.touched, axis=0)
        )
        vec_bytes = self.bags[table_id].dim * grad_slice.dtype.itemsize
        plan.backward_exchange_bytes += (
            slice_.num_touched * vec_bytes
            + 2 * slice_.num_lookups * _INDEX_ITEMSIZE
        )
        cast = plan.casts[table_id][shard]
        if cast is None:
            return expand_coalesce(slice_.index, grad_slice)
        return casted_gather_reduce(grad_slice, cast)
