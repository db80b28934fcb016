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
   the gradient tables plus its pairs, over which the shard coalesces its
   gradients (`backward_shard`): the casted gather-reduce (Algorithm 3)
   over its cast, or the baseline expand-coalesce (Algorithm 1) over its
   raw pairs when it was never cast;
5. **Update** — each shard scatters its coalesced gradients into the rows
   it owns through the optimizer (`update_shard`).

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
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..core.casting import CastedIndex, tensor_casting
from ..core.coalesce import expand_coalesce
from ..core.gather_reduce import casted_gather_reduce, gather_reduce
from ..core.indexing import IndexArray
from ..core.sharding import ShardPartition, ShardSlice, make_partition, reassemble_pooled
from .embedding import EmbeddingBag
from .optim import Optimizer

if TYPE_CHECKING:  # runtime import stays deferred to avoid the cycle
    from ..backends.dispatch import BackendSpec

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
    #: The gradient tables prepare_backward staged from, held by reference
    #: so the identity check in backward_shard stays sound (bare id()s could
    #: be recycled once a caller drops the originals).
    staged_grads: Optional[List[np.ndarray]] = None
    forward_exchange_bytes: int = 0
    backward_exchange_bytes: int = 0

    @property
    def exchange_bytes(self) -> int:
        """Total simulated all-to-all payload of the step (both directions)."""
        return self.forward_exchange_bytes + self.backward_exchange_bytes


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
    backend:
        Kernel engine forwarded into every per-shard kernel launch
        (casting, gather-reduce, casted backward): a registered backend
        name, a :class:`~repro.backends.base.KernelBackend` instance, or
        ``None`` for the process default.  On real multi-device deployments
        this is where heterogeneous pools plug in — each shard's kernels
        route through whatever engine its device runs.
    """

    def __init__(
        self,
        bags: Sequence[EmbeddingBag],
        num_shards: int,
        policy: str = "row",
        backend: "BackendSpec" = None,
    ) -> None:
        if not bags:
            raise ValueError("need at least one embedding bag to shard")
        self.bags = list(bags)
        self.backend = backend
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
        baseline expand-coalesce instead (:meth:`backward_shard`).
        """
        for table_id, row in enumerate(plan.slices):
            slice_ = row[shard]
            if slice_ is not None:
                plan.casts[table_id][shard] = tensor_casting(
                    slice_.index, backend=self.backend
                )

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
                    table, slice_.index, backend=self.backend
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
        """Hand the gradient tables to the per-shard backward passes.

        Brings each gradient table to its table's dtype once per step
        (shards then slice the shared result, not once per shard).  Called
        by the engine outside the per-shard timing windows so the one-time
        work is not charged to whichever shard happens to run first;
        :meth:`backward_shard` falls back to it lazily for direct API use.
        """
        if len(grad_tables) != self.num_tables:
            raise ValueError(
                f"expected {self.num_tables} gradient tables, got {len(grad_tables)}"
            )
        plan.table_grads = [
            np.asarray(grad, dtype=bag.table.dtype)
            for bag, grad in zip(self.bags, grad_tables)
        ]
        plan.staged_grads = list(grad_tables)

    def backward_shard(
        self,
        plan: ShardedStepPlan,
        shard: int,
        grad_tables: Sequence[np.ndarray],
    ) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """Coalesce ``shard``'s gradient slices (Algorithm 3 or 1).

        The backward all-to-all delivers ``grad_tables[t][touched]`` — only
        the gradient rows the shard's lookups feed, C-contiguous whatever
        layout the dense backward handed over — plus the shard's pairs: its
        cast if :meth:`cast_shard` ran, reduced by the casted gather-reduce,
        or its raw index sub-array, reduced by the baseline expand-coalesce.
        Both ship the same count of ``(src, dst)`` ids, and both payloads
        are accounted into ``plan.backward_exchange_bytes``.  Returns
        ``(table_id, rows, values)`` triples ready for :meth:`update_shard`.
        """
        if plan.table_grads is None:
            self.prepare_backward(plan, grad_tables)
        elif plan.staged_grads is None or len(plan.staged_grads) != len(
            grad_tables
        ) or any(
            staged is not grad
            for staged, grad in zip(plan.staged_grads, grad_tables)
        ):
            raise ValueError(
                "gradient tables differ from the ones staged by "
                "prepare_backward; re-stage before running backward_shard"
            )
        coalesced: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for table_id, bag in enumerate(self.bags):
            slice_ = plan.slices[table_id][shard]
            if slice_ is None:
                continue
            grad = plan.table_grads[table_id]
            grad_slice = np.ascontiguousarray(
                grad if slice_.touched is None
                else grad.take(slice_.touched, axis=0)
            )
            vec_bytes = bag.dim * grad_slice.dtype.itemsize
            plan.backward_exchange_bytes += (
                slice_.num_touched * vec_bytes
                + 2 * slice_.num_lookups * _INDEX_ITEMSIZE
            )
            cast = plan.casts[table_id][shard]
            if cast is None:
                rows, values = expand_coalesce(
                    slice_.index, grad_slice, backend=self.backend
                )
            else:
                rows, values = casted_gather_reduce(
                    grad_slice, cast, backend=self.backend
                )
            coalesced.append((table_id, rows, values))
        return coalesced

    # ------------------------------------------------------------------
    # Phase 5: update
    # ------------------------------------------------------------------
    def update_shard(
        self,
        shard: int,
        coalesced: Sequence[tuple[int, np.ndarray, np.ndarray]],
        optimizer: Optimizer,
    ) -> None:
        """Scatter ``shard``'s coalesced gradients into the parent tables.

        ``coalesced`` is :meth:`backward_shard`'s product for ``shard``: its
        rows are parent-table rows that shard owns, so the scatter needs no
        communication and no translation — each device updates (and touches
        optimizer state for) exactly its own rows of ``bag.table``.
        """
        for table_id, rows, values in coalesced:
            optimizer.apply_sparse(self.bags[table_id].table, rows, values)
