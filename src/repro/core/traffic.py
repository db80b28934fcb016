"""Analytic memory-traffic models for embedding-layer primitives (Figure 6).

Section III-C of the paper derives, "analytically by its algorithmic
property", the bytes each primitive loads and stores — a
microarchitecture-independent measure of memory intensity.  This module
encodes those derivations exactly; they drive both the Figure 6 reproduction
and the latency models in :mod:`repro.sim` (where
``latency = bytes / effective_bandwidth`` for these bandwidth-bound kernels).

Notation (consistent with the paper):

* ``n`` — total lookups in the batch (gathers),
* ``B`` — reduced outputs / backpropagated gradient vectors,
* ``u`` — distinct table rows touched (coalesced gradient count),
* ``dim`` / ``itemsize`` — embedding vector geometry,
* index entries are ``index_itemsize`` bytes each (8 for int64).

Per-primitive accounting (one embedding vector = ``dim * itemsize`` bytes):

===================  ===============================  ========================
Primitive            Reads                            Writes
===================  ===============================  ========================
gather-reduce        ``n`` vectors + index pairs      ``B`` vectors
gradient expand      ``B`` vectors + dst index        ``n`` vectors
coalesce (sort)      ``n`` index pairs                ``n`` index pairs
coalesce (accum)     ``2n`` vectors + sorted index    ``n`` vectors
gradient scatter     ``u`` grads + ``u`` table rows   ``u`` table rows
casting              ``n`` index pairs                ``n`` casted pairs
casted gather-red.   ``n`` vectors + casted pairs     ``u`` vectors
===================  ===============================  ========================

The fused kernels — the forward gather-reduce and its casted dual — stream
to *monotone* destination slots, so partial reductions live in on-chip
registers ("on-the-fly inside the on-chip registers", Figure 2 caption) and
only the reduced result is written.  The baseline coalesce accumulation
cannot: its parallelized implementation (PyTorch's ``index_add``-style
kernel, and the paper's tuned multi-threaded variant) partitions the sorted
positions across threads, so every element performs a load-accumulate-store
on the memory-resident output — one extra vector read *and* write per
element.  These choices reproduce all three of the paper's quantitative
anchors:

* coalesce (``3n`` vectors) and scatter (``3u``) traffic dwarf the fused
  gather-reduce (``n + B``) — Section III-C, Figure 6;
* the aggregate expand+coalesce pipeline moves ``~(4n + B)`` vectors,
  "around 3x" the gather-reduce traffic for the 10-gathers-per-table study;
* the casted gather-reduce moves ``n + u <= 2n`` vectors, so the reduction
  factor ``(4n + B) / (n + u)`` is *at least* 2 — the paper's
  "algorithmically guarantees ... reduced by 2x", exposed here as
  :func:`casting_reduction_factor`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Traffic",
    "gather_reduce_traffic",
    "expand_traffic",
    "coalesce_sort_traffic",
    "coalesce_accumulate_traffic",
    "expand_coalesce_traffic",
    "scatter_traffic",
    "casting_traffic",
    "casted_gather_reduce_traffic",
    "casting_reduction_factor",
    "expected_shard_outputs",
    "sharded_exchange_bytes",
    "OPTIMIZER_STATE_SLOTS",
    "OPTIMIZER_STATE_ITEMSIZE",
    "OPTIMIZER_ROW_COUNTER_BYTES",
]

#: Extra per-row state tensors each optimizer reads *and* writes during the
#: scatter update (Equations 1-2 of the paper): plain SGD keeps none,
#: momentum/Adagrad/RMSprop keep one velocity/accumulator tensor, Adam two.
OPTIMIZER_STATE_SLOTS = {
    "sgd": 0,
    "momentum": 1,
    "adagrad": 1,
    "rmsprop": 1,
    "adam": 2,
}

#: Bytes per element of those state tensors: the optimizers keep them in
#: float64 whatever the table's dtype (``Optimizer._init_state`` in
#: :mod:`repro.model.optim`), so a float32 table's state rows are twice as
#: wide as its own.
OPTIMIZER_STATE_ITEMSIZE = 8

#: Bytes of per-row step counter each optimizer reads and writes per
#: updated row: lazy Adam counts every table row's own updates in int64
#: (``Adam._init_state``'s ``steps``); the others keep no counter.
OPTIMIZER_ROW_COUNTER_BYTES = {"adam": 8}


@dataclass(frozen=True)
class Traffic:
    """Bytes read from and written to memory by one primitive invocation."""

    reads: int
    writes: int

    @property
    def total(self) -> int:
        """Total bytes moved (reads + writes)."""
        return self.reads + self.writes

    def __add__(self, other: "Traffic") -> "Traffic":
        if not isinstance(other, Traffic):
            return NotImplemented
        return Traffic(self.reads + other.reads, self.writes + other.writes)

    def scaled(self, factor: float) -> "Traffic":
        """Traffic scaled by a multiplicative factor (e.g. table count)."""
        return Traffic(int(self.reads * factor), int(self.writes * factor))


def _vec_bytes(dim: int, itemsize: int) -> int:
    if dim <= 0 or itemsize <= 0:
        raise ValueError("dim and itemsize must be positive")
    return dim * itemsize


def gather_reduce_traffic(
    n: int, num_outputs: int, dim: int, itemsize: int = 4, index_itemsize: int = 8
) -> Traffic:
    """Forward embedding gather-reduce: read ``n`` rows + pairs, write ``B``.

    The fused kernel reduces in registers, so despite gathering ``n`` vectors
    only ``B`` reduced vectors reach memory.
    """
    vec = _vec_bytes(dim, itemsize)
    reads = n * vec + 2 * n * index_itemsize
    writes = num_outputs * vec
    return Traffic(reads, writes)


def expand_traffic(
    n: int, num_outputs: int, dim: int, itemsize: int = 4, index_itemsize: int = 8
) -> Traffic:
    """Gradient expand: read ``B`` gradients (+ dst ids), write ``n`` copies.

    The write side is the pain point — the expanded tensor is ``n/B`` times
    larger than its source and is fully materialized (Figure 5(b) shows it at
    exactly the gathers-per-table multiple).
    """
    vec = _vec_bytes(dim, itemsize)
    reads = num_outputs * vec + n * index_itemsize
    writes = n * vec
    return Traffic(reads, writes)


def coalesce_sort_traffic(n: int, index_itemsize: int = 8, passes: int = 1) -> Traffic:
    """Index-array sort inside Algorithm 1 (Step A).

    Only index pairs move (no embedding-sized vectors), so this step is
    compute-limited rather than bandwidth-limited — which is why Figure 6
    excludes it and reports only the accumulation step.  ``passes`` models
    multi-pass radix implementations.
    """
    bytes_per_pass = 2 * n * index_itemsize
    return Traffic(bytes_per_pass * passes, bytes_per_pass * passes)


def coalesce_accumulate_traffic(
    n: int, u: int, dim: int, itemsize: int = 4, index_itemsize: int = 8
) -> Traffic:
    """Gradient accumulation inside Algorithm 1 (Step B).

    Every one of the ``n`` sorted positions reads its expanded gradient
    (indirectly, through ``sorted_pos``) and performs a load-accumulate-store
    on the memory-resident coalesced output — the access pattern of the
    parallelized accumulation kernels the baseline uses (see module
    docstring).  Vector traffic is therefore ``~3n`` regardless of how well
    the batch coalesces; only the *final* output footprint shrinks with
    ``u``, not the traffic.
    """
    del u  # the coalesced row count does not reduce accumulation traffic
    vec = _vec_bytes(dim, itemsize)
    reads = 2 * n * vec + 2 * n * index_itemsize
    writes = n * vec
    return Traffic(reads, writes)


def expand_coalesce_traffic(
    n: int, num_outputs: int, u: int, dim: int, itemsize: int = 4,
    index_itemsize: int = 8,
) -> Traffic:
    """Aggregate baseline backward pipeline: expand + accumulate.

    Total vector traffic is ``B + 4n`` vectors — for the paper's
    10-gathers-per-table study this lands at roughly 3x the gather-reduce
    traffic, matching Section III-C.
    """
    return expand_traffic(n, num_outputs, dim, itemsize, index_itemsize) + (
        coalesce_accumulate_traffic(n, u, dim, itemsize, index_itemsize)
    )


def scatter_traffic(
    u: int, dim: int, itemsize: int = 4, optimizer: str = "sgd",
    index_itemsize: int = 8,
) -> Traffic:
    """Gradient scatter / model update over ``u`` coalesced rows.

    Each row is a read-modify-write of the table entry plus a read of its
    coalesced gradient, both ``itemsize`` wide; stateful optimizers add one
    read-modify-write per state tensor (Equations 1-2), billed at the width
    the state is stored at, :data:`OPTIMIZER_STATE_ITEMSIZE`, and one of
    each row's step counter where the optimizer keeps one
    (:data:`OPTIMIZER_ROW_COUNTER_BYTES`).
    """
    vec = _vec_bytes(dim, itemsize)
    try:
        state_slots = OPTIMIZER_STATE_SLOTS[optimizer]
    except KeyError:
        raise ValueError(
            f"unknown optimizer {optimizer!r}; expected one of "
            f"{sorted(OPTIMIZER_STATE_SLOTS)}"
        ) from None
    state = (state_slots * dim * OPTIMIZER_STATE_ITEMSIZE
             + OPTIMIZER_ROW_COUNTER_BYTES.get(optimizer, 0))
    reads = u * (2 * vec + state) + u * index_itemsize
    writes = u * (vec + state)
    return Traffic(reads, writes)


def casting_traffic(n: int, index_itemsize: int = 8, sort_passes: int = 1) -> Traffic:
    """Tensor Casting itself (Algorithm 2) — index-only traffic.

    Sort-by-key over the pair array plus one scan/cumsum pass producing the
    casted pair array.  Like the baseline's sort, this moves only ids, which
    is what makes it cheap enough to hide under forward propagation.
    """
    pair_bytes = 2 * n * index_itemsize
    reads = pair_bytes * sort_passes + pair_bytes
    writes = pair_bytes * sort_passes + pair_bytes
    return Traffic(reads, writes)


def casted_gather_reduce_traffic(
    n: int, u: int, dim: int, itemsize: int = 4, index_itemsize: int = 8
) -> Traffic:
    """Tensor-Casted gradient gather-reduce (Algorithm 3, Step B).

    Identical structure to the forward gather-reduce — ``n`` vector reads
    from the gradient table, ``u`` reduced vector writes — because after
    casting it *is* a gather-reduce.
    """
    vec = _vec_bytes(dim, itemsize)
    reads = n * vec + 2 * n * index_itemsize
    writes = u * vec
    return Traffic(reads, writes)


def casting_reduction_factor(
    n: int, num_outputs: int, u: int, dim: int, itemsize: int = 4
) -> float:
    """Memory-intensity ratio of expand-coalesce over casted gather-reduce.

    Equals ``(4n + B) / (n + u)``, which is at least 2 whenever ``u <= n``
    (always true) — the paper's "algorithmically guarantees ... reduced by
    2x" claim — and grows toward 4 as coalescing gets more effective
    (``u -> 0``).  Index traffic is excluded so the ratio reflects vector
    movement, the asymptotically dominant term.
    """
    if n <= 0:
        return 1.0
    vec = _vec_bytes(dim, itemsize)
    baseline = (num_outputs + 4 * n) * vec
    casted = (n + u) * vec
    return baseline / casted


def expected_shard_outputs(
    n: int,
    num_outputs: int,
    num_shards: int,
    policy: str = "row",
    num_tables: int | None = None,
) -> float:
    """Expected distinct gradient-table slots one shard touches per batch.

    In the modelled sharded runtime a shard only needs the gradient rows of
    output slots its lookups feed, so this is the per-device gradient
    payload of the backward all-to-all (in rows) and likewise the
    per-device partial-sum payload of the forward exchange — the mean
    ``num_touched`` of :meth:`repro.core.sharding.ShardPartition.split`.

    * ``policy="row"`` — rows stripe uniformly across ``N`` shards, so an
      output slot with ``L = n / num_outputs`` lookups misses a given shard
      with probability ``(1 - 1/N)^L``; the expectation is
      ``num_outputs * (1 - (1 - 1/N)^L)``.
    * ``policy="table"`` — whole tables live on one shard and every output
      slot belongs to exactly one table, so each shard owns its tables'
      slots outright: ``num_outputs / N``.  Table-wise placement cannot
      engage more shards than tables; pass ``num_tables`` to clamp ``N``
      accordingly (a busy shard must ingest at least one table's slots).

    Both expressions are monotonically non-increasing in ``num_shards`` and
    equal ``num_outputs`` at ``N = 1`` (the whole gradient table, matching
    the unsharded staging transfer).
    """
    if n < 0 or num_outputs <= 0:
        raise ValueError("n must be non-negative and num_outputs positive")
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if policy == "table":
        if num_tables is not None:
            num_shards = min(num_shards, num_tables)
        return num_outputs / num_shards
    if policy != "row":
        raise ValueError(f"unknown partition policy {policy!r}")
    if num_shards == 1:
        return float(num_outputs)
    lookups_per_output = n / num_outputs
    miss = (1.0 - 1.0 / num_shards) ** lookups_per_output
    return num_outputs * (1.0 - miss)


def sharded_exchange_bytes(
    n: int,
    num_outputs: int,
    dim: int,
    itemsize: int = 4,
    index_itemsize: int = 8,
    num_shards: int = 1,
    policy: str = "row",
    num_tables: int | None = None,
) -> int:
    """Per-device gradient-exchange bytes of one sharded backward pass.

    Each shard ingests (a) the gradient-table rows its casted index arrays
    name — :func:`expected_shard_outputs` rows of ``dim * itemsize`` bytes —
    and (b) its slice of the casted ``(src, dst)`` pair array, ``n /
    num_shards`` pairs.  This is what Tensor Casting buys in the multi-device
    regime: the baseline expand-coalesce would ship the ``n``-row *expanded*
    gradient tensor instead, which no amount of sharding compacts.

    The count is per *device* (what one shard's memory system must absorb),
    not per wire — at ``N = 1`` it equals the full gradient table plus pair
    array, and it is monotonically non-increasing as ``num_shards`` grows on
    a uniform trace.  ``num_tables`` clamps table-wise placement the same
    way as in :func:`expected_shard_outputs`.
    """
    if policy == "table" and num_tables is not None:
        num_shards = min(num_shards, num_tables)
    vec = _vec_bytes(dim, itemsize)
    rows = expected_shard_outputs(n, num_outputs, num_shards, policy)
    pair_bytes = 2 * (n / num_shards) * index_itemsize
    return int(round(rows * vec + pair_bytes))
