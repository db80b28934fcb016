"""The one order-preserving accumulation primitive of the core kernels.

Every reduction the paper describes — the forward gather-reduce
(Figure 2(a)), the casted backward (Algorithm 3) and Step B of the baseline
coalesce (Algorithm 1) — is ``out[dst[i]] += source[src[i]]``, and
every hot caller hands it *sorted* destinations: the bag-major forward
``dst``, the casted ``0..u-1`` ramp, Algorithm 1's sorted copy.
:func:`segment_sum` exploits that without giving up the repository's
numeric contract (each output row is accumulated one addend at a time, in
lookup order — the association of ``np.add.at`` and of the pure-Python
oracle):

1. cut ``dst`` into segments (runs of equal destination) and write the
   first lookup of every segment into the result;
2. order the segments longer than one longest-first and take their partial
   sums into one compact buffer, so the segments with more than ``r``
   lookups are always a prefix of it: round ``r`` adds the ``r``-th lookup
   of each into that prefix with one contiguous add, and row ``k`` sees
   ``((v0 + v1) + v2) + ...``;
3. the rounds stop at the *h-index* of the segment lengths (round ``r``
   runs only while more than ``r`` segments are still active), the at most
   ``h`` longer segments are each folded whole by one row-sequential
   reduction, and one whole-row store writes the buffer back.

The number of NumPy calls is therefore bounded by the data — 32 rounds for
32-lookup bags, about 4 for a near-duplicate-free casted backward, about
40 + 40 for a Zipf-skewed one — with nothing to tune, and no round runs
NumPy's general fancy-index path: rows move by ``take`` and by
:func:`_store_rows`, which the sparse update's walk
(:func:`repro.core.scatter.update_rows`) shares.  This module imports NumPy
only, so every kernel module of :mod:`repro.core` shares it without an
import cycle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["run_starts", "segment_sum", "sort_by_key"]


def run_starts(ids: np.ndarray) -> np.ndarray:
    """Start offset of every run of equal values in ``ids`` (empty for none)."""
    return np.flatnonzero(np.diff(ids, prepend=ids[:1] - 1))


def sort_by_key(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable SortByKey: ``(keys[order], order)`` for the stable ``order``.

    The one sort of both backward modes — Algorithm 2 line 3
    (:func:`repro.core.casting.tensor_casting`) and
    Algorithm 1 Step A (:func:`repro.core.coalesce.gradient_coalesce`) — so
    the comparator stays fair.  Integer keys are packed with their position,
    ``(key << bits) | i`` with ``bits = (n - 1).bit_length()``: packed keys
    are unique, so sorting *them* (any algorithm, in place) yields the
    stable order, and a shift and a mask unpack both results — several
    times faster than ``argsort(kind="stable")`` plus a gather.  That sort
    remains the fallback when a key is negative or a packed key would not
    fit 62 bits, a guard read from the data with nothing to set.  Index
    dtypes only: ``sorted_keys`` comes back as the keys' dtype on the
    fallback and as int64 on the packed path, ``order`` as int64.
    """
    n = keys.size
    bits = (n - 1).bit_length()
    if n and keys.min() >= 0 and int(keys.max()).bit_length() + bits <= 62:
        packed = keys.astype(np.int64, copy=False) << bits
        packed |= np.arange(n)
        packed.sort()
        return packed >> bits, packed & ((1 << bits) - 1)
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def _fold(block: np.ndarray) -> np.ndarray:
    """Left fold ``((b[0] + b[1]) + b[2]) + ...`` of the rows of ``block``.

    NumPy sums pairwise only along the fast axis in memory, so reducing a
    block whose rows are the slow axis adds one row at a time, vectorised
    across the row.  A width-1 (or column-major) block is one long fast
    axis to NumPy and would be summed pairwise; ``accumulate`` is
    sequential by definition and costs nothing extra on a single column.
    ``tests/core/test_segment.py`` pins both forms against a Python fold
    (the NumPy-order canary): should a NumPy release ever reorder the
    first, return the second for every block.
    """
    if block.flags.c_contiguous and not block.flags.f_contiguous:
        return np.add.reduce(block, axis=0)
    return np.add.accumulate(block, axis=0)[-1]


def _store_rows(target: np.ndarray, ids: np.ndarray, values: np.ndarray) -> None:
    """``target[ids] = values`` for whole rows, in place.

    Both sides are viewed as one ``np.void`` element per row and stored with
    a 1-D integer index: a row moves as one memcpy instead of through NumPy's
    general fancy-index path.  The view shares ``target``'s memory, so a
    row-strided target (``table[lo:hi]``, ``table[1::2]``) is written in
    place — unlike ``np.put``, which copies a non-contiguous target whole.
    Bytes are copied, not converted, so the dtypes must match; duplicate ids
    keep the last value, as the fancy store does.  A layout with no
    contiguous row (column-strided or zero-width) takes the fancy store, and
    so does a 1-D target, whose rows are single elements (a per-row
    counter of optimizer state).
    """
    if target.dtype != values.dtype:
        raise TypeError(
            f"row store needs equal dtypes, got {values.dtype} into {target.dtype}"
        )
    itemsize = target.itemsize
    contiguous_rows = target.strides[-1] == itemsize == values.strides[-1]
    if target.ndim == 1 or not (target.shape[1] and contiguous_rows):
        target[ids] = values
        return
    row = np.dtype((np.void, target.shape[1] * itemsize))
    target.view(row)[:, 0][ids] = values.view(row)[:, 0]


def segment_sum(
    source: np.ndarray,
    src: np.ndarray | None,
    dst: np.ndarray,
    num_outputs: int,
    starts: np.ndarray | None = None,
) -> np.ndarray:
    """``out[dst[i]] += source[src[i]]`` in strict lookup order, into a new
    ``out`` of zeros.

    Parameters
    ----------
    source:
        ``(rows, dim)`` table the addends are gathered from (an embedding
        table, a row-sliced view of one, or the ``(B, dim)`` gradients).
    src:
        ``(n,)`` row of ``source`` each lookup reads; ``None`` is the
        identity gather (lookup ``i`` reads row ``i``).
    dst:
        ``(n,)`` output row each lookup is reduced into, values in
        ``[0, num_outputs)``.  Unsorted destinations are stable-argsorted
        first, which keeps lookup order within every row.
    num_outputs:
        Rows of the result; rows no lookup names stay zero.  The first
        addend of each segment is written straight into the result — no
        zero-fill when every row has a segment, and beside it only the
        compact buffer of the segments longer than one (none when
        equal-length segments cover every output row).
    starts:
        Optional precomputed start offset of every run of a
        *non-decreasing* ``dst`` (``CastedIndex.segment_starts()``); skips
        the sortedness and boundary scans.

    Returns
    -------
    A new ``(num_outputs, dim)`` array of ``source.dtype``.
    """
    n, shape, dtype = dst.size, (num_outputs, source.shape[1]), source.dtype
    if n == 0:
        return np.zeros(shape, dtype=dtype)
    if starts is None:
        if np.any(dst[1:] < dst[:-1]):
            order = np.argsort(dst, kind="stable")
            dst = dst[order]
            src = order if src is None else src[order]
        starts = run_starts(dst)

    def addends(positions: np.ndarray | slice) -> np.ndarray:
        lookups = positions if src is None else src[positions]
        if isinstance(lookups, slice):
            return source[lookups]
        # take gathers rows measurably faster than fancy indexing
        return source.take(lookups, axis=0)

    rows, first, length = dst[starts], starts, np.diff(starts, append=n)
    if starts.size == num_outputs:
        result = addends(starts)
    else:
        result = np.zeros(shape, dtype=dtype)
        _store_rows(result, rows, addends(starts))
    # The segments longer than one, longest first, with their partial sums in
    # a compact buffer: the ``active[r]`` segments longer than ``r`` are then
    # its prefix, so round ``r`` adds into ``acc[:active[r]]`` — no fancy
    # write and no compaction per round.
    long = np.flatnonzero(length > 1)
    ordered = not np.any(np.diff(length[long]) > 0)
    if not ordered:
        long = long[np.argsort(-length[long], kind="stable")]
    rows, first, length = rows[long], first[long], length[long]
    active = np.searchsorted(-length, -np.arange(length.size + 2), "left")
    # When every output row has such a segment and they already run
    # longest-first (a fixed pooling factor), that buffer is the result.
    in_place = ordered and long.size == num_outputs
    acc = result if in_place else result.take(rows, axis=0)
    rank = 1
    while active[rank] > rank:  # the h-index cut: fewer segments than rounds
        acc[: active[rank]] += addends(first[: active[rank]] + rank)
        rank += 1
    for k in range(active[rank]):
        acc[k] = _fold(addends(slice(first[k], first[k] + length[k])))
    if not in_place:
        _store_rows(result, rows, acc)
    return result
