"""``segment_sum``: the NumPy engines' one definition of accumulation order.

The contract is *bit* equality with a per-lookup scatter-add
(``np.add.at`` into zeros) and with a Python left fold — in both dtypes,
on every segment profile the kernels meet — because every trainer
bit-identity pin in the repo rests on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segment import (
    _fold, _store_rows, run_starts, segment_sum, sort_by_key,
)

DTYPES = (np.float64, np.float32)
DTYPE_IDS = ["f64", "f32"]
DIMS = (1, 3, 64)
#: Memory orders a source reaches ``segment_sum`` in: the tables and
#: gradients are row-major; a column-major one takes ``_fold``'s
#: ``accumulate`` branch whenever a whole source block is folded.
LAYOUTS = {"row-major": np.ascontiguousarray, "column-major": np.asfortranarray}


def _dst_from_lengths(lengths):
    """Sorted ``dst`` whose row ``k`` has ``lengths[k]`` lookups (0 = empty bag)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.repeat(np.arange(lengths.size), lengths), int(lengths.size)


def _zipf_lengths(rng):
    """Row frequencies of 4 000 Zipf(1.05) lookups — the casted backward of
    a skewed table: a few very long segments over a tail of singletons."""
    rows = np.minimum(rng.zipf(1.05, 4000), 800)
    return np.unique(rows, return_counts=True)[1]


#: name -> segment lengths, output row by output row.
PROFILES = {
    "all-length-1": [1] * 50,
    "equal-2": [2] * 40,
    "equal-32": [32] * 40,
    "zipf-1.05": _zipf_lengths(np.random.default_rng(5)),
    "one-giant": [10_000],
    # h-index cuts: exactly h segments of length h (no fold), h of h+1
    # (all folded), h+1 of h, and a ragged mix around the cut.
    "h-exact": [5] * 5,
    "h-all-long": [6] * 5,
    "h-one-spare": [5] * 6,
    "h-ragged": [1, 1, 2, 3, 4, 5, 6, 40, 41],
    "h-two-long": [2, 2, 3],
    "empty-bags": [0, 0, 3, 1, 0, 4, 0, 0],
    # The rounds add into a longest-first prefix of the long segments: the
    # longest segment last in row order, equal lengths straddling the
    # h-index cut (a stable order must keep them in row order), and one
    # giant behind a tail of short segments.
    "ascending": list(range(1, 41)),
    "ties-at-cut": [4, 1, 4, 2, 4, 3, 4, 4],
    "tail-then-giant": [1] * 30 + [2] * 10 + [300],
}


def _scatter_add_oracle(source, src, dst, num_outputs):
    gathered = source if src is None else source[src]
    out = np.zeros((num_outputs, source.shape[1]), dtype=source.dtype)
    np.add.at(out, dst, gathered)
    return out


def _left_fold_oracle(source, src, dst, num_outputs):
    """One Python-level add per lookup, in lookup order, at working precision."""
    out = np.zeros((num_outputs, source.shape[1]), dtype=source.dtype)
    for i, row in enumerate(dst):
        addend = source[i if src is None else src[i]]
        out[row] = out[row] + addend
    return out


def _assert_exact(result, source, src, dst, num_outputs, context):
    assert result.dtype == source.dtype, context
    assert result.shape == (num_outputs, source.shape[1]), context
    assert np.array_equal(
        result, _scatter_add_oracle(source, src, dst, num_outputs)
    ), f"{context}: differs from np.add.at"
    assert np.array_equal(
        result, _left_fold_oracle(source, src, dst, num_outputs)
    ), f"{context}: differs from the left fold"


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("profile", PROFILES)
class TestSegmentProfiles:
    def _inputs(self, profile, dim, dtype, layout):
        rng = np.random.default_rng(len(profile) * 1000 + dim)
        dst, num_outputs = _dst_from_lengths(PROFILES[profile])
        source = LAYOUTS[layout](rng.standard_normal((97, dim)).astype(dtype))
        src = rng.integers(0, 97, dst.size)
        return rng, source, src, dst, num_outputs

    def test_sorted_dst_is_exact(self, profile, layout, dim, dtype):
        _, source, src, dst, num_outputs = self._inputs(
            profile, dim, dtype, layout)
        result = segment_sum(source, src, dst, num_outputs)
        _assert_exact(result, source, src, dst, num_outputs, profile)

    def test_unsorted_dst_is_exact(self, profile, layout, dim, dtype):
        """A stable argsort keeps lookup order within every output row."""
        rng, source, src, dst, num_outputs = self._inputs(
            profile, dim, dtype, layout)
        perm = rng.permutation(dst.size)
        src, dst = src[perm], dst[perm]
        result = segment_sum(source, src, dst, num_outputs)
        _assert_exact(result, source, src, dst, num_outputs, profile)

    def test_identity_src_is_exact(self, profile, layout, dim, dtype):
        """``src=None`` — the coalesce call over its sorted copy."""
        rng, _, _, dst, num_outputs = self._inputs(profile, dim, dtype, layout)
        source = LAYOUTS[layout](
            rng.standard_normal((dst.size, dim)).astype(dtype))
        result = segment_sum(source, None, dst, num_outputs)
        _assert_exact(result, source, None, dst, num_outputs, profile)

    def test_precomputed_starts_change_nothing(self, profile, layout, dim, dtype):
        _, source, src, dst, num_outputs = self._inputs(
            profile, dim, dtype, layout)
        starts = run_starts(dst)
        assert np.array_equal(
            segment_sum(source, src, dst, num_outputs, starts=starts),
            segment_sum(source, src, dst, num_outputs),
        )


def test_run_starts():
    assert run_starts(np.array([4, 4, 7, 7, 7, 9])).tolist() == [0, 2, 5]
    assert run_starts(np.array([3])).tolist() == [0]
    assert run_starts(np.array([-1, -1, 0])).tolist() == [0, 2]
    empty = run_starts(np.empty(0, dtype=np.int64))
    assert empty.size == 0 and empty.dtype == np.intp


@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
class TestEdges:
    @pytest.mark.parametrize("dim", DIMS)
    def test_no_lookups(self, dim, dtype):
        source = np.ones((4, dim), dtype=dtype)
        empty = np.empty(0, dtype=np.int64)
        result = segment_sum(source, empty, empty, 3)
        assert result.dtype == dtype and result.shape == (3, dim)
        assert not result.any()

    @pytest.mark.parametrize("dim", DIMS)
    def test_single_lookup(self, dim, dtype):
        source = np.arange(4 * dim, dtype=dtype).reshape(4, dim)
        result = segment_sum(source, np.array([2]), np.array([1]), 3)
        assert np.array_equal(result[1], source[2])
        assert not result[[0, 2]].any()

    def test_row_sliced_table_view(self, dtype):
        """The sharded path gathers from ``table[lo:hi]`` views."""
        rng = np.random.default_rng(3)
        table = rng.standard_normal((120, 8)).astype(dtype)
        view = table[30:90]
        assert view.base is table
        dst, num_outputs = _dst_from_lengths([3, 0, 70, 1, 5])
        src = rng.integers(0, 60, dst.size)
        result = segment_sum(view, src, dst, num_outputs)
        _assert_exact(result, view.copy(), src, dst, num_outputs, "view")

    def test_source_is_never_written(self, dtype):
        rng = np.random.default_rng(4)
        source = rng.standard_normal((300, 5)).astype(dtype)
        snapshot = source.copy()
        dst, num_outputs = _dst_from_lengths([250, 1, 49])
        segment_sum(source, None, dst, num_outputs)
        assert np.array_equal(source, snapshot)


@settings(max_examples=120, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 24), min_size=0, max_size=30),
    dim=st.sampled_from((1, 3, 8)),
    dtype=st.sampled_from(DTYPES),
    identity=st.booleans(),
    shuffled=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_property_bit_identical_to_sequential_accumulation(
    lengths, dim, dtype, identity, shuffled, seed
):
    rng = np.random.default_rng(seed)
    dst, num_outputs = _dst_from_lengths(lengths)
    if shuffled:
        dst = rng.permutation(dst)
    rows = dst.size if identity else 13
    source = rng.standard_normal((rows, dim)).astype(dtype)
    src = None if identity else rng.integers(0, rows, dst.size)
    result = segment_sum(source, src, dst, num_outputs)
    _assert_exact(result, source, src, dst, num_outputs, "property")


class TestNumpyOrderCanary:
    """The long-segment fold must be a *left* fold.

    ``np.add.reduce(block, axis=0)`` adds row by row today because NumPy
    sums pairwise only along the fast axis in memory; that is documented
    behaviour, not API.  8 and 128 are its pairwise-sum block sizes, so the
    lengths around them are where a reordering would show first.
    """

    @pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("length", [7, 8, 9, 127, 128, 129, 10_000])
    def test_fold_is_sequential(self, length, dim, dtype):
        rng = np.random.default_rng(length + dim)
        block = rng.standard_normal((length, dim)).astype(dtype)
        expected = block[0].copy()
        for row in block[1:]:
            expected = expected + row
        assert np.array_equal(_fold(block), expected), (
            f"NumPy {np.__version__} no longer reduces a ({length}, {dim}) "
            f"{np.dtype(dtype).name} block along axis 0 one row at a time; "
            "make repro.core.segment._fold return "
            "np.add.accumulate(block, axis=0)[-1] for every block (it is "
            "sequential by definition) and re-run the benchmark"
        )

    @pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
    def test_column_major_block_is_still_a_left_fold(self, dtype):
        """Rows of a column-major block are its fast axis: the layout guard
        must route it away from the pairwise reduction."""
        rng = np.random.default_rng(9)
        block = np.asfortranarray(rng.standard_normal((1000, 4)).astype(dtype))
        expected = block[0].copy()
        for row in block[1:]:
            expected = expected + row
        assert np.array_equal(_fold(block), expected)


# ----------------------------------------------------------------------
# _store_rows: the whole-row store of the rounds and the SGD row update
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES, ids=DTYPE_IDS)
class TestRowStore:
    @pytest.mark.parametrize("dim", DIMS)
    def test_equals_the_fancy_store_with_duplicates_last_wins(self, dim, dtype):
        rng = np.random.default_rng(dim)
        target = rng.standard_normal((50, dim)).astype(dtype)
        ids = np.array([7, 3, 7, 49, 0, 3, 7])
        values = rng.standard_normal((ids.size, dim)).astype(dtype)
        want = target.copy()
        want[ids] = values
        _store_rows(target, ids, values)
        assert np.array_equal(target, want)
        assert np.array_equal(target[7], values[-1])   # the last of three

    def test_writes_a_row_strided_view_in_place(self, dtype):
        rng = np.random.default_rng(11)
        table = rng.standard_normal((21, 6)).astype(dtype)
        before = table.copy()
        view = table[1::2]
        ids = np.array([4, 0, 9])
        values = rng.standard_normal((3, 6)).astype(dtype)
        _store_rows(view, ids, values)
        assert np.shares_memory(view, table) and not view.flags.c_contiguous
        assert np.array_equal(table[1::2][ids], values)
        written = 1 + 2 * ids
        untouched = np.setdiff1d(np.arange(table.shape[0]), written)
        assert np.array_equal(table[untouched], before[untouched])

    @pytest.mark.parametrize("dim", [4, 0], ids=["F-ordered", "zero-width"])
    def test_a_target_without_contiguous_rows_takes_the_fancy_store(
        self, dim, dtype
    ):
        rng = np.random.default_rng(12)
        target = np.asfortranarray(rng.standard_normal((9, dim)).astype(dtype))
        values = rng.standard_normal((2, dim)).astype(dtype)
        want = target.copy()
        want[[5, 1]] = values
        _store_rows(target, np.array([5, 1]), values)
        assert np.array_equal(target, want)

    def test_a_1d_target_stores_one_element_per_row(self, dtype):
        """Per-row counters of optimizer state ride the same store."""
        target = np.arange(6, dtype=dtype)
        _store_rows(target, np.array([4, 1]), np.array([40, 10], dtype=dtype))
        assert target.tolist() == [0, 10, 2, 3, 40, 5]

    def test_a_dtype_mismatch_raises_instead_of_reinterpreting(self, dtype):
        other = np.float32 if dtype == np.float64 else np.float64
        target = np.zeros((4, 2), dtype=dtype)
        with pytest.raises(TypeError, match="equal dtypes"):
            _store_rows(target, np.array([1]), np.ones((1, 2), dtype=other))
        assert not target.any()


# ----------------------------------------------------------------------
# sort_by_key: the one SortByKey of both backward modes
# ----------------------------------------------------------------------
def _stable_pair(keys):
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def _key_cases():
    rng = np.random.default_rng(19)
    n = 1 << 14
    return {
        "random": rng.integers(0, 100_000, n),
        "zipf-duplicates": np.minimum(rng.zipf(1.05, n), 99_999),
        "already-sorted": np.sort(rng.integers(0, 1000, 3000)),
        "reversed": np.sort(rng.integers(0, 1000, 3000))[::-1],
        "all-equal": np.full(777, 42),
        "n0": np.empty(0, dtype=np.int64),
        "n1": np.array([7]),
        "n2-tie": np.array([5, 5]),
        "n2-swap": np.array([9, 2]),
        "zero-keys": np.zeros(9, dtype=np.int64),
        "int32-keys": rng.integers(0, 1 << 30, 500).astype(np.int32),
        # 40 key bits + 14 position bits = 54 <= 62: still packed.
        "near-2^40": (1 << 40) - rng.integers(1, 1000, n),
        # 51 + 14 > 62 bits, and a negative key: the argsort fallback.
        "wide-keys": (1 << 50) + rng.integers(0, 1000, n),
        "negative-key": np.concatenate([rng.integers(0, 50, 99), [-3]]),
    }


KEY_CASES = _key_cases()


@pytest.mark.parametrize("name", sorted(KEY_CASES))
def test_sort_by_key_equals_the_stable_argsort_pair(name):
    keys = KEY_CASES[name]
    pristine = keys.copy()
    sorted_keys, order = sort_by_key(keys)
    want_keys, want_order = _stable_pair(keys)
    assert np.array_equal(sorted_keys, want_keys)
    assert np.array_equal(order, want_order)
    assert np.array_equal(keys, pristine)       # the input is not sorted in place
    assert sorted_keys.dtype.kind == order.dtype.kind == "i"


def test_sort_by_key_takes_the_packed_path_where_it_fits(monkeypatch):
    """The guard is read from the data: which path ran is observable only
    through ``np.argsort``, which the packed path never calls."""
    calls = []
    real = np.argsort

    def spy(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    for name in ("random", "near-2^40", "int32-keys", "n1"):
        sort_by_key(KEY_CASES[name])
    assert calls == []
    for name in ("wide-keys", "negative-key", "n0"):
        sort_by_key(KEY_CASES[name])
    assert calls == ["stable"] * 3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5, 1 << 52), max_size=40))
def test_sort_by_key_property(values):
    keys = np.asarray(values, dtype=np.int64)
    sorted_keys, order = sort_by_key(keys)
    want_keys, want_order = _stable_pair(keys)
    assert np.array_equal(sorted_keys, want_keys)
    assert np.array_equal(order, want_order)
