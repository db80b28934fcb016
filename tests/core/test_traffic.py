"""Tests for the analytic memory-traffic models (Figure 6 / Section III-C)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.traffic import (
    OPTIMIZER_ROW_COUNTER_BYTES,
    OPTIMIZER_STATE_ITEMSIZE,
    OPTIMIZER_STATE_SLOTS,
    Traffic,
    casted_gather_reduce_traffic,
    casting_reduction_factor,
    casting_traffic,
    coalesce_accumulate_traffic,
    coalesce_sort_traffic,
    expand_coalesce_traffic,
    expand_traffic,
    gather_reduce_traffic,
    scatter_traffic,
)

# Figure 5/6 geometry: 10 gathers per table, batch 2048, 64-dim fp32.
N, B, DIM = 20_480, 2_048, 64
VEC = DIM * 4


class TestTrafficArithmetic:
    def test_total(self):
        assert Traffic(10, 5).total == 15

    def test_add(self):
        combined = Traffic(1, 2) + Traffic(3, 4)
        assert combined == Traffic(4, 6)

    def test_add_rejects_non_traffic(self):
        with pytest.raises(TypeError):
            Traffic(1, 2) + 5

    def test_scaled(self):
        assert Traffic(10, 20).scaled(2.5) == Traffic(25, 50)


class TestPerPrimitiveAccounting:
    def test_gather_reads_n_vectors_plus_index(self):
        t = gather_reduce_traffic(N, B, DIM)
        assert t.reads == N * VEC + 2 * N * 8
        assert t.writes == B * VEC

    def test_expand_writes_n_vectors(self):
        t = expand_traffic(N, B, DIM)
        assert t.writes == N * VEC
        assert t.reads == B * VEC + N * 8

    def test_coalesce_accumulate_is_3n_vectors(self):
        t = coalesce_accumulate_traffic(N, N // 2, DIM)
        assert t.reads == 2 * N * VEC + 2 * N * 8
        assert t.writes == N * VEC

    def test_coalesce_accumulate_independent_of_u(self):
        """The RMW accumulation model: traffic scales with n, not u."""
        assert coalesce_accumulate_traffic(N, 1, DIM) == coalesce_accumulate_traffic(
            N, N, DIM
        )

    def test_sort_moves_only_index_pairs(self):
        t = coalesce_sort_traffic(N)
        assert t.reads == t.writes == 2 * N * 8

    def test_sort_passes_scale(self):
        assert coalesce_sort_traffic(N, passes=3).total == 3 * coalesce_sort_traffic(N).total

    def test_scatter_sgd_is_3u_vectors(self):
        u = 1000
        t = scatter_traffic(u, DIM, optimizer="sgd")
        assert t.reads == 2 * u * VEC + u * 8
        assert t.writes == u * VEC

    @pytest.mark.parametrize("optimizer,slots", sorted(OPTIMIZER_STATE_SLOTS.items()))
    def test_scatter_optimizer_state_slots(self, optimizer, slots):
        """State rows are billed at their stored width, not the table's,
        and Adam's per-row int64 step counter is read and written too."""
        u = 100
        counter = OPTIMIZER_ROW_COUNTER_BYTES.get(optimizer, 0)
        state = slots * DIM * OPTIMIZER_STATE_ITEMSIZE + counter
        t = scatter_traffic(u, DIM, optimizer=optimizer)
        assert t.reads == 2 * u * VEC + u * state + u * 8
        assert t.writes == u * VEC + u * state

    def test_scatter_rejects_unknown_optimizer(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            scatter_traffic(10, DIM, optimizer="adamw")

    def test_casted_gather_reduce_reads_n_writes_u(self):
        u = 900
        t = casted_gather_reduce_traffic(N, u, DIM)
        assert t.reads == N * VEC + 2 * N * 8
        assert t.writes == u * VEC

    def test_casting_moves_only_indices(self):
        t = casting_traffic(N)
        vector_free = 4 * N * 8  # sort pass + output pass, both directions
        assert t.reads == vector_free
        assert t.writes == vector_free

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError, match="positive"):
            gather_reduce_traffic(N, B, 0)


class TestPaperAnchors:
    """The three quantitative claims of Sections III-C and IV-A."""

    def test_coalesce_dwarfs_gather(self):
        gather = gather_reduce_traffic(N, B, DIM).total
        coalesce = coalesce_accumulate_traffic(N, N, DIM).total
        assert coalesce > 2.0 * gather

    def test_scatter_dwarfs_gather_at_low_skew(self):
        gather = gather_reduce_traffic(N, B, DIM).total
        scatter = scatter_traffic(int(0.98 * N), DIM).total
        assert scatter > 2.0 * gather

    def test_expand_coalesce_aggregate_around_3x_gather(self):
        """Section III-C: 'around 3x higher memory traffic'."""
        gather = gather_reduce_traffic(N, B, DIM).total
        pipeline = expand_coalesce_traffic(N, B, int(0.9 * N), DIM).total
        assert 2.5 <= pipeline / gather <= 4.5

    def test_reduction_factor_at_least_2(self):
        """Section IV-A: casting 'algorithmically guarantees' a 2x reduction."""
        for u_fraction in (0.01, 0.1, 0.5, 0.9, 1.0):
            factor = casting_reduction_factor(N, B, int(u_fraction * N), DIM)
            assert factor >= 2.0

    def test_reduction_factor_grows_with_coalescing(self):
        low_skew = casting_reduction_factor(N, B, N, DIM)
        high_skew = casting_reduction_factor(N, B, N // 100, DIM)
        assert high_skew > low_skew

    def test_reduction_factor_upper_bound_4(self):
        assert casting_reduction_factor(10**8, 1, 1, DIM) < 4.001

    def test_reduction_factor_trivial_for_empty(self):
        assert casting_reduction_factor(0, 0, 0, DIM) == 1.0

    def test_casted_traffic_matches_gather_structure(self):
        """After casting, backward IS a gather-reduce: same read structure."""
        u = 777
        forward = gather_reduce_traffic(N, u, DIM)
        backward = casted_gather_reduce_traffic(N, u, DIM)
        assert forward.reads == backward.reads
        assert forward.writes == backward.writes


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 10**6),
    batch=st.integers(1, 10**4),
    u_fraction=st.floats(0.001, 1.0),
    dim=st.sampled_from([16, 32, 64, 128, 256]),
)
def test_property_reduction_factor_bounds(n, batch, u_fraction, dim):
    """For any geometry with u <= n, the reduction factor lies in [2, 4+B/n)."""
    u = max(1, min(n, int(u_fraction * n)))
    factor = casting_reduction_factor(n, batch, u, dim)
    assert factor >= 2.0
    assert factor <= 4.0 + batch / n


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10**6), batch=st.integers(1, 10**4), dim=st.integers(1, 512))
def test_property_traffic_nonnegative_and_monotone_in_n(n, batch, dim):
    """Traffic counts are non-negative and grow with the lookup count."""
    small = gather_reduce_traffic(n, batch, dim)
    large = gather_reduce_traffic(n + 1, batch, dim)
    assert small.reads >= 0 and small.writes >= 0
    assert large.reads > small.reads
    assert large.writes == small.writes
