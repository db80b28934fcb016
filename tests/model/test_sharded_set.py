"""Tests for the sharded embedding executor against the unsharded bags."""

import numpy as np
import pytest

from repro.core.indexing import IndexArray
from repro.data.generator import generate_index_array
from repro.data.distributions import UniformDistribution
from repro.model.embedding import EmbeddingBag
from repro.model.optim import SGD
from repro.model.sharded import ShardedEmbeddingSet

ROWS, DIM, BATCH, LOOKUPS = 40, 4, 8, 5


def make_bags(num_tables=2, seed=0, pooling="sum"):
    rng = np.random.default_rng(seed)
    return [
        EmbeddingBag(ROWS, DIM, rng=rng, pooling=pooling)
        for _ in range(num_tables)
    ]


def make_indices(num_tables=2, seed=1):
    rng = np.random.default_rng(seed)
    dist = UniformDistribution(ROWS)
    return [
        generate_index_array(dist, BATCH, LOOKUPS, rng) for _ in range(num_tables)
    ]


def run_forward(sharded, indices):
    plan = sharded.plan_batch(indices)
    for shard in range(sharded.num_shards):
        sharded.cast_shard(plan, shard)
        sharded.forward_shard(plan, shard)
    return plan, sharded.assemble_pooled(plan)


class TestConstruction:
    def test_rejects_empty_bag_list(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardedEmbeddingSet([], num_shards=2)

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError, match="policy"):
            ShardedEmbeddingSet(make_bags(), num_shards=2, policy="diagonal")

    def test_shards_address_the_bags_own_tables(self):
        bags = make_bags()
        sharded = ShardedEmbeddingSet(bags, num_shards=3)
        assert all(t is bag.table for t, bag in zip(sharded.tables, bags))
        for table_id, bag in enumerate(bags):
            owners = sharded.partition.owner_of_rows(
                table_id, np.arange(bag.num_rows))
            assert np.bincount(owners, minlength=3).sum() == bag.num_rows
            assert set(owners.tolist()) == {0, 1, 2}


@pytest.mark.parametrize("policy", ["row", "table"])
@pytest.mark.parametrize("num_shards", [1, 2, 3])
class TestForwardEquivalence:
    def test_pooled_matches_unsharded(self, policy, num_shards):
        bags = make_bags()
        indices = make_indices()
        expected = [bag.forward(idx) for bag, idx in zip(bags, indices)]
        sharded = ShardedEmbeddingSet(bags, num_shards=num_shards, policy=policy)
        _, pooled = run_forward(sharded, indices)
        for got, want in zip(pooled, expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_mean_pooling_matches_unsharded(self, policy, num_shards):
        bags = make_bags(pooling="mean")
        indices = make_indices()
        expected = [bag.forward(idx) for bag, idx in zip(bags, indices)]
        sharded = ShardedEmbeddingSet(bags, num_shards=num_shards, policy=policy)
        _, pooled = run_forward(sharded, indices)
        for got, want in zip(pooled, expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("policy", ["row", "table"])
@pytest.mark.parametrize("num_shards", [1, 2, 3])
class TestBackwardEquivalence:
    def test_updated_tables_match_unsharded(self, policy, num_shards):
        indices = make_indices()
        rng = np.random.default_rng(3)
        grads = [rng.standard_normal((BATCH, DIM)) for _ in indices]

        reference = make_bags()
        for bag, idx, grad in zip(reference, indices, grads):
            bag.forward(idx)
            sparse = bag.backward(grad, mode="casted")
            bag.apply_gradient(sparse, SGD(lr=0.5))

        bags = make_bags()
        sharded = ShardedEmbeddingSet(bags, num_shards=num_shards, policy=policy)
        plan, _ = run_forward(sharded, indices)
        optimizer = SGD(lr=0.5)
        for shard in range(num_shards):
            coalesced = sharded.backward_shard(plan, shard, grads)
            sharded.update_shard(shard, coalesced, optimizer)
        for bag, ref in zip(bags, reference):
            np.testing.assert_allclose(bag.table, ref.table, rtol=0, atol=1e-12)


class TestSingleShardBitIdentity:
    def test_forward_bit_identical(self):
        bags = make_bags()
        indices = make_indices()
        expected = [bag.forward(idx) for bag, idx in zip(bags, indices)]
        sharded = ShardedEmbeddingSet(bags, num_shards=1)
        _, pooled = run_forward(sharded, indices)
        for got, want in zip(pooled, expected):
            assert np.array_equal(got, want)


class TestEdgeCases:
    def test_empty_shard_forward_and_backward(self):
        bags = make_bags(num_tables=1)
        # Only even rows -> shard 1 of 2 receives no lookups.
        index = IndexArray(src=[0, 2, 4, 6], dst=[0, 0, 1, 1], num_rows=ROWS)
        sharded = ShardedEmbeddingSet(bags, num_shards=2)
        plan, pooled = run_forward(sharded, [index])
        assert plan.slices[0][1] is None
        expected = bags[0].forward(index)
        np.testing.assert_allclose(pooled[0], expected, rtol=0, atol=1e-12)
        grads = [np.ones((2, DIM))]
        assert sharded.backward_shard(plan, 1, grads) == []

    def test_all_lookups_on_one_shard(self):
        bags = make_bags(num_tables=1)
        index = IndexArray(src=[1, 3, 5, 7], dst=[0, 0, 1, 1], num_rows=ROWS)
        sharded = ShardedEmbeddingSet(bags, num_shards=2)
        plan, pooled = run_forward(sharded, [index])
        assert plan.slices[0][0] is None  # all ids odd -> shard 1
        assert plan.slices[0][1].num_lookups == 4
        np.testing.assert_allclose(
            pooled[0], bags[0].forward(index), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("policy", ["row", "table"])
    def test_one_shard_counts_only_live_outputs(self, policy):
        """Outputs 1 and 3 have no lookups: the whole slice ships the two
        live gradient rows, the count a compacting split gives."""
        bags = make_bags(num_tables=1)
        index = IndexArray(src=[1, 2, 5], dst=[0, 2, 2], num_rows=ROWS,
                           num_outputs=4)
        sharded = ShardedEmbeddingSet(bags, num_shards=1, policy=policy)
        plan, pooled = run_forward(sharded, [index])
        assert plan.slices[0][0].index is index
        assert np.array_equal(pooled[0], bags[0].forward(index))
        vec_bytes = DIM * 8
        assert plan.forward_exchange_bytes == 2 * vec_bytes
        sharded.backward_shard(plan, 0, [np.ones((4, DIM))])
        assert plan.backward_exchange_bytes == 2 * vec_bytes + 2 * 3 * 8

    def test_exchange_bytes_accumulate(self):
        bags = make_bags()
        sharded = ShardedEmbeddingSet(bags, num_shards=2)
        plan, _ = run_forward(sharded, make_indices())
        assert plan.forward_exchange_bytes > 0
        grads = [np.ones((BATCH, DIM)) for _ in bags]
        for shard in range(2):
            sharded.backward_shard(plan, shard, grads)
        assert plan.backward_exchange_bytes > 0
        assert plan.exchange_bytes == (
            plan.forward_exchange_bytes + plan.backward_exchange_bytes
        )

    def test_backward_rejects_swapped_gradient_tables(self):
        """Staged gradients cannot be silently replaced mid-backward."""
        bags = make_bags()
        sharded = ShardedEmbeddingSet(bags, num_shards=2)
        plan, _ = run_forward(sharded, make_indices())
        grads_a = [np.ones((BATCH, DIM)) for _ in bags]
        grads_b = [np.zeros((BATCH, DIM)) for _ in bags]
        sharded.backward_shard(plan, 0, grads_a)
        with pytest.raises(ValueError, match="staged"):
            sharded.backward_shard(plan, 1, grads_b)

    def test_mean_pooling_reuses_forward_inverse_counts(self):
        bags = make_bags(pooling="mean")
        sharded = ShardedEmbeddingSet(bags, num_shards=2)
        plan, _ = run_forward(sharded, make_indices())
        assert plan.inverse_counts is not None
        assert all(inv is not None for inv in plan.inverse_counts)

    def test_backward_rejects_wrong_table_count(self):
        bags = make_bags()
        sharded = ShardedEmbeddingSet(bags, num_shards=2)
        plan, _ = run_forward(sharded, make_indices())
        with pytest.raises(ValueError, match="gradient tables"):
            sharded.backward_shard(plan, 0, [np.ones((BATCH, DIM))])

    def test_plan_rejects_wrong_table_count(self):
        sharded = ShardedEmbeddingSet(make_bags(), num_shards=2)
        with pytest.raises(ValueError, match="index arrays"):
            sharded.plan_batch(make_indices(num_tables=1))
