"""Tests for the Table II model configurations."""

import pytest

from repro.model.configs import ALL_MODELS, RM1, RM2, RM3, RM4, ModelConfig, get_model


class TestTableII:
    """Field-by-field agreement with the paper's Table II."""

    def test_rm1(self):
        assert RM1.num_tables == 10
        assert RM1.gathers_per_table == 80
        assert RM1.bottom_mlp == (256, 128, 64)
        assert RM1.top_mlp == (256, 64, 1)

    def test_rm2(self):
        assert RM2.num_tables == 40
        assert RM2.gathers_per_table == 80
        assert RM2.bottom_mlp == (256, 128, 64)
        assert RM2.top_mlp == (512, 128, 1)

    def test_rm3(self):
        assert RM3.num_tables == 10
        assert RM3.gathers_per_table == 20
        assert RM3.bottom_mlp == (2560, 512, 64)
        assert RM3.top_mlp == (512, 128, 1)

    def test_rm4(self):
        assert RM4.num_tables == 10
        assert RM4.gathers_per_table == 20
        assert RM4.bottom_mlp == (2560, 1024, 64)
        assert RM4.top_mlp == (2048, 2048, 1024, 1)

    def test_classification(self):
        assert RM1.embedding_intensive and RM2.embedding_intensive
        assert not RM3.embedding_intensive and not RM4.embedding_intensive

    def test_default_embedding_dim_is_64(self):
        """Section V: 'the default embedding vector size is set as 64'."""
        assert all(config.embedding_dim == 64 for config in ALL_MODELS)


class TestLookup:
    def test_get_model_case_insensitive(self):
        assert get_model("rm1") is RM1
        assert get_model("RM4") is RM4

    def test_get_model_unknown(self):
        with pytest.raises(KeyError, match="unknown model"):
            get_model("RM9")


class TestGeometry:
    def test_lookups_per_sample(self):
        assert RM1.lookups_per_sample() == 800
        assert RM2.lookups_per_sample() == 3200
        assert RM3.lookups_per_sample() == 200

    def test_total_lookups(self):
        assert RM1.total_lookups(2048) == 2048 * 800

    def test_interaction_dim_cat(self):
        assert RM1.interaction_dim() == (10 + 1) * 64

    def test_top_mlp_sizes_prepends_interaction(self):
        sizes = RM1.top_mlp_sizes()
        assert sizes[0] == RM1.interaction_dim()
        assert sizes[1:] == RM1.top_mlp

    def test_dense_features_is_bottom_input(self):
        assert RM1.dense_features == 256
        assert RM3.dense_features == 2560

    def test_embedding_bytes(self):
        expected = 10 * 1_000_000 * 64 * 4
        assert RM1.embedding_bytes() == expected


class TestFlops:
    def test_forward_flops_formula_rm1(self):
        batch = 2
        bottom = 2 * batch * (256 * 128 + 128 * 64)
        top_sizes = RM1.top_mlp_sizes()
        top = 2 * batch * sum(a * b for a, b in zip(top_sizes[:-1], top_sizes[1:]))
        assert RM1.mlp_forward_flops(batch) == bottom + top

    def test_backward_is_twice_forward_less_the_data_input_gradient(self):
        """The bottom MLP reads data: its first input gradient never runs."""
        skipped = 2 * 4 * 256 * 128
        assert RM2.mlp_backward_flops(4) == 2 * RM2.mlp_forward_flops(4) - skipped

    def test_rm4_heaviest(self):
        flops = [config.mlp_forward_flops(1) for config in ALL_MODELS]
        assert max(flops) == RM4.mlp_forward_flops(1)

    def test_dot_interaction_flops_include_gram_term(self):
        dotted = RM1.with_overrides(interaction="dot")
        batch = 8
        widths = dotted.bottom_mlp
        gemm = 2 * batch * sum(a * b for a, b in zip(widths[:-1], widths[1:]))
        top_sizes = dotted.top_mlp_sizes()
        gemm += 2 * batch * sum(a * b for a, b in zip(top_sizes[:-1], top_sizes[1:]))
        num_features = dotted.num_tables + 1
        gram = 2 * batch * num_features * num_features * dotted.embedding_dim
        assert dotted.mlp_forward_flops(batch) == gemm + gram

    def test_dot_interaction_narrows_top_mlp(self):
        """Pairwise dots compress 11 x 64 features into 64 + 55 - the reason
        DLRM's dot interaction keeps the top MLP small."""
        dotted = RM1.with_overrides(interaction="dot")
        assert dotted.interaction_dim() < RM1.interaction_dim()


class TestOverrides:
    def test_dim_override_rewrites_bottom_mlp(self):
        wide = RM1.with_overrides(embedding_dim=128)
        assert wide.bottom_mlp == (256, 128, 128)
        assert wide.embedding_dim == 128

    def test_override_preserves_other_fields(self):
        small = RM2.with_overrides(rows_per_table=1000)
        assert small.num_tables == RM2.num_tables
        assert small.rows_per_table == 1000

    def test_validation_top_must_end_in_logit(self):
        with pytest.raises(ValueError, match="logit"):
            ModelConfig(
                name="bad", num_tables=1, gathers_per_table=1,
                bottom_mlp=(8, 4), top_mlp=(4, 2), embedding_dim=4,
            )

    def test_validation_bottom_must_match_dim(self):
        with pytest.raises(ValueError, match="embedding_dim"):
            ModelConfig(
                name="bad", num_tables=1, gathers_per_table=1,
                bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=16,
            )

    def test_validation_positive_counts(self):
        with pytest.raises(ValueError, match="positive"):
            ModelConfig(
                name="bad", num_tables=0, gathers_per_table=1,
                bottom_mlp=(8, 4), top_mlp=(4, 1), embedding_dim=4,
            )
