"""Tests for the lookup-popularity distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.distributions import (
    CDF_CHECKPOINT_ROWS,
    UniformDistribution,
    ZipfDistribution,
)
from repro.data.trace import EmpiricalDistribution


class TestUniform:
    def test_probabilities_flat_and_normalized(self):
        dist = UniformDistribution(100)
        probs = dist.probabilities()
        assert probs.shape == (100,)
        assert np.allclose(probs, 0.01)
        assert probs.sum() == pytest.approx(1.0)

    def test_sample_range_and_determinism(self):
        dist = UniformDistribution(50)
        a = dist.sample(200, np.random.default_rng(1))
        b = dist.sample(200, np.random.default_rng(1))
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 50

    def test_sample_zero(self):
        assert UniformDistribution(10).sample(0, np.random.default_rng(0)).size == 0

    def test_sample_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            UniformDistribution(10).sample(-1, np.random.default_rng(0))

    def test_expected_unique_closed_form(self):
        dist = UniformDistribution(100)
        # E[u] = N(1 - (1 - 1/N)^n)
        expected = 100 * (1 - (1 - 0.01) ** 50)
        assert dist.expected_unique(50) == pytest.approx(expected, rel=1e-9)

    def test_expected_unique_caps_at_num_rows(self):
        dist = UniformDistribution(10)
        assert dist.expected_unique(10_000) <= 10.0 + 1e-9

    def test_expected_unique_zero(self):
        assert UniformDistribution(10).expected_unique(0) == 0.0

    def test_rejects_nonpositive_rows(self):
        with pytest.raises(ValueError, match="positive"):
            UniformDistribution(0)

    @pytest.mark.parametrize("bad", [2.7, True, "5"], ids=["float", "bool", "str"])
    def test_rows_must_be_a_positive_int(self, bad):
        with pytest.raises(ValueError, match="num_rows must be a positive integer"):
            UniformDistribution(bad)

    def test_numpy_integer_rows(self):
        dist = UniformDistribution(np.int64(5))
        assert dist.num_rows == 5 and type(dist.num_rows) is int

    @pytest.mark.parametrize("bad", [True, 2.5, -1], ids=["bool", "float", "negative"])
    @pytest.mark.parametrize(
        "dist", [UniformDistribution(10), ZipfDistribution(10, 1.05)],
        ids=["uniform", "zipf"],
    )
    def test_count_must_be_a_non_negative_int(self, dist, bad):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="count must be a non-negative integer"):
            dist.sample(bad, rng)
        assert rng.random() == np.random.default_rng(0).random()  # nothing drawn

    def test_numpy_integer_count(self):
        ids = UniformDistribution(10).sample(np.int64(3), np.random.default_rng(0))
        assert ids.shape == (3,)

    def test_top_mass_proportional(self):
        dist = UniformDistribution(1000)
        assert dist.top_mass(0.1) == pytest.approx(0.1, rel=1e-6)


class TestZipf:
    def test_probabilities_descending_and_normalized(self):
        dist = ZipfDistribution(500, exponent=1.0)
        probs = dist.probabilities()
        assert np.all(np.diff(probs) <= 0)
        assert probs.sum() == pytest.approx(1.0)

    def test_higher_exponent_more_skew(self):
        mild = ZipfDistribution(1000, exponent=0.5)
        steep = ZipfDistribution(1000, exponent=1.5)
        assert steep.top_mass(0.01) > mild.top_mass(0.01)

    def test_shift_flattens_head(self):
        sharp = ZipfDistribution(1000, exponent=1.0, shift=0.0)
        flat = ZipfDistribution(1000, exponent=1.0, shift=50.0)
        assert flat.probabilities()[0] < sharp.probabilities()[0]

    def test_sampling_matches_analytic_uniques(self):
        dist = ZipfDistribution(5000, exponent=1.0)
        rng = np.random.default_rng(0)
        draws = 20_000
        sampled_unique = np.unique(dist.sample(draws, rng)).size
        expected = dist.expected_unique(draws)
        assert sampled_unique == pytest.approx(expected, rel=0.05)

    def test_sampling_head_heavier_than_tail(self):
        dist = ZipfDistribution(1000, exponent=1.2)
        ids = dist.sample(50_000, np.random.default_rng(2))
        head_hits = np.count_nonzero(ids < 10)
        tail_hits = np.count_nonzero(ids >= 990)
        assert head_hits > 10 * tail_hits

    def test_expected_unique_monotone_in_draws(self):
        dist = ZipfDistribution(2000, exponent=1.0)
        values = [dist.expected_unique(n) for n in (10, 100, 1000, 10_000)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_expected_coalescing_ratio_decreases(self):
        """More draws -> more re-hits -> better coalescing (Figure 5b)."""
        dist = ZipfDistribution(2000, exponent=1.0)
        ratios = [dist.expected_coalescing_ratio(n) for n in (100, 1000, 10_000)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError, match="exponent"):
            ZipfDistribution(10, exponent=0.0)

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError, match="shift"):
            ZipfDistribution(10, exponent=1.0, shift=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("argument", ["exponent", "shift"])
    def test_rejects_non_finite_parameters(self, argument, value):
        """A non-finite exponent or shift makes every probability NaN, and
        the draw would turn that into row 0 for every lookup."""
        kwargs = {"exponent": 1.0, "shift": 2.0, argument: value}
        with pytest.raises(ValueError, match=argument):
            ZipfDistribution(10, **kwargs)

    def test_rank_permutation_is_bijection(self):
        dist = ZipfDistribution(64, exponent=1.0)
        perm = dist.rank_permutation(np.random.default_rng(0))
        assert sorted(perm.tolist()) == list(range(64))

    def test_top_mass_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            ZipfDistribution(10, exponent=1.0).top_mass(0.0)

    def test_repr_mentions_parameters(self):
        text = repr(ZipfDistribution(10, exponent=1.25, shift=2.0))
        assert "1.25" in text and "10" in text


@settings(max_examples=30, deadline=None)
@given(
    num_rows=st.integers(2, 2000),
    exponent=st.floats(0.2, 2.0),
    draws=st.integers(1, 5000),
)
def test_property_expected_unique_bounds(num_rows, exponent, draws):
    """0 < E[u] <= min(n, N) for any distribution and draw count."""
    dist = ZipfDistribution(num_rows, exponent=exponent)
    expected = dist.expected_unique(draws)
    assert 0.0 < expected <= min(draws, num_rows) + 1e-9


@settings(max_examples=20, deadline=None)
@given(num_rows=st.integers(2, 500), draws=st.integers(1, 2000))
def test_property_uniform_unique_below_zipf_lookups(num_rows, draws):
    """Uniform lookups coalesce the least: E[u] uniform >= E[u] skewed."""
    uniform = UniformDistribution(num_rows).expected_unique(draws)
    skewed = ZipfDistribution(num_rows, exponent=1.5).expected_unique(draws)
    assert uniform >= skewed - 1e-9


class _PresetUniforms:
    """A generator stand-in whose ``random(count)`` hands out fixed values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, count):
        assert count == self.values.size
        return self.values.copy()


def _edge_uniforms(cdf):
    """Every CDF entry and every bucket edge ``k / K``, each with its
    neighbours one ulp either side, plus both ends of ``[0, 1)``."""
    num_rows = cdf.size
    points = np.concatenate((cdf, np.arange(num_rows) / num_rows))
    values = np.concatenate((
        points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
        [0.0, np.nextafter(1.0, 0.0)],
    ))
    return np.unique(values[(values >= 0.0) & (values < 1.0)])


#: Uniform row counts either side of a checkpoint block and of a chunk of
#: 64 blocks, and a million rows.
UNIFORM_ROWS = [
    CDF_CHECKPOINT_ROWS - 1, CDF_CHECKPOINT_ROWS, CDF_CHECKPOINT_ROWS + 1,
    64 * CDF_CHECKPOINT_ROWS - 1, 64 * CDF_CHECKPOINT_ROWS + 1,  # a chunk
    1_000_000,
]

class TestGuideTableSampling:
    """``sample`` finds each uniform's row through a guide table — or, for a
    uniform distribution, as ``floor(u * N)`` with the draws at a bucket
    edge settled from CDF checkpoints: the ids, their order and the RNG
    consumption of ``searchsorted(cdf, u, "right")`` over the uniforms as
    drawn."""

    @pytest.mark.parametrize("count", [0, 1, 16_384])
    @pytest.mark.parametrize(
        "dist",
        [UniformDistribution(100_000), ZipfDistribution(100_000, 1.05),
         ZipfDistribution(200_000, 2.0),    # tail buckets past the walk cap
         *map(UniformDistribution, UNIFORM_ROWS)],
        ids=["uniform", "zipf-1.05", "zipf-2.0",
             *(f"uniform-{rows}" for rows in UNIFORM_ROWS)],
    )
    def test_equals_the_search_on_a_twin_generator(self, dist, count):
        ours, twin = np.random.default_rng(3), np.random.default_rng(3)
        ids = dist.sample(count, ours)
        want = np.searchsorted(dist._cumulative(), twin.random(count), "right")
        assert ids.dtype == np.int64
        assert np.array_equal(ids, want)
        assert ours.random() == twin.random()      # same RNG consumption

    def test_ids_are_not_handed_out_sorted(self):
        """Each id sits where its uniform was drawn: a sorted sample would
        give bag 0 the smallest ids of the batch."""
        ids = ZipfDistribution(1000, 1.05).sample(512, np.random.default_rng(0))
        assert np.any(ids[1:] < ids[:-1])

    @pytest.mark.parametrize(
        "num_rows", [1, 2, 3, 2**5 - 1, 2**5 + 1, 2**12 - 1, 2**12 + 1]
    )
    @pytest.mark.parametrize(
        "make",
        [
            UniformDistribution,
            lambda rows: ZipfDistribution(rows, 0.6),
            lambda rows: ZipfDistribution(rows, 1.05),
            lambda rows: ZipfDistribution(rows, 2.0),
        ],
        ids=["uniform", "zipf-0.6", "zipf-1.05", "zipf-2.0"],
    )
    def test_edge_uniforms_land_where_the_search_does(self, make, num_rows):
        """Uniforms on, and one ulp either side of, every CDF entry and
        every bucket edge: float slack at a bucket edge, the walk cap and
        the last row are all decided exactly as the search decides them."""
        dist = make(num_rows)
        cdf = dist._cumulative()
        uniforms = _edge_uniforms(cdf)
        ids = dist.sample(uniforms.size, _PresetUniforms(uniforms))
        assert ids.dtype == np.int64
        assert np.array_equal(ids, np.searchsorted(cdf, uniforms, "right"))

    def test_rows_without_mass_are_never_drawn(self):
        """Zero-probability rows tie in the CDF; the draw steps over them."""
        dist = EmpiricalDistribution(np.array([5.0, 3.0] + [0.0] * 40 + [2.0]))
        cdf = dist._cumulative()
        uniforms = _edge_uniforms(cdf)
        ids = dist.sample(uniforms.size, _PresetUniforms(uniforms))
        assert np.array_equal(ids, np.searchsorted(cdf, uniforms, "right"))
        assert set(ids.tolist()) <= {0, 1, 2}

    def test_a_product_rounded_into_the_next_bucket_still_draws_its_row(self):
        """``u`` one ulp below ``0.05`` rounds ``100u`` up to 5.0, so
        ``floor(u * N)`` names row 5; ``u`` draws row 4."""
        dist = UniformDistribution(100)
        u = np.nextafter(0.05, 0.0)
        assert u * 100 == 5.0 and int(u * 100) == 5
        assert dist.sample(1, _PresetUniforms([u])).tolist() == [4]

    @pytest.mark.parametrize(
        "dist",
        [UniformDistribution(1000), ZipfDistribution(1000, 1.05),
         EmpiricalDistribution(np.array([5.0, 3.0, 0.0, 2.0]))],
        ids=["uniform", "zipf-1.05", "empirical"],
    )
    def test_a_draw_caches_no_probability_vector(self, dist):
        """Sampling keeps at most the CDF and the guide table, 16 bytes per
        row (a uniform draw keeps neither); the probability vector they are
        built from is not kept."""
        dist.sample(64, np.random.default_rng(0))
        assert dist._probabilities is None
        cdf = np.cumsum(dist.probabilities())
        cdf[-1] = 1.0
        assert np.array_equal(dist._cumulative(), cdf)

    @pytest.mark.parametrize("num_rows", UNIFORM_ROWS)
    def test_uniform_edge_uniforms_land_where_the_search_does(self, num_rows):
        """Every one of these draws sits at a bucket edge; at a million
        rows they are drawn in slices to keep the test's memory small."""
        dist = UniformDistribution(num_rows)
        cdf = dist._cumulative()
        for uniforms in np.array_split(_edge_uniforms(cdf), 8):
            ids = dist.sample(uniforms.size, _PresetUniforms(uniforms))
            assert ids.dtype == np.int64
            assert np.array_equal(ids, np.searchsorted(cdf, uniforms, "right"))
        assert dist._checkpoints is not None     # the edges were settled

    @pytest.mark.parametrize("num_rows", [1, 2, 3, *UNIFORM_ROWS[:5]])
    def test_uniform_checkpoints_are_the_cumsum(self, num_rows):
        """Each checkpoint is the sequential sum before its block, and
        re-adding from it gives every CDF entry but the last (set to 1)
        bit for bit."""
        dist = UniformDistribution(num_rows)
        cdf = dist._cumulative()
        marks = dist._build_checkpoints()
        ends = cdf[CDF_CHECKPOINT_ROWS - 1::CDF_CHECKPOINT_ROWS]
        assert np.array_equal(marks, np.concatenate(([0.0], ends))[: marks.size])
        positions = np.arange(num_rows - 1)
        assert np.array_equal(dist._exact_cdf(positions), cdf[:-1])

    @pytest.mark.parametrize("num_rows", [2, 3, 1000, *UNIFORM_ROWS])
    def test_uniform_cdf_sits_within_the_slack_of_its_buckets(self, num_rows):
        """The rounding bound the draw relies on, measured: ``N * cdf[k]``
        is within the slack of ``k + 1`` for every entry the draw compares."""
        dist = UniformDistribution(num_rows)
        cdf = dist._cumulative()
        drift = np.abs(cdf[:-1] * num_rows - np.arange(1, num_rows))
        assert drift.max() < dist._edge_slack() < 0.5

    def test_uniform_past_half_a_bucket_of_slack_draws_by_guide_table(self):
        """Past ~4.7e7 rows the bound reaches half a bucket; the draw falls
        back to the guide table (forced here at 1 000 rows)."""
        assert UniformDistribution(50_000_000)._edge_slack() >= 0.5

        class Loose(UniformDistribution):
            def _edge_slack(self):
                return 0.5

        dist = Loose(1000)
        cdf = dist._cumulative()
        uniforms = _edge_uniforms(cdf)
        ids = dist.sample(uniforms.size, _PresetUniforms(uniforms))
        assert np.array_equal(ids, np.searchsorted(cdf, uniforms, "right"))
        assert dist._guide is not None and dist._checkpoints is None
