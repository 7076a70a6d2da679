import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randblock.disorder import (
    ConstantValue,
    DensitySpec,
    SeedPolicy,
    bv_norm,
    sample_iid,
    support_bounds,
)
from reference import cdf, generator, pdf


class TestDensitySpec:
    def test_uniform_normalized(self):
        d = DensitySpec.uniform(0, 1)
        assert pdf(d, 0.5) == 1.0
        assert pdf(d, 2.0) == 0.0

    def test_bad_normalization(self):
        with pytest.raises(ValueError):
            DensitySpec((0.0, 1.0), (0.5,))

    def test_infinite_span_refused(self):
        # 0 * inf is NaN: a total that is not a number fails the check too
        with pytest.raises(ValueError, match="integrates to nan"):
            DensitySpec.uniform(-1e308, 1e308)

    def test_negative_height(self):
        with pytest.raises(ValueError):
            DensitySpec((0.0, 1.0, 2.0), (2.0, -1.0))

    def test_cdf(self):
        d = DensitySpec((0.0, 1.0, 2.0), (0.25, 0.75))
        assert cdf(d, 0.0) == 0.0
        assert cdf(d, 1.0) == pytest.approx(0.25)
        assert cdf(d, 2.0) == pytest.approx(1.0)


class TestSampling:
    def test_uniform_mean(self):
        x = sample_iid(DensitySpec.uniform(0, 1), 100_000, SeedPolicy(1).streams([0], "V"))
        assert abs(x.mean() - 0.5) < 0.01

    def test_single_cell_equals_uniform(self):
        pw = DensitySpec((0.0, 2.0), (0.5,))
        uni = DensitySpec.uniform(0.0, 2.0)
        a = sample_iid(pw, 1000, SeedPolicy(7).streams([3], "b"))
        b = sample_iid(uni, 1000, SeedPolicy(7).streams([3], "b"))
        assert np.array_equal(a, b)

    def test_empty(self):
        assert sample_iid(DensitySpec.uniform(0, 1), 0, SeedPolicy(0).streams([0], "V")).size == 0

    def test_constant(self):
        x = sample_iid(ConstantValue(2.5), 5, SeedPolicy(0).streams([0], "b"))
        assert np.array_equal(x, np.full((1, 5), 2.5))

    def test_kolmogorov_distance(self):
        d = DensitySpec((0.0, 0.5, 1.0, 2.0), (0.5, 1.0, 0.25))
        x = np.sort(sample_iid(d, 1_000_000, SeedPolicy(11).streams([0], "V"))[0])
        grid = np.linspace(-0.1, 2.1, 2000)
        emp = np.searchsorted(x, grid, side="right") / x.size
        exact = np.array([cdf(d, g) for g in grid])
        assert np.abs(emp - exact).max() < 0.002

    def test_zero_height_cell_excluded(self):
        d = DensitySpec((0.0, 1.0, 2.0, 3.0), (0.5, 0.0, 0.5))
        x = sample_iid(d, 20_000, SeedPolicy(3).streams([0], "V"))
        assert not np.any((x > 1.0) & (x < 2.0))


class TestSeedPolicy:
    def test_determinism(self):
        a = generator(SeedPolicy(5), 2, "V").random(4)
        b = generator(SeedPolicy(5), 2, "V").random(4)
        assert np.array_equal(a, b)

    def test_streams_distinct(self):
        p = SeedPolicy(5)
        v = generator(p, 2, "V").random(4)
        bb = generator(p, 2, "b").random(4)
        other = generator(p, 3, "V").random(4)
        assert not np.array_equal(v, bb)
        assert not np.array_equal(v, other)

    def test_bad_field(self):
        with pytest.raises(ValueError):
            generator(SeedPolicy(0), 0, "x")


class TestStreams:
    @pytest.mark.parametrize("base_seed", [0, 5, 2**64 - 1])
    @pytest.mark.parametrize("field", ["V", "b"])
    @pytest.mark.parametrize("n", [0, 1, 13])
    def test_rows_equal_per_index_generators(self, base_seed, field, n):
        policy = SeedPolicy(base_seed)
        indices = [0, 1, 7, 2**62, 3]
        batch = policy.streams(indices, field).random(n)
        assert batch.shape == (len(indices), n)
        for row, index in zip(batch, indices):
            assert np.array_equal(row, generator(policy, index, field).random(n))

    def test_range_of_indices(self):
        policy = SeedPolicy(42)
        batch = policy.streams(range(400, 600), "V").random(9)
        ref = np.stack([generator(policy, i, "V").random(9) for i in range(400, 600)])
        assert np.array_equal(batch, ref)

    def test_empty_index_list(self):
        streams = SeedPolicy(1).streams([], "V")
        assert len(streams) == 0
        assert streams.random(4).shape == (0, 4)

    def test_redraw_is_identical(self):
        streams = SeedPolicy(3).streams([2, 9], "b")
        assert np.array_equal(streams.random(5), streams.random(5))

    def test_bad_field(self):
        with pytest.raises(ValueError):
            SeedPolicy(0).streams([0, 1], "x")

    def test_negative_index(self):
        with pytest.raises(ValueError):
            SeedPolicy(0).streams([0, -1], "V")


class TestBatchedSampling:
    @pytest.mark.parametrize("density", [
        DensitySpec.uniform(1.0, 2.0),
        DensitySpec((0.0, 1.0, 2.0, 3.0), (0.5, 0.0, 0.5)),
    ], ids=["uniform", "piecewise-zero-cell"])
    @pytest.mark.parametrize("n", [0, 1, 11])
    def test_batch_equals_row_by_row(self, density, n):
        policy = SeedPolicy(17)
        indices = range(20, 45)
        batch = sample_iid(density, n, policy.streams(indices, "V"))
        ref = np.concatenate([sample_iid(density, n, policy.streams([i], "V")) for i in indices])
        assert batch.shape == (len(indices), n)
        assert np.array_equal(batch, ref)

    def test_zero_height_cell_excluded(self):
        d = DensitySpec((0.0, 1.0, 2.0, 3.0), (0.5, 0.0, 0.5))
        x = sample_iid(d, 50, SeedPolicy(3).streams(range(400), "V"))
        assert not np.any((x > 1.0) & (x < 2.0))

    def test_constant_has_batch_shape(self):
        streams = SeedPolicy(0).streams(range(4), "b")
        x = sample_iid(ConstantValue(2.5), 6, streams)
        assert x.shape == (4, 6)
        assert np.array_equal(x, np.full((4, 6), 2.5))
        assert sample_iid(ConstantValue(2.5), 0, streams).shape == (4, 0)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            sample_iid(DensitySpec.uniform(0, 1), -1, SeedPolicy(0).streams([0], "V"))


class TestBvNorm:
    def test_uniform_examples(self):
        assert bv_norm(DensitySpec.uniform(0, 1)) == pytest.approx(2.0)
        assert bv_norm(DensitySpec.uniform(1, 2)) == pytest.approx(2.0)

    def test_two_cell_example(self):
        # heights 0.5 and 1.5 on half-unit cells: jumps 0.5 + 1.0 + 1.5
        d = DensitySpec((0.0, 0.5, 1.0), (0.5, 1.5))
        assert bv_norm(d) == pytest.approx(3.0)

    def test_constant_refused(self):
        with pytest.raises(ValueError):
            bv_norm(ConstantValue(1.0))

    @given(shift=st.floats(-50, 50), width=st.floats(0.01, 10))
    @settings(max_examples=50, deadline=None)
    def test_translation_invariance_and_width_scaling(self, shift, width):
        base = DensitySpec((0.0, 0.25, 1.0), (2.0, 2.0 / 3.0))
        moved = DensitySpec(tuple(shift + width * b for b in base.breakpoints),
                            tuple(h / width for h in base.heights))
        assert bv_norm(moved) == pytest.approx(bv_norm(base) / width, rel=1e-9)


class TestSupportBounds:
    def test_uniform(self):
        assert support_bounds(DensitySpec.uniform(-0.5, 0.5)) == (-0.5, 0.5)

    def test_shifted_scaled(self):
        # 1 + w * Uniform(-0.5, 0.5) with w = 0.5
        w = 0.5
        d = DensitySpec.uniform(1 - 0.5 * w, 1 + 0.5 * w)
        assert support_bounds(d) == (0.75, 1.25)

    def test_degenerate_cell(self):
        w = 2.0 ** -20
        d = DensitySpec((1.0, 1.0 + w), (1.0 / w,))
        lo, hi = support_bounds(d)
        assert lo == 1.0 and hi == 1.0 + w
