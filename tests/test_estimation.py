import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_toeplitz, toeplitz

from nifbm.covariance import (
    MixedParams,
    NifbmParams,
    autocov_sequence,
    find_h0,
)
from nifbm.errors import LengthError, NotPositiveDefiniteError, ZeroDenominatorError
from nifbm.estimation import (
    AGGREGATION_FACTORS,
    _toeplitz_solve,
    aggregate_increments,
    drift_mle,
    drift_two_point,
    estimate_one_nifbm,
    estimate_two_nifbm,
    forward_moment_map,
    two_point_variance,
    two_stage_estimate,
    xi_statistic,
    xi_statistics_from_base,
    xi_statistics_from_components,
)
from nifbm.harness import drift_samples
from nifbm.simulation import (
    DriftSpec,
    add_drift,
    cholesky_factor,
    combine_mixed_components,
    fast_length,
    sample_increments,
    sample_mixed_components,
    stream_generator,
)

from conftest import gls_oracle, two_point_variance_assembled


def random_mixed(rng, min_gap=0.05):
    h2 = rng.uniform(0.05, 0.9 - min_gap)
    h1 = rng.uniform(h2 + min_gap, 0.95)
    return MixedParams(H1=h1, H2=h2, a2=rng.uniform(0.1, 10), b2=rng.uniform(0.1, 10))


def same_bits(a, b):
    """Bit-for-bit equality of two floats or two bools, NaN included."""
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def row_of(estimate, r):
    """Row r of a block estimate, as a tuple of its fields."""
    return tuple(field[r] for field in astuple(estimate))


class TestXiStatistic:
    def test_constant(self):
        assert xi_statistic(np.full(5, 3.0)) == 9.0

    def test_arithmetic(self):
        assert xi_statistic(np.array([1.0, -1.0, 2.0])) == pytest.approx(2.0)

    def test_empty_rejected(self):
        # a 0-d value holds no series either
        for value in (np.array([]), 3.0, np.array(3.0)):
            with pytest.raises(LengthError, match="needs a nonempty series"):
                xi_statistic(value)

    def test_short_base_rejected(self):
        # factor 8 needs 15 base increments for one coarse increment
        with pytest.raises(LengthError, match="length 14 too short to aggregate by 8"):
            xi_statistics_from_base(np.ones(14))
        # one coarse increment: the sum of eight ones
        assert xi_statistics_from_base(np.ones(15))[8] == 64.0

    def test_block_values_checked(self):
        block = np.ones((3, 15))
        block[1, 4] = math.inf
        with pytest.raises(ValueError, match="finite"):
            xi_statistics_from_base(block)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                xi_statistics_from_base(np.array([1.0, bad, 1.0]), factors=(1, 2))

    @pytest.mark.parametrize("factors", [(1, 3), (), (0,)])
    def test_factors_outside_aggregation_set_rejected(self, factors):
        with pytest.raises(ValueError, match=r"subset of \(1, 2, 4, 8\)"):
            xi_statistics_from_base(np.ones(40), factors=factors)

    def test_counts_follow_shared_horizon(self):
        # factor j reads the first 8n / j increments of its level; on a
        # ramp every other count would give another value
        n = 5
        base = np.arange(8 * n + 7.0)
        stats = xi_statistics_from_base(base)
        level = base
        for j, count in {1: 8 * n, 2: 4 * n, 4: 2 * n, 8: n}.items():
            assert stats[j] == xi_statistic(level[:count])
            level = aggregate_increments(level)

    def test_mean_squared_increment_limit(self):
        # Monte Carlo mean of xi against its expectation
        params = MixedParams(0.6, 0.2, 1.0, 2.0)
        h = 2.0
        factor = cholesky_factor(autocov_sequence(params, h, 64))
        n_reps = 2000
        z = np.random.default_rng(8).standard_normal((64, n_reps))
        vals = ((factor @ z) ** 2).mean(axis=0)
        eta1 = forward_moment_map(params, h)[0]
        se = vals.std(ddof=1) / math.sqrt(n_reps)
        assert abs(vals.mean() - eta1) < 4.0 * se


# finite (R, M) blocks long enough for every aggregation factor; the
# bound keeps squares and aggregates finite
_BLOCKS = st.tuples(st.integers(1, 5), st.integers(15, 80)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-1e6, 1e6))
)


class TestXiFromComponents:
    """xi statistics from the Gram moments of the shared component
    noises, against the mean square of each combined series."""

    @pytest.mark.parametrize("N", [1, 2, 64])
    @pytest.mark.parametrize(
        "a2,b2,h", [(4.0, 4.0, 2.0), (0.3, 7.0, 0.5), (2.0, 1.5, 16.0)]
    )
    def test_matches_combined_series(self, N, a2, b2, h):
        params = MixedParams(H1=0.7, H2=0.3, a2=a2, b2=b2)
        rngs = [stream_generator(N, 1), stream_generator(N, 2)]
        e1, e2 = sample_mixed_components(params, N, rngs, 50)
        xi = xi_statistics_from_components(params, h, e1, e2)
        assert tuple(xi) == AGGREGATION_FACTORS
        for j, values in xi.items():
            w = j * h
            mixed = xi_statistic(combine_mixed_components(params, w, e1, e2))
            # the components' own terms bound the rounding of the cross
            # term, which cancels against them when N is small
            own = a2 * w ** (2 * 0.7) * xi_statistic(e1) + b2 * w ** (2 * 0.3) * xi_statistic(e2)
            assert values.shape == (50,)
            assert np.all(np.abs(values - mixed) <= 1e-13 * own)

    def test_one_series_gives_floats(self):
        params = MixedParams(H1=0.6, H2=0.2, a2=1.0, b2=2.0)
        rngs = [stream_generator(3, 1), stream_generator(3, 2)]
        e1, e2 = sample_mixed_components(params, 16, rngs, 1)
        xi = xi_statistics_from_components(params, 2.0, e1[0], e2[0])
        assert tuple(xi) == AGGREGATION_FACTORS
        assert all(isinstance(v, float) for v in xi.values())
        block = xi_statistics_from_components(params, 2.0, e1, e2)
        assert all(block[j][0] == xi[j] for j in xi)

    def test_one_component(self):
        # one process: xi_j is a2 (j h)^(2H) times the noise's mean square
        params = NifbmParams(0.3, a2=2.0)
        (e,) = sample_mixed_components(params, 32, [stream_generator(1, 1)], 4)
        xi = xi_statistics_from_components(params, 2.0, e)
        for j in AGGREGATION_FACTORS:
            assert np.allclose(xi[j], 2.0 * (2.0 * j) ** 0.6 * xi_statistic(e), rtol=1e-14)

    @pytest.mark.parametrize(
        "parts,error",
        [
            ((np.ones(4),), ValueError),
            ((np.ones(4), np.ones(5)), ValueError),
            ((np.ones(0), np.ones(0)), LengthError),
            ((np.float64(1.0), np.float64(2.0)), LengthError),
        ],
    )
    def test_rejects_bad_noises(self, parts, error):
        params = MixedParams(H1=0.6, H2=0.2, a2=1.0, b2=2.0)
        with pytest.raises(error):
            xi_statistics_from_components(params, 2.0, *parts)


class TestBlockStatistics:
    """Row r of a block result is bit for bit the result for row r."""

    @settings(max_examples=60)
    @given(
        block=_BLOCKS,
        other=_BLOCKS,
        h1=st.floats(0.55, 0.95),
        h2=st.floats(0.05, 0.45),
        h=st.floats(0.5, 8.0),
        j=st.sampled_from((1, 2, 4, 8)),
    )
    def test_rows_equal_single_series(self, block, other, h1, h2, h, j):
        params = MixedParams(H1=h1, H2=h2, a2=2.0, b2=0.5)
        other = np.resize(other, block.shape)
        mixed = combine_mixed_components(params, j * h, block, other)
        gram = xi_statistics_from_components(params, h, block, other)
        xi = xi_statistic(block)
        stats = xi_statistics_from_base(block)
        one = estimate_one_nifbm(stats, h)
        two = estimate_two_nifbm(stats, h)
        assert isinstance(xi_statistic(block[0]), float)
        assert isinstance(xi_statistics_from_base(block[0])[8], float)
        for r, row in enumerate(block):
            assert xi[r] == xi_statistic(row)
            assert np.array_equal(
                mixed[r], combine_mixed_components(params, j * h, row, other[r])
            )
            gram_row = xi_statistics_from_components(params, h, row, other[r])
            assert all(gram[k][r] == gram_row[k] for k in gram_row)
            agg_block, agg_row = block, row
            for _ in range(j.bit_length() - 1):  # log2(j) doubling steps
                agg_block = aggregate_increments(agg_block)
                agg_row = aggregate_increments(agg_row)
                assert np.array_equal(agg_block[r], agg_row)
            single = xi_statistics_from_base(row)
            assert single.keys() == stats.keys()
            assert all(stats[k][r] == single[k] for k in single)
            for block_est, scalar_est in (
                (one, estimate_one_nifbm(single, h)),
                (two, estimate_two_nifbm(single, h)),
            ):
                fields = astuple(scalar_est)
                assert all(map(same_bits, row_of(block_est, r), fields))
                assert all(isinstance(v, float) for v in fields[:-1])
                assert isinstance(fields[-1], bool)


class TestForwardMomentMap:
    def test_linear_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            theta = random_mixed(rng)
            h = rng.uniform(0.5, 4.0)
            e1, e2, e4, e8 = forward_moment_map(theta, h)
            x = 2.0 ** (2 * theta.H1)
            y = 2.0 ** (2 * theta.H2)
            assert e4 == pytest.approx(e2 * (x + y) - e1 * x * y, rel=1e-12)

    def test_one_value_per_moment_factor(self):
        assert len(forward_moment_map(NifbmParams(0.4, a2=2.0), 2.0)) == 2
        assert len(forward_moment_map(MixedParams(0.7, 0.3, 1.0, 1.0), 2.0)) == 4

    def test_single_component_limit(self):
        theta = MixedParams(H1=0.6, H2=0.2, a2=3.0, b2=1e-14)
        one = NifbmParams(H=0.6, a2=3.0)
        f1, f2 = forward_moment_map(one, 2.0)
        e1, e2, _, _ = forward_moment_map(theta, 2.0)
        assert e1 == pytest.approx(f1, rel=1e-12)
        assert e2 == pytest.approx(f2, rel=1e-12)

    def test_direct_substitution(self):
        theta = MixedParams(0.5, 0.25, 1.0, 1.0)
        e1, e2, e4, e8 = forward_moment_map(theta, 1.0)
        x, y = 2.0, 2.0**0.5
        a_big = 2.0 / (2.0 * 1.5)
        b_big = 2.0 / (1.5 * 1.25)
        assert e1 == pytest.approx(a_big * (x - 1) + b_big * (y - 1), rel=1e-14)
        assert e8 == pytest.approx(
            a_big * x**3 * (x - 1) + b_big * y**3 * (y - 1), rel=1e-14
        )


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
def test_moment_map_and_two_point_variance_reject_bad_h(h):
    message = "window width h must be finite and positive"
    with pytest.raises(ValueError, match=message):
        forward_moment_map(MixedParams(0.7, 0.3, 1.0, 1.0), h)
    with pytest.raises(ValueError, match=message):
        two_point_variance(NifbmParams(0.5), h, 10, 3.0)


@pytest.mark.parametrize("N", [0, -1, 2.5])
def test_two_point_variance_rejects_bad_n(N):
    # N = 0 gave a complex variance, and drift_two_point a TypeError
    message = "N must be an integer >= 1"
    with pytest.raises(ValueError, match=message):
        two_point_variance(NifbmParams(0.3), 1.0, N, 3.0)
    with pytest.raises(ValueError, match=message):
        drift_two_point(0.0, 1.0, 3.0, NifbmParams(0.3), 1.0, N)


@pytest.mark.parametrize("gN", [math.nan, math.inf, -math.inf])
def test_two_point_variance_rejects_non_finite_gn(gN):
    with pytest.raises(ValueError, match="gN must be finite"):
        two_point_variance(NifbmParams(0.3), 2.0, 3, gN)


@pytest.mark.parametrize("gN", [math.nan, math.inf, -math.inf])
def test_drift_two_point_rejects_non_finite_gn(gN):
    # NaN gave a NaN estimate and a NaN variance
    for params in (None, NifbmParams(0.3)):
        with pytest.raises(ValueError, match="gN must be finite"):
            drift_two_point(0.0, 1.0, gN, params, 2.0, 3)


class TestOneProcessEstimator:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            H, h, a2 = rng.uniform(0.02, 0.98), rng.uniform(0.3, 5.0), rng.uniform(0.1, 10.0)
            theta = NifbmParams(H=H, a2=a2)
            xi = dict(zip((1, 2), forward_moment_map(theta, h)))
            est = estimate_one_nifbm(xi, h)
            assert not est.degenerate
            assert est.H_hat == pytest.approx(theta.H, abs=1e-12)
            assert est.a2_hat == pytest.approx(theta.a2, rel=1e-12)

    def test_ratio_at_boundary(self):
        est = estimate_one_nifbm({1: 1.0, 2: 4.0}, 2.0)
        assert est.H_hat == 1.0
        assert est.degenerate

    def test_ratio_below_one(self):
        est = estimate_one_nifbm({1: 2.0, 2: 1.5}, 2.0)
        assert est.H_hat == 0.0
        assert est.degenerate

    def test_zero_denominator_convention(self):
        est = estimate_one_nifbm({1: 0.0, 2: 0.0}, 2.0)
        assert est.degenerate
        assert est.H_hat == 0.0
        assert est.a2_hat == 0.0


class TestTwoProcessEstimator:
    def test_round_trip_example(self):
        theta = MixedParams(H1=0.5, H2=0.3, a2=4.0, b2=4.0)
        eta = forward_moment_map(theta, 2.0)
        est = estimate_two_nifbm(dict(zip((1, 2, 4, 8), eta)), 2.0)
        assert not est.degenerate
        assert est.H1_hat == pytest.approx(0.5, abs=1e-10)
        assert est.H2_hat == pytest.approx(0.3, abs=1e-10)
        assert est.a2_hat == pytest.approx(4.0, rel=1e-9)
        assert est.b2_hat == pytest.approx(4.0, rel=1e-9)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            theta = random_mixed(rng)
            h = rng.uniform(0.5, 4.0)
            eta = forward_moment_map(theta, h)
            est = estimate_two_nifbm(dict(zip((1, 2, 4, 8), eta)), h)
            assert not est.degenerate
            assert est.H1_hat == pytest.approx(theta.H1, abs=1e-9)
            assert est.H2_hat == pytest.approx(theta.H2, abs=1e-9)
            assert est.a2_hat == pytest.approx(theta.a2, rel=1e-7)
            assert est.b2_hat == pytest.approx(theta.b2, rel=1e-7)

    def test_equal_hurst_degenerate(self):
        # build moments with both components at the same index
        one = NifbmParams(H=0.4, a2=5.0)
        f1, f2 = forward_moment_map(one, 2.0)
        x = 2.0 ** (2 * 0.4)
        eta = {1: f1, 2: f2, 4: f2 * x, 8: f2 * x * x}
        est = estimate_two_nifbm(eta, 2.0)
        assert est.degenerate
        assert est.H1_hat == est.H2_hat
        assert abs(est.discriminant) < 1e-9 * max(1.0, f1**4)

    def test_overflow_flagged_not_raised(self):
        # 4^(2 * H1_hat) with H1_hat near 498 overflows: a2_hat is 0
        est = estimate_two_nifbm({1: 1e-300, 2: 1e-300, 4: 1.0, 8: 1e300}, 4.0)
        assert est.degenerate
        assert est.a2_hat == 0.0

    def test_requires_all_factors(self):
        with pytest.raises(LengthError):
            estimate_two_nifbm({1: 1.0, 2: 1.0}, 1.0)

    def test_sign_conditions_and_discriminant(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            theta = random_mixed(rng, min_gap=0.05)
            h = rng.uniform(0.5, 4.0)
            e1, e2, e4, e8 = forward_moment_map(theta, h)
            assert e2 * e4 - e1 * e8 < 0.0
            assert e1 * e4 - e2 * e2 > 0.0
            assert e2 * e8 - e4 * e4 > 0.0
            x = 2.0 ** (2 * theta.H1)
            y = 2.0 ** (2 * theta.H2)
            a_big = theta.a2 * 2 * h ** (2 * theta.H1) / (
                (2 * theta.H1 + 1) * (theta.H1 + 1)
            )
            b_big = theta.b2 * 2 * h ** (2 * theta.H2) / (
                (2 * theta.H2 + 1) * (theta.H2 + 1)
            )
            closed = (
                a_big**2
                * b_big**2
                * (x - 1) ** 2
                * (y - 1) ** 2
                * (x - y) ** 6
            )
            disc = (e4 * e2 - e8 * e1) ** 2 - 4 * (e4 * e1 - e2**2) * (
                e8 * e2 - e4**2
            )
            assert disc == pytest.approx(closed, rel=1e-9)

    def test_scaling_invariance(self):
        theta = MixedParams(0.55, 0.25, 2.0, 3.0)
        eta = np.array(forward_moment_map(theta, 2.0))
        c2 = 2.7
        est = estimate_two_nifbm(dict(zip((1, 2, 4, 8), c2 * eta)), 2.0)
        assert est.H1_hat == pytest.approx(0.55, abs=1e-10)
        assert est.H2_hat == pytest.approx(0.25, abs=1e-10)
        assert est.a2_hat == pytest.approx(c2 * 2.0, rel=1e-9)
        assert est.b2_hat == pytest.approx(c2 * 3.0, rel=1e-9)


# finite nonnegative xi values, with zero, subnormals and 1e300 drawn often
_XI = st.one_of(
    st.sampled_from((0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e300)),
    st.floats(0.0, 1e300),
)
_TINY = np.finfo(float).tiny


class TestEstimatorProperties:
    @settings(max_examples=300)
    @given(
        xi=st.lists(_XI, min_size=4, max_size=4),
        h=st.floats(0.0, 1e300, exclude_min=True),
    )
    def test_finite_input_never_raises(self, xi, h):
        # any non-finite estimate or H outside (0, 1) must be flagged
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = estimate_one_nifbm(dict(zip((1, 2), xi)), h)
            two = estimate_two_nifbm(dict(zip((1, 2, 4, 8), xi)), h)
        for hursts, scales, est in (
            ((one.H_hat,), (one.a2_hat,), one),
            ((two.H1_hat, two.H2_hat), (two.a2_hat, two.b2_hat), two),
        ):
            valid = all(0.0 < v < 1.0 for v in hursts) and all(map(math.isfinite, scales))
            assert valid or est.degenerate

    @settings(max_examples=200)
    @given(
        xi=st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4),
        h=st.floats(0.1, 10.0),
        k=st.integers(-20, 20),
    )
    def test_scale_equivariance(self, xi, h, k):
        # xi -> 2^k xi leaves every H unchanged and scales a2 and b2 by
        # 2^k exactly, as long as no scale estimate under- or overflows
        c = 2.0**k
        inputs = (xi, [c * value for value in xi])
        one = [estimate_one_nifbm(dict(zip((1, 2), v)), h) for v in inputs]
        two = [estimate_two_nifbm(dict(zip((1, 2, 4, 8), v)), h) for v in inputs]
        for (base, scaled), hursts, scales in (
            (one, ("H_hat",), ("a2_hat",)),
            (two, ("H1_hat", "H2_hat"), ("a2_hat", "b2_hat")),
        ):
            values = [getattr(est, name) for est in (base, scaled) for name in scales]
            assume(all(v == 0.0 or _TINY <= abs(v) < math.inf for v in values))
            for name in hursts:
                assert same_bits(getattr(scaled, name), getattr(base, name))
            for name in scales:
                assert same_bits(getattr(scaled, name), c * getattr(base, name))
            assert scaled.degenerate == base.degenerate


_H0 = find_h0()
# Hurst indices near the lag-1 sign change H0 and up to H -> 1
_HURST = st.one_of(st.floats(_H0 - 0.05, _H0 + 0.05), st.floats(0.9, 0.999))


class TestRoundTripProperties:
    @settings(max_examples=200)
    @given(H=_HURST, h=st.floats(0.1, 10.0), a2=st.floats(0.1, 10.0))
    def test_one_process(self, H, h, a2):
        # f^-1(f(theta)) = theta for the one-process moment map
        xi = dict(zip((1, 2), forward_moment_map(NifbmParams(H, a2=a2), h)))
        est = estimate_one_nifbm(xi, h)
        assert not est.degenerate
        assert est.H_hat == pytest.approx(H, abs=1e-12)
        assert est.a2_hat == pytest.approx(a2, rel=1e-12)

    @settings(max_examples=200)
    @given(
        H2=_HURST,
        gap=st.floats(0.05, 0.7),
        h=st.floats(0.1, 10.0),
        a2=st.floats(0.1, 10.0),
        b2=st.floats(0.1, 10.0),
    )
    def test_two_process(self, H2, gap, h, a2, b2):
        assume(H2 + gap <= 0.999)
        theta = MixedParams(H1=H2 + gap, H2=H2, a2=a2, b2=b2)
        est = estimate_two_nifbm(dict(zip((1, 2, 4, 8), forward_moment_map(theta, h))), h)
        assert not est.degenerate
        assert est.H1_hat == pytest.approx(theta.H1, abs=1e-9)
        assert est.H2_hat == pytest.approx(H2, abs=1e-9)
        assert est.a2_hat == pytest.approx(a2, rel=1e-7)
        assert est.b2_hat == pytest.approx(b2, rel=1e-7)


class TestDriftMle:
    def test_identity_cov_least_squares(self):
        cov = np.zeros(8)
        cov[0] = 1.0
        dg = np.arange(1.0, 9.0)
        est = drift_mle(dg.copy(), dg, cov)
        assert est.mu_hat == pytest.approx(1.0, rel=1e-12)
        assert est.variance == pytest.approx(1.0 / np.sum(dg**2), rel=1e-12)

    def test_noiseless_exact(self):
        params = MixedParams(0.7, 0.2, 1.0, 1.0)
        cov = autocov_sequence(params, 2.0, 32)
        dg = np.diff(drift_samples("benchmark-g", 32, 2.0))
        est = drift_mle(3.25 * dg, dg, cov)
        assert est.mu_hat == pytest.approx(3.25, rel=1e-10)

    def test_rows_match_single_series(self):
        # an (R, N) block shares one factorization; each row's estimate
        # is bit-identical to that of the row alone, which is a float
        params = MixedParams(0.6, 0.2, 1.0, 2.0)
        cov = autocov_sequence(params, 2.0, 40)
        dg = np.diff(drift_samples("benchmark-g", 40, 2.0))
        rows = np.random.default_rng(3).standard_normal((7, 40)) + 2.0 * dg
        block = drift_mle(rows, dg, cov)
        assert block.mu_hat.shape == (7,)
        for row, mu_hat in zip(rows, block.mu_hat):
            single = drift_mle(row, dg, cov)
            assert isinstance(single.mu_hat, float)
            assert single.mu_hat == mu_hat
            assert single.variance == block.variance

    def test_zero_drift_rejected(self):
        params = NifbmParams(0.5)
        cov = autocov_sequence(params, 1.0, 4)
        with pytest.raises(ZeroDenominatorError):
            drift_mle(np.ones(4), np.zeros(4), cov)

    def test_drift_increments_must_be_a_series(self):
        # four values, as many as cov, but not one series
        cov = autocov_sequence(NifbmParams(0.5), 1.0, 4)
        with pytest.raises(LengthError, match="must align"):
            drift_mle(np.ones(4), np.ones((2, 2)), cov)

    def test_variance_matches_quadratic_form(self):
        params = NifbmParams(0.3, a2=2.0)
        cov = autocov_sequence(params, 2.0, 16)
        dg = np.diff(drift_samples("benchmark-g", 16, 2.0))
        est = drift_mle(np.ones(16), dg, cov)
        expected = 1.0 / (dg @ np.linalg.solve(toeplitz(cov), dg))
        assert est.variance == pytest.approx(expected, rel=1e-10)


    @settings(max_examples=40)
    @given(
        H1=st.floats(0.001, 0.995),
        H2=st.one_of(st.none(), st.floats(0.001, 0.995)),
        h=st.sampled_from((0.5, 2.0, 4.0)),
        n=st.integers(2, 2048),
        g_name=st.sampled_from(("benchmark-g", "linear")),
    )
    @example(H1=0.995, H2=None, h=2.0, n=2048, g_name="linear")
    @example(H1=0.001, H2=None, h=4.0, n=2048, g_name="benchmark-g")
    @example(H1=0.995, H2=0.001, h=0.5, n=2048, g_name="linear")
    def test_matches_dense_gls(self, H1, H2, h, n, g_name):
        # the weight T^-1 g / g'T^-1 g, read off as mu_hat of the unit
        # series, is compared in the norm of T: that is the error of
        # mu_hat in units of its standard deviation.  Entry by entry it
        # can lose up to cond(T) times the solver tolerance near H = 1
        if H2 is None:
            params = NifbmParams(H1, a2=1.5)
        else:
            assume(H1 != H2)
            params = MixedParams(max(H1, H2), min(H1, H2), 1.0, 2.0)
        cov = autocov_sequence(params, h, n)
        dg = np.diff(drift_samples(g_name, n, h))
        weight, variance = gls_oracle(cov, dg)
        est = drift_mle(np.eye(n), dg, cov)
        err = est.mu_hat - weight
        assert err @ toeplitz(cov) @ err <= (1e-10) ** 2 * variance
        assert est.variance == pytest.approx(variance, rel=1e-10)

    @pytest.mark.parametrize(
        "cov, dg, reason",
        [
            # the circulant preconditioner has the eigenvalue -1/3
            ([1.0, 2.0, 0.0], [1.0, 1.0, 1.0], "preconditioner"),
            # a positive definite preconditioner; the Krylov space of
            # this dg reaches the eigenvalue -0.5 of T
            ([1.0, 0.0, 0.0, 1.5], [1.0, 2.0, 3.0, 4.0], "curvature"),
        ],
    )
    def test_indefinite_raises(self, cov, dg, reason):
        with pytest.raises(NotPositiveDefiniteError, match=reason):
            drift_mle(np.zeros(len(cov)), np.array(dg), np.array(cov))

    @pytest.mark.xfail(
        strict=True,
        reason="CG sees T only along the Krylov space of delta_g; a bare "
        "call has no definiteness certificate (ROADMAP item 4)",
    )
    def test_indefinite_outside_krylov_space_raises(self):
        # toeplitz([1, 0, 0, 1.5]) has the eigenvalue -0.5, whose
        # eigenvector is antisymmetric while this delta_g is symmetric
        with pytest.raises(NotPositiveDefiniteError):
            drift_mle(np.zeros(4), np.ones(4), np.array([1.0, 0.0, 0.0, 1.5]))

    def test_numerically_indefinite_kernel_raises(self):
        # the kernel's row at H = 0.999 and N = 2048 with its lag-0 value
        # lowered by 1 %: 1662 of the 2048 eigenvalues of its Toeplitz
        # matrix turn negative, and dense Cholesky fails too
        cov = autocov_sequence(NifbmParams(0.999), 2.0, 2048)
        cov[0] *= 0.99
        dg = np.diff(drift_samples("linear", 2048, 2.0))
        with pytest.raises(np.linalg.LinAlgError):
            gls_oracle(cov, dg)
        with pytest.raises(NotPositiveDefiniteError):
            drift_mle(np.zeros(2048), dg, cov)


class TestToeplitzSolve:
    @pytest.mark.parametrize("g_name", ["linear", "benchmark-g"])
    @pytest.mark.parametrize(
        "params",
        [NifbmParams(0.3), NifbmParams(0.7, a2=2.0), MixedParams(0.7, 0.3, 2.0, 1.0)],
        ids=["H0.3", "H0.7", "mixed"],
    )
    @pytest.mark.parametrize("n", [2, 3, 8, 32, 128, 1000, 8192])
    def test_padded_solve_matches_direct_solve(self, n, params, g_name):
        # the matvec's circulant has the 5-smooth length fast_length(2N - 1):
        # 3, 5, 15, 64, 256, 2000 and 16384 here.  At N = 8192 the dense
        # matrix would take 0.5 GB, so Levinson recursion (O(N) memory)
        # is the reference there
        cov = autocov_sequence(params, 2.0, n)
        b = np.diff(drift_samples(g_name, n, 2.0))
        if n <= 1000:
            expected = np.linalg.solve(toeplitz(cov), b)
        else:
            expected = solve_toeplitz(cov, b)
        solved = _toeplitz_solve(cov, b)
        err = np.linalg.norm(solved - expected) / np.linalg.norm(expected)
        assert err <= 1e-10

    @pytest.mark.xfail(
        strict=True,
        reason="the preconditioner's rfft/irfft run at length N, which takes "
        "Bluestein's path when N has a large prime factor (ROADMAP, Smaller "
        "leftovers)",
    )
    def test_every_fft_length_is_5_smooth(self, monkeypatch):
        # 8191 is prime: at H = 0.7, h = 2 a solve takes 28 ms there
        # against 5 ms at N = 8192
        lengths = []
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def recording_rfft(a, n=None, *args, **kwargs):
            lengths.append(np.shape(a)[-1] if n is None else n)
            return rfft(a, n, *args, **kwargs)

        def recording_irfft(a, n=None, *args, **kwargs):
            lengths.append(2 * (np.shape(a)[-1] - 1) if n is None else n)
            return irfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recording_rfft)
        monkeypatch.setattr(np.fft, "irfft", recording_irfft)
        n = 8191
        cov = autocov_sequence(NifbmParams(0.7), 2.0, n)
        _toeplitz_solve(cov, np.diff(drift_samples("linear", n, 2.0)))
        assert len(lengths) > 3
        # fast_length(m) is the smallest 5-smooth length >= m
        assert [m for m in lengths if fast_length(m) != m] == []


class TestDriftTwoPoint:
    def test_noiseless(self):
        est = drift_two_point(0.0, 12.0, 3.0)
        assert est.mu_hat == 4.0
        assert est.method == "two-point"

    def test_zero_denominator(self):
        # +0.0 per last observation: a float for one, an array for several
        scalar = drift_two_point(0.0, -5.0, 0.0).mu_hat
        assert type(scalar) is float and (scalar, math.copysign(1.0, scalar)) == (0.0, 1.0)
        rows = drift_two_point(0.0, np.array([5.0, -5.0, np.nan]), 0.0).mu_hat
        assert rows.shape == (3,) and np.array_equal(rows, np.zeros(3))
        assert not np.signbit(rows).any()

    @pytest.mark.parametrize(
        "given, missing",
        [
            ({"params": NifbmParams(0.3)}, "h, N"),
            ({"h": 1.0}, "params, N"),
            ({"N": 3}, "params, h"),
            ({"params": NifbmParams(0.3), "h": 1.0}, "N"),
            ({"params": NifbmParams(0.3), "N": 3}, "h"),
            ({"h": 1.0, "N": 3}, "params"),
        ],
    )
    def test_partial_variance_arguments_rejected(self, given, missing):
        # some of params, h and N silently gave variance 0
        with pytest.raises(ValueError, match=f"needs params, h and N, missing: {missing}$"):
            drift_two_point(0.0, 1.0, 3.0, **given)

    def test_variance_closed_form_vs_assembled(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            h = rng.uniform(0.5, 4.0)
            n = int(rng.integers(4, 200))
            g_n = rng.uniform(1.0, 100.0)
            if rng.random() < 0.5:
                params = NifbmParams(H=rng.uniform(0.05, 0.95), a2=rng.uniform(0.5, 5))
            else:
                params = random_mixed(rng)
            closed = two_point_variance(params, h, n, g_n)
            assembled = two_point_variance_assembled(params, h, n, g_n)
            assert closed == pytest.approx(assembled, rel=1e-9)

    def test_table_anchor(self):
        # one-process H=0.9, h=4, N=2**7 with the benchmark drift
        g = drift_samples("benchmark-g", 128, 4.0)
        v = two_point_variance(NifbmParams(0.9, a2=1.0), 4.0, 128, g[-1])
        assert math.sqrt(v) == pytest.approx(0.00837, rel=2e-3)


class TestEfficiency:
    def test_mle_beats_two_point(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            h = rng.uniform(1.0, 4.0)
            n = int(rng.integers(8, 128))
            if rng.random() < 0.5:
                params = NifbmParams(H=rng.uniform(0.1, 0.9), a2=rng.uniform(0.5, 3))
            else:
                params = random_mixed(rng)
            g = drift_samples("benchmark-g", n, h)
            cov = autocov_sequence(params, h, n)
            mle = drift_mle(np.zeros(n) + 1.0, np.diff(g), cov)
            assert mle.variance <= two_point_variance(params, h, n, g[-1]) * (1 + 1e-9)


class TestUnbiasedness:
    def test_monte_carlo_means(self):
        params = NifbmParams(0.6, a2=1.0)
        n, n_reps, mu = 32, 400, 4.0
        g = drift_samples("benchmark-g", n, 2.0)
        dg = np.diff(g)
        cov = autocov_sequence(params, 2.0, n)
        block = sample_increments(params, 2.0, n, stream_generator(100, 0), n_reps)
        mles, twops = [], []
        for noise in block:
            dy = add_drift(noise, DriftSpec(mu=mu, g_values=g))
            mles.append(drift_mle(dy, dg, cov).mu_hat)
            twops.append(drift_two_point(0.0, float(np.sum(dy)), g[-1]).mu_hat)
        for vals in (np.array(mles), np.array(twops)):
            se = vals.std(ddof=1) / math.sqrt(n_reps)
            assert abs(vals.mean() - mu) < 4.0 * se


class TestTwoStage:
    def test_zero_drift_matches_direct(self):
        params = NifbmParams(0.5)
        noise = sample_increments(params, 2.0, 65, stream_generator(15, 0), 1)[0]
        y = np.concatenate([[0.0], np.cumsum(noise)])
        g = np.arange(66.0) * 2.0
        drift, est = two_stage_estimate(y, g, 2.0, model="one-nifbm")
        # mu contribution removed exactly when mu = 0 and the estimator
        # sees residuals equal to pure noise minus a linear correction
        assert abs(drift.mu_hat) < 1.0
        xi = xi_statistics_from_base(np.diff(y - drift.mu_hat * g), factors=(1, 2))
        direct = estimate_one_nifbm(xi, 2.0)
        assert est.H_hat == pytest.approx(direct.H_hat, abs=1e-12)

    def test_noiseless_input(self):
        g = np.arange(22.0)
        y = 4.0 * g
        drift, est = two_stage_estimate(y, g, 1.0, model="one-nifbm")
        assert drift.mu_hat == pytest.approx(4.0, rel=1e-14)
        assert est.degenerate

    def test_linear_drift_recovery_mc(self):
        # stage-2 Hurst estimate should be close to the no-drift one
        params = NifbmParams(0.5)
        n = 257
        block = sample_increments(params, 1.0, n, stream_generator(16, 0), 100)
        g = (np.arange(n + 1.0)) ** 2  # fast-growing drift satisfies the rate check
        h_two_stage, h_direct = [], []
        for noise in block:
            y = np.concatenate([[0.0], np.cumsum(noise)]) + 4.0 * g
            _, est = two_stage_estimate(y, g, 1.0, model="one-nifbm")
            h_two_stage.append(est.H_hat)
            xi = xi_statistics_from_base(noise, factors=(1, 2))
            h_direct.append(estimate_one_nifbm(xi, 1.0).H_hat)
        assert abs(np.mean(h_two_stage) - np.mean(h_direct)) < 0.02

    def test_two_process_mode(self):
        params = MixedParams(0.6, 0.2, 1.0, 1.0)
        n = 8 * 16 + 7
        noise = sample_increments(params, 1.0, n, stream_generator(17, 0), 1)[0]
        g = (np.arange(n + 1.0)) ** 2
        y = np.concatenate([[0.0], np.cumsum(noise)]) + 2.0 * g
        drift, est = two_stage_estimate(y, g, 1.0, model="two-nifbm")
        assert drift.method == "two-point"
        assert est.H1_hat >= est.H2_hat

    def test_slow_drift_warns(self):
        # sublinear drift fails the N^0.99 / |G_N| < 1 heuristic
        g = np.sqrt(np.arange(50.0))
        y = g * 0.5
        with pytest.warns(UserWarning):
            two_stage_estimate(y, g, 1.0, model="one-nifbm")

    @pytest.mark.parametrize("model", ["one", "three-nifbm"])
    def test_unknown_model(self, model):
        g = np.arange(22.0)
        with pytest.raises(ValueError, match="model must be one of"):
            two_stage_estimate(4.0 * g, g, 1.0, model=model)

    def test_unknown_model_checked_before_any_work(self):
        # this drift grows too slowly and would warn: the model is checked
        # first, so the ValueError comes alone
        g = 0.1 * np.arange(5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="model must be one of"):
                two_stage_estimate(np.arange(5.0), g, 1.0, model="bogus")
