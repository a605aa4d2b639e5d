import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nifbm.covariance import (
    MixedParams,
    NifbmParams,
    autocov_sequence,
)
from nifbm.errors import (
    GridMismatchError,
    LengthError,
    NotPositiveDefiniteError,
)
from nifbm.simulation import (
    DriftSpec,
    RngSeed,
    SampleGrid,
    _embedding_scale,
    _stream_normals,
    _stream_states,
    add_drift,
    aggregate_increments,
    cholesky_factor,
    combine_mixed_components,
    embedding_length,
    sample_increments,
    sample_mixed_components,
    seed_blocks,
)
from scipy.linalg import toeplitz

from conftest import stream_generator

# one to four 32-bit words each, so one block mixes entropy lengths 2..8
_WORD_EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96)
_SEED_INTS = st.one_of(st.sampled_from(_WORD_EDGES), st.integers(0, 2**128 - 1))


def seeds(seed, n_reps):
    return [RngSeed(seed, r) for r in range(n_reps)]


def batch_sample(params, grid, n_reps, seed=0):
    """Replications as rows, drawn in one block by the shipped sampler."""
    return sample_increments(params, grid, seeds(seed, n_reps))


class TestCholeskyFactor:
    def test_scalar(self):
        factor = cholesky_factor(np.array([4.0]))
        assert factor.shape == (1, 1)
        assert factor[0, 0] == 2.0

    def test_identity(self):
        row = np.zeros(6)
        row[0] = 1.0
        assert np.array_equal(cholesky_factor(row), np.eye(6))

    def test_reconstruction(self):
        seq = autocov_sequence(NifbmParams(0.7), 2.0, 1, 256)
        factor = cholesky_factor(seq)
        target = toeplitz(seq)
        err = np.linalg.norm(factor @ factor.T - target) / np.linalg.norm(target)
        assert err < 1e-9

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_factor(np.array([1.0, 2.0, 0.0]))


class TestSampleIncrements:
    def test_determinism(self):
        params = NifbmParams(0.3, a2=2.0)
        grid = SampleGrid(h=1.0, N=32)
        a = sample_increments(params, grid, [RngSeed(7, 3)])
        b = sample_increments(params, grid, [RngSeed(7, 3)])
        assert a.shape == (1, 32)
        assert np.array_equal(a, b)
        c = sample_increments(params, grid, [RngSeed(7, 4)])
        assert not np.array_equal(a, c)

    def test_zero_mean(self):
        params = NifbmParams(0.6)
        grid = SampleGrid(h=1.0, N=8)
        samples = batch_sample(params, grid, 10**4, seed=11)
        sd0 = np.sqrt(autocov_sequence(params, 1.0, 1, 1)[0])
        assert abs(samples[:, 0].mean()) < 4.0 * sd0 / 100.0

    def test_lag3_brownian_uncorrelated(self):
        params = NifbmParams(0.5)
        grid = SampleGrid(h=1.0, N=8)
        samples = batch_sample(params, grid, 10**4, seed=12)
        prods = samples[:, 0] * samples[:, 3]
        se = prods.std(ddof=1) / np.sqrt(len(prods))
        assert abs(prods.mean()) < 4.0 * se

    def test_distributional_correctness(self):
        params = NifbmParams(0.7)
        grid = SampleGrid(h=2.0, N=64)
        n_reps = 2 * 10**4
        samples = batch_sample(params, grid, n_reps, seed=13)
        emp = samples.T @ samples / n_reps
        target = toeplitz(autocov_sequence(params, 2.0, 1, 64))
        # SE of a product-moment estimate of cov(X_i, X_j)
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n_reps)
        assert np.all(np.abs(emp - target) < 5.0 * se)

    def test_mixed_model_sampling(self):
        params = MixedParams(0.7, 0.3, 2.0, 1.0)
        grid = SampleGrid(h=1.0, N=16, j=2)
        assert sample_increments(params, grid, [RngSeed(1, 0)]).shape == (1, 16)

    def test_block_rows_equal_single_seed_draws(self):
        # 100 replications at N = 513 span two blocks of 64 and 36 seeds
        params = NifbmParams(0.3)
        grid = SampleGrid(h=2.0, N=513)
        blocks = list(seed_blocks(3, 10, 100, grid.N))
        assert [len(b) for b in blocks] == [64, 36]
        assert blocks[1][0] == RngSeed(3, 74)
        drawn = np.vstack([sample_increments(params, grid, b) for b in blocks])
        whole = sample_increments(params, grid, [s for b in blocks for s in b])
        assert np.array_equal(drawn, whole)
        for r in (0, 63, 64, 99):
            single = sample_increments(params, grid, [RngSeed(3, 10 + r)])[0]
            assert np.array_equal(drawn[r], single)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 4)])
    def test_shortest_series(self, n, m):
        params = MixedParams(0.7, 0.3, 2.0, 1.0)
        grid = SampleGrid(h=1.0, N=n)
        assert embedding_length(n) == m
        block = sample_increments(params, grid, seeds(4, 5))
        assert block.shape == (5, n)
        for r in range(5):
            single = sample_increments(params, grid, [RngSeed(4, r)])[0]
            assert np.array_equal(block[r], single)
        e1, e2 = sample_mixed_components(params, n, seeds(4, 5))
        assert e1.shape == e2.shape == (5, n)
        f1, f2 = sample_mixed_components(params, n, [RngSeed(4, 2)])
        assert np.array_equal(e1[2], f1[0]) and np.array_equal(e2[2], f2[0])

    def test_embedding_once_per_grid_point(self):
        # the seed blocks of a grid point share one embedding; the mixed
        # sampler's unit components are keyed by (H, N) at h = j = 1
        _embedding_scale.cache_clear()
        grid = SampleGrid(h=2.0, N=513)
        blocks = list(seed_blocks(3, 0, 100, grid.N))
        assert len(blocks) == 2
        for block in blocks:
            sample_increments(NifbmParams(0.3), grid, block)
        for block in blocks:
            sample_mixed_components(MixedParams(0.7, 0.3, 2.0, 1.0), grid.N, block)
        info = _embedding_scale.cache_info()
        assert (info.misses, info.hits) == (3, 3)
        assert not _embedding_scale(NifbmParams(0.3), 2.0, 1, 513).flags.writeable

    def test_indefinite_embedding_names_ratio(self):
        grid = SampleGrid(h=1.0, N=1025)
        with pytest.raises(NotPositiveDefiniteError) as info:
            sample_increments(NifbmParams(0.999), grid, [RngSeed(0)])
        message = str(info.value)
        match = re.search(r"ratio (-[0-9.e+-]+)", message)
        assert match and float(match.group(1)) < -1e-8
        assert "embedding length 2048" in message


class TestStreamStates:
    def assert_matches_default_rng(self, block):
        states = _stream_states(block)
        assert states == [stream_generator(s).bit_generator.state for s in block]
        normals = _stream_normals(block, (2, 3))
        for row, s in zip(normals, block):
            assert np.array_equal(row, stream_generator(s).standard_normal((2, 3)))

    def test_word_count_edges(self):
        # every pair of edge values in one block: several seeds and every
        # entropy length from 2 to 8 words side by side
        block = [RngSeed(a, b) for a in _WORD_EDGES for b in _WORD_EDGES]
        self.assert_matches_default_rng(block)

    def test_consecutive_streams(self):
        for seed in (0, 42, 2**32 - 1):
            self.assert_matches_default_rng(seeds(seed, 500))

    @given(st.lists(st.builds(RngSeed, _SEED_INTS, _SEED_INTS), min_size=1, max_size=8))
    @settings(max_examples=150)
    def test_any_block(self, block):
        self.assert_matches_default_rng(block)

    def test_empty_block(self):
        assert _stream_states([]) == []
        assert _stream_normals([], (4,)).shape == (0, 4)


class TestSharedComponentSampling:
    def test_determinism_and_shape(self):
        params = MixedParams(0.6, 0.2, 4.0, 4.0)
        e1a, e2a = sample_mixed_components(params, 64, [RngSeed(5, 1)])
        e1b, e2b = sample_mixed_components(params, 64, [RngSeed(5, 1)])
        assert e1a.shape == e2a.shape == (1, 64)
        assert np.array_equal(e1a, e1b) and np.array_equal(e2a, e2b)

    def test_combined_autocovariance(self):
        # rescaling shared unit-kernel noise must reproduce the width-jh
        # covariance at every factor
        params = MixedParams(0.6, 0.2, 4.0, 4.0)
        n, n_reps = 8, 2 * 10**4
        e1, e2 = sample_mixed_components(params, n, seeds(21, n_reps))
        for j in (1, 2, 8):
            w = 2.0 * j
            vals = (
                np.sqrt(params.a2) * w**params.H1 * e1
                + np.sqrt(params.b2) * w**params.H2 * e2
            )
            for lag in (0, 1, 3):
                target = autocov_sequence(params, 2.0, j, lag + 1)[lag]
                prods = vals[:, 0] * vals[:, lag]
                se = prods.std(ddof=1) / np.sqrt(n_reps)
                assert abs(prods.mean() - target) < 5.0 * se

    def test_combine_helper(self):
        params = MixedParams(0.6, 0.2, 4.0, 4.0)
        e1, e2 = sample_mixed_components(params, 32, [RngSeed(5, 2)])
        series = combine_mixed_components(params, 2.0, 4, e1[0], e2[0])
        assert series.shape == (32,)


class TestAggregation:
    def test_constant_series(self):
        # a constant base increment c means the path grows by c per step
        # of width h, so a width-j*h increment is j*c; each doubling of
        # the rule (weights 1/2, 1, 1/2) doubles the constant
        base = np.full(15, 2.5)
        for j in (2, 4, 8):
            out = aggregate_increments(base, j)
            assert np.allclose(out, 2.5 * j)

    def test_three_point_rule(self):
        base = np.array([1.0, 2.0, 3.0])
        out = aggregate_increments(base, 2)
        assert out.tolist() == [0.5 * (3.0 + 2 * 2.0 + 1.0)]

    def test_length_contract(self):
        assert len(aggregate_increments(np.zeros(2 * 10 + 1), 2)) == 10
        assert len(aggregate_increments(np.zeros(8 * 3 + 7), 8)) == 3

    def test_too_short(self):
        with pytest.raises(LengthError):
            aggregate_increments(np.array([1.0, 2.0, 3.0]), 4)

    def test_aggregated_covariance_analytic(self):
        # push the base Toeplitz covariance through the aggregation map
        # and compare with the direct width-2h formula
        params = MixedParams(0.65, 0.25, 2.0, 3.0)
        n_base, n_out = 41, 20
        base_cov = toeplitz(autocov_sequence(params, 1.5, 1, n_base))
        agg = np.zeros((n_out, n_base))
        for k in range(n_out):
            agg[k, 2 * k] = 0.5
            agg[k, 2 * k + 1] = 1.0
            agg[k, 2 * k + 2] = 0.5
        pushed = agg @ base_cov @ agg.T
        direct = toeplitz(autocov_sequence(params, 1.5, 2, n_out))
        assert np.allclose(pushed, direct, rtol=1e-10, atol=1e-9)

    def test_aggregated_covariance_monte_carlo(self):
        params = NifbmParams(0.7)
        grid = SampleGrid(h=1.0, N=17)
        n_reps = 10**4
        samples = batch_sample(params, grid, n_reps, seed=31)
        agg = np.zeros((8, 17))
        for k in range(8):
            agg[k, 2 * k] = 0.5
            agg[k, 2 * k + 1] = 1.0
            agg[k, 2 * k + 2] = 0.5
        out = samples @ agg.T
        targets = autocov_sequence(params, 1.0, 2, 3)
        for lag in (0, 2):
            target = targets[lag]
            prods = out[:, 0] * out[:, lag]
            se = prods.std(ddof=1) / np.sqrt(n_reps)
            assert abs(prods.mean() - target) < 4.0 * se


class TestCirculantSampler:
    def test_determinism(self):
        params = NifbmParams(0.7)
        grid = SampleGrid(h=2.0, N=512)
        a = sample_increments(params, grid, [RngSeed(9, 0)])
        b = sample_increments(params, grid, [RngSeed(9, 0)])
        assert np.array_equal(a, b)

    def test_autocovariance(self):
        params = NifbmParams(0.7)
        grid = SampleGrid(h=2.0, N=64)
        n_reps = 4000
        rows = sample_increments(params, grid, seeds(40, n_reps))
        targets = autocov_sequence(params, 2.0, 1, 6)
        for lag in (0, 1, 5):
            prods = rows[:, 0] * rows[:, lag]
            se = prods.std(ddof=1) / np.sqrt(n_reps)
            assert abs(prods.mean() - targets[lag]) < 5.0 * se


class TestAddDrift:
    def test_zero_mu_identity(self):
        series = np.arange(4.0)
        drift = DriftSpec(mu=0.0, g_values=np.arange(5.0) * 2.0)
        assert np.array_equal(add_drift(series, drift), series)

    def test_linear_drift(self):
        series = np.zeros(5)
        drift = DriftSpec(mu=4.0, g_values=np.arange(6.0) * 2.0)
        assert np.allclose(add_drift(series, drift), 8.0)

    def test_telescoping(self):
        t = np.arange(9, dtype=float)
        g = 5 * np.cos(t) - np.exp(-4 * t) + 2 * t**2
        g -= g[0]
        grid = SampleGrid(h=1.0, N=8)
        noise = sample_increments(NifbmParams(0.4), grid, [RngSeed(2, 2)])[0]
        shifted = add_drift(noise, DriftSpec(mu=4.0, g_values=g))
        assert np.sum(shifted - noise) == pytest.approx(
            4.0 * (g[-1] - g[0]), rel=1e-12
        )

    def test_linearity(self):
        a = np.arange(6.0)
        b = np.ones(6)
        drift = DriftSpec(mu=2.0, g_values=np.arange(7.0))
        lhs = add_drift(a + b, drift)
        rhs = add_drift(a, drift) + b
        assert np.allclose(lhs, rhs)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            add_drift(np.zeros(4), DriftSpec(mu=1.0, g_values=np.arange(4.0)))

    def test_rows_match_single_series(self):
        rows = np.arange(18.0).reshape(3, 6)
        drift = DriftSpec(mu=2.5, g_values=np.arange(7.0) ** 2)
        shifted = add_drift(rows, drift)
        assert shifted.shape == (3, 6)
        for row, out in zip(rows, shifted):
            assert np.array_equal(out, add_drift(row, drift))
        with pytest.raises(GridMismatchError):
            add_drift(rows, DriftSpec(mu=1.0, g_values=np.arange(6.0)))


class TestTypeValidation:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SampleGrid(h=0.0, N=4)
        with pytest.raises(ValueError):
            SampleGrid(h=1.0, N=0)
        with pytest.raises(ValueError):
            SampleGrid(h=1.0, N=4, j=3)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                SampleGrid(h=bad, N=4)

    def test_drift_spec_validation(self):
        with pytest.raises(ValueError):
            DriftSpec(mu=1.0, g_values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            DriftSpec(mu=1.0, g_values=np.zeros(5))

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RngSeed(-1, 0)
