import math
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nifbm
import nifbm.simulation as simulation
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
from nifbm.estimation import (
    AGGREGATION_FACTORS,
    aggregate_increments,
    base_length,
    xi_statistics_from_base,
)
from nifbm.harness import MAX_N
from nifbm.simulation import (
    BLOCK_ELEMENTS,
    DriftSpec,
    _embedding_scale,
    add_drift,
    block_workspace,
    cholesky_factor,
    combine_mixed_components,
    embedding_eigenvalues,
    embedding_length,
    fast_length,
    sample_increments,
    sample_mixed_components,
    seed_blocks,
    stream_generator,
)
from scipy.linalg import toeplitz

import conftest

# the edges of one to four 32-bit words
_WORD_EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96)
_SEED_INTS = st.one_of(st.sampled_from(_WORD_EDGES), st.integers(0, 2**128 - 1))


_NOT_NATURAL = "seed and stream must be nonnegative integers"


def batch_sample(params, h, N, n_reps, seed=0):
    """Replications as rows, drawn in one block from stream 0 of the
    seed by the shipped sampler."""
    return sample_increments(params, h, N, stream_generator(seed, 0), n_reps)


def one_path(params, h, N, seed, stream):
    """The first path of stream (seed, stream), as `nifbm simulate`
    prints it."""
    return sample_increments(params, h, N, stream_generator(seed, stream), 1)


def component_generators(seed):
    """Streams 1 and 2 of a seed, one generator per component of a
    two-process noise, as the harness's direct-per-j noise stage draws
    them."""
    return [stream_generator(seed, 1), stream_generator(seed, 2)]


class RecordingGenerator:
    """A generator that keeps a copy of each standard_normal draw."""

    def __init__(self, seed, stream):
        self.rng = stream_generator(seed, stream)
        self.draws = []

    def standard_normal(self, shape):
        draw = self.rng.standard_normal(shape)
        self.draws.append(draw.copy())
        return draw


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
        seq = autocov_sequence(NifbmParams(0.7), 2.0, 256)
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
        a = one_path(params, 1.0, 32, 7, 3)
        b = one_path(params, 1.0, 32, 7, 3)
        assert a.shape == (1, 32)
        assert np.array_equal(a, b)
        c = one_path(params, 1.0, 32, 7, 4)
        assert not np.array_equal(a, c)

    def test_zero_mean(self):
        params = NifbmParams(0.6)
        samples = batch_sample(params, 1.0, 8, 10**4, seed=11)
        sd0 = np.sqrt(autocov_sequence(params, 1.0, 1)[0])
        assert abs(samples[:, 0].mean()) < 4.0 * sd0 / 100.0

    def test_lag3_brownian_uncorrelated(self):
        params = NifbmParams(0.5)
        samples = batch_sample(params, 1.0, 8, 10**4, seed=12)
        prods = samples[:, 0] * samples[:, 3]
        se = prods.std(ddof=1) / np.sqrt(len(prods))
        assert abs(prods.mean()) < 4.0 * se

    def test_distributional_correctness(self):
        params = NifbmParams(0.7)
        n_reps = 2 * 10**4
        samples = batch_sample(params, 2.0, 64, n_reps, seed=13)
        emp = samples.T @ samples / n_reps
        target = toeplitz(autocov_sequence(params, 2.0, 64))
        # SE of a product-moment estimate of cov(X_i, X_j)
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n_reps)
        assert np.all(np.abs(emp - target) < 5.0 * se)

    def test_mixed_model_sampling(self):
        params = MixedParams(0.7, 0.3, 2.0, 1.0)
        assert one_path(params, 2.0, 16, 1, 0).shape == (1, 16)

    def test_block_rows_equal_row_by_row_draws(self):
        # 100 replications at N = 513 span two blocks of 64 and 36 rows
        params = NifbmParams(0.3)
        blocks = list(seed_blocks(100, 513))
        assert [len(b) for b in blocks] == [64, 36]
        assert blocks[1][0] == 64
        rng = stream_generator(3, 10)
        drawn = np.vstack([sample_increments(params, 2.0, 513, rng, len(b)) for b in blocks])
        whole = sample_increments(params, 2.0, 513, stream_generator(3, 10), 100)
        assert np.array_equal(drawn, whole)
        for r in (0, 63, 64, 99):
            # row r is what follows the first r rows on the stream
            rng = stream_generator(3, 10)
            sample_increments(params, 2.0, 513, rng, r)
            single = sample_increments(params, 2.0, 513, rng, 1)[0]
            assert np.array_equal(drawn[r], single)

    def test_seed_blocks_cover_rows_in_order(self):
        # at N = 513 a block holds 65536 // 1024 = 64 rows
        blocks = list(seed_blocks(100, 513))
        assert blocks == [range(0, 64), range(64, 100)]
        assert list(seed_blocks(5, 513)) == [range(5)]
        assert list(seed_blocks(0, 513)) == []

    @pytest.mark.parametrize(
        "seed,stream,message",
        [(-1, 0, _NOT_NATURAL), (0, -1, _NOT_NATURAL),
         (1.5, 0, _NOT_NATURAL), (0, 0.5, _NOT_NATURAL),
         (True, 0, _NOT_NATURAL), (0, True, _NOT_NATURAL),
         (0, 2**128, r"stream must be below 2\*\*128")],
        ids=["negative-seed", "negative-stream", "float-seed", "float-stream",
             "bool-seed", "bool-stream", "stream-past-period"],
    )
    def test_bad_seed_or_stream_rejected(self, seed, stream, message):
        with pytest.raises(ValueError, match=message):
            stream_generator(seed, stream)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 4)])
    def test_shortest_series(self, n, m):
        params = MixedParams(0.7, 0.3, 2.0, 1.0)
        assert embedding_length(n) == m
        block = sample_increments(params, 1.0, n, stream_generator(4, 0), 5)
        assert block.shape == (5, n)
        rng = stream_generator(4, 0)
        for r in range(5):
            single = sample_increments(params, 1.0, n, rng, 1)[0]
            assert np.array_equal(block[r], single)
        e1, e2 = sample_mixed_components(params, n, component_generators(4), 5)
        assert e1.shape == e2.shape == (5, n)
        rngs = component_generators(4)
        sample_mixed_components(params, n, rngs, 2)
        f1, f2 = sample_mixed_components(params, n, rngs, 1)
        assert np.array_equal(e1[2], f1[0]) and np.array_equal(e2[2], f2[0])

    def test_embedding_once_per_grid_point(self):
        # the seed blocks of a grid point share one embedding; the mixed
        # sampler's unit components are keyed by (H, N) at width 1, and
        # it looks each one up in the caller before drawing it, so each
        # of its calls hits the cache twice per component after the
        # first lookup misses
        _embedding_scale.cache_clear()
        blocks = list(seed_blocks(100, 513))
        assert len(blocks) == 2
        rng = stream_generator(3, 0)
        for block in blocks:
            sample_increments(NifbmParams(0.3), 2.0, 513, rng, len(block))
        rngs = component_generators(3)
        for block in blocks:
            sample_mixed_components(MixedParams(0.7, 0.3, 2.0, 1.0), 513, rngs, len(block))
        info = _embedding_scale.cache_info()
        assert (info.misses, info.hits) == (3, 7)
        assert not _embedding_scale(NifbmParams(0.3), 2.0, 513).flags.writeable

    def test_embedding_definite_at_longest_base(self):
        # the padded embedding, filled with the kernel's own lags, at the
        # lengths of the small-N tables and experiments and at the
        # longest base the harness draws: two-process aggregate noise at
        # N = MAX_N samples 8 N + 7 increments, embedded in length
        # 2 * 65610.  The smallest min/max eigenvalue ratio is about
        # 6.4e-8, at H = 0.99 and the longest base
        longest = base_length(AGGREGATION_FACTORS, MAX_N)
        assert longest == 65543
        for n in (8, 32, 64, 128, 256, longest):
            m = embedding_length(n)
            for H in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.98, 0.99):
                row = autocov_sequence(NifbmParams(H), 1.0, m // 2 + 1)
                eig = embedding_eigenvalues(row, m)
                assert eig.min() > 0.0, (n, H, eig.min() / eig.max())
                if n < longest:
                    # this is the embedding the sampler draws from
                    scale = _embedding_scale(NifbmParams(H), 1.0, n)
                    assert np.array_equal(scale, np.sqrt(eig * m / 2.0))

    def test_indefinite_embedding_names_ratio(self, monkeypatch):
        # the kernel's own embeddings are nonnegative definite even at
        # H = 0.999, so the lag-0 value is lowered by 1 %: that makes the
        # Toeplitz matrix itself indefinite, and its embedding with it
        def lowered(params, h, n):
            row = autocov_sequence(params, h, n)
            row[0] *= 0.99
            return row

        monkeypatch.setattr(simulation, "autocov_sequence", lowered)
        _embedding_scale.cache_clear()
        with pytest.raises(NotPositiveDefiniteError) as info:
            one_path(NifbmParams(0.999), 1.0, 1025, 0, 0)
        message = str(info.value)
        match = re.search(r"ratio (-[0-9.e+-]+)", message)
        assert match and float(match.group(1)) < -1e-8
        assert "embedding length 2048" in message


class TestEmbeddingLength:
    def test_fast_length_matches_brute_force(self):
        smooth = [False] * 10001
        for m in range(1, 10001):
            k = m
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            smooth[m] = k == 1
        for n in range(1, 5001):
            expected = next(m for m in range(n, 10001) if smooth[m])
            assert fast_length(n) == expected, n

    @pytest.mark.parametrize(
        "n,m",
        [(1, 1), (2, 2), (3, 4), (8, 16), (32, 64), (64, 128), (128, 256),
         (255, 512), (256, 512), (1025, 2048), (4097, 8192), (8193, 16384),
         (65543, 131220)],
    )
    def test_twice_a_smooth_length(self, n, m):
        # 2(N - 1) rounded up to twice a 5-smooth number: unchanged where
        # it already is one, as at N = 2^k + 1
        assert embedding_length(n) == embedding_length(np.int64(n)) == m
        assert type(embedding_length(np.int64(n))) is int

    @pytest.mark.parametrize("bad", [True, 64.0, 0, -3])
    def test_n_checked_before_rounding(self, bad):
        with pytest.raises(ValueError, match="N must be an integer >= 1"):
            embedding_length(bad)
        with pytest.raises(ValueError, match="N must be an integer >= 1"):
            list(seed_blocks(4, bad))

    def test_spectrum_of_padded_row(self):
        # row[k] sits at k and m - k of the first row, zeros between
        row = np.array([3.0, 1.0, 0.5])
        for m in (4, 5, 8):
            first = np.zeros(m)
            first[[0, 1, 2, m - 2, m - 1]] = [3.0, 1.0, 0.5, 0.5, 1.0]
            circulant = first[(np.arange(m)[None, :] - np.arange(m)[:, None]) % m]
            expected = np.sort(np.linalg.eigvalsh(circulant))
            eig = embedding_eigenvalues(row, m)
            full = np.concatenate([eig, eig[1 : (m + 1) // 2][::-1]])
            assert np.allclose(np.sort(full), expected)


class TestStreams:
    def assert_matches_jumped(self, seed, streams):
        for stream in streams:
            drawn = stream_generator(seed, stream).standard_normal((2, 3))
            expected = conftest.stream_generator(seed, stream).standard_normal((2, 3))
            assert np.array_equal(drawn, expected)

    def test_word_count_edges(self):
        # every edge stream of every edge seed
        for seed in _WORD_EDGES:
            self.assert_matches_jumped(seed, _WORD_EDGES)

    @given(_SEED_INTS, st.lists(_SEED_INTS, min_size=1, max_size=8))
    @settings(max_examples=150)
    def test_any_stream(self, seed, streams):
        self.assert_matches_jumped(seed, streams)

    @pytest.mark.parametrize("count", [0, 1, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
    def test_sampler_normals_are_the_stream_in_order(self, n, count):
        # one standard_normal call per block and generator, of shape
        # (count, k, 2), component c of a two-process draw on stream 5 + c:
        # two blocks on one generator are the stream's next 2 * count slabs
        k = embedding_length(n) // 2 + 1
        cases = [(NifbmParams(0.3), 1), (MixedParams(0.7, 0.3, 2.0, 1.0), 2)]
        for params, components in cases:
            rngs = [RecordingGenerator(42, 5 + c) for c in range(components)]
            for _ in range(2):
                if components == 1:
                    sample_increments(params, 1.0, n, rngs[0], count)
                else:
                    sample_mixed_components(params, n, rngs, count)
            for c, rng in enumerate(rngs):
                oracle = conftest.stream_generator(42, 5 + c)
                assert len(rng.draws) == 2
                for draw in rng.draws:
                    assert np.array_equal(draw, oracle.standard_normal((count, k, 2)))

    @pytest.mark.parametrize("n", [2, 3, 8, 65])
    def test_paths_from_the_stream_normals(self, n):
        # the spectral map written out: z = (re + i im) * scale, with the
        # zero and (even m) Nyquist bins real and scaled by sqrt(2)
        m, reps = embedding_length(n), 6
        k = m // 2 + 1
        params = MixedParams(0.7, 0.3, 2.0, 1.0)
        scales = [_embedding_scale(params, 2.0, n)] + [
            _embedding_scale(NifbmParams(H), 1.0, n) for H, _ in params.components
        ]
        drawn = [sample_increments(params, 2.0, n, stream_generator(9, 1), reps)]
        drawn += sample_mixed_components(params, n, component_generators(9), reps)
        normals = [
            conftest.stream_generator(9, stream).standard_normal((reps, k, 2))
            for stream in (1, 1, 2)
        ]
        for paths, z_parts, scale in zip(drawn, normals, scales):
            z = z_parts[..., 0] + 1j * z_parts[..., 1]
            z[:, 0] = z[:, 0].real * math.sqrt(2.0)
            if m % 2 == 0:
                z[:, -1] = z[:, -1].real * math.sqrt(2.0)
            expected = np.fft.irfft(z * scale, n=m)[:, :n]
            np.testing.assert_allclose(paths, expected, rtol=1e-12, atol=1e-12)

    def test_empty_block(self):
        rng = stream_generator(0, 0)
        assert sample_increments(NifbmParams(0.3), 1.0, 4, rng, 0).shape == (0, 4)
        rngs = [rng, stream_generator(0, 1)]
        parts = sample_mixed_components(MixedParams(0.7, 0.3, 2.0, 1.0), 4, rngs, 0)
        assert [p.shape for p in parts] == [(0, 4), (0, 4)]
        # an empty block draws nothing
        for stream, generator in enumerate(rngs):
            assert np.array_equal(
                generator.standard_normal(3),
                conftest.stream_generator(0, stream).standard_normal(3),
            )

    def test_stream_beyond_period_rejected(self):
        # jumped wraps modulo 2^128: jumped(2**128) would repeat stream 0
        self.assert_matches_jumped(7, [2**128 - 1])
        message = r"stream must be below 2\*\*128"
        for stream in (2**128, 2**128 + 5):
            with pytest.raises(ValueError, match=message):
                stream_generator(7, stream)

    def test_consecutive_rows_uncorrelated(self):
        # first increments of 4000 consecutive rows of one stream at
        # N = 8: each correlation over n pairs is within 4/sqrt(n) of 0
        def assert_uncorrelated(x, y):
            assert abs(np.corrcoef(x, y)[0, 1]) < 4.0 / math.sqrt(x.size)

        params, mixed = NifbmParams(0.3), MixedParams(0.7, 0.3, 2.0, 1.0)
        first = sample_increments(params, 1.0, 8, stream_generator(11, 0), 4000)[:, 0]
        e1, e2 = sample_mixed_components(mixed, 8, component_generators(11), 4000)
        for x in (first, e1[:, 0], e2[:, 0]):
            for gap in (1, 1000):
                assert_uncorrelated(x[:-gap], x[gap:])
        # the two components of a row, drawn from streams 1 and 2
        assert_uncorrelated(e1[:, 0], e2[:, 0])
        # the harness's drift and noise stages: streams 0 and 1 of a seed
        other = sample_increments(params, 1.0, 8, stream_generator(11, 1), 4000)[:, 0]
        assert_uncorrelated(first, other)


class TestSharedComponentSampling:
    def test_determinism_and_shape(self):
        params = MixedParams(0.6, 0.2, 4.0, 4.0)
        e1a, e2a = sample_mixed_components(params, 64, component_generators(5), 1)
        e1b, e2b = sample_mixed_components(params, 64, component_generators(5), 1)
        assert e1a.shape == e2a.shape == (1, 64)
        assert np.array_equal(e1a, e1b) and np.array_equal(e2a, e2b)

    def test_combined_autocovariance(self):
        # rescaling shared unit-kernel noise must reproduce the width-jh
        # covariance at every factor
        params = MixedParams(0.6, 0.2, 4.0, 4.0)
        n, n_reps = 8, 2 * 10**4
        e1, e2 = sample_mixed_components(params, n, component_generators(21), n_reps)
        for j in (1, 2, 8):
            w = 2.0 * j
            vals = (
                np.sqrt(params.a2) * w**params.H1 * e1
                + np.sqrt(params.b2) * w**params.H2 * e2
            )
            for lag in (0, 1, 3):
                target = autocov_sequence(params, 2.0 * j, lag + 1)[lag]
                prods = vals[:, 0] * vals[:, lag]
                se = prods.std(ddof=1) / np.sqrt(n_reps)
                assert abs(prods.mean() - target) < 5.0 * se

    def test_combine_helper(self):
        params = MixedParams(0.6, 0.2, 4.0, 4.0)
        e1, e2 = sample_mixed_components(params, 32, component_generators(5), 1)
        series = combine_mixed_components(params, 8.0, e1[0], e2[0])
        assert series.shape == (32,)


class TestBlockWorkspace:
    """A stage's seed blocks drawn into one workspace give the draws of
    unbuffered calls; each block overwrites the last."""

    @pytest.mark.parametrize(
        "params", [NifbmParams(0.3, 1.5), MixedParams(0.7, 0.3, 2.0, 1.5)]
    )
    def test_buffered_blocks_equal_one_call(self, params):
        # 150 rows at N = 513 span blocks of 64, 64 and 22 rows
        n, reps = 513, 150
        blocks = list(seed_blocks(reps, n))
        assert [len(b) for b in blocks] == [64, 64, 22]
        mixed = isinstance(params, MixedParams)
        workspaces = [block_workspace(n, len(blocks[0])) for _ in params.components]

        def draw(rngs, count, workspaces=None):
            if mixed:
                parts = sample_mixed_components(params, n, rngs, count, workspace=workspaces)
                return np.stack(parts)
            workspace = None if workspaces is None else workspaces[0]
            return sample_increments(params, 2.0, n, rngs[0], count, workspace=workspace)[None]

        rngs = component_generators(7)
        buffered = [draw(rngs, len(b), workspaces).copy() for b in blocks]
        whole = draw(component_generators(7), reps)
        assert np.array_equal(np.concatenate(buffered, axis=1), whole)

    def test_next_block_overwrites_only_buffered_results(self):
        params, n = NifbmParams(0.3), 64
        workspace = block_workspace(n, 4)
        rng = stream_generator(2, 0)
        unbuffered = sample_increments(params, 2.0, n, rng, 4)
        kept = unbuffered.copy()
        first = sample_increments(params, 2.0, n, rng, 4, workspace=workspace)
        assert np.shares_memory(first, workspace[1])
        before = first.copy()
        sample_increments(params, 2.0, n, rng, 3, workspace=workspace)
        assert not np.array_equal(first[:3], before[:3])
        # the fourth row is past the second block, so it is left as it was
        assert np.array_equal(first[3], before[3])
        assert np.array_equal(unbuffered, kept)
        assert not np.shares_memory(unbuffered, workspace[1])

    @pytest.mark.parametrize(
        "N,rows,components,count",
        [(64, 4, 2, 3), (100, 4, 1, 3), (64, 2, 1, 3)],
    )
    def test_workspace_must_fit(self, N, rows, components, count):
        # component-major buffers, wrong embedding length, too few rows
        workspace = block_workspace(N, rows)
        if components > 1:
            workspace = tuple(np.stack([buffer] * components) for buffer in workspace)
        with pytest.raises(ValueError, match="workspace"):
            sample_increments(NifbmParams(0.3), 2.0, 64, stream_generator(0, 0), count,
                              workspace=workspace)

    @pytest.mark.parametrize(
        "args", [(0, 4), (64, 0), (64, -1), (64, 2.0), (64, True)]
    )
    def test_workspace_sizes_checked(self, args):
        with pytest.raises(ValueError):
            block_workspace(*args)


class TestComponentStreams:
    """Two-process direct-per-j draws component c from its own
    generator, alone or in a thread pool, into its own workspace."""

    _PARAMS = MixedParams(0.7, 0.3, 2.0, 1.5)

    def test_component_equals_its_one_component_draw(self):
        # component (H, c) is the unit-scale one-process series of H at
        # unit width, drawn from its own stream
        n, reps = 65, 9
        parts = sample_mixed_components(self._PARAMS, n, component_generators(5), reps)
        for c, (H, _) in enumerate(self._PARAMS.components):
            alone = sample_increments(NifbmParams(H), 1.0, n, stream_generator(5, 1 + c), reps)
            assert np.array_equal(parts[c], alone)

    @pytest.mark.parametrize("n,reps", [(513, 150), (64, 300)])
    def test_helpers_and_blocks_leave_the_draws(self, n, reps):
        # blocks of BLOCK_ELEMENTS // (2 m) rows drawn into one workspace,
        # in a thread pool or not, give the rows of one unbuffered call
        blocks = list(seed_blocks(reps, n, 2))
        assert len(blocks) > 1
        whole = np.stack(
            sample_mixed_components(self._PARAMS, n, component_generators(7), reps)
        )
        workspaces = [block_workspace(n, len(blocks[0])) for _ in range(2)]
        for _ in range(2):
            rngs = component_generators(7)
            with ThreadPoolExecutor(1) as pool:
                drawn = [
                    np.stack(sample_mixed_components(
                        self._PARAMS, n, rngs, len(b), workspace=workspaces,
                        pool=pool,
                    )).copy()
                    for b in blocks
                ]
            assert np.array_equal(np.concatenate(drawn, axis=1), whole)

    def test_component_slices_of_the_workspace(self):
        n = 64
        workspaces = [block_workspace(n, 4) for _ in range(2)]
        rngs = component_generators(3)
        parts = sample_mixed_components(self._PARAMS, n, rngs, 3, workspace=workspaces)
        for c, part in enumerate(parts):
            assert np.shares_memory(part, workspaces[c][1])
            assert not np.shares_memory(part, workspaces[1 - c][1])
            assert workspaces[c][0].flags.c_contiguous

    def test_component_major_workspace_rejected(self):
        # one workspace of shapes (C, rows, k, 2) and (C, rows, m), in
        # place of C workspaces, fits no component (a single series is
        # checked in TestBlockWorkspace::test_workspace_must_fit)
        n, rows = 64, 4
        m = embedding_length(n)
        workspace = np.empty((2, rows, m // 2 + 1, 2)), np.empty((2, rows, m))
        with pytest.raises(ValueError, match="workspace"):
            sample_mixed_components(self._PARAMS, n, component_generators(0), 3,
                                    workspace=workspace)

    def test_generator_count_checked(self):
        with pytest.raises(ValueError, match="3 generators for 2 components"):
            sample_mixed_components(self._PARAMS, 8, [stream_generator(0, 1)] * 3, 2)

    @pytest.mark.parametrize("n", [16, 64, 256, 513, 1024, 4096])
    def test_two_component_block_within_bound(self, n):
        # a block of C components holds at most BLOCK_ELEMENTS // (C m)
        # rows: the C irfft buffers hold at most BLOCK_ELEMENTS floats
        # together, and each buffer of a component's workspace at most
        # BLOCK_ELEMENTS
        rows = len(next(seed_blocks(10**6, n, 2)))
        assert rows == BLOCK_ELEMENTS // (2 * embedding_length(n))
        normals, out = block_workspace(n, rows)
        assert 2 * out.size <= BLOCK_ELEMENTS
        for buffer in (normals, out):
            assert buffer.size <= BLOCK_ELEMENTS


class TestAggregation:
    def test_in_place_steps_equal_the_formula(self):
        # y = 2 x_2k+1; y += x_2k+2; y += x_2k; y *= 0.5 does the
        # operations of the three-point rule in its order
        x = stream_generator(4, 0).standard_normal((5, 2 * 33 + 1)) * 1e3
        expected = 0.5 * (x[..., 2::2] + 2.0 * x[..., 1::2] + x[..., :-1:2])
        assert aggregate_increments(x).tobytes() == expected.tobytes()


    def test_lives_with_the_xi_statistics(self):
        # the step and the factor set are estimation's, exported at the top
        assert nifbm.aggregate_increments is aggregate_increments
        assert nifbm.AGGREGATION_FACTORS is AGGREGATION_FACTORS == (1, 2, 4, 8)
        assert not hasattr(simulation, "aggregate_increments")
        assert not hasattr(simulation, "AGGREGATION_FACTORS")

    def test_constant_series(self):
        # a constant base increment c means the path grows by c per step
        # of width h, so a width-j*h increment is j*c; each doubling of
        # the rule (weights 1/2, 1, 1/2) doubles the constant
        out = np.full(15, 2.5)
        for j in (2, 4, 8):
            out = aggregate_increments(out)
            assert np.allclose(out, 2.5 * j)

    def test_three_point_rule(self):
        base = np.array([1.0, 2.0, 3.0])
        out = aggregate_increments(base)
        assert out.tolist() == [0.5 * (3.0 + 2 * 2.0 + 1.0)]

    def test_length_contract(self):
        assert len(aggregate_increments(np.zeros(2 * 10 + 1))) == 10
        out = np.zeros(8 * 3 + 7)
        for _ in range(3):
            out = aggregate_increments(out)
        assert len(out) == 3

    def test_too_short(self):
        with pytest.raises(LengthError):
            aggregate_increments(aggregate_increments(np.array([1.0, 2.0, 3.0])))

    def test_aggregated_covariance_analytic(self):
        # push the base Toeplitz covariance through the aggregation map
        # and compare with the direct width-2h formula
        params = MixedParams(0.65, 0.25, 2.0, 3.0)
        n_base, n_out = 41, 20
        base_cov = toeplitz(autocov_sequence(params, 1.5, n_base))
        agg = np.zeros((n_out, n_base))
        for k in range(n_out):
            agg[k, 2 * k] = 0.5
            agg[k, 2 * k + 1] = 1.0
            agg[k, 2 * k + 2] = 0.5
        pushed = agg @ base_cov @ agg.T
        direct = toeplitz(autocov_sequence(params, 3.0, n_out))
        assert np.allclose(pushed, direct, rtol=1e-10, atol=1e-9)

    def test_aggregated_covariance_monte_carlo(self):
        params = NifbmParams(0.7)
        n_reps = 10**4
        samples = batch_sample(params, 1.0, 17, n_reps, seed=31)
        agg = np.zeros((8, 17))
        for k in range(8):
            agg[k, 2 * k] = 0.5
            agg[k, 2 * k + 1] = 1.0
            agg[k, 2 * k + 2] = 0.5
        out = samples @ agg.T
        targets = autocov_sequence(params, 2.0, 3)
        for lag in (0, 2):
            target = targets[lag]
            prods = out[:, 0] * out[:, lag]
            se = prods.std(ddof=1) / np.sqrt(n_reps)
            assert abs(prods.mean() - target) < 4.0 * se


class TestCirculantSampler:
    def test_determinism(self):
        params = NifbmParams(0.7)
        a = one_path(params, 2.0, 512, 9, 0)
        b = one_path(params, 2.0, 512, 9, 0)
        assert np.array_equal(a, b)

    def test_autocovariance(self):
        params = NifbmParams(0.7)
        n_reps = 4000
        rows = batch_sample(params, 2.0, 64, n_reps, seed=40)
        targets = autocov_sequence(params, 2.0, 6)
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
        noise = one_path(NifbmParams(0.4), 1.0, 8, 2, 2)[0]
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
    @pytest.mark.parametrize("value", [3.0, np.array(3.0)], ids=["float", "0-d"])
    @pytest.mark.parametrize(
        "call",
        [
            xi_statistics_from_base,
            aggregate_increments,
            lambda x: add_drift(x, DriftSpec(1.0, np.array([0.0, 1.0]))),
        ],
        ids=["xi_statistics_from_base", "aggregate_increments", "add_drift"],
    )
    def test_zero_dimensional_series_rejected(self, call, value):
        with pytest.raises(LengthError, match=re.escape("got shape ()")):
            call(value)

    def test_grid_validation(self):
        # the width h and the length N of every sampler call are checked
        # by autocov_sequence, which both samplers go through
        params, mixed = NifbmParams(0.5), MixedParams(0.7, 0.3, 2.0, 1.0)
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                one_path(params, bad, 4, 0, 0)
        for bad in (0, 2.5):
            with pytest.raises(ValueError, match="N must be an integer"):
                autocov_sequence(params, 1.0, bad)
            with pytest.raises(ValueError, match="N must be an integer"):
                one_path(params, 1.0, bad, 0, 0)
            with pytest.raises(ValueError, match="N must be an integer"):
                sample_mixed_components(mixed, bad, component_generators(0), 1)
        assert np.array_equal(
            one_path(params, 1.0, np.int64(4), 0, 0), one_path(params, 1.0, 4, 0, 0)
        )

    def test_drift_spec_validation(self):
        with pytest.raises(ValueError):
            DriftSpec(mu=1.0, g_values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            DriftSpec(mu=1.0, g_values=np.zeros(5))

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_drift_spec_rejects_non_finite_mu(self, mu):
        with pytest.raises(ValueError, match="mu must be finite"):
            DriftSpec(mu=mu, g_values=np.arange(4.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_drift_spec_rejects_non_finite_g(self, bad):
        with pytest.raises(ValueError, match="must all be finite"):
            DriftSpec(mu=1.0, g_values=np.array([0.0, bad, 1.0, 2.0]))

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            stream_generator(-1, 0)
