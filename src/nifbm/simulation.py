"""Exact Gaussian sampling of increment series by circulant embedding.

The increment series of the window-averaged process is stationary, so
its covariance matrix is Toeplitz and fully described by the
autocovariance sequence.  Embedding that Toeplitz matrix in a circulant
one diagonalises it by the FFT (Davies & Harte 1987; Wood & Chan 1994),
so a block of R paths of length N costs one rfft of the first row and
one batched irfft, O(R N log N), with each replication's normals drawn
from its own seed stream.  This is the package's only path sampler;
the dense Cholesky factor is kept as an exact reference for tests.

Replication (seed, stream) draws exactly what
np.random.default_rng([seed, stream]) would draw.  Building one such
generator per replication costs more than the draw itself, so the
samplers compute the PCG64 states of a whole block at once instead:
numpy's SeedSequence hash of the entropy words [seed, stream] and
PCG64's seeding step (O'Neill 2014) are fixed public algorithms,
reproduced here on arrays over the block's rows.  One generator per
block is then set to each row's state in turn.

Increment series are plain float arrays with time on the last axis:
the samplers return one row per seed, and combine_mixed_components,
aggregate_increments and add_drift take one series or an (R, N) block
of them alike, row r of a block result being exactly the result for
row r alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import toeplitz

from .covariance import (
    AGGREGATION_FACTORS,
    MixedParams,
    NifbmParams,
    Params,
    autocov_sequence,
    check_positive,
    gamma,  # unused here, but benchmarks/tracing.py wraps it at this module
)
from .errors import GridMismatchError, LengthError, NotPositiveDefiniteError

__all__ = [
    "RngSeed",
    "SampleGrid",
    "DriftSpec",
    "cholesky_factor",
    "embedding_length",
    "seed_blocks",
    "sample_increments",
    "sample_mixed_components",
    "combine_mixed_components",
    "aggregate_increments",
    "add_drift",
]

# replications x embedding length per sampled block: the bound on the
# samplers' working memory, so raising it raises peak memory
BLOCK_ELEMENTS = 2**16

# embedding eigenvalues above -_EIG_TOL * max are rounding, clipped to 0
_EIG_TOL = 1e-8

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx,
# unchanged since numpy 1.17) and the PCG64 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


@dataclass(frozen=True)
class RngSeed:
    """Seed plus replication stream index; the pair fixes the noise."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream must be nonnegative integers")


@dataclass(frozen=True)
class SampleGrid:
    """Observation grid: N increments of width j*h, times t_k = k*j*h."""

    h: float
    N: int
    j: int = 1

    def __post_init__(self):
        check_positive("step h", self.h)
        if self.N < 1:
            raise ValueError("need at least one increment")
        if self.j not in AGGREGATION_FACTORS:
            raise ValueError(
                f"aggregation factor j must be one of {AGGREGATION_FACTORS}"
            )


@dataclass(frozen=True)
class DriftSpec:
    """Drift coefficient mu and the drift function G sampled at the
    observation times t_0, ..., t_N (one more point than increments)."""

    mu: float
    g_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = np.asarray(self.g_values, dtype=float)
        if g.ndim != 1 or g.size < 2:
            raise ValueError("need G at two or more grid times")
        if g[0] != 0.0:
            raise ValueError("drift function must satisfy G(0) = 0")
        if not np.any(g != 0.0):
            raise ValueError("drift function must not vanish identically")
        object.__setattr__(self, "g_values", g)


def cholesky_factor(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of the Toeplitz matrix whose
    first row is the given autocovariance sequence."""
    try:
        return np.linalg.cholesky(toeplitz(np.asarray(cov, dtype=float)))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "Toeplitz covariance is not positive definite"
        ) from exc


def embedding_length(N: int) -> int:
    """Length of the minimal circulant embedding of N autocovariances."""
    return max(1, 2 * (N - 1))


def seed_blocks(seed: int, first_stream: int, count: int, N: int):
    """Per-replication seeds (seed, first_stream + r) for r < count, in
    blocks of at most BLOCK_ELEMENTS // embedding_length(N) seeds
    (at least one), so that a sampled block stays small."""
    size = max(1, BLOCK_ELEMENTS // embedding_length(N))
    for start in range(first_stream, first_stream + count, size):
        stop = min(start + size, first_stream + count)
        yield [RngSeed(seed, stream) for stream in range(start, stop)]


@functools.lru_cache
def _embedding_scale(params: Params, h: float, j: int, N: int) -> np.ndarray:
    """Spectral scale sqrt(lambda * m / 2) of the circulant embedding of
    autocov_sequence(params, h, j, N), read-only; raises when the
    embedding is indefinite.  Cached, so the seed blocks of a grid point
    share one autocovariance and one rfft."""
    row = autocov_sequence(params, h, j, N)
    circ = np.concatenate([row, row[-2:0:-1]])
    eig = np.fft.rfft(circ).real
    if eig.min() < -_EIG_TOL * eig.max():
        raise NotPositiveDefiniteError(
            "circulant embedding is not nonnegative definite: min/max "
            f"eigenvalue ratio {eig.min() / eig.max():.3g} below "
            f"-{_EIG_TOL:g} at embedding length {circ.size}"
        )
    scale = np.sqrt(np.clip(eig, 0.0, None) * circ.size / 2.0)
    scale.flags.writeable = False
    return scale


def _hash_constants(const: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's running hash constant before each of `count`
    hashmix calls, then after the last: c_{k+1} = c_k * mult mod 2^32."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of values[..., i] as its i-th call in a
    run of consecutive calls, consts holding that run's constants."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a pool word x with a hashed word y."""
    value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return value ^ (value >> 16)


def _uint32_words(values: list) -> tuple:
    """Little-endian 32-bit words of nonnegative integers, one
    zero-padded row each, and each value's word count (0 has one)."""
    ints = np.array(values, dtype=object)
    width = max(1, -(-int(max(values, default=0)).bit_length() // 32))
    words = np.empty((len(values), width), dtype=np.uint32)
    counts = np.ones(len(values), dtype=int)
    for k in range(width):
        shifted = ints >> 32 * k
        words[:, k] = shifted & _MASK32
        if k:
            counts += shifted != 0
    return words, counts


def _stream_states(seeds: Sequence[RngSeed]) -> list:
    """The PCG64 state of np.random.default_rng([seed, stream]) for
    each seed, computed for all seeds at once.

    SeedSequence hashes the entropy words (those of seed, then those of
    stream) into a 4-word pool, hashes the pool into 4 uint64 words
    w0..w3, and PCG64 seeds itself with initstate w0:w1 and increment
    w2:w3, shifted left with its low bit set, by two LCG steps from 0.
    Entropy shorter than the pool hashes exactly as if zero-padded to
    4 words; words past the fourth are mixed in one at a time, only
    into the rows that have them, so one block may mix word counts.
    """
    seed_words, seed_counts = _uint32_words([s.seed for s in seeds])
    stream_words, stream_counts = _uint32_words([s.stream for s in seeds])
    lengths = seed_counts + stream_counts
    width = max(4, seed_words.shape[1] + stream_words.shape[1])
    entropy = np.zeros((len(seeds), width), dtype=np.uint32)
    entropy[:, : seed_words.shape[1]] = seed_words
    rows = np.arange(len(seeds))
    for k in range(stream_words.shape[1]):
        entropy[rows, seed_counts + k] = stream_words[:, k]

    consts = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * (width - 4))
    pool = _hashmix(entropy[:, :4], consts[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, [src]], consts[k : k + 4]))
    for i in range(4, width):
        k = 16 + 4 * (i - 4)
        mixed = _mix(pool, _hashmix(entropy[:, [i]], consts[k : k + 5]))
        pool = np.where((i < lengths)[:, None], mixed, pool)

    half = _hashmix(np.tile(pool, 2), _hash_constants(_INIT_B, _MULT_B, 8))
    w = half.astype("<u4").view("<u8").astype(object)
    inc = ((w[:, 2] << 64 | w[:, 3]) << 1 | 1) & _MASK128
    state = ((inc + (w[:, 0] << 64 | w[:, 1])) * _PCG64_MULT + inc) & _MASK128
    return [
        {"bit_generator": "PCG64", "state": {"state": s, "inc": i},
         "has_uint32": 0, "uinteger": 0}
        for s, i in zip(state.tolist(), inc.tolist())
    ]


def _stream_normals(seeds: Sequence[RngSeed], shape: tuple) -> np.ndarray:
    """Standard normals of the given shape per seed, row r drawn in
    order from seeds[r]'s own stream, as default_rng([seed, stream])
    draws them."""
    normals = np.empty((len(seeds),) + shape)
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for r, state in enumerate(_stream_states(seeds)):
        bit_generator.state = state
        generator.standard_normal(out=normals[r])
    return normals


def _spectral_draw(normals: np.ndarray, scale: np.ndarray, N: int) -> np.ndarray:
    """First N values of irfft(z * scale) per row, where row r of
    `normals` holds z's real parts then its imaginary parts."""
    k = scale.size
    m = embedding_length(N)
    z = np.empty(normals.shape[:-1] + (k,), dtype=complex)
    z.real = normals[..., :k]
    z.imag = normals[..., k:]
    # the zero and (even m) Nyquist bins are real: all their variance
    # goes on the real part
    z[..., 0] = z[..., 0].real * math.sqrt(2.0)
    if m % 2 == 0:
        z[..., -1] = z[..., -1].real * math.sqrt(2.0)
    z *= scale
    return np.fft.irfft(z, n=m)[..., :N]


def sample_increments(
    params: Params, grid: SampleGrid, seeds: Sequence[RngSeed]
) -> np.ndarray:
    """Exact zero-mean Gaussian increment series, one row per seed.

    Circulant embedding (Davies & Harte 1987; Wood & Chan 1994): the
    Toeplitz first row is embedded in a circulant of length
    m = embedding_length(grid.N), whose eigenvalues come from one rfft.
    Each replication draws m//2 + 1 real then m//2 + 1 imaginary
    normals from its own seed's stream, and one batched irfft maps the
    block to paths.  Row r therefore depends only on seeds[r], not on
    the block it was drawn in.

    The draw is exact when the embedding is nonnegative definite.
    Eigenvalues down to -1e-8 times the largest are taken as rounding
    and clipped to zero; anything lower raises NotPositiveDefiniteError
    naming the min/max eigenvalue ratio and the embedding length.  For
    the kernel gamma(H, .) the smallest ratio is positive for H from
    0.001 to 0.995 at N <= 8193 and for H <= 0.98 up to N = 65537; the
    check fails only next to H = 1, from H = 0.998 at N = 1025, 2049
    and 8193 (ratio -4.8e-7 at H = 0.999, N = 1025), where dense
    Cholesky of the same Toeplitz matrix still succeeds at N = 1025 but
    fails from H = 0.998 at N = 8193.
    """
    scale = _embedding_scale(params, grid.h, grid.j, grid.N)
    return _spectral_draw(_stream_normals(seeds, (2 * scale.size,)), scale, grid.N)


def sample_mixed_components(
    params: MixedParams, N: int, seeds: Sequence[RngSeed]
) -> tuple:
    """Unit-scale component noises (e1, e2) for the two-process model.

    The component increments at width j*h have covariance
    a2*(jh)^(2H)*gamma(H, n), so a single pair of unit-gamma draws can
    be rescaled to every aggregation factor j while keeping the noise
    shared across factors.  Returns two (len(seeds), N) arrays whose
    rows have Toeplitz covariance gamma(H1, .) and gamma(H2, .),
    sampled by circulant embedding as in sample_increments; each
    seed's stream draws component 1's normals, then component 2's.
    """
    # unit scale and unit width give the autocovariance gamma(H, .)
    scale1 = _embedding_scale(NifbmParams(params.H1), 1.0, 1, N)
    scale2 = _embedding_scale(NifbmParams(params.H2), 1.0, 1, N)
    normals = _stream_normals(seeds, (2, 2 * scale1.size))
    return (
        _spectral_draw(normals[:, 0], scale1, N),
        _spectral_draw(normals[:, 1], scale2, N),
    )


def combine_mixed_components(
    params: MixedParams, h: float, j: int, e1: np.ndarray, e2: np.ndarray
) -> np.ndarray:
    """Increments at aggregation j from shared component noises, for
    one pair of series or row by row for (R, N) blocks."""
    w = j * h
    return (
        math.sqrt(params.a2) * w**params.H1 * e1
        + math.sqrt(params.b2) * w**params.H2 * e2
    )


def aggregate_increments(base: np.ndarray, j: int) -> np.ndarray:
    """Increments at width j times the base width, from base increments
    on the last axis (one series or an (R, M) block).

    One doubling step maps x to y with y_k = (x_{2k+2} + 2 x_{2k+1} +
    x_{2k}) / 2, shrinking the length from M to (M - 1) // 2; the step
    is applied log2(j) times.
    """
    if j not in AGGREGATION_FACTORS[1:]:
        raise ValueError(
            f"target aggregation factor must be one of {AGGREGATION_FACTORS[1:]}"
        )
    values = np.asarray(base, dtype=float)
    length = values.shape[-1]
    for _ in range(int(round(math.log2(j)))):
        n_out = (values.shape[-1] - 1) // 2
        if n_out < 1:
            raise LengthError(f"series of length {length} too short to aggregate by {j}")
        values = 0.5 * (values[..., 2 : 2 * n_out + 1 : 2]
                        + 2.0 * values[..., 1 : 2 * n_out : 2]
                        + values[..., 0 : 2 * n_out - 1 : 2])
    return values


def add_drift(increments: np.ndarray, drift: DriftSpec) -> np.ndarray:
    """Add mu * (G(t_{k+1}) - G(t_k)) to each increment of a series, or
    to each row of an (R, N) array of increment series."""
    values = np.asarray(increments, dtype=float)
    if drift.g_values.size != values.shape[-1] + 1:
        raise GridMismatchError(
            f"drift sampled at {drift.g_values.size} points, "
            f"expected {values.shape[-1] + 1}"
        )
    return values + drift.mu * np.diff(drift.g_values)
