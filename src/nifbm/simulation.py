"""Exact Gaussian sampling of increment series by circulant embedding.

The increment series of the window-averaged process is stationary, so
its covariance matrix is Toeplitz and fully described by the
autocovariance sequence.  Embedding that Toeplitz matrix in a circulant
one diagonalises it by the FFT (Davies & Harte 1987; Wood & Chan 1994),
so a block of R paths of length N costs one rfft of the first row and
one batched irfft, O(R N log N), with each replication's normals drawn
from its own seed stream.  This is the package's only path sampler;
the dense Cholesky factor is kept as an exact reference for tests.

A block of replications is addressed by one seed and its streams, a
range of nonnegative integers below 2^128; replication (seed, stream)
draws exactly what np.random.Generator(np.random.PCG64(seed)
.jumped(stream)) would draw.  The samplers build one PCG64(seed) per
block and move it to each stream by that jump's public step,
(phi - 1) * 2^128 per stream (PCG64.advance, O(log) in the distance).

Increment series are plain float arrays with time on the last axis:
the samplers return one row per stream, and combine_mixed_components
and add_drift take one series or an (R, N) block of them alike, row r
of a block result being exactly the result for row r alone.  This
module only draws paths and adds drift; aggregating them to coarser
widths is the xi statistics' step, in nifbm.estimation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
# numpy loads these two lazily; importing them here keeps their load
# time in the import of the package, not in its first draw
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .covariance import (
    NifbmParams,
    Params,
    autocov_sequence,
    gamma,  # unused here, but benchmarks/tracing.py wraps it at this module
    is_integer,
)
from .errors import GridMismatchError, LengthError, NotPositiveDefiniteError

__all__ = [
    "DriftSpec",
    "cholesky_factor",
    "embedding_length",
    "embedding_eigenvalues",
    "seed_blocks",
    "sample_increments",
    "sample_mixed_components",
    "combine_mixed_components",
    "add_drift",
]

# replications x embedding length per sampled block: the bound on the
# samplers' working memory, so raising it raises peak memory
BLOCK_ELEMENTS = 2**16

# embedding eigenvalues above -_EIG_TOL * max are rounding, clipped to 0
_EIG_TOL = 1e-8

# PCG64.jumped's step per jump: (phi - 1) * 2^128, odd, so the streams
# of one seed are 2^128 distinct states of its 2^128-periodic sequence
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


@dataclass(frozen=True)
class DriftSpec:
    """Drift coefficient mu and the drift function G sampled at the
    observation times t_0, ..., t_N (one more point than increments)."""

    mu: float
    g_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"drift coefficient mu must be finite, got {self.mu}")
        g = np.asarray(self.g_values, dtype=float)
        if g.ndim != 1 or g.size < 2:
            raise ValueError("need G at two or more grid times")
        if not np.all(np.isfinite(g)):
            raise ValueError("drift function samples must all be finite")
        if g[0] != 0.0:
            raise ValueError("drift function must satisfy G(0) = 0")
        if not np.any(g != 0.0):
            raise ValueError("drift function must not vanish identically")
        object.__setattr__(self, "g_values", g)


def cholesky_factor(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of the Toeplitz matrix whose
    first row is the given autocovariance sequence."""
    row = np.asarray(cov, dtype=float)
    lags = np.arange(row.size)
    try:
        return np.linalg.cholesky(row[np.abs(lags[:, None] - lags)])
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "Toeplitz covariance is not positive definite"
        ) from exc


def embedding_length(N: int) -> int:
    """Length of the minimal circulant embedding of N autocovariances."""
    return max(1, 2 * (N - 1))


def embedding_eigenvalues(row: np.ndarray) -> np.ndarray:
    """The rfft half of the eigenvalues of the minimal circulant
    embedding of a symmetric Toeplitz first row: the circulant of
    length embedding_length(len(row)) whose first row is row followed
    by row[-2:0:-1]."""
    return np.fft.rfft(np.concatenate([row, row[-2:0:-1]])).real


def seed_blocks(streams: range, N: int):
    """The streams in order, in sub-ranges of at most
    BLOCK_ELEMENTS // embedding_length(N) streams (at least one), so
    that a sampled block stays small."""
    size = max(1, BLOCK_ELEMENTS // embedding_length(N))
    for i in range(0, len(streams), size):
        yield streams[i : i + size]


@functools.lru_cache(typed=True)
def _embedding_scale(params: Params, h: float, N: int) -> np.ndarray:
    """Spectral scale sqrt(lambda * m / 2) of the circulant embedding of
    autocov_sequence(params, h, N), read-only; raises when the embedding
    is indefinite.  Cached, so the seed blocks of a grid point share one
    autocovariance and one rfft; typed, so that N = True is checked."""
    eig = embedding_eigenvalues(autocov_sequence(params, h, N))
    m = embedding_length(N)
    if eig.min() < -_EIG_TOL * eig.max():
        raise NotPositiveDefiniteError(
            "circulant embedding is not nonnegative definite: min/max "
            f"eigenvalue ratio {eig.min() / eig.max():.3g} below "
            f"-{_EIG_TOL:g} at embedding length {m}"
        )
    scale = np.sqrt(np.clip(eig, 0.0, None) * m / 2.0)
    scale.flags.writeable = False
    return scale


def _stream_normals(seed: int, streams: Sequence[int], shape: tuple) -> np.ndarray:
    """Standard normals of the given shape per stream, row r drawn in
    order as Generator(PCG64(seed).jumped(streams[r])) draws them."""
    if not all(is_integer(v) and v >= 0 for v in (seed, *streams)):
        raise ValueError("seed and stream must be nonnegative integers")
    if any(stream >= 2**128 for stream in streams):
        # jumped wraps modulo 2^128: jumped(2**128) is jumped(0)
        raise ValueError("stream must be below 2**128")
    normals = np.empty((len(streams),) + shape)
    bit_generator = np.random.PCG64(seed)
    start = bit_generator.state
    generator = np.random.Generator(bit_generator)
    for r, stream in enumerate(streams):
        bit_generator.state = start
        bit_generator.advance(int(stream) * _JUMP % 2**128)
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
    params: Params, h: float, N: int, seed: int, streams: Sequence[int]
) -> np.ndarray:
    """Exact zero-mean Gaussian series of N increments of width h, one
    row per stream.

    Circulant embedding (Davies & Harte 1987; Wood & Chan 1994): the
    Toeplitz first row is embedded in a circulant of length
    m = embedding_length(N), whose eigenvalues come from one rfft.
    Each replication draws m//2 + 1 real then m//2 + 1 imaginary
    normals from its own stream, PCG64(seed).jumped(streams[r]), and
    one batched irfft maps the block to paths.  Row r therefore depends
    only on seed and streams[r], not on the block it was drawn in.

    The draw is exact when the embedding is nonnegative definite.
    Eigenvalues down to -1e-8 times the largest are taken as rounding
    and clipped to zero; anything lower raises NotPositiveDefiniteError
    naming the min/max eigenvalue ratio and the embedding length.  For
    the kernel gamma(H, .) the smallest ratio is positive for H from
    0.001 to 0.995 at N <= 8193, for H <= 0.98 up to N = 65537, and for
    nine H from 0.01 to 0.99 at N = 65543, the longest base the harness
    samples (down to 5.3e-8 at H = 0.99).  The check fails only next to
    H = 1, from H = 0.998 at N = 1025, 2049 and 8193 (ratio -4.8e-7 at
    H = 0.999, N = 1025), where dense Cholesky of the same Toeplitz
    matrix still succeeds at N = 1025 but fails from H = 0.998 at
    N = 8193.
    """
    scale = _embedding_scale(params, h, N)
    normals = _stream_normals(seed, streams, (2 * scale.size,))
    return _spectral_draw(normals, scale, N)


def sample_mixed_components(
    params: Params, N: int, seed: int, streams: Sequence[int]
) -> tuple:
    """Unit-scale noises of the components of params, for rescaling to
    every width by combine_mixed_components.

    Component (H, c) has increments at width w with covariance
    c*w^(2H)*gamma(H, n), so one unit-gamma draw per component can be
    rescaled to every width w = j*h while keeping the noise shared
    across the aggregation factors j.  Returns one (len(streams), N) array per component, whose
    rows have Toeplitz covariance gamma(H, .), sampled by circulant
    embedding as in sample_increments; each stream draws the
    components' normals in order.
    """
    # unit scale and unit width give the autocovariance gamma(H, .)
    scales = [_embedding_scale(NifbmParams(H), 1.0, N) for H, _ in params.components]
    normals = _stream_normals(seed, streams, (len(scales), 2 * scales[0].size))
    return tuple(_spectral_draw(normals[:, i], s, N) for i, s in enumerate(scales))


def combine_mixed_components(
    params: Params, w: float, *parts: np.ndarray
) -> np.ndarray:
    """Increments at width w from the shared component noises of
    sample_mixed_components, one per component: the sum of
    sqrt(c)*w^H*e over the components (H, c) and their noises e, for
    one series each or row by row for (R, N) blocks."""
    pairs = zip(params.components, parts, strict=True)
    terms = (math.sqrt(c) * w**H * e for (H, c), e in pairs)
    # each term is a new array, so the sum can accumulate in the first
    total = next(terms)
    for term in terms:
        total += term
    return total


def add_drift(increments: np.ndarray, drift: DriftSpec) -> np.ndarray:
    """Add mu * (G(t_{k+1}) - G(t_k)) to each increment of a series, or
    to each row of an (R, N) array of increment series."""
    values = np.asarray(increments, dtype=float)
    if values.ndim == 0:
        raise LengthError(f"a drift needs a series, got shape {values.shape}")
    if drift.g_values.size != values.shape[-1] + 1:
        raise GridMismatchError(
            f"drift sampled at {drift.g_values.size} points, "
            f"expected {values.shape[-1] + 1}"
        )
    return values + drift.mu * np.diff(drift.g_values)
