"""Exact Gaussian sampling of increment series by circulant embedding.

The increment series of the window-averaged process is stationary, so
its covariance matrix is Toeplitz and fully described by the
autocovariance sequence.  Embedding that Toeplitz matrix in a circulant
one diagonalises it by the FFT (Davies & Harte 1987; Wood & Chan 1994),
so a block of R paths of length N costs one rfft of the first row and
one batched irfft, O(R N log N), with the block's normals drawn in one
call.  The circulant is not the minimal one, of length 2(N - 1), but
has length m = 2L with L the smallest 2^a 3^b 5^c >= N - 1
(embedding_length), and its first row carries the model's own
lags 0 .. L, as Wood & Chan (1994, section 2) recommend: the minimal
length has a large prime factor at the N users pick (2 * 127 at
N = 128), where numpy's FFT falls back to Bluestein's algorithm.  Where
2(N - 1) is already of that form, as at N = 2^k + 1, the two coincide.
This is the package's only path sampler; the dense Cholesky factor is
kept as an exact reference for tests.

sample_increments draws from a numpy Generator it is handed, one
standard_normal call per block of `count` paths, of shape
(count, m // 2 + 1, 2), read as interleaved real and imaginary parts;
sample_mixed_components makes that draw once per component of a
two-process model, each from a generator of its own.  A run's stages
draw their replications in order from stream_generator(seed, stream),
which is np.random.Generator(np.random.PCG64(seed).jumped(stream)),
one stream per stage or, in two-process direct-per-j, per component;
row r of a stage is then the r-th slab of its streams, whichever
blocks seed_blocks cut it into.  A stage can hand every block's call
one block_workspace per series it draws, which the normals and the
irfft are written into, and an executor whose workers draw its
components at once; the draws stay the same.

Increment series are plain float arrays with time on the last axis:
the samplers return one row per replication, and
combine_mixed_components and add_drift take one series or an (R, N)
block of them alike, row r of a block result being exactly the result
for row r alone.  This module only draws paths and adds drift;
aggregating them to coarser widths is the xi statistics' step, in
nifbm.estimation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
# numpy loads these two lazily; importing them here keeps their load
# time in the import of the package, not in its first draw
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .covariance import (
    NifbmParams,
    Params,
    autocov_sequence,
    check_length,
    gamma,  # unused here, but benchmarks/tracing.py wraps it at this module
    is_integer,
)
from .errors import GridMismatchError, LengthError, NotPositiveDefiniteError

__all__ = [
    "DriftSpec",
    "cholesky_factor",
    "fast_length",
    "embedding_length",
    "embedding_eigenvalues",
    "stream_generator",
    "seed_blocks",
    "block_workspace",
    "sample_increments",
    "sample_mixed_components",
    "combine_mixed_components",
    "add_drift",
]

# replications x components x embedding length per sampled block: the
# bound on the samplers' working memory, so raising it raises peak memory
BLOCK_ELEMENTS = 2**16

# embedding eigenvalues above -_EIG_TOL * max are rounding, clipped to 0
_EIG_TOL = 1e-8


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
    # both_ways[w + j] = row[|w + j - (n - 1)|]: its length-n windows,
    # last first, are the matrix's rows, read without an index array
    both_ways = np.concatenate([row[:0:-1], row])
    toeplitz = np.lib.stride_tricks.sliding_window_view(both_ways, row.size)[::-1]
    try:
        return np.linalg.cholesky(toeplitz)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "Toeplitz covariance is not positive definite"
        ) from exc


def fast_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, for n >= 1: an FFT length that
    numpy's pocketfft splits into radix-2, 3 and 5 passes, where a
    length with a large prime factor falls back to Bluestein's
    algorithm."""
    best, p5 = 2 * n, 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches n
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def embedding_length(N: int) -> int:
    """Length m of the circulant embedding of N autocovariances: 1 at
    N = 1, else 2 * fast_length(N - 1), the minimal length 2(N - 1)
    rounded up to twice a 5-smooth number."""
    check_length(N)
    return 2 * fast_length(int(N) - 1) if N > 1 else 1


def embedding_eigenvalues(row: np.ndarray, m: int) -> np.ndarray:
    """The rfft half of the eigenvalues of the symmetric circulant of
    length m >= 2(len(row) - 1) whose first row is row, then zeros,
    then row[:0:-1]: row[k] sits at positions k and m - k, and at
    m = 2(len(row) - 1) the last lag meets itself in the middle."""
    first = np.zeros(m)
    first[: row.size] = row
    first[m - row.size + 1 :] = row[:0:-1]
    return np.fft.rfft(first).real


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """np.random.Generator(np.random.PCG64(seed).jumped(stream)), the
    generator a stage of a run draws its replications from, for
    nonnegative integers seed and stream < 2^128 (not bools): stream 0
    for a drift stage, 1 for a noise stage, 1 + c for component c of a
    two-process direct-per-j noise stage."""
    if not all(is_integer(v) and v >= 0 for v in (seed, stream)):
        raise ValueError("seed and stream must be nonnegative integers")
    if stream >= 2**128:
        # jumped wraps modulo 2^128: jumped(2**128) is jumped(0)
        raise ValueError("stream must be below 2**128")
    return np.random.Generator(np.random.PCG64(seed).jumped(stream))


def seed_blocks(count: int, N: int, components: int = 1):
    """The rows 0 .. count - 1 in order, as ranges of at most
    BLOCK_ELEMENTS // (components * embedding_length(N)) rows (at least
    one), so that a sampled block stays small."""
    size = max(1, BLOCK_ELEMENTS // (components * embedding_length(N)))
    for i in range(0, count, size):
        yield range(i, min(i + size, count))


@functools.lru_cache(typed=True)
def _embedding_scale(params: Params, h: float, N: int) -> np.ndarray:
    """Spectral scale sqrt(lambda * m / 2) of the circulant embedding of
    length m = embedding_length(N) filled with the model's own lags,
    autocov_sequence(params, h, m // 2 + 1), read-only; raises when
    the embedding is indefinite.  Cached, so the seed blocks of a grid
    point share one autocovariance and one rfft; typed, so that
    N = True is checked."""
    m = embedding_length(N)
    eig = embedding_eigenvalues(autocov_sequence(params, h, m // 2 + 1), m)
    if eig.min() < -_EIG_TOL * eig.max():
        raise NotPositiveDefiniteError(
            "circulant embedding is not nonnegative definite: min/max "
            f"eigenvalue ratio {eig.min() / eig.max():.3g} below "
            f"-{_EIG_TOL:g} at embedding length {m}"
        )
    scale = np.sqrt(np.clip(eig, 0.0, None) * m / 2.0)
    scale.flags.writeable = False
    return scale


def block_workspace(N: int, rows: int) -> tuple:
    """Buffers for drawing blocks of up to `rows` series of N
    increments, that a stage hands to every sampler call of its seed
    blocks, one workspace per series it draws: the normals, shape
    (rows, m // 2 + 1, 2), and the irfft output, shape (rows, m), for
    m = embedding_length(N)."""
    check_length(N)
    if not (is_integer(rows) and rows >= 1):
        raise ValueError("rows must be an integer >= 1")
    m = embedding_length(N)
    return np.empty((rows, m // 2 + 1, 2)), np.empty((rows, m))


def sample_increments(
    params: Params, h: float, N: int, rng: np.random.Generator, count: int,
    *, workspace=None,
) -> np.ndarray:
    """Exact zero-mean Gaussian series of N increments of width h,
    `count` of them as the rows of a (count, N) array, drawn from rng.

    Circulant embedding (Davies & Harte 1987; Wood & Chan 1994): the
    Toeplitz first row is embedded in a circulant of length
    m = embedding_length(N), twice a 5-smooth number, whose first row
    holds the lags 0 .. m/2 of autocov_sequence and whose eigenvalues
    come from one rfft.  One call rng.standard_normal((count, k, 2)),
    k = m//2 + 1, draws each row's k complex normals as interleaved
    real and imaginary parts, and one batched irfft maps the block to
    paths, cut to their first N values.  Drawing 2R rows in one call or
    R rows in each of two calls on one generator gives the same paths.

    With workspace=block_workspace(N, rows), rows >= count, the block
    is drawn into the workspace's buffers and returned as a view of
    them, with no new block array: it stays valid until the next call
    with the same workspace overwrites it, so copy it to keep it.  The
    draws are those of a call without a workspace, which returns a new
    array.

    The draw is exact when the embedding is nonnegative definite.
    Eigenvalues down to -1e-8 times the largest are taken as rounding
    and clipped to zero; anything lower raises NotPositiveDefiniteError
    naming the min/max eigenvalue ratio and the embedding length.  For
    the kernel gamma(H, .) the smallest ratio is positive at all 285
    embedding lengths up to N = 65537 and at N = 65543, the longest base
    the harness samples, for eleven H from 0.001 to 0.995 (down to
    6.4e-8 at H = 0.99 and 2.8e-8 at H = 0.995), and at every N <= 8193
    for twenty H from 0.001 to 0.9999 (down to 4.0e-9 at H = 0.9999).
    """
    scale = _embedding_scale(params, h, N)
    m = embedding_length(N)
    shape = (count, scale.size, 2)
    if workspace is None:
        normals, out = rng.standard_normal(shape), None
    else:
        normals, out = workspace
        rows = len(out)
        fits = normals.shape == (rows, scale.size, 2) and out.shape == (rows, m)
        if not fits or rows < count:
            raise ValueError(
                f"workspace of shapes {normals.shape} and {out.shape} does not "
                f"fit {count} rows of one series at embedding length {m}"
            )
        normals = rng.standard_normal(out=normals[:count])
        out = out[:count]
    z = normals.view(complex)[..., 0]
    # the zero and (even m) Nyquist bins are real: all their variance
    # goes on the real part
    z[..., 0] = z[..., 0].real * math.sqrt(2.0)
    if m % 2 == 0:
        z[..., -1] = z[..., -1].real * math.sqrt(2.0)
    z *= scale
    return np.fft.irfft(z, n=m, out=out)[..., :N]


def sample_mixed_components(
    params: Params, N: int, rng, count: int, *, workspace=None, pool=None
) -> tuple:
    """Unit-scale noises of the components of params, one (count, N)
    array per component: component i, of Hurst index H_i, is
    sample_increments(NifbmParams(H_i), 1.0, N, rng[i], count,
    workspace=workspace[i]), with Toeplitz covariance gamma(H_i, .).

    Component (H, c) at width w is sqrt(c)*w^H times its unit-scale
    noise, so one draw serves every width j*h: combine_mixed_components
    sums the rescaled noises, and xi_statistics_from_components takes
    the xi statistics from their Gram moments without summing them.

    rng is a sequence of one Generator per component and workspace, if
    given, one block_workspace(N, rows) per component, which the noises
    are views of.  Given pool, a concurrent.futures.Executor such as
    ThreadPoolExecutor(C - 1), components 1 .. C - 1 are submitted to
    it while the caller draws component 0; the noises are those drawn
    without a pool.  A draw that raises raises here, and when it is the
    caller's, the pool's draws may still be writing their workspaces.
    """
    units = [NifbmParams(H) for H, _ in params.components]
    if len(rng) != len(units):
        raise ValueError(f"{len(rng)} generators for {len(units)} components")
    workspaces = [None] * len(units) if workspace is None else workspace
    for unit in units:
        # embeddings are computed in the calling thread, not in the pool:
        # benchmarks/tracing.py wraps autocov_sequence at this module, and
        # its span stack is not thread-safe
        _embedding_scale(unit, 1.0, N)
    draws = [
        functools.partial(sample_increments, unit, 1.0, N, gen, count, workspace=ws)
        for unit, gen, ws in zip(units, rng, workspaces, strict=True)
    ]
    if pool is None:
        return tuple(draw() for draw in draws)
    rest = [pool.submit(draw) for draw in draws[1:]]
    first = draws[0]()
    return (first, *(f.result() for f in rest))


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
