"""Closed-form estimators for drift, Hurst indices and scales.

Two families live here.  Moment estimators invert the map from model
parameters to the expected mean squared increments at aggregation
factors j, the xi statistics, read from one base series by repeated
doubling steps (aggregate_increments) and given as a {j: value} dict.
The factors of each model are stated once, in MOMENT_FACTORS: j = 1, 2
for one process, all of AGGREGATION_FACTORS = (1, 2, 4, 8) for two via
a quadratic whose roots are 2^(2*H1) and 2^(2*H2); MOMENT_ESTIMATORS
holds each model's estimator, called as (xi, h).  Drift estimators are
the exact generalized-least-squares MLE and a crude two-point
alternative, both with exact finite-sample variances.

The xi statistics and the moment estimators take plain arrays: one
series gives floats, an (R, N) block of series (or R values of each
xi statistic) one value per row, equal bit for bit to the value for
that row alone.  Scalars run the array code on one-element arrays, so
a Monte Carlo driver makes one estimator call for all its replications.

Degeneracies (negative discriminant, ratios outside the admissible
range, vanishing denominators, overflow) are flagged, never raised: the
truncated conventions log+ (zero below 1), sqrt+ (zero below 0) and
fraction-is-zero-on-zero-denominator are applied and the estimate is
marked degenerate so Monte Carlo drivers can count incidence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .covariance import (
    MODEL_PARAMS,
    MixedParams,
    NifbmParams,
    Params,
    check_length,
    check_positive,
)
from .errors import (
    LengthError,
    NifbmError,
    NotPositiveDefiniteError,
    ZeroDenominatorError,
)
from .simulation import embedding_eigenvalues, fast_length

__all__ = [
    "AGGREGATION_FACTORS",
    "MOMENT_FACTORS",
    "MOMENT_ESTIMATORS",
    "DriftEstimate",
    "OneNifbmEstimate",
    "TwoNifbmEstimate",
    "aggregate_increments",
    "xi_statistic",
    "xi_statistics_from_base",
    "base_length",
    "forward_moment_map",
    "estimate_one_nifbm",
    "estimate_two_nifbm",
    "drift_mle",
    "drift_two_point",
    "two_point_variance",
    "two_stage_estimate",
]

_LOG4 = 2.0 * math.log(2.0)

# drift_mle's conjugate-gradient solve stops once the residual norm is
# at most this fraction of the right-hand side's
_CG_RTOL = 1e-12

# the aggregation factors j (increments of width j*h) of the xi
# statistics, and those at which each model's moment estimator reads them
AGGREGATION_FACTORS = (1, 2, 4, 8)
MOMENT_FACTORS = {NifbmParams: AGGREGATION_FACTORS[:2], MixedParams: AGGREGATION_FACTORS}

Xi = Dict[int, Union[float, np.ndarray]]


@dataclass(frozen=True)
class DriftEstimate:
    mu_hat: float  # an array, one per row, for a block of series
    variance: float
    method: str  # "MLE" or "two-point"

    def __post_init__(self):
        if self.variance < 0.0:
            raise ValueError("variance must be nonnegative")


@dataclass(frozen=True)
class OneNifbmEstimate:
    """Floats and a bool for one series; arrays of one value per row for
    a block (as are the fields of TwoNifbmEstimate)."""

    H_hat: float
    a2_hat: float
    degenerate: bool


@dataclass(frozen=True)
class TwoNifbmEstimate:
    H1_hat: float
    H2_hat: float
    a2_hat: float
    b2_hat: float
    discriminant: float
    degenerate: bool

    def __post_init__(self):
        if np.any(np.less(self.H1_hat, self.H2_hat)):
            raise ValueError("roots must be ordered, H1_hat >= H2_hat")


# array forms of the truncated conventions; NaN fails each test, as it
# does in the scalar `f(x) if test else 0`


def _log_plus(x: np.ndarray) -> np.ndarray:
    return np.log(np.where(x > 1.0, x, 1.0))


def _sqrt_plus(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.where(x > 0.0, x, 0.0))


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros(np.broadcast(num, den).shape)
    return np.divide(num, den, out=out, where=den != 0.0)


def _in_range(value: np.ndarray, upper: float) -> np.ndarray:
    """0 < value < upper, False for NaN: degeneracy tests are written as
    the negation of the valid range so that NaN counts as degenerate."""
    return (0.0 < value) & (value < upper)


def _rows(xi: Xi, model) -> Tuple[list, bool]:
    """The model's xi statistics as 1-d float arrays, so that one series
    and a block share one code path, and whether every one was a scalar."""
    factors = MOMENT_FACTORS[model]
    try:
        values = [xi[j] for j in factors]
    except KeyError as exc:
        raise LengthError(f"xi statistics at j = {factors} are all required") from exc
    arrays = [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
    return arrays, all(np.ndim(v) == 0 for v in values)


def _estimate(cls, scalar: bool, *values: np.ndarray):
    """cls of the field arrays, unwrapped to Python floats and bools when
    every input was a scalar."""
    return cls(*(value.item() if scalar else value for value in values))


def _scale_coef(H: float, h: float) -> float:
    """A(H) = 2 h^(2H) / ((2H+1)(H+1)), the per-component factor in the
    xi limits."""
    return 2.0 * h ** (2.0 * H) / ((2.0 * H + 1.0) * (H + 1.0))


def xi_statistic(series: np.ndarray) -> Union[float, np.ndarray]:
    """Mean squared value of an increment series (a float), or of each
    row of an (R, N) block (an array)."""
    values = np.asarray(series, dtype=float)
    if values.ndim == 0 or values.shape[-1] == 0:
        raise LengthError(
            f"a xi statistic needs a nonempty series, got shape {values.shape}"
        )
    xi = np.mean(values**2, axis=-1)
    return float(xi) if values.ndim == 1 else xi


def aggregate_increments(base: np.ndarray) -> np.ndarray:
    """Increments at twice the base width from base increments on the
    last axis (one series or an (R, M) block): the doubling step
    y_k = (x_{2k} + 2 x_{2k+1} + x_{2k+2}) / 2, of length (M - 1) // 2.
    """
    values = np.asarray(base, dtype=float)
    n = (values.shape[-1] - 1) // 2 if values.ndim else 0
    if n < 1:
        raise LengthError(f"aggregation needs 3 or more increments, got shape {values.shape}")
    x = values[..., : 2 * n + 1]
    return 0.5 * (x[..., 2::2] + 2.0 * x[..., 1::2] + x[..., :-1:2])


def base_length(factors: Tuple[int, ...], n: int) -> int:
    """The shortest base series whose coarsest aggregate has n increments."""
    return max(factors) * (n + 1) - 1


def xi_statistics_from_base(
    base: np.ndarray, factors: Tuple[int, ...] = AGGREGATION_FACTORS
) -> Xi:
    """xi statistics {j: value} at several aggregation factors from one
    base series (floats), or from each row of an (R, M) block (arrays).

    The sample sizes follow the shared-horizon bookkeeping: if n series
    of the coarsest factor fit, factor j uses the first n * max(factors)
    / j increments of its level, the previous level after one doubling
    step, aggregate_increments.  Every factor must be in AGGREGATION_FACTORS.
    """
    if not factors or not set(factors) <= set(AGGREGATION_FACTORS):
        raise ValueError(
            f"factors must be a nonempty subset of {AGGREGATION_FACTORS}, "
            f"got {factors!r}"
        )
    levels = {1: np.asarray(base, dtype=float)}
    jmax = max(factors)
    if levels[1].ndim == 0:
        raise LengthError(f"xi statistics need a series, got shape {levels[1].shape}")
    if levels[1].shape[-1] < base_length(factors, 1):
        raise LengthError(
            f"series of length {levels[1].shape[-1]} too short to aggregate by {jmax}"
        )
    j = 2
    while j <= jmax:
        levels[j] = aggregate_increments(levels[j // 2])
        j *= 2
    n_coarse = levels[jmax].shape[-1]
    xi = {j: xi_statistic(levels[j][..., : n_coarse * (jmax // j)]) for j in factors}
    for j, value in xi.items():
        if not np.all(np.isfinite(value)) or np.any(np.less(value, 0.0)):
            raise ValueError(f"xi[{j}] must be finite and nonnegative, got {value}")
    return xi


def forward_moment_map(theta: Params, h: float) -> Tuple[float, ...]:
    """Expected xi statistics eta_j of the model at window width h, one
    per factor j of MOMENT_FACTORS[type(theta)]: the map whose inverse
    is the model's moment estimator.

    At j = 2^k, eta_j sums c * A(H) * x^k * (x - 1), with x = 2^(2H),
    over the components (H, c) of theta.
    """
    check_positive("window width h", h)
    etas = [0.0] * len(MOMENT_FACTORS[type(theta)])
    for H, c in theta.components:
        x = 2.0 ** (2.0 * H)
        coef = c * _scale_coef(H, h)
        for k in range(len(etas)):
            etas[k] += coef * (x - 1.0)
            coef *= x
    return tuple(etas)


@np.errstate(all="ignore")
def estimate_one_nifbm(xi: Xi, h: float) -> OneNifbmEstimate:
    """Invert the one-process moment map on the xi statistics at j = 1, 2.

    xi[1] is the mean squared increment at width h (computed on 2N
    values), xi[2] at width 2h (on N values); floats give one estimate,
    arrays one estimate per element.
    """
    check_positive("step h", h)
    (xi1, xi2), scalar = _rows(xi, NifbmParams)
    h_hat = _log_plus(_safe_div(xi2, xi1)) / _LOG4
    denom = _scale_coef(h_hat, h) * (2.0 ** (2.0 * h_hat) - 1.0)
    a2_hat = _safe_div(xi1, denom)
    valid = _in_range(h_hat, 1.0) & _in_range(a2_hat, math.inf)
    return _estimate(OneNifbmEstimate, scalar, h_hat, a2_hat, ~valid)


@np.errstate(all="ignore")
def estimate_two_nifbm(xi: Xi, h: float) -> TwoNifbmEstimate:
    """Invert the two-process moment map on xi statistics at j = 1,2,4,8.

    The candidate values of 2^(2*H1) and 2^(2*H2) are the two roots of a
    quadratic assembled from the four statistics; scales follow by
    linear solves with the estimated Hurst indices plugged in.  Floats
    give one estimate, arrays one estimate per element.
    """
    check_positive("step h", h)
    (x1, x2, x4, x8), scalar = _rows(xi, MixedParams)

    disc = (x4 * x2 - x8 * x1) ** 2 - 4.0 * (x4 * x1 - x2 * x2) * (x8 * x2 - x4 * x4)
    root = _sqrt_plus(disc)
    den = 2.0 * (x4 * x1 - x2 * x2)
    x = _safe_div(x8 * x1 - x4 * x2 + root, den)
    y = _safe_div(x8 * x1 - x4 * x2 - root, den)
    x, y = np.where(x < y, y, x), np.where(x < y, x, y)

    h1_hat = _log_plus(x) / _LOG4
    h2_hat = _log_plus(y) / _LOG4
    a2_hat = _safe_div(
        (2.0 * h1_hat + 1.0) * (h1_hat + 1.0) * (x2 - y * x1),
        2.0 * h ** (2.0 * h1_hat) * (x - y) * (x - 1.0),
    )
    b2_hat = _safe_div(
        (2.0 * h2_hat + 1.0) * (h2_hat + 1.0) * (x2 - x * x1),
        2.0 * h ** (2.0 * h2_hat) * (y - x) * (y - 1.0),
    )
    valid = (0.0 < disc) & (den != 0.0) & (h1_hat != h2_hat)
    valid &= _in_range(h1_hat, 1.0) & _in_range(h2_hat, 1.0)
    valid &= _in_range(a2_hat, math.inf) & _in_range(b2_hat, math.inf)
    return _estimate(
        TwoNifbmEstimate, scalar, h1_hat, h2_hat, a2_hat, b2_hat, disc, ~valid
    )


# the estimator that inverts each model's moment map on its xi statistics
MOMENT_ESTIMATORS = {NifbmParams: estimate_one_nifbm, MixedParams: estimate_two_nifbm}


def _toeplitz_solve(cov: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve T x = b for the symmetric Toeplitz matrix T whose first
    row is cov, by preconditioned conjugate gradients.

    T p is one rfft/irfft pair on a circulant of length
    m = fast_length(2N - 1) whose first row is cov, zeros, then cov
    reversed: m >= 2N - 1, so the first N entries of its product with
    p padded by zeros are exactly T p, and m is 5-smooth, so the FFTs
    avoid the Bluestein path that the minimal length 2(N - 1) takes at
    N = 2^k (at N = 8192, H = 0.3 and 0.7, a solve takes 4-5 ms at
    m = 2^14 against 46-54 ms at 2 * 8191 on a 2-core host).

    The preconditioner is T. Chan's optimal circulant, first row
    c_k = ((N - k) t_k + k t_(N-k)) / N (Chan 1988), positive definite
    whenever T is, and applied by one rfft/irfft pair of length N.  The
    iteration stops at a residual norm of _CG_RTOL times that of b;
    exact arithmetic needs at most N steps, and N + 20 are allowed.  A
    nonpositive preconditioner eigenvalue or curvature p'Tp proves T
    indefinite and raises NotPositiveDefiniteError.  Unlike a Cholesky
    factorization, CG cannot see negative directions of T that the
    Krylov space of b never reaches: there it converges.
    """
    n = len(cov)
    m = fast_length(2 * n - 1)
    spectrum = embedding_eigenvalues(cov, m)
    k = np.arange(n)
    wrapped = np.concatenate(([0.0], cov[:0:-1]))
    chan = np.fft.rfft(((n - k) * cov + k * wrapped) / n).real
    if not chan.min() > 0.0:
        raise NotPositiveDefiniteError(
            f"Toeplitz covariance is not positive definite: its circulant "
            f"preconditioner has the eigenvalue {chan.min():.3g}"
        )
    rfft, irfft = np.fft.rfft, np.fft.irfft
    x = np.zeros(n)
    r = b.copy()
    p = z = irfft(rfft(r) / chan, n)
    rz = r @ z
    stop = (_CG_RTOL * _CG_RTOL) * (b @ b)
    for _ in range(n + 20):
        tp = irfft(spectrum * rfft(p, m), m)[:n]
        curvature = p @ tp
        if not curvature > 0.0:
            raise NotPositiveDefiniteError(
                "Toeplitz covariance is not positive definite: conjugate "
                f"gradients met the curvature {curvature:.3g}"
            )
        step = rz / curvature
        x += step * p
        r -= step * tp
        if r @ r <= stop:
            return x
        z = irfft(rfft(r) / chan, n)
        rz, rz_prev = r @ z, rz
        p = z + (rz / rz_prev) * p
    raise NifbmError(f"conjugate gradients did not converge in {n + 20} steps")


def drift_mle(
    delta_y: np.ndarray,
    delta_g: np.ndarray,
    cov: np.ndarray,
) -> DriftEstimate:
    """Generalized-least-squares drift estimate with exact variance.

    cov is the autocovariance sequence of the noise increments, the
    first row of their Toeplitz covariance T.  The GLS weight T^-1
    delta_g comes from one preconditioned conjugate-gradient solve
    (_toeplitz_solve), O(N log N) per step with no N x N matrix
    formed; the estimate is delta_y'T^-1 delta_g / delta_g'T^-1
    delta_g and the variance 1 / delta_g'T^-1 delta_g.  delta_y is one
    increment series, giving a float mu_hat, or an (R, N) array of
    series, giving one mu_hat per row from the same solve.
    """
    dy = np.asarray(delta_y, dtype=float)
    dg = np.asarray(delta_g, dtype=float)
    if dg.ndim != 1 or dy.shape[-1] != dg.size or dg.size != len(cov):
        raise LengthError("increments, drift increments and covariance must align")
    if not np.any(dg != 0.0):
        raise ZeroDenominatorError("drift increments vanish identically")
    solved_g = _toeplitz_solve(np.asarray(cov, dtype=float), dg)
    denom = float(dg @ solved_g)
    # denom is the curvature x'Tx at the solution x
    if not denom > 0.0:
        raise NotPositiveDefiniteError(
            f"Toeplitz covariance is not positive definite: g'T^-1 g = {denom:.3g}"
        )
    # one dot product per row: a stacked matmul rounds each row exactly
    # as solved_g @ row does, where a matrix-vector product does not
    mu_hat = (dy[..., None, :] @ solved_g[:, None])[..., 0, 0] / denom
    return DriftEstimate(
        mu_hat=float(mu_hat) if dy.ndim == 1 else mu_hat,
        variance=1.0 / denom,
        method="MLE",
    )


def two_point_variance(params: Params, h: float, N: int, gN: float) -> float:
    """Exact variance of the two-point drift estimate (yN - y0) / gN.

    Per component with Hurst index H and squared scale c, the variance
    of the noise difference is c * h^(2H) * ((N+1)^(2H+2) + (N-1)^(2H+2)
    - 2 N^(2H+2) - 2) / ((2H+1)(2H+2)).  N must be an integer >= 1.
    """
    check_positive("window width h", h)
    check_length(N)
    if not math.isfinite(gN):
        raise ValueError(f"gN must be finite, got {gN}")
    if gN == 0.0:
        return 0.0

    def component(H: float, c: float) -> float:
        p = 2.0 * H + 2.0
        bracket = (N + 1.0) ** p + (N - 1.0) ** p - 2.0 * float(N) ** p - 2.0
        return c * h ** (2.0 * H) * bracket / ((2.0 * H + 1.0) * p)

    return sum(component(H, c) for H, c in params.components) / gN**2


def drift_two_point(
    y0: float,
    yN: float,
    gN: float,
    params: Optional[Params] = None,
    h: Optional[float] = None,
    N: Optional[int] = None,
) -> DriftEstimate:
    """Drift estimate from the first and last observations only.

    yN may be an array of last observations, one per replication; the
    estimate is then an array too, +0.0 in every element for gN = 0.
    The exact variance needs params, h and N; when none is supplied it
    is reported as 0, and some without the others raise ValueError.
    """
    if not math.isfinite(gN):
        raise ValueError(f"gN must be finite, got {gN}")
    missing = [name for name, v in (("params", params), ("h", h), ("N", N)) if v is None]
    if 0 < len(missing) < 3:
        raise ValueError(f"exact variance needs params, h and N, missing: {', '.join(missing)}")
    zero = np.zeros(np.shape(yN)) if np.ndim(yN) else 0.0
    mu_hat = (yN - y0) / gN if gN != 0.0 else zero
    variance = 0.0 if missing else two_point_variance(params, h, N, gN)
    return DriftEstimate(mu_hat=mu_hat, variance=variance, method="two-point")


def two_stage_estimate(
    y: np.ndarray, g: np.ndarray, h: float, model: str = "one-nifbm"
):
    """Two-point drift estimate, then noise estimation on the residuals.

    y and g are observations and drift samples at times k*h, k = 0..N,
    with g[0] = 0, and model is a name in MODEL_PARAMS ("one-nifbm" or
    "two-nifbm").  The residual increments of y - mu_tilde * g feed the
    moment estimators; the reported drift variance plugs the stage-2
    parameter estimates into the exact formula (0 when degenerate).
    """
    y = np.asarray(y, dtype=float)
    g = np.asarray(g, dtype=float)
    if y.shape != g.shape or y.ndim != 1 or y.size < 3:
        raise LengthError("need matching observation and drift vectors, length >= 3")
    if g[0] != 0.0:
        raise ValueError("drift samples must satisfy G(0) = 0")
    n_incr = y.size - 1
    if g[-1] != 0.0 and n_incr**0.99 / abs(g[-1]) >= 1.0:
        warnings.warn(
            "drift grows too slowly for reliable two-stage estimation "
            "(N^0.99 / |G_N| >= 1)",
            stacklevel=2,
        )
    mu_tilde = drift_two_point(y[0], y[-1], g[-1]).mu_hat
    base = np.diff(y - mu_tilde * g)
    kind = MODEL_PARAMS.get(model)
    if kind is None:
        raise ValueError(f"model must be one of {tuple(MODEL_PARAMS)}, got {model!r}")
    xi = xi_statistics_from_base(base, factors=MOMENT_FACTORS[kind])
    noise = MOMENT_ESTIMATORS[kind](xi, h)
    variance = 0.0
    if not noise.degenerate:
        params = kind(**{f.name: getattr(noise, f.name + "_hat") for f in fields(kind)})
        variance = two_point_variance(params, h, n_incr, g[-1] - g[0])
    drift = DriftEstimate(mu_hat=mu_tilde, variance=variance, method="two-point")
    return drift, noise
