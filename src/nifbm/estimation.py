"""Closed-form estimators for drift, Hurst indices and scales.

Two families live here.  Moment estimators invert the map from model
parameters to the expected mean squared increments at aggregation
factors j, the xi statistics, given as a {j: value} dict.  The factors
of each model are stated once, in MOMENT_FACTORS: j = 1, 2 for one
process, all of 1, 2, 4, 8 for two via a quadratic whose roots are
2^(2*H1) and 2^(2*H2); MOMENT_ESTIMATORS holds each model's estimator,
called as (xi, h).  Drift estimators are the exact
generalized-least-squares MLE and a crude two-point alternative, both
with exact finite-sample variances.

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
from scipy.linalg import cho_factor, cho_solve, toeplitz

from .covariance import (
    AGGREGATION_FACTORS,
    MixedParams,
    NifbmParams,
    Params,
    check_positive,
)
from .errors import LengthError, ZeroDenominatorError
from .simulation import aggregate_increments

__all__ = [
    "MOMENT_FACTORS",
    "MOMENT_ESTIMATORS",
    "DriftEstimate",
    "OneNifbmEstimate",
    "TwoNifbmEstimate",
    "xi_statistic",
    "xi_statistics_from_base",
    "base_length",
    "forward_moment_map",
    "forward_moment_map_one",
    "estimate_one_nifbm",
    "estimate_two_nifbm",
    "drift_mle",
    "drift_two_point",
    "two_point_variance",
    "two_stage_estimate",
]

_LOG4 = 2.0 * math.log(2.0)

# the aggregation factors j at which each model's xi statistics are
# taken and its moment estimator reads them
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
    if values.shape[-1] == 0:
        raise LengthError("cannot form a xi statistic from an empty series")
    xi = np.mean(values**2, axis=-1)
    return float(xi) if values.ndim == 1 else xi


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
    / j increments of its level.  Each level is the previous one
    aggregated by 2.
    """
    levels = {1: np.asarray(base, dtype=float)}
    jmax = max(factors)
    if levels[1].shape[-1] < base_length(factors, 1):
        raise LengthError(
            f"series of length {levels[1].shape[-1]} too short to aggregate by {jmax}"
        )
    j = 2
    while j <= jmax:
        levels[j] = aggregate_increments(levels[j // 2], 2)
        j *= 2
    n_coarse = levels[jmax].shape[-1]
    xi = {j: xi_statistic(levels[j][..., : n_coarse * (jmax // j)]) for j in factors}
    for j, value in xi.items():
        if not np.all(np.isfinite(value)) or np.any(np.less(value, 0.0)):
            raise ValueError(f"xi[{j}] must be finite and nonnegative, got {value}")
    return xi


def forward_moment_map(theta: MixedParams, h: float) -> Tuple[float, float, float, float]:
    """Expected xi statistics (eta_1, eta_2, eta_4, eta_8) of the
    two-process model at window width h."""
    check_positive("window width h", h)
    x = 2.0 ** (2.0 * theta.H1)
    y = 2.0 ** (2.0 * theta.H2)
    a_big = theta.a2 * _scale_coef(theta.H1, h)
    b_big = theta.b2 * _scale_coef(theta.H2, h)
    eta1 = a_big * (x - 1.0) + b_big * (y - 1.0)
    eta2 = a_big * x * (x - 1.0) + b_big * y * (y - 1.0)
    eta4 = a_big * x * x * (x - 1.0) + b_big * y * y * (y - 1.0)
    eta8 = a_big * x**3 * (x - 1.0) + b_big * y**3 * (y - 1.0)
    return eta1, eta2, eta4, eta8


def forward_moment_map_one(theta: NifbmParams, h: float) -> Tuple[float, float]:
    """Expected (xi_1, xi_2) of the one-process model at window width h:
    the map f whose inverse is the closed-form estimator."""
    check_positive("window width h", h)
    x = 2.0 ** (2.0 * theta.H)
    a_big = theta.a2 * _scale_coef(theta.H, h)
    return a_big * (x - 1.0), a_big * x * (x - 1.0)


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


def drift_mle(
    delta_y: np.ndarray,
    delta_g: np.ndarray,
    cov: np.ndarray,
) -> DriftEstimate:
    """Generalized-least-squares drift estimate with exact variance.

    cov is the autocovariance sequence of the noise increments, the
    first row of their Toeplitz covariance.  Solves with its Cholesky
    factor (two triangular solves); no matrix is inverted explicitly.
    delta_y is one increment series, giving a float mu_hat, or an
    (R, N) array of series, giving one mu_hat per row from the same
    factorization.
    """
    dy = np.asarray(delta_y, dtype=float)
    dg = np.asarray(delta_g, dtype=float)
    if dy.shape[-1] != dg.size or dg.size != len(cov):
        raise LengthError("increments, drift increments and covariance must align")
    if not np.any(dg != 0.0):
        raise ZeroDenominatorError("drift increments vanish identically")
    factor = cho_factor(toeplitz(cov), lower=True)
    solved_g = cho_solve(factor, dg)
    denom = float(dg @ solved_g)
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
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"N must be an integer >= 1, got {N!r}")
    if gN == 0.0:
        return 0.0

    def component(H: float, c: float) -> float:
        p = 2.0 * H + 2.0
        bracket = (N + 1.0) ** p + (N - 1.0) ** p - 2.0 * float(N) ** p - 2.0
        return c * h ** (2.0 * H) * bracket / ((2.0 * H + 1.0) * p)

    if isinstance(params, MixedParams):
        total = component(params.H1, params.a2) + component(params.H2, params.b2)
    else:
        total = component(params.H, params.a2)
    return total / gN**2


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
    estimate is then an array too, except for gN = 0, where it is the
    scalar 0.  The exact variance requires the noise parameters; when
    they are not supplied the variance is reported as 0.
    """
    mu_hat = (yN - y0) / gN if gN != 0.0 else 0.0
    variance = 0.0
    if params is not None and h is not None and N is not None:
        variance = two_point_variance(params, h, N, gN)
    return DriftEstimate(mu_hat=mu_hat, variance=variance, method="two-point")


def two_stage_estimate(
    y: np.ndarray, g: np.ndarray, h: float, model: str = "one"
):
    """Two-point drift estimate, then noise estimation on the residuals.

    y and g are observations and drift samples at times k*h, k = 0..N,
    with g[0] = 0.  The residual increments of y - mu_tilde * g feed the
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
    kind = {"one": NifbmParams, "two": MixedParams}.get(model)
    if kind is None:
        raise ValueError("model must be 'one' or 'two'")
    xi = xi_statistics_from_base(base, factors=MOMENT_FACTORS[kind])
    noise = MOMENT_ESTIMATORS[kind](xi, h)
    variance = 0.0
    if not noise.degenerate:
        params = kind(**{f.name: getattr(noise, f.name + "_hat") for f in fields(kind)})
        variance = two_point_variance(params, h, n_incr, g[-1] - g[0])
    drift = DriftEstimate(mu_hat=mu_tilde, variance=variance, method="two-point")
    return drift, noise
