"""Closed-form estimators for drift, Hurst indices and scales.

Two families live here.  Moment estimators invert the map from model
parameters to the expected mean squared increments at aggregation
factors j in {1, 2, 4, 8} (the xi statistics); the one-process case
needs two factors, the two-process case all four via a quadratic whose
roots are 2^(2*H1) and 2^(2*H2).  Drift estimators are the exact
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
from dataclasses import dataclass, field
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
    "XiStatistics",
    "DriftEstimate",
    "OneNifbmEstimate",
    "TwoNifbmEstimate",
    "xi_statistic",
    "xi_statistics_from_base",
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


@dataclass(frozen=True)
class XiStatistics:
    """Mean squared increments xi[j] and the sample sizes counts[j];
    each xi[j] is a float, or an array of one value per row of a block."""

    xi: Dict[int, Union[float, np.ndarray]]
    counts: Dict[int, int]

    def __post_init__(self):
        for j, value in self.xi.items():
            if not np.all(np.isfinite(value)) or np.any(np.less(value, 0.0)):
                raise ValueError(f"xi[{j}] must be finite and nonnegative, got {value}")


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


def _rows(*values) -> Tuple[list, bool]:
    """The values as 1-d float arrays, so that one series and a block
    share one code path, and whether every value was a scalar."""
    arrays = [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
    return arrays, all(np.ndim(v) == 0 for v in values)


def _estimate(cls, scalar: bool, *fields: np.ndarray):
    """cls of the field arrays, unwrapped to Python floats and bools when
    every input was a scalar."""
    return cls(*(field.item() if scalar else field for field in fields))


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


def xi_statistics_from_base(
    base: np.ndarray, factors: Tuple[int, ...] = AGGREGATION_FACTORS
) -> XiStatistics:
    """xi statistics at several aggregation factors from one base series,
    or from each row of an (R, M) block.

    The sample sizes follow the shared-horizon bookkeeping: if n series
    of the coarsest factor fit, factor j uses the first n * max(factors)
    / j increments of its level.  Each level is the previous one
    aggregated by 2.
    """
    levels = {1: np.asarray(base, dtype=float)}
    jmax = max(factors)
    if levels[1].shape[-1] < 2 * jmax - 1:
        raise LengthError(
            f"series of length {levels[1].shape[-1]} too short to aggregate by {jmax}"
        )
    j = 2
    while j <= jmax:
        levels[j] = aggregate_increments(levels[j // 2], 2)
        j *= 2
    n_coarse = levels[jmax].shape[-1]
    counts = {j: n_coarse * (jmax // j) for j in factors}
    xi = {j: xi_statistic(levels[j][..., : counts[j]]) for j in factors}
    return XiStatistics(xi=xi, counts=counts)


def forward_moment_map(theta: MixedParams, h: float) -> Tuple[float, float, float, float]:
    """Expected xi statistics (eta_1, eta_2, eta_4, eta_8) of the
    two-process model at window width h."""
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
def estimate_one_nifbm(xi1, xi2, h: float) -> OneNifbmEstimate:
    """Invert the one-process moment map on (xi1, xi2).

    xi1 is the mean squared increment at width h (computed on 2N
    values), xi2 at width 2h (on N values); floats give one estimate,
    arrays one estimate per element.
    """
    check_positive("step h", h)
    (xi1, xi2), scalar = _rows(xi1, xi2)
    h_hat = _log_plus(_safe_div(xi2, xi1)) / _LOG4
    denom = _scale_coef(h_hat, h) * (2.0 ** (2.0 * h_hat) - 1.0)
    a2_hat = _safe_div(xi1, denom)
    valid = _in_range(h_hat, 1.0) & _in_range(a2_hat, math.inf)
    return _estimate(OneNifbmEstimate, scalar, h_hat, a2_hat, ~valid)


@np.errstate(all="ignore")
def estimate_two_nifbm(
    xi: Union[XiStatistics, Dict[int, float]], h: float
) -> TwoNifbmEstimate:
    """Invert the two-process moment map on xi statistics at j = 1,2,4,8.

    The candidate values of 2^(2*H1) and 2^(2*H2) are the two roots of a
    quadratic assembled from the four statistics; scales follow by
    linear solves with the estimated Hurst indices plugged in.  Floats
    give one estimate, arrays one estimate per element.
    """
    check_positive("step h", h)
    stats = xi.xi if isinstance(xi, XiStatistics) else xi
    try:
        (x1, x2, x4, x8), scalar = _rows(*(stats[j] for j in AGGREGATION_FACTORS))
    except KeyError as exc:
        raise LengthError("xi statistics at j = 1, 2, 4, 8 are all required") from exc

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
    fields = (h1_hat, h2_hat, a2_hat, b2_hat, disc, ~valid)
    return _estimate(TwoNifbmEstimate, scalar, *fields)


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
    - 2 N^(2H+2) - 2) / ((2H+1)(2H+2)).
    """
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
    if model == "one":
        stats = xi_statistics_from_base(base, factors=AGGREGATION_FACTORS[:2])
        noise = estimate_one_nifbm(stats.xi[1], stats.xi[2], h)
        params = (
            None
            if noise.degenerate
            else NifbmParams(H=noise.H_hat, a2=noise.a2_hat)
        )
    elif model == "two":
        stats = xi_statistics_from_base(base, factors=AGGREGATION_FACTORS)
        noise = estimate_two_nifbm(stats, h)
        params = (
            None
            if noise.degenerate
            else MixedParams(
                H1=noise.H1_hat, H2=noise.H2_hat, a2=noise.a2_hat, b2=noise.b2_hat
            )
        )
    else:
        raise ValueError("model must be 'one' or 'two'")
    variance = 0.0
    if params is not None:
        variance = two_point_variance(params, h, n_incr, g[-1] - g[0])
    drift = DriftEstimate(mu_hat=mu_tilde, variance=variance, method="two-point")
    return drift, noise
