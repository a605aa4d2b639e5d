"""Closed-form covariances of window-averaged fractional Brownian motion.

The central object is the normalized moving average

    X_t = (1/h) * integral of W_u over [t, t+h],

where W is fractional Brownian motion with Hurst index H.  This module
evaluates the covariance function of X, the autocovariance of its
equally spaced increments (through the kernel ``gamma``), and the mixed
autocovariance for a sum of two independent such processes.  Everything
here is a pure function of its arguments.

The parameter types hold model constants only: (H, a2) for one process
and (H1, H2, a2, b2) for two.  The window width h is a constant of the
sampling design and is passed like the lag count N and the aggregation
factor j; autocovariances are returned as plain float arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import binom

__all__ = [
    "AGGREGATION_FACTORS",
    "NifbmParams",
    "MixedParams",
    "nifbm_cov",
    "nifbm_var",
    "gamma",
    "autocov_sequence",
    "find_h0",
]

# Above this lag the direct fourth-difference formula for gamma loses
# roughly 4*log10(n) digits to cancellation, so we switch to a series
# expansion in 1/n that is exact to machine precision there.
_DIRECT_LIMIT = 1000

# the aggregation factors j of increments of width j*h that the
# samplers, the xi statistics and the moment estimators work with
AGGREGATION_FACTORS = (1, 2, 4, 8)


def _check_hurst(value: float) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"Hurst index must lie strictly in (0, 1), got {value}")
    return value


def check_positive(name: str, value: float) -> None:
    """Raise ValueError unless value is finite and positive (NaN and
    inf pass a bare `<= 0` test, so it is not enough)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class NifbmParams:
    """Parameters of a single scaled process: Hurst index H and squared
    scale a2 (the model is sqrt(a2) * X).  The window width h is part of
    the sampling design, not of the model, and is passed with the grid."""

    H: float
    a2: float = 1.0

    def __post_init__(self):
        _check_hurst(self.H)
        check_positive("scale a2", self.a2)


@dataclass(frozen=True)
class MixedParams:
    """Parameters of a sum of two independent scaled processes.

    Canonical ordering H1 > H2 is enforced; estimators report the larger
    Hurst index first as well.
    """

    H1: float
    H2: float
    a2: float
    b2: float

    def __post_init__(self):
        _check_hurst(self.H1)
        _check_hurst(self.H2)
        if not self.H1 > self.H2:
            raise ValueError("canonical ordering requires H1 > H2")
        check_positive("scale a2", self.a2)
        check_positive("scale b2", self.b2)


Params = Union[NifbmParams, MixedParams]


def nifbm_cov(H: float, h: float, t: float, s: float) -> float:
    """Covariance E[X_t X_s] of the window average, symmetric in (t, s).

    The expression splits into a part depending on the endpoints alone
    and a stationary part depending only on s - t.
    """
    H = _check_hurst(H)
    check_positive("window width h", h)
    if t < 0.0 or s < 0.0:
        raise ValueError("the process starts at time zero")
    if s < t:
        t, s = s, t
    p1 = 2.0 * H + 1.0
    p2 = 2.0 * H + 2.0
    d = s - t
    first = ((s + h) ** p1 - s**p1 + (t + h) ** p1 - t**p1) / (2.0 * h * p1)
    second = (2.0 * d**p2 - (d + h) ** p2 - abs(d - h) ** p2) / (
        2.0 * h * h * p1 * p2
    )
    return first + second


def nifbm_var(H: float, h: float, t: float) -> float:
    """Variance E[X_t^2] of the window average at time t >= 0."""
    H = _check_hurst(H)
    check_positive("window width h", h)
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    p1 = 2.0 * H + 1.0
    p2 = 2.0 * H + 2.0
    return ((t + h) ** p1 - t**p1) / (h * p1) - h ** (2.0 * H) / (p1 * p2)


def _gamma_direct(p: float, n: np.ndarray) -> np.ndarray:
    return (
        np.abs(n - 2.0) ** p
        - 4.0 * np.abs(n - 1.0) ** p
        + 6.0 * n**p
        - 4.0 * (n + 1.0) ** p
        + (n + 2.0) ** p
    )


def _gamma_series(p: float, n: np.ndarray) -> np.ndarray:
    # Fourth central difference of x^p at x = n, expanded in powers of
    # 1/n.  The odd and the k <= 2 even terms cancel exactly; the
    # remaining terms decay by n^-2 each, so a handful suffice for
    # n > _DIRECT_LIMIT.
    total = np.zeros_like(n)
    for k in range(4, 18, 2):
        coef = (2.0 ** (k + 1) - 8.0) * binom(p, k)
        if coef == 0.0:
            continue
        total += coef * n ** (p - k)
    return total


def gamma(H: float, n) -> Union[float, np.ndarray]:
    """Autocovariance kernel of the unit-width increment series at lag n.

    Symmetric in n; accepts scalars or arrays.  The direct formula is a
    fourth central difference of |n|^(2H+2) and is used for small lags;
    large lags use a series expansion that avoids catastrophic
    cancellation.
    """
    H = _check_hurst(H)
    arr = np.abs(np.asarray(n, dtype=float))
    p = 2.0 * H + 2.0
    norm = 4.0 * (2.0 * H + 1.0) * (H + 1.0)
    out = np.empty_like(arr)
    small = arr <= _DIRECT_LIMIT
    if small.any():
        out[small] = _gamma_direct(p, arr[small])
    if (~small).any():
        out[~small] = _gamma_series(p, arr[~small])
    out /= norm
    if np.isscalar(n) or np.ndim(n) == 0:
        return float(out)
    return out


def autocov_sequence(params: Params, h: float, j: int, N: int) -> np.ndarray:
    """First N autocovariances of the width-j*h increment series.

    For one-process params the values are a2*(jh)^(2H)*gamma(H, n); for
    mixed params the sum of one such term per component,
    a2*(jh)^(2H1)*gamma(H1, n) + b2*(jh)^(2H2)*gamma(H2, n).  The result
    is the first row of a symmetric positive-definite Toeplitz matrix.
    """
    check_positive("window width h", h)
    if j not in AGGREGATION_FACTORS:
        raise ValueError(
            f"aggregation factor j must be one of {AGGREGATION_FACTORS}"
        )
    if N < 1:
        raise ValueError("need at least one lag")
    lags = np.arange(N)
    w = j * h
    if isinstance(params, MixedParams):
        values = (
            params.a2 * w ** (2.0 * params.H1) * gamma(params.H1, lags)
            + params.b2 * w ** (2.0 * params.H2) * gamma(params.H2, lags)
        )
    else:
        values = params.a2 * w ** (2.0 * params.H) * gamma(params.H, lags)
    # the variance underflows to 0 for tiny h and large H
    check_positive("lag-0 autocovariance (a variance)", values[0])
    return values


def find_h0(tol: float = 1e-9) -> float:
    """Root of gamma(H, 1) = 0 in (0, 1), located by bisection.

    Below this Hurst value consecutive increments are negatively
    correlated, above it positively (unlike plain fBm, where the switch
    happens at 1/2).
    """
    # imported here: scipy.optimize is slow to load and only this needs it
    from scipy.optimize import bisect

    return float(bisect(lambda H: gamma(H, 1), 0.1, 0.5, xtol=tol))
