"""Closed-form covariances of window-averaged fractional Brownian motion.

The central object is the normalized moving average

    X_t = (1/h) * integral of W_u over [t, t+h],

where W is fractional Brownian motion with Hurst index H.  This module
evaluates the covariance function of X, the autocovariance of its
equally spaced increments (through the kernel ``gamma``), summed over
the independent components of a model.  Everything here is a pure
function of its arguments.

The parameter types hold model constants only, and list them as
``components``, one (H, squared scale) pair per independent process.
The increment width h is a constant of the sampling design and is
passed like the lag count N; autocovariances are returned as plain
float arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

__all__ = [
    "NifbmParams",
    "MixedParams",
    "MODEL_PARAMS",
    "nifbm_cov",
    "nifbm_var",
    "gamma",
    "autocov_sequence",
    "find_h0",
]

# gamma is a direct fourth difference up to this lag and a series in
# 1/n above it.  Neither branch cancels an O(1) part, so the error does
# not grow as H goes to 0: against 80-digit decimals (H from 1e-14 to
# 0.999, lags 0 to 10^6) it is at most 6.0e-12 relative (relative to
# gamma(0) where gamma = 0).  They meet where the two errors cross:
# the direct branch loses about 4 log10(n) digits, and the series'
# truncation error falls like n^-14 (4.8e-12 relative at lag 9).
_DIRECT_LIMIT = 8


def _check_hurst(value: float) -> float:
    if not (is_real(value) and 0.0 < value < 1.0):
        raise ValueError(f"Hurst index must lie strictly in (0, 1), got {value!r}")
    return float(value)


def _check_time(t: float) -> None:
    # the process starts at time zero; NaN fails this test, unlike t < 0
    if not (is_real(t) and 0.0 <= t < math.inf):
        raise ValueError(f"time must be finite and nonnegative, got {t!r}")


def check_positive(name: str, value: float) -> None:
    """Raise ValueError unless value is a finite and positive real
    number (NaN and inf pass a bare `<= 0` test, so it is not
    enough)."""
    if not (is_real(value) and 0.0 < value < math.inf):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def is_integer(value) -> bool:
    """An int or numpy integer, but not a bool, which subclasses int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """An int, float or numpy integer or float, but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_length(N: int) -> None:
    """Raise ValueError unless N is an integer >= 1 (a bool is not)."""
    if not is_integer(N) or N < 1:
        raise ValueError(f"N must be an integer >= 1, got {N!r}")


@dataclass(frozen=True)
class NifbmParams:
    """Parameters of a single scaled process: Hurst index H and squared
    scale a2 (the model is sqrt(a2) * X).  The window width h is part of
    the sampling design, not of the model, and is passed next to it."""

    H: float
    a2: float = 1.0

    def __post_init__(self):
        _check_hurst(self.H)
        check_positive("scale a2", self.a2)

    @property
    def components(self) -> Tuple[Tuple[float, float], ...]:
        """The model's independent (Hurst index, squared scale) pairs."""
        return ((self.H, self.a2),)


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

    @property
    def components(self) -> Tuple[Tuple[float, float], ...]:
        return ((self.H1, self.a2), (self.H2, self.b2))


Params = Union[NifbmParams, MixedParams]

# the params type of each model name
MODEL_PARAMS = {"one-nifbm": NifbmParams, "two-nifbm": MixedParams}


def nifbm_cov(H: float, h: float, t: float, s: float) -> float:
    """Covariance E[X_t X_s] of the window average, symmetric in (t, s).

    The expression splits into a part depending on the endpoints alone
    and a stationary part depending only on s - t.
    """
    H = _check_hurst(H)
    check_positive("window width h", h)
    _check_time(t)
    _check_time(s)
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
    return nifbm_cov(H, h, t, t)


def _gamma_direct(H: float, n: np.ndarray) -> np.ndarray:
    """Fourth central difference of x^2 (x^(2H) - 1) at x = n, over the
    points x = |n + i|, i = -2 .. 2: that of |x|^(2H+2) less that of
    x^2, which is 0, so no O(1) part is left to cancel.  x^(2H) - 1 is
    expm1(2H ln x) where that is below 1/2 in size, accurate as H goes
    to 0, and the power elsewhere, exact at 2H = 1, where the sum is
    then exactly 0 from lag 2 on.  A point x = 0 adds 0 * -1."""
    x = np.abs(n[:, None] + np.arange(-2.0, 3.0))
    with np.errstate(divide="ignore"):
        e = 2.0 * H * np.log(x)
    rise = np.where(np.abs(e) < 0.5, np.expm1(e), x ** (2.0 * H) - 1.0)
    t = x * x * rise
    return t[:, 0] - 4.0 * t[:, 1] + 6.0 * t[:, 2] - 4.0 * t[:, 3] + t[:, 4]


def series_coefficients(H: float) -> Tuple[Tuple[int, float], ...]:
    """The seven (k, coefficient) pairs, k = 4, 6, .., 16, of gamma's
    large-lag series: the sum of coefficient * n^(2H + 2 - k) over them
    is gamma at lag n > 2, with a truncation error that falls like
    n^-14 relative (4.8e-12 at lag 9).

    With p = 2H + 2 the coefficient is (2^(k+1) - 8) * (p choose k), from
    the fourth central difference of x^p, over gamma's norm
    4(2H+1)(H+1); the odd and the k <= 2 terms cancel exactly.  The
    norm cancels the binomial's factors p and p - 1, and every other
    factor p - i is formed as 2H + (2 - i): the i = 2 factor is 2H
    exactly, so the coefficients keep their relative accuracy as H goes
    to 0, and the i = 3 factor makes them all 0 at H = 1/2.
    """
    coefs = []
    # the product over 2 <= i < k of (2H + 2 - i), over 2 k!
    part = 0.25
    for k in range(2, 17):
        if k >= 4 and k % 2 == 0:
            coefs.append((k, (2.0 ** (k + 1) - 8.0) * part))
        part *= (2.0 * H + (2 - k)) / (k + 1)
    return tuple(coefs)


def _gamma_series(H: float, n: np.ndarray) -> np.ndarray:
    # Horner's rule in n^-2, the largest k first
    inv_square = 1.0 / (n * n)
    coefs = series_coefficients(H)
    total = np.full_like(n, coefs[-1][1])
    for _, coef in reversed(coefs[:-1]):
        total *= inv_square
        total += coef
    total *= n ** (2.0 * H - 2.0)
    return total


def gamma(H: float, n) -> Union[float, np.ndarray]:
    """Autocovariance kernel of the unit-width increment series at lag n.

    Symmetric in n; accepts real scalars or arrays (not bools, strings
    or objects).  gamma is the fourth central difference of |n|^(2H+2)
    over 4(2H+1)(H+1), taken up to lag _DIRECT_LIMIT = 8 in a form
    with no O(1) part to cancel and above it as a series in 1/n.  Its
    error is at most 6.0e-12 relative at every H from 1e-14 to 0.999 and
    every lag up to 10^6 (relative to gamma(0) where gamma = 0), and
    gamma(1/2, n) is exactly 0 from n = 2 on.
    """
    H = _check_hurst(H)
    arr = np.asarray(n)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"lags must be real numbers, got an array of {arr.dtype}")
    arr = np.abs(arr, dtype=float)
    out = np.empty_like(arr)
    small = arr <= _DIRECT_LIMIT
    count = np.count_nonzero(small)
    if count:
        norm = 4.0 * (2.0 * H + 1.0) * (H + 1.0)
        out[small] = _gamma_direct(H, arr[small]) / norm
    if count < arr.size:
        large = ~small
        out[large] = _gamma_series(H, arr[large])
    if np.isscalar(n) or np.ndim(n) == 0:
        return float(out)
    return out


def autocov_sequence(params: Params, h: float, N: int) -> np.ndarray:
    """First N autocovariances of the width-h increment series: the sum
    of c*h^(2H)*gamma(H, n) over the components (H, c) of params.  The
    result is the first row of a symmetric positive-definite Toeplitz
    matrix.
    """
    check_positive("window width h", h)
    check_length(N)
    lags = np.arange(N)
    values = sum(c * h ** (2.0 * H) * gamma(H, lags) for H, c in params.components)
    # the variance underflows to 0 for tiny h and large H
    check_positive("lag-0 autocovariance (a variance)", values[0])
    return values


def find_h0(tol: float = 1e-9) -> float:
    """Root of gamma(H, 1) = 0 in (0, 1), located by bisection.

    Below this Hurst value consecutive increments are negatively
    correlated, above it positively (unlike plain fBm, where the switch
    happens at 1/2).

    The bisection is scipy.optimize.bisect's, step for step, with
    absolute tolerance tol, relative tolerance 4 eps and at most 100
    halvings, so the root equals bisect(..., 0.1, 0.5, xtol=tol).  The
    bracket ends are no roots: gamma(H, 1) is negative at 0.1 and 1/6
    at 0.5.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    rtol = 4.0 * np.finfo(float).eps
    lo, step = 0.1, 0.4
    f_lo = gamma(lo, 1)
    for _ in range(100):
        step *= 0.5
        mid = lo + step
        f_mid = gamma(mid, 1)
        if f_mid * f_lo >= 0.0:
            lo = mid
        if f_mid == 0.0 or abs(step) < tol + rtol * abs(mid):
            return mid
    raise RuntimeError(f"bisection did not converge in 100 steps, at {lo}")
