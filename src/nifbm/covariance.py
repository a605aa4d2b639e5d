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

# The direct fourth-difference formula for gamma loses roughly
# 4*log10(n) digits to cancellation; above this lag a series in 1/n
# takes over, within 2.3e-14 relative up to lag 10^6 (against 50-digit
# decimals, H from 0.001 to 0.999).  Below it the loss stands: 1.0e-7
# relative by lag 29 and 0.12 at lag 931, both at H = 0.001.
_DIRECT_LIMIT = 1000


def _check_hurst(value: float) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"Hurst index must lie strictly in (0, 1), got {value}")
    return value


def _check_time(t: float) -> None:
    # the process starts at time zero; NaN fails this test, unlike t < 0
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and nonnegative, got {t}")


def check_positive(name: str, value: float) -> None:
    """Raise ValueError unless value is finite and positive (NaN and
    inf pass a bare `<= 0` test, so it is not enough)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def is_integer(value) -> bool:
    """An int or numpy integer, but not a bool, which subclasses int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def _gamma_direct(p: float, n: np.ndarray) -> np.ndarray:
    return (
        np.abs(n - 2.0) ** p
        - 4.0 * np.abs(n - 1.0) ** p
        + 6.0 * n**p
        - 4.0 * (n + 1.0) ** p
        + (n + 2.0) ** p
    )


def binom(p: float, k: int) -> float:
    """The binomial coefficient p choose k for real p > 0 and integer k
    in [0, 20), equal bit for bit to scipy.special.binom(p, k).

    This is scipy's multiplication formula for integer k, with the same
    order of products and the same rescaling above 1e50.  For an
    integer p it is 0 when k > p, as scipy's general branch gives
    there, and it uses the symmetric k -> p - k when k > p / 2.
    """
    if not (p > 0.0 and 0 <= k < 20):
        raise ValueError(f"need p > 0 and an integer k in [0, 20), got {p}, {k}")
    if p == math.floor(p) and k > p / 2:
        if k > p:
            return 0.0
        k = int(p) - k
    num = den = 1.0
    for i in range(1, k + 1):
        num *= i + p - k
        den *= i
        if abs(num) > 1e50:
            num /= den
            den = 1.0
    return num / den


def series_coefficients(p: float) -> Tuple[Tuple[int, float], ...]:
    """The seven (k, coefficient) pairs of the large-lag series of the
    fourth central difference of x^p: the sum of coefficient * n^(p - k)
    over them, divided by gamma's norm 4(2H+1)(H+1), is gamma at lag n.

    The odd and the k <= 2 even terms cancel exactly; the remaining
    terms decay by n^-2 each, so a handful suffice for n > _DIRECT_LIMIT.
    """
    return tuple((k, (2.0 ** (k + 1) - 8.0) * binom(p, k)) for k in range(4, 18, 2))


def _gamma_series(p: float, n: np.ndarray) -> np.ndarray:
    total = np.zeros_like(n)
    for k, coef in series_coefficients(p):
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
