"""Shared test oracles and the hypothesis profile of the suite."""

import math

import numpy as np
from hypothesis import settings
from scipy import sparse
from scipy.integrate import quad

from nifbm.covariance import MixedParams, nifbm_cov, nifbm_var

# property tests are reproducible and never time out; each test sets
# its own max_examples
settings.register_profile("suite", derandomize=True, deadline=None)
settings.load_profile("suite")


def stream_generator(seed) -> np.random.Generator:
    """The generator an RngSeed stands for.  The samplers compute its
    state without building it; this is the oracle they are checked
    against."""
    return np.random.default_rng([seed.seed, seed.stream])


def fbm_cov(H: float, s: float, t: float) -> float:
    """Covariance of fractional Brownian motion at times s and t."""
    if s < 0.0 or t < 0.0:
        raise ValueError("times must be nonnegative")
    p = 2.0 * H
    return 0.5 * (s**p + t**p - abs(s - t) ** p)


def fbm_increment_cov(H: float, s: float, t: float, u: float, v: float) -> float:
    """Covariance of the fBm increments over [s, t] and [u, v].

    Each interval must be ordered (s <= t, u <= v, nonnegative); the
    intervals themselves may coincide or overlap.
    """
    if not (0.0 <= s <= t) or not (0.0 <= u <= v):
        raise ValueError("arguments must satisfy 0 <= s <= t and 0 <= u <= v")
    p = 2.0 * H
    return 0.5 * (
        abs(v - s) ** p + abs(u - t) ** p - abs(v - t) ** p - abs(u - s) ** p
    )


def gamma_asymptotic(H: float, n):
    """Leading large-n behaviour of gamma: H(2H-1) * n^(2H-2).

    Zero at H = 1/2 and negative for H < 1/2, matching the sign of
    gamma itself.
    """
    arr = np.asarray(n, dtype=float)
    out = H * (2.0 * H - 1.0) * arr ** (2.0 * H - 2.0)
    if np.isscalar(n) or np.ndim(n) == 0:
        return float(out)
    return out


def jacobian_one_det(theta, h: float) -> float:
    """Closed form of the determinant of the one-process moment map's
    Jacobian at theta and window width h; strictly negative."""
    H, a2 = theta.H, theta.a2
    d = (2.0 * H + 1.0) * (H + 1.0)
    x = 2.0 ** (2.0 * H)
    return -a2 * h ** (4.0 * H) * 2.0 ** (2.0 * H + 3.0) * math.log(2.0) * (
        x - 1.0
    ) ** 2 / d**2


def two_point_variance_assembled(params, h: float, N: int, gN: float) -> float:
    """Variance of the two-point drift estimate (yN - y0) / gN assembled
    from the window-average covariance; algebraically identical to
    nifbm.estimation.two_point_variance, which it cross-checks."""
    if gN == 0.0:
        return 0.0
    t_end = N * h

    def component(H: float, c: float) -> float:
        return c * (
            nifbm_var(H, h, 0.0)
            + nifbm_var(H, h, t_end)
            - 2.0 * nifbm_cov(H, h, 0.0, t_end)
        )

    if isinstance(params, MixedParams):
        total = component(params.H1, params.a2) + component(params.H2, params.b2)
    else:
        total = component(params.H, params.a2)
    return total / gN**2


def quad_oracle(H: float, h: float, t: float, s: float) -> float:
    """Window-average covariance by nested adaptive quadrature of the
    underlying process covariance over [t, t+h] x [s, s+h].

    Independent of the closed form under test; the inner integral flags
    the |u - v| kink location so the adaptive rule subdivides there.
    """

    def inner(v):
        pts = [v] if t < v < t + h else None
        val, _ = quad(
            lambda u: fbm_cov(H, u, v),
            t,
            t + h,
            points=pts,
            epsabs=1e-10,
            epsrel=1e-10,
            limit=200,
        )
        return val

    val, _ = quad(inner, s, s + h, epsabs=1e-9, epsrel=1e-9, limit=200)
    return val / h**2


def sample_autocov(samples: np.ndarray, lag: int) -> float:
    """Cross-replication sample autocovariance at the given lag;
    samples has one replication per row."""
    return float(np.mean(samples[:, 0] * samples[:, lag]))


def hurst_delta_variance(acov, n: int) -> float:
    """Exact finite-n delta-method variance of the one-process Hurst
    estimate H_hat = log(xi2 / xi1) / log 4 under the aggregated scheme.

    acov holds the base increment autocovariance at lags 0, 1, ...; lags
    beyond it are zero, so a short kernel gives a banded covariance.  The
    base has 2n + 1 increments; xi1 = x'Ax is the mean square of the first
    2n and xi2 = x'Bx that of the n three-point aggregates (x_2k +
    2 x_2k+1 + x_2k+2) / 2.  With the gradient of H_hat at the means, the
    linearised estimate is x'Qx for Q = (B / E xi2 - A / E xi1) / log 4,
    and for the base covariance S its variance is the Gaussian
    quadratic-form identity 2 tr(QSQS).
    """
    size = 2 * n + 1
    row = np.asarray(acov, dtype=float)[:size]
    offsets = np.arange(1 - row.size, row.size)
    cov = sparse.diags(
        [np.full(size - abs(k), row[abs(k)]) for k in offsets], offsets
    ).tocsr()
    fine = sparse.diags(np.r_[np.full(2 * n, 1.0 / (2 * n)), 0.0])
    rows = np.repeat(np.arange(n), 3)
    cols = (2 * np.arange(n)[:, None] + np.arange(3)).ravel()
    weights = np.tile([0.5, 1.0, 0.5], n)
    agg = sparse.csr_matrix((weights, (rows, cols)), shape=(n, size))
    coarse = agg.T @ agg / n
    mean1 = (fine @ cov).diagonal().sum()
    mean2 = (coarse @ cov).diagonal().sum()
    q = (coarse / mean2 - fine / mean1) / math.log(4.0)
    qs = q @ cov
    return float(2.0 * qs.multiply(qs.T).sum())
