"""Shared test oracles and the hypothesis profile of the suite."""

import decimal
import functools
import math
from dataclasses import astuple, fields

import numpy as np
from hypothesis import settings
from scipy import sparse
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve, toeplitz
from scipy.special import zeta

from nifbm.covariance import MixedParams, gamma, nifbm_cov, nifbm_var
from nifbm.estimation import (
    MOMENT_ESTIMATORS,
    MOMENT_FACTORS,
    base_length,
    xi_statistic,
    xi_statistics_from_base,
)
from nifbm.simulation import (
    combine_mixed_components,
    sample_increments,
    sample_mixed_components,
)

# property tests are reproducible and never time out; each test sets
# its own max_examples
settings.register_profile("suite", derandomize=True, deadline=None)
settings.load_profile("suite")


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """Stream `stream` of a seed: numpy's PCG64(seed) jumped `stream`
    times, written out here as the oracle that
    nifbm.simulation.stream_generator and the samplers' draws are
    checked against."""
    return np.random.Generator(np.random.PCG64(seed).jumped(stream))


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


def gamma_decimal(H: float, n: int) -> float:
    """gamma(H, n) as the fourth central difference of |x|^p at x = n,
    with the float p = 2H + 2 that gamma uses, in 50-digit decimal
    arithmetic and rounded once to a float: the reference gamma's
    accuracy is measured against.  Powers are exact at integer p, so
    the value at H = 1/2 and n >= 2 is 0."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        p = decimal.Decimal(2.0 * H + 2.0)
        x = abs(int(n))
        diff = sum(
            w * decimal.Decimal(abs(x + k)) ** p
            for k, w in zip(range(-2, 3), (1, -4, 6, -4, 1))
        )
        h = decimal.Decimal(H)
        return float(diff / (4 * (2 * h + 1) * (h + 1)))


@functools.lru_cache(maxsize=1)
def _kernel_reference_table(H: float, reach: int) -> np.ndarray:
    half = gamma(H, np.arange(reach + 1))
    return np.concatenate((half[:0:-1], half))


def gamma_square_series_reference(H: float, shifts=(0, 0), n_terms=10**6) -> float:
    """The gamma square series by brute force: the explicit sum of
    gamma(H, i + alpha) * gamma(H, i + beta) over |i| <= n_terms, plus
    the leading-order tails c^2 * zeta(4 - 4H, n_terms + 1 +- mid),
    mid = (alpha + beta) / 2, the reference
    nifbm.asymptotics.gamma_square_series is checked against.  c is
    gamma's leading large-lag coefficient H(2H - 1), written as
    p(p-1)(p-2)(p-3) / (4(2H+1)(H+1)) at the float p = 2H + 2 that
    gamma uses: below H = 1e-14 the float p carries H only in part (at
    H < 1.1e-16 not at all, and gamma is 0 at every lag), and the tail
    must follow the kernel it sums.

    At the default 10^6 terms the tails are within 3e-13 of the sum's
    (0, 0) value for shifts up to 8 apart (the next order, d^2 x^(4H-6)
    with d = (alpha - beta) / 2, is what they leave out); at 10^5 the
    sum is within 9e-13 of the one at 10^6 at H = 0.74, shift (0, 0).
    The kernel table of the last H is kept, so cases of one H share it.
    """
    alpha, beta = shifts
    # one reach for every shift up to 8, so that they share the table
    pad = max(8, abs(alpha), abs(beta))
    # entry pad + k of the table is lag k - n_terms
    table = _kernel_reference_table(H, n_terms + pad)
    first = table[pad + alpha : pad + alpha + 2 * n_terms + 1]
    second = table[pad + beta : pad + beta + 2 * n_terms + 1]
    total = float(np.sum(first * second))
    p = 2.0 * H + 2.0
    c = p * (p - 1.0) * (p - 2.0) * (p - 3.0) / (4.0 * (2.0 * H + 1.0) * (H + 1.0))
    if c != 0.0:
        s = 4.0 - 4.0 * H
        mid = 0.5 * (alpha + beta)
        tail = c * c * (
            zeta(s, n_terms + 1.0 + mid) + zeta(s, n_terms + 1.0 - mid)
        )
        total += float(tail)
    return total


def gls_oracle(cov: np.ndarray, delta_g: np.ndarray):
    """GLS drift weight T^-1 g / (g'T^-1 g) and variance 1 / (g'T^-1 g)
    for the Toeplitz covariance T with first row cov, by dense Cholesky:
    the exact reference nifbm.estimation.drift_mle's iterative solve is
    checked against.  Raises LinAlgError when T is not positive
    definite."""
    solved = cho_solve(cho_factor(toeplitz(cov), lower=True), delta_g)
    denom = float(delta_g @ solved)
    return solved / denom, 1.0 / denom


def jacobian_one_closed_form(theta, h: float) -> np.ndarray:
    """The one-process moment map's Jacobian at theta and window width
    h written out entry by entry, rows (f1, f2) and columns (H, a2):
    the expression nifbm.asymptotics.jacobian must equal bit for bit on
    one-process parameters."""
    H, a2 = theta.H, theta.a2
    d = (2.0 * H + 1.0) * (H + 1.0)
    x = 2.0 ** (2.0 * H)
    hp = h ** (2.0 * H)
    lh = math.log(h)
    l2 = math.log(2.0)

    d12 = 2.0 * hp * (x - 1.0) / d
    d22 = 2.0 * hp * x * (x - 1.0) / d
    d11 = (
        2.0
        * a2
        * hp
        * ((2.0 * lh * (x - 1.0) + 2.0 * l2 * x) * d - (x - 1.0) * (4.0 * H + 3.0))
        / d**2
    )
    d21 = (
        2.0
        * a2
        * hp
        * (
            (2.0 * lh * x * (x - 1.0) + 2.0 * l2 * (2.0 * x * x - x)) * d
            - x * (x - 1.0) * (4.0 * H + 3.0)
        )
        / d**2
    )
    return np.array([[d11, d12], [d21, d22]])


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


def empirical_estimator_cov(params, h: float, N: int, replications: int, seed: int = 0):
    """Sample covariance of sqrt(N) * (theta_hat - theta) over
    `replications` noise estimates, and the count of degenerate ones it
    leaves out: the Monte Carlo check of nifbm.asymptotics.

    The replications are drawn in one sampler call from stream 0 of the
    seed.  One-process parameters give the 2x2 matrix of (H, a2) by the
    aggregated scheme, one base series whose coarsest aggregate has N
    increments; two-process parameters give the 4x4 matrix of
    (H1, H2, a2, b2) from shared unit-scale components rescaled to every
    width j*h.
    """
    rng = stream_generator(seed, 0)
    factors = MOMENT_FACTORS[type(params)]
    if isinstance(params, MixedParams):
        parts = sample_mixed_components(params, N, rng, replications)
        xi = {
            j: xi_statistic(combine_mixed_components(params, j * h, *parts))
            for j in factors
        }
    else:
        base = sample_increments(params, h, base_length(factors, N), rng, replications)
        xi = xi_statistics_from_base(base, factors=factors)
    est = MOMENT_ESTIMATORS[type(params)](xi, h)
    kept = np.column_stack(
        [getattr(est, f.name + "_hat")[~est.degenerate] for f in fields(params)]
    )
    scaled = math.sqrt(N) * (kept - np.array(astuple(params)))
    return np.cov(scaled, rowvar=False), replications - len(kept)
