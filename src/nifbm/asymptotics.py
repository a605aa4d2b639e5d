"""Asymptotic covariances for the one-process moment estimators.

The scaled statistics sqrt(N) * (xi1_on_2N - f1, xi2_on_N - f2) are
asymptotically Gaussian for H < 3/4 with a covariance built from the
series sum over integers of gamma(H, i + alpha) * gamma(H, i + beta).
The delta method then propagates that covariance through the inverse of
the moment map f to give the joint asymptotic covariance of
(H_hat, a2_hat).  A seeded Monte Carlo fallback covers the two-process
estimator, whose analytic covariance is not implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
from scipy.special import zeta

from .covariance import (
    MixedParams,
    NifbmParams,
    Params,
    gamma,
)
from .errors import HTooLargeError
from .estimation import (
    estimate_one_nifbm,
    estimate_two_nifbm,
    xi_statistic,
    xi_statistics_from_base,
)
from .simulation import (
    IncrementSeries,
    SampleGrid,
    combine_mixed_components,
    sample_increments,
    sample_mixed_components,
    seed_blocks,
)

__all__ = [
    "AsymptoticCov2",
    "Jacobian2",
    "gamma_square_series",
    "sigma_tilde_one",
    "jacobian_one",
    "jacobian_one_det",
    "sigma0_one",
    "empirical_estimator_cov",
]

_DEFAULT_TERMS = 100_000


@dataclass(frozen=True)
class AsymptoticCov2:
    """Unit-scale asymptotic covariance of sqrt(N)*(xi1_on_2N, xi2_on_N)."""

    s11: float
    s12: float
    s22: float

    def __post_init__(self):
        if self.s11 <= 0.0 or self.s22 <= 0.0:
            raise ValueError("variances must be positive")
        if self.s11 * self.s22 - self.s12**2 < 0.0:
            raise ValueError("covariance must be positive semidefinite")

    def matrix(self) -> np.ndarray:
        return np.array([[self.s11, self.s12], [self.s12, self.s22]])


@dataclass(frozen=True)
class Jacobian2:
    """Partials of the one-process moment map, rows (f1, f2), columns
    (H, a2)."""

    d11: float
    d12: float
    d21: float
    d22: float

    def matrix(self) -> np.ndarray:
        return np.array([[self.d11, self.d12], [self.d21, self.d22]])

    def det(self) -> float:
        return self.d11 * self.d22 - self.d12 * self.d21


def _check_h_range(H: float) -> float:
    H = float(H)
    if H >= 0.75:
        raise HTooLargeError(
            f"asymptotic series require H < 3/4, got H = {H}"
        )
    return H


def gamma_square_series(
    H: float, shifts: Tuple[int, int] = (0, 0), n_terms: int = _DEFAULT_TERMS
) -> float:
    """Sum over all integers i of gamma(H,i+alpha)*gamma(H,i+beta).

    Terms with |i| <= n_terms are summed exactly; the two tails decay
    like |i|^(4H-4) and are added analytically through the Hurwitz zeta
    function evaluated on the leading asymptote of gamma.  The tail
    correction is exact to a relative error of order n_terms^-2, which
    keeps the absolute error well below 1e-10 at the default size.
    """
    H = _check_h_range(H)
    alpha, beta = shifts
    i = np.arange(-n_terms, n_terms + 1)
    total = float(np.sum(gamma(H, i + alpha) * gamma(H, i + beta)))
    c = H * (2.0 * H - 1.0)
    if c != 0.0:
        s = 4.0 - 4.0 * H
        mid = 0.5 * (alpha + beta)
        tail = c * c * (
            zeta(s, n_terms + 1.0 + mid) + zeta(s, n_terms + 1.0 - mid)
        )
        total += float(tail)
    return total


def sigma_tilde_one(H: float, h: float, n_terms: int = _DEFAULT_TERMS) -> AsymptoticCov2:
    """Asymptotic covariance of the scaled (xi1_on_2N, xi2_on_N) pair
    at unit process scale (multiply by a2 squared for a scaled model).

    Sampling convention: increments observed at step h; xi1 is the mean
    square of the first 2N base increments of width h, and xi2 the mean
    square of the N three-point aggregates (x_2k + 2 x_2k+1 + x_2k+2) / 2,
    which are increments of width 2h, taken from the same 2N + 1 base.
    The covariance refers to this scheme only; another split (xi1 on N,
    or xi2 on N / 2) changes it.
    """
    H = _check_h_range(H)
    s0 = gamma_square_series(H, (0, 0), n_terms)
    s1 = gamma_square_series(H, (0, 1), n_terms)
    s2 = gamma_square_series(H, (0, 2), n_terms)
    scale = h ** (4.0 * H)
    s11 = scale * s0
    s22 = 2.0 ** (4.0 * H + 1.0) * s11
    s12 = 0.5 * scale * (3.0 * s0 + 4.0 * s1 + s2)
    return AsymptoticCov2(s11=s11, s12=s12, s22=s22)


def jacobian_one(theta: NifbmParams) -> Jacobian2:
    """Jacobian of the one-process moment map f at theta."""
    H, h, a2 = theta.H, theta.h, theta.a2
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
    return Jacobian2(d11=d11, d12=d12, d21=d21, d22=d22)


def jacobian_one_det(theta: NifbmParams) -> float:
    """Closed form of the Jacobian determinant; strictly negative."""
    H, h, a2 = theta.H, theta.h, theta.a2
    d = (2.0 * H + 1.0) * (H + 1.0)
    x = 2.0 ** (2.0 * H)
    return -a2 * h ** (4.0 * H) * 2.0 ** (2.0 * H + 3.0) * math.log(2.0) * (
        x - 1.0
    ) ** 2 / d**2


def sigma0_one(theta: NifbmParams, n_terms: int = _DEFAULT_TERMS) -> np.ndarray:
    """Delta-method covariance of sqrt(N)*(H_hat - H, a2_hat - a2).

    The estimates invert the moment map on the sampling convention of
    sigma_tilde_one: observation step h, xi1 on 2N base increments and
    xi2 on N three-point-aggregated width-2h increments.  At H = 1/2 the
    Hurst entry is 21/32 / (2 log 2)^2 for every h and a2.

    The xi covariance scales with the fourth power of the process
    scale, hence the a2 squared factor before the congruence with the
    inverse Jacobian.
    """
    sig = sigma_tilde_one(theta.H, theta.h, n_terms).matrix() * theta.a2**2
    jac = jacobian_one(theta).matrix()
    inv = np.linalg.solve(jac, np.eye(2))
    return inv @ sig @ inv.T


def empirical_estimator_cov(
    params: Params,
    h: float,
    N: int,
    replications: int,
    seed: int = 0,
) -> Tuple[np.ndarray, int]:
    """Sample covariance of sqrt(N)*(theta_hat - theta) by simulation.

    One-process parameters give a 2x2 matrix for (H_hat, a2_hat) using
    the aggregated scheme (xi1 on 2N, xi2 on N increments); two-process
    parameters give a 4x4 matrix for (H1, H2, a2, b2) using direct
    sampling at each factor with shared component noise.  Degenerate
    replications are excluded and counted in the second return value.
    """
    if replications < 100:
        raise ValueError("need at least 100 replications")
    rows = []
    excluded = 0
    if isinstance(params, MixedParams):
        truth = np.array([params.H1, params.H2, params.a2, params.b2])
        for seeds in seed_blocks(seed, 0, replications, N):
            e1, e2 = sample_mixed_components(params, N, seeds)
            for r in range(len(seeds)):
                stats = {
                    j: xi_statistic(
                        combine_mixed_components(params, h, j, e1[r], e2[r])
                    )
                    for j in (1, 2, 4, 8)
                }
                est = estimate_two_nifbm(stats, h)
                if est.degenerate:
                    excluded += 1
                    continue
                rows.append(
                    np.array([est.H1_hat, est.H2_hat, est.a2_hat, est.b2_hat]) - truth
                )
    else:
        grid = SampleGrid(h=h, N=2 * N + 1, j=1)
        truth = np.array([params.H, params.a2])
        for seeds in seed_blocks(seed, 0, replications, grid.N):
            for values in sample_increments(params, grid, seeds):
                base = IncrementSeries(grid=grid, values=values)
                stats = xi_statistics_from_base(base, factors=(1, 2))
                est = estimate_one_nifbm(stats.xi[1], stats.xi[2], h)
                if est.degenerate:
                    excluded += 1
                    continue
                rows.append(np.array([est.H_hat, est.a2_hat]) - truth)
    if len(rows) < 2:
        raise ValueError("too few non-degenerate replications")
    scaled = math.sqrt(N) * np.vstack(rows)
    return np.cov(scaled, rowvar=False), excluded
