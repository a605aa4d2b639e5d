"""Asymptotic covariances for the one-process moment estimators.

The scaled statistics sqrt(N) * (xi1_on_2N - f1, xi2_on_N - f2) are
asymptotically Gaussian for H < 3/4 with a covariance built from the
series sum over integers of gamma(H, i + alpha) * gamma(H, i + beta).
The delta method then propagates that covariance through the inverse of
the moment map f to give the joint asymptotic covariance of
(H_hat, a2_hat).  The window width h is an argument of every function
here, next to the model constants, and covariances and Jacobians are
plain arrays; the Jacobian of the moment map serves both models.  Only
the theory lives here; the Monte Carlo cross-check is a test oracle.
"""

from __future__ import annotations

import functools
import math
from typing import Tuple

import numpy as np

from .covariance import (
    NifbmParams, Params, check_positive, gamma, is_integer, series_coefficients,
)
from .errors import HTooLargeError
from .estimation import MOMENT_FACTORS

__all__ = [
    "gamma_square_series",
    "sigma_tilde_one",
    "jacobian",
    "sigma0_one",
]

# explicit terms of the gamma square series.  Every tail lag is past
# lag 8, where gamma is the large-lag series the tails are expanded
# from, so a few dozen terms suffice: for the shifts (0, 0), (0, 1) and
# (0, 2) of sigma_tilde_one, 32 are within 3.9e-16 of 20 000 (relative
# to the (0, 0) sum, H from 0.001 to 0.7499), and 64 leave room for
# shifts up to 8 apart
_DEFAULT_TERMS = 64


def _check_h_range(H: float) -> float:
    H = float(H)
    if H >= 0.75:
        raise HTooLargeError(
            f"asymptotic series require H < 3/4, got H = {H}"
        )
    return H


def _check_n_terms(n_terms, shifts: Tuple[int, int]) -> int:
    """n_terms, checked against gamma_square_series's stated domain,
    shifts in -8 .. 8 and n_terms >= max(32, 8 |alpha - beta|), outside
    which its tail is off with no warning (7e-5 relative at n_terms = 1,
    H = 0.7; 1.7e-9 at 32 terms and shifts (-8, 8))."""
    if not is_integer(n_terms):
        raise ValueError(f"n_terms must be an integer, got {n_terms!r}")
    alpha, beta = shifts
    if max(abs(alpha), abs(beta)) > 8:
        raise ValueError(f"shifts must lie in -8 .. 8, got {shifts}")
    fewest = max(32, 8 * abs(alpha - beta))
    if n_terms < fewest:
        raise ValueError(
            f"n_terms must be at least max(32, 8 |alpha - beta|) = {fewest}, "
            f"got {n_terms}"
        )
    return int(n_terms)


# Euler-Maclaurin coefficients (2k)! / B_2k of the cephes Hurwitz zeta
_ZETA_A = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,
    7.47242496e10,
    -2.950130727918164224e12,
    1.1646782814350067249e14,
    -4.5979787224074726105e15,
    1.8152105401943546773e17,
    -7.1661652561756670113e18,
)
_MACHEP = 1.11022302462515654042e-16


def zeta(x: float, q: float) -> float:
    """Hurwitz zeta function, the sum of (k + q)^-x over k >= 0, for
    x > 1 and q > 0, equal bit for bit to scipy.special.zeta(x, q).

    This is the cephes algorithm scipy evaluates: a direct sum of at
    least 9 terms, continued until k + q > 9 or a term falls below
    MACHEP of the sum, then the Euler-Maclaurin tail with up to 12
    coefficients, stopping at the first below MACHEP; above q = 1e8
    the two-term asymptotic expansion (DLMF 25.11.43).
    """
    if not (x > 1.0 and q > 0.0):
        raise ValueError(f"need x > 1 and q > 0, got x = {x}, q = {q}")
    if q > 1e8:
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * q ** (1.0 - x)
    total = q**-x
    a, i, b = q, 0, 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        total += b
        if abs(b / total) < _MACHEP:
            return total
    w = a
    total += b * w / (x - 1.0)
    total -= 0.5 * b
    a, k = 1.0, 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        total += t
        if abs(t / total) < _MACHEP:
            return total
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return total


@functools.lru_cache(maxsize=4)
def _kernel_table(H: float, reach: int) -> np.ndarray:
    """gamma(H, k) at the lags k = -reach .. reach, read-only.

    gamma is evaluated once, on k = 0 .. reach, and mirrored: it is
    elementwise and even in its lag, so each entry equals a direct
    evaluation at that lag bit for bit.
    """
    half = gamma(H, np.arange(reach + 1))
    table = np.concatenate((half[:0:-1], half))
    table.flags.writeable = False
    return table


def _binom_real(a: float, i: int) -> float:
    """a choose i for any real a and integer i >= 0: the coefficient of
    u^i in (1 + u)^a."""
    out = 1.0
    for t in range(i):
        out *= (a - t) / (t + 1)
    return out


def _binom_product(a: float, b: float, m: int) -> float:
    """The coefficient of u^m in (1 + u)^a (1 - u)^b."""
    return sum(
        (-1) ** (m - i) * _binom_real(a, i) * _binom_real(b, m - i) for i in range(m + 1)
    )


# the tail expansion keeps the powers x^(4H-4-q), q = 0, 2, .., _TAIL_ORDER
_TAIL_ORDER = 8


@functools.lru_cache(maxsize=4)
def _tail_terms(H: float) -> Tuple[Tuple[float, Tuple[float, ...]], ...]:
    """The expansion of gamma(H, x + d) * gamma(H, x - d) in powers of
    1/x, as (sigma, poly) pairs: the sum over them of x^-sigma times
    poly[0] + poly[1] d^2 + poly[2] d^4 + ..., to order x^(4H-12).

    gamma's large-lag series is the sum of g_r x^(e_r), e_r = 2H-2-2r
    (covariance.series_coefficients), and
    (x + d)^a (x - d)^b is x^(a+b) times the product of the binomial
    series of (1 + d/x)^a and (1 - d/x)^b.  The product is even in d,
    so its odd powers of d cancel between (r, s) and (s, r) and are
    left out.  Shared by every shift of one H.
    """
    series = [(2.0 * H + 2.0 - k, coef) for k, coef in series_coefficients(H)]
    terms = []
    for order in range(0, _TAIL_ORDER + 1, 2):
        poly = []
        for m in range(0, order + 1, 2):
            # the pairs (r, s) with 2(r + s) + m = order
            rs = (order - m) // 2
            pairs = (series[r] + series[rs - r] for r in range(rs + 1))
            poly.append(sum(ga * gb * _binom_product(ea, eb, m) for ea, ga, eb, gb in pairs))
        terms.append((4.0 - 4.0 * H + order, tuple(poly)))
    return tuple(terms)


@functools.lru_cache(typed=True)
def gamma_square_series(
    H: float, shifts: Tuple[int, int] = (0, 0), n_terms: int = _DEFAULT_TERMS
) -> float:
    """Sum over all integers i of gamma(H,i+alpha)*gamma(H,i+beta).

    Terms with |i| <= n_terms are summed exactly.  The two tails,
    i > n_terms and i < -n_terms, are added analytically: with
    x = i + (alpha+beta)/2 and d = (alpha-beta)/2 each term is
    gamma(x + d) * gamma(x - d), which _tail_terms expands from gamma's
    own large-lag series to order x^(4H-12), and each power x^-sigma
    sums over the tail to a Hurwitz zeta function,
    zeta(sigma, n_terms + 1 +- (alpha+beta)/2).  gamma is that series at
    every tail lag once n_terms + 1 - |shift| > 8, so the tail leaves
    out only the expansion's next order, about (d/x)^10 of it: from
    n_terms = max(32, 8 |alpha - beta|) on, for shifts up to 8 and H up
    to 0.7499, the value is within 3.3e-13 of the (0, 0) sum of 10^6
    explicit terms with a leading-order tail, which is itself off by
    that much at shifts 8 apart.  Shifts beyond 8 and fewer terms raise
    ValueError.

    Both factors are slices of one kernel table per H, reaching to lag
    n_terms + max(2, |alpha|, |beta|), so the shifts (0, 0), (0, 1) and
    (0, 2) of sigma_tilde_one share a single evaluation of gamma, and
    the expansion, which depends on H alone, is shared as well.  Values
    are cached (typed, so a bool or float n_terms is checked, not read
    from an equal int's entry): they depend on H alone, not on h or N,
    so the grid points of an experiment share one evaluation per H.
    """
    H = _check_h_range(H)
    n_terms = _check_n_terms(n_terms, shifts)
    alpha, beta = shifts
    # entry pad + k of the table is lag k - n_terms
    pad = max(2, abs(alpha), abs(beta))
    table = _kernel_table(H, n_terms + pad)
    first = table[pad + alpha : pad + alpha + 2 * n_terms + 1]
    second = table[pad + beta : pad + beta + 2 * n_terms + 1]
    total = float(np.sum(first * second))
    mid = 0.5 * (alpha + beta)
    d2 = (0.5 * (alpha - beta)) ** 2
    tail = 0.0
    for sigma, poly in _tail_terms(H):
        coef = sum(c * d2**q for q, c in enumerate(poly))
        # zero at H = 1/2, where gamma vanishes from lag 2 on
        if coef != 0.0:
            tail += coef * (
                zeta(sigma, n_terms + 1.0 + mid) + zeta(sigma, n_terms + 1.0 - mid)
            )
    return total + tail


def sigma_tilde_one(H: float, h: float) -> np.ndarray:
    """Asymptotic covariance of the scaled (xi1_on_2N, xi2_on_N) pair
    at unit process scale (multiply by a2 squared for a scaled model),
    as a symmetric 2x2 array.

    Sampling convention: increments observed at step h; xi1 is the mean
    square of the first 2N base increments of width h, and xi2 the mean
    square of the N three-point aggregates (x_2k + 2 x_2k+1 + x_2k+2) / 2,
    which are increments of width 2h, taken from the same 2N + 1 base.
    The covariance refers to this scheme only; another split (xi1 on N,
    or xi2 on N / 2) changes it.
    """
    H = _check_h_range(H)
    check_positive("window width h", h)
    s0 = gamma_square_series(H, (0, 0))
    s1 = gamma_square_series(H, (0, 1))
    s2 = gamma_square_series(H, (0, 2))
    scale = h ** (4.0 * H)
    s11 = scale * s0
    s22 = 2.0 ** (4.0 * H + 1.0) * s11
    s12 = 0.5 * scale * (3.0 * s0 + 4.0 * s1 + s2)
    return np.array([[s11, s12], [s12, s22]])


def jacobian(theta: Params, h: float) -> np.ndarray:
    """Jacobian of forward_moment_map at theta and window width h: row
    k for the factor j = 2^k, columns in the order of fields(theta),
    (H, a2) or (H1, H2, a2, b2): the components' Hurst indices, then
    their squared scales."""
    check_positive("window width h", h)
    comps = theta.components
    jac = np.zeros((len(MOMENT_FACTORS[type(theta)]), 2 * len(comps)))
    lh, l2 = math.log(h), math.log(2.0)
    for i, (H, c) in enumerate(comps):
        d = (2.0 * H + 1.0) * (H + 1.0)
        x = 2.0 ** (2.0 * H)
        hp = h ** (2.0 * H)
        xk = 1.0
        for k in range(len(jac)):
            # d/dH of h^(2H) x^k (x - 1), over h^(2H)
            grad = 2.0 * lh * xk * (x - 1.0) + 2.0 * l2 * ((k + 1) * xk * x - k * xk)
            jac[k, i] = (
                2.0 * c * hp * (grad * d - xk * (x - 1.0) * (4.0 * H + 3.0)) / d**2
            )
            jac[k, len(comps) + i] = 2.0 * hp * xk * (x - 1.0) / d
            xk *= x
    return jac


def sigma0_one(theta: NifbmParams, h: float) -> np.ndarray:
    """Delta-method covariance of sqrt(N)*(H_hat - H, a2_hat - a2).

    The estimates invert the moment map on the sampling convention of
    sigma_tilde_one: observation step h, xi1 on 2N base increments and
    xi2 on N three-point-aggregated width-2h increments.  At H = 1/2 the
    Hurst entry is 21/32 / (2 log 2)^2 for every h and a2.

    The xi covariance scales with the fourth power of the process
    scale, hence the a2 squared factor before the congruence with the
    inverse Jacobian.
    """
    sig = sigma_tilde_one(theta.H, h) * theta.a2**2
    jac = jacobian(theta, h)
    inv = np.linalg.solve(jac, np.eye(2))
    return inv @ sig @ inv.T
