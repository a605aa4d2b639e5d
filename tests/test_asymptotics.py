import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.special
from scipy.linalg import toeplitz

from nifbm import asymptotics
from nifbm.asymptotics import (
    gamma_square_series,
    jacobian,
    sigma0_one,
    sigma_tilde_one,
    zeta,
)
from nifbm.covariance import (
    MixedParams,
    NifbmParams,
    autocov_sequence,
    gamma,
)
from nifbm.errors import HTooLargeError
from nifbm.estimation import forward_moment_map

from conftest import (
    empirical_estimator_cov,
    gamma_square_series_reference,
    jacobian_one_closed_form,
    jacobian_one_det,
)


class TestZeta:
    @settings(max_examples=500)
    @given(
        x=st.floats(1.0, 4.0, exclude_min=True),
        q=st.one_of(st.floats(1.0, 1e5 + 2.0), st.floats(1e-3, 20.0), st.floats(1e7, 1e10)),
    )
    def test_equals_scipy(self, x, q):
        # the Hurwitz zeta tails of the gamma square series, bit for bit;
        # the last range crosses the asymptotic branch at q = 1e8
        assert zeta(x, q) == float(scipy.special.zeta(x, q))

    def test_riemann_value(self):
        assert zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-15)

    def test_rejects_outside_domain(self):
        for x, q in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.0), (2.0, -1.5), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                zeta(x, q)


class TestGammaSquareSeries:
    def test_brownian_exact(self):
        # only lags -2..2 contribute: (2/3)^2 + 2*(1/6)^2 = 1/2
        assert gamma_square_series(0.5, (0, 0)) == pytest.approx(0.5, abs=1e-14)

    def test_brownian_shifted(self):
        # sum of gamma(i)*gamma(i+1) = 2 * (2/3)*(1/6) = 2/9
        assert gamma_square_series(0.5, (0, 1)) == pytest.approx(2.0 / 9.0, abs=1e-14)
        assert gamma_square_series(0.5, (0, 2)) == pytest.approx(1.0 / 36.0, abs=1e-14)

    def test_shift_symmetry(self):
        for H in (0.2, 0.6, 0.7):
            a = gamma_square_series(H, (0, 3), n_terms=20000)
            b = gamma_square_series(H, (3, 0), n_terms=20000)
            c = gamma_square_series(H, (5, 8), n_terms=20000)
            assert a == pytest.approx(b, rel=1e-12)
            assert a == pytest.approx(c, rel=1e-9)

    def test_cauchy_schwarz(self):
        for H in (0.15, 0.45, 0.7):
            s00 = gamma_square_series(H, (0, 0), n_terms=20000)
            for k in (1, 2, 5):
                assert abs(gamma_square_series(H, (0, k), n_terms=20000)) <= s00

    def test_h_too_large(self):
        with pytest.raises(HTooLargeError):
            gamma_square_series(0.75, (0, 0))
        with pytest.raises(HTooLargeError):
            gamma_square_series(0.9, (0, 0))

    # H-major, so that the cases of one H share the reference's table
    @pytest.mark.parametrize(
        "H,shifts",
        [
            (H, shifts)
            for H in (0.01, 0.1, 0.3, 0.5, 0.6, 0.7, 0.74)
            for shifts in ((0, 0), (0, 1), (0, 2), (0, 3), (5, 8))
        ],
    )
    def test_equals_reference_at_default_size(self, H, shifts):
        # 64 explicit terms and the expanded tail against 10^6 explicit
        # terms and the leading-order tail
        expected = gamma_square_series_reference(H, shifts)
        assert gamma_square_series(H, shifts) == pytest.approx(expected, rel=1e-13)

    @settings(max_examples=200)
    @given(
        H=st.floats(0.0, 0.75, exclude_min=True, exclude_max=True),
        alpha=st.integers(-8, 8),
        beta=st.integers(-8, 8),
        n_terms=st.integers(32, 3000),
    )
    @example(H=0.5, alpha=-8, beta=8, n_terms=3000)
    @example(H=0.7499, alpha=0, beta=8, n_terms=32)
    @example(H=0.7, alpha=-8, beta=8, n_terms=32)
    @example(H=0.001, alpha=-8, beta=7, n_terms=32)
    @example(H=0.74, alpha=0, beta=2, n_terms=32)
    def test_equals_reference(self, H, alpha, beta, n_terms):
        """From n_terms = 32 on, every tail lag, down to n_terms + 1 - 8,
        is above covariance._DIRECT_LIMIT = 8, where gamma is the
        large-lag series the tail is expanded from.  The expansion leaves
        out about (d/x)^10 of the tail, d = (alpha - beta) / 2, so shifts
        further apart need more terms: n_terms is raised to
        8 |alpha - beta| where that is larger (1.7e-9 of the (0, 0) sum
        is left out at n_terms = 32, shifts (-8, 8), H = 0.7).  The
        tolerance is relative to the (0, 0) sum, which bounds every
        shifted sum by Cauchy-Schwarz; the reference's leading-order tail
        is itself off by up to 3e-13 of it at shifts 8 apart."""
        n_terms = max(n_terms, 8 * abs(alpha - beta))
        expected = gamma_square_series_reference(H, (alpha, beta))
        scale = gamma_square_series_reference(H, (0, 0))
        value = gamma_square_series(H, (alpha, beta), n_terms)
        assert abs(value - expected) <= 1e-12 * scale

    @pytest.mark.parametrize("shifts", [(0, 2), (-3, 1), (5, 8)])
    def test_n_terms_below_largest_shift(self, shifts):
        widest = max(map(abs, shifts))
        with pytest.raises(ValueError, match=r"largest \|shift\|"):
            gamma_square_series(0.3, shifts, widest - 1)
        assert math.isfinite(gamma_square_series(0.3, shifts, widest))

    def test_one_kernel_evaluation_per_hurst(self, monkeypatch):
        calls = []

        def counting_gamma(H, n):
            calls.append((H, np.size(n)))
            return gamma(H, n)

        monkeypatch.setattr(asymptotics, "gamma", counting_gamma)
        gamma_square_series.cache_clear()
        asymptotics._kernel_table.cache_clear()
        sigma_tilde_one(0.3456, 2.0)
        # one table of the lags 0 .. n_terms + 2, its negative half mirrored
        assert calls == [(0.3456, asymptotics._DEFAULT_TERMS + 3)]

    @pytest.mark.parametrize("n_terms", [0, -3, 2.5])
    def test_n_terms_must_be_positive_integer(self, n_terms):
        with pytest.raises(ValueError, match="n_terms must be an integer >= 1"):
            gamma_square_series(0.3, (0, 0), n_terms)

    def test_truncation_certified(self):
        # ten times more exact terms must not move the value
        for H in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
            for shifts in ((0, 0), (0, 1), (0, 2)):
                small = gamma_square_series(H, shifts, n_terms=10**4)
                large = gamma_square_series(H, shifts, n_terms=10**5)
                assert small == pytest.approx(large, rel=1e-9)


class TestSigmaTilde:
    def test_ratio_exact(self):
        for H in (0.1, 0.4, 0.7):
            sig = sigma_tilde_one(H, 2.0)
            assert sig[1, 1] == 2.0 ** (4 * H + 1) * sig[0, 0]

    def test_brownian_values(self):
        sig = sigma_tilde_one(0.5, 1.0)
        assert sig[0, 0] == pytest.approx(0.5, abs=1e-13)
        assert sig[1, 1] == pytest.approx(4.0, abs=1e-12)
        # 0.5 * (3*S0 + 4*S1 + S2) with S0=1/2, S1=2/9, S2=1/36
        assert sig[0, 1] == pytest.approx(0.5 * (1.5 + 8.0 / 9.0 + 1.0 / 36.0), abs=1e-13)

    def test_positive_semidefinite(self):
        for H in (0.1, 0.3, 0.5, 0.7):
            for h in (0.5, 2.0):
                sig = sigma_tilde_one(H, h)
                assert sig[0, 0] * sig[1, 1] - sig[0, 1] ** 2 >= 0.0

    def test_h_scaling(self):
        a = sigma_tilde_one(0.3, 1.0)
        b = sigma_tilde_one(0.3, 3.0)
        assert b[0, 0] / a[0, 0] == pytest.approx(3.0**1.2, rel=1e-12)

    def test_isserlis_finite_n_exact(self):
        # exact finite-N covariance of the xi pair through the trace
        # identity cov(z'Az, z'Bz) = 2 tr(A S B S); the series entries
        # must be its large-N limits
        H, h, n = 0.4, 1.5, 400
        base_n = 2 * n + 1
        row = autocov_sequence(NifbmParams(H), h, base_n)
        cov = toeplitz(row)
        m1 = np.zeros((base_n, base_n))
        for k in range(2 * n):
            m1[k, k] = 1.0 / (2 * n)
        agg = np.zeros((n, base_n))
        for k in range(n):
            agg[k, 2 * k] = 0.5
            agg[k, 2 * k + 1] = 1.0
            agg[k, 2 * k + 2] = 0.5
        m2 = agg.T @ agg / n
        s11 = n * 2.0 * np.trace(m1 @ cov @ m1 @ cov)
        s12 = n * 2.0 * np.trace(m1 @ cov @ m2 @ cov)
        s22 = n * 2.0 * np.trace(m2 @ cov @ m2 @ cov)
        sig = sigma_tilde_one(H, h)
        assert s11 == pytest.approx(sig[0, 0], rel=0.02)
        assert s12 == pytest.approx(sig[0, 1], rel=0.02)
        assert s22 == pytest.approx(sig[1, 1], rel=0.02)

    def test_finite_n_variance_converges_upward(self):
        H, h = 0.3, 1.0
        sig = sigma_tilde_one(H, h)
        previous = 0.0
        for n in (2**6, 2**8, 2**10, 2**12):
            lags = np.arange(-2 * n + 1, 2 * n)
            weights = 1.0 - np.abs(lags) / (2.0 * n)
            finite = h ** (4 * H) * float(
                np.sum(weights * gamma(H, lags) * gamma(H, lags))
            )
            assert finite > previous
            previous = finite
        assert previous < sig[0, 0]
        assert previous == pytest.approx(sig[0, 0], rel=1e-3)


class TestJacobian:
    def test_finite_differences(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            H, h, a2 = rng.uniform(0.05, 0.95), rng.uniform(0.3, 5.0), rng.uniform(0.2, 8.0)
            theta = NifbmParams(H=H, a2=a2)
            jac = jacobian(theta, h)
            step = 1e-6
            up = forward_moment_map(NifbmParams(H + step, a2=a2), h)
            dn = forward_moment_map(NifbmParams(H - step, a2=a2), h)
            assert jac[0, 0] == pytest.approx((up[0] - dn[0]) / (2 * step), rel=1e-5)
            assert jac[1, 0] == pytest.approx((up[1] - dn[1]) / (2 * step), rel=1e-5)
            up = forward_moment_map(NifbmParams(H, a2=a2 + step), h)
            dn = forward_moment_map(NifbmParams(H, a2=a2 - step), h)
            assert jac[0, 1] == pytest.approx((up[0] - dn[0]) / (2 * step), rel=1e-6)
            assert jac[1, 1] == pytest.approx((up[1] - dn[1]) / (2 * step), rel=1e-6)

    def test_det_closed_form_and_sign(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            H, h, a2 = rng.uniform(0.05, 0.95), rng.uniform(0.3, 5.0), rng.uniform(0.2, 8.0)
            theta = NifbmParams(H=H, a2=a2)
            det = np.linalg.det(jacobian(theta, h))
            assert det < 0.0
            assert det == pytest.approx(jacobian_one_det(theta, h), rel=1e-10)

    @settings(max_examples=300)
    @given(st.floats(0.01, 0.99), st.floats(0.1, 20.0), st.floats(0.1, 5.0))
    def test_one_process_equals_closed_form(self, H, h, a2):
        theta = NifbmParams(H, a2=a2)
        assert np.array_equal(jacobian(theta, h), jacobian_one_closed_form(theta, h))

    def test_two_process_finite_differences(self):
        # columns follow fields(theta): H1, H2, a2, b2
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(25):
            h2 = rng.uniform(0.05, 0.85)
            h1 = rng.uniform(h2 + 0.05, 0.95)
            theta = MixedParams(h1, h2, rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0))
            h = rng.uniform(0.5, 8.0)
            jac = jacobian(theta, h)
            assert jac.shape == (4, 4)
            fd = np.empty((4, 4))
            for col, field in enumerate(fields(theta)):
                value = getattr(theta, field.name)
                eps = 1e-6 * (value if field.name in ("a2", "b2") else 1.0)
                up = forward_moment_map(replace(theta, **{field.name: value + eps}), h)
                dn = forward_moment_map(replace(theta, **{field.name: value - eps}), h)
                fd[:, col] = np.subtract(up, dn) / (2.0 * eps)
            worst = max(worst, np.max(np.abs(jac - fd) / np.abs(jac)))
        assert worst < 1e-5

    def test_df1_da2_display(self):
        theta = NifbmParams(0.5, a2=3.0)
        expected = 2 * 2.0 * (2.0 - 1.0) / (2.0 * 1.5)
        assert jacobian(theta, 2.0)[0, 1] == pytest.approx(expected, rel=1e-14)


class TestSigma0:
    def test_symmetric_psd(self):
        for H in (0.1, 0.4, 0.7):
            for h in (1.0, 2.0):
                for a2 in (0.5, 4.0):
                    sig = sigma0_one(NifbmParams(H, a2=a2), h)
                    assert sig[0, 1] == pytest.approx(sig[1, 0], rel=1e-12)
                    assert np.all(np.linalg.eigvalsh(sig) >= -1e-12)

    def test_hurst_variance_h_independent(self):
        # the Hurst block of the delta-method covariance depends on H
        # only: it is a function of a scale-free ratio statistic
        a = sigma0_one(NifbmParams(0.5, a2=1.0), 1.0)
        b = sigma0_one(NifbmParams(0.5, a2=7.0), 16.0)
        assert a[0, 0] == pytest.approx(b[0, 0], rel=1e-9)

    def test_h_too_large(self):
        with pytest.raises(HTooLargeError):
            sigma0_one(NifbmParams(0.8, a2=1.0), 1.0)

    def test_predicted_hurst_sd(self):
        # frozen value verified by Monte Carlo: sd of the Hurst
        # estimate at H=0.5, N=2**12 is about 0.00913
        sig = sigma0_one(NifbmParams(0.5, a2=1.0), 2.0)
        assert math.sqrt(sig[0, 0] / 2**12) == pytest.approx(0.00913, rel=1e-2)


class TestIsserlisMc:
    def test_cov_of_squares(self):
        # for jointly Gaussian (X1, X2): cov(X1^2, X2^2) = 2 cov(X1,X2)^2
        params = NifbmParams(0.7)
        row = autocov_sequence(params, 1.0, 2)
        ell = np.linalg.cholesky(toeplitz(row))
        n_reps = 10**5
        z = np.random.default_rng(22).standard_normal((2, n_reps))
        x = ell @ z
        prod = x[0] ** 2 * x[1] ** 2
        emp = prod.mean() - (x[0] ** 2).mean() * (x[1] ** 2).mean()
        target = 2.0 * row[1] ** 2
        se = prod.std(ddof=1) / math.sqrt(n_reps)
        assert abs(emp - target) < 5.0 * se


class TestEmpiricalEstimatorCov:
    def test_one_process_matches_sigma0(self):
        theta = NifbmParams(0.5, a2=1.0)
        emp, excluded = empirical_estimator_cov(theta, 2.0, 1024, 400, seed=30)
        ana = sigma0_one(theta, 2.0)
        assert excluded < 20
        assert emp.shape == (2, 2)
        for i in (0, 1):
            assert emp[i, i] == pytest.approx(ana[i, i], rel=0.35)

    def test_two_process_psd(self):
        theta = MixedParams(0.5, 0.3, 4.0, 4.0)
        emp, excluded = empirical_estimator_cov(theta, 2.0, 512, 120, seed=31)
        assert emp.shape == (4, 4)
        assert np.allclose(emp, emp.T)
        assert np.all(np.linalg.eigvalsh(emp) >= -1e-9)
        assert 0 <= excluded < 120

    def test_accepts_numpy_integers(self):
        # the samplers, base_length and the scaling by sqrt(N) all take
        # the numpy integers a size read from an array comes as
        N, replications = np.int64(16), np.int32(100)
        for theta, size in ((NifbmParams(0.3), 2), (MixedParams(0.5, 0.3, 4.0, 4.0), 4)):
            emp, _ = empirical_estimator_cov(theta, 2.0, N, replications)
            assert emp.shape == (size, size)
