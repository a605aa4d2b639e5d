import math

import numpy as np
import pytest

from nifbm.covariance import (
    AutocovSequence,
    MixedParams,
    NifbmParams,
    autocov_sequence,
    find_h0,
    gamma,
    increment_autocov,
    mixed_increment_autocov,
    nifbm_cov,
    nifbm_var,
)
from nifbm.simulation import cholesky_factor

from conftest import fbm_cov, fbm_increment_cov, gamma_asymptotic, quad_oracle


class TestFbmCov:
    def test_brownian_case(self):
        assert fbm_cov(0.5, 1.0, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_zero_time(self):
        for H in (0.1, 0.5, 0.9):
            assert fbm_cov(H, 0.0, 3.7) == 0.0

    def test_unit_variance(self):
        assert fbm_cov(0.7, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            H = rng.uniform(0.05, 0.95)
            s, t = rng.uniform(0, 10, size=2)
            assert fbm_cov(H, s, t) == pytest.approx(fbm_cov(H, t, s), rel=1e-14)

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            fbm_cov(0.5, -1.0, 1.0)


class TestFbmIncrementCov:
    def test_independent_bm_increments(self):
        assert fbm_increment_cov(0.5, 0, 1, 1, 2) == 0.0

    def test_unit_increment(self):
        assert fbm_increment_cov(0.5, 0, 1, 0, 1) == 1.0

    def test_closed_form_value(self):
        expected = 0.5 * (3.0**1.4 + 1.0 - 2.0 * 2.0**1.4)
        assert fbm_increment_cov(0.7, 0, 1, 2, 3) == pytest.approx(expected, rel=1e-14)

    def test_assembly_from_fbm_cov(self):
        # E[(W_t - W_s)(W_v - W_u)] expanded into four covariances
        rng = np.random.default_rng(1)
        for _ in range(20):
            H = rng.uniform(0.05, 0.95)
            s, t, u, v = np.sort(rng.uniform(0, 10, size=4))
            direct = fbm_increment_cov(H, s, t, u, v)
            assembled = (
                fbm_cov(H, t, v)
                - fbm_cov(H, t, u)
                - fbm_cov(H, s, v)
                + fbm_cov(H, s, u)
            )
            assert direct == pytest.approx(assembled, abs=1e-11)

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            fbm_increment_cov(0.5, 2, 0, 1, 3)
        with pytest.raises(ValueError):
            fbm_increment_cov(0.5, 0, 1, 3, 2)


class TestNifbmCov:
    def test_brownian_window_variance(self):
        assert nifbm_cov(0.5, 1.0, 0.0, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_diagonal_consistency(self):
        for H in (0.1, 0.3, 0.5, 0.7, 0.9):
            for h in (0.5, 1.0, 2.0):
                for t in (0.0, 1.0, 7.3):
                    assert nifbm_cov(H, h, t, t) == pytest.approx(
                        nifbm_var(H, h, t), rel=1e-12
                    )

    def test_quadrature_spot_check(self):
        assert nifbm_cov(0.3, 2.0, 1.0, 5.0) == pytest.approx(
            quad_oracle(0.3, 2.0, 1.0, 5.0), abs=1e-8
        )

    def test_quadrature_grid(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            H = rng.uniform(0.05, 0.95)
            h = rng.uniform(0.5, 8.0)
            t, s = np.sort(rng.uniform(0, 20, size=2))
            assert nifbm_cov(H, h, t, s) == pytest.approx(
                quad_oracle(H, h, t, s), abs=1e-7
            )

    def test_symmetric_in_time_arguments(self):
        assert nifbm_cov(0.5, 1.0, 2.0, 1.0) == nifbm_cov(0.5, 1.0, 1.0, 2.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            nifbm_cov(0.5, 1.0, -0.5, 1.0)

    def test_self_similarity_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            H = rng.uniform(0.05, 0.95)
            h = rng.uniform(0.2, 5.0)
            t, s = np.sort(rng.uniform(0, 10, size=2))
            c = rng.uniform(0.1, 10.0)
            scaled = nifbm_cov(H, c * h, c * t, c * s)
            assert scaled == pytest.approx(
                c ** (2 * H) * nifbm_cov(H, h, t, s), rel=1e-10
            )


class TestNifbmVar:
    def test_time_zero_closed_form(self):
        for H in (0.1, 0.5, 0.9):
            for h in (0.5, 2.0):
                assert nifbm_var(H, h, 0.0) == pytest.approx(
                    h ** (2 * H) / (2 * H + 2), rel=1e-13
                )

    def test_brownian_value(self):
        assert nifbm_var(0.5, 1.0, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_large_time_growth(self):
        # the correction decays like t^(-2H), so check both smallness
        # and improvement with t
        for H in (0.2, 0.6, 0.8):
            err_small = abs(nifbm_var(H, 1.0, 1e6) / 1e6 ** (2 * H) - 1.0)
            err_large = abs(nifbm_var(H, 1.0, 1e8) / 1e8 ** (2 * H) - 1.0)
            assert err_large < err_small
            assert err_large < 1e-3

    def test_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert nifbm_var(
                rng.uniform(0.05, 0.95), rng.uniform(0.1, 5), rng.uniform(0, 100)
            ) > 0.0


class TestGamma:
    def test_special_values_half(self):
        assert gamma(0.5, 0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert gamma(0.5, 1) == pytest.approx(1.0 / 6.0, abs=1e-15)
        for n in range(2, 101):
            assert gamma(0.5, n) == pytest.approx(0.0, abs=1e-12)

    def test_lag0_closed_form(self):
        for H in (0.2, 0.5, 0.8):
            expected = 2 * (2 ** (2 * H) - 1) / ((2 * H + 1) * (H + 1))
            assert gamma(H, 0) == pytest.approx(expected, rel=1e-13)

    def test_root_near_h0(self):
        assert abs(gamma(0.2626229, 1)) < 1e-6

    def test_symmetric_in_lag(self):
        for H in (0.3, 0.7):
            lags = np.array([1, 5, 50, 2000])
            assert np.allclose(gamma(H, lags), gamma(H, -lags), rtol=1e-14)

    def test_sign_pattern(self):
        for n in (2, 5, 17, 90):
            assert gamma(0.3, n) < 0.0
            assert gamma(0.7, n) > 0.0
            assert gamma(0.5, n) == pytest.approx(0.0, abs=1e-13)

    def test_large_lag_branch_extended_precision(self):
        # the direct fourth difference in 80-bit floats still holds ~6
        # good digits at these lags and is an independent check of the
        # series branch
        if np.finfo(np.longdouble).precision < 18:
            pytest.skip("extended precision unavailable")
        eps = float(np.finfo(np.longdouble).eps)
        for H in (0.1, 0.35, 0.6, 0.7, 0.9):
            p = np.longdouble(2 * H + 2)
            for n in (1500.0, 4000.0):
                m = np.longdouble(n)
                direct = (
                    abs(m - 2) ** p
                    - 4 * abs(m - 1) ** p
                    + 6 * m**p
                    - 4 * (m + 1) ** p
                    + (m + 2) ** p
                ) / np.longdouble(4 * (2 * H + 1) * (H + 1))
                # the reference itself loses ~n^p * eps to cancellation
                tol = max(1e-10, 20.0 * eps * float(m**p) / abs(float(direct)))
                assert tol < 1e-2, "reference too noisy to be useful"
                assert gamma(H, n) == pytest.approx(float(direct), rel=tol)

    def test_branch_continuity(self):
        # the two branches agree where they meet
        for H in (0.15, 0.45, 0.75, 0.9):
            below = gamma(H, 1000)
            above = gamma(H, 1001)
            slope = gamma_asymptotic(H, 1000) or below
            assert abs(above - below) < 0.02 * abs(slope) + 1e-15

    def test_vector_matches_scalar(self):
        lags = np.arange(10)
        vec = gamma(0.42, lags)
        for n in lags:
            assert vec[n] == gamma(0.42, int(n))


class TestGammaAsymptotic:
    def test_zero_at_half(self):
        assert gamma_asymptotic(0.5, 7) == 0.0
        assert gamma_asymptotic(0.5, 12345) == 0.0

    def test_negative_below_half(self):
        for n in (2, 10, 10**6):
            assert gamma_asymptotic(0.3, n) < 0.0

    def test_matches_gamma_at_large_lag(self):
        for H in (0.1, 0.3, 0.7, 0.9):
            ratio = gamma(H, 10**4) / gamma_asymptotic(H, 10**4)
            assert abs(ratio - 1.0) < 0.01


class TestIncrementAutocov:
    def test_examples(self):
        assert increment_autocov(NifbmParams(0.5, 2.0), 0) == pytest.approx(
            4.0 / 3.0, rel=1e-14
        )
        assert increment_autocov(NifbmParams(0.5, 1.0), 3) == pytest.approx(
            0.0, abs=1e-13
        )

    def test_assembly_oracle(self):
        # cov of increments expanded into four window covariances;
        # stationarity means the start time drops out
        rng = np.random.default_rng(5)
        for _ in range(15):
            H = rng.uniform(0.05, 0.95)
            h = rng.uniform(0.3, 4.0)
            n = int(rng.integers(0, 6))
            params = NifbmParams(H, h)
            spread = []
            for t in (0.0, 1.7, 1e3):
                a = t + n * h

                def cc(u, v):
                    lo, hi = min(u, v), max(u, v)
                    return nifbm_cov(H, h, lo, hi)

                assembled = cc(t + h, a + h) - cc(t + h, a) - cc(t, a + h) + cc(t, a)
                spread.append(assembled)
                assert increment_autocov(params, n) == pytest.approx(
                    assembled, abs=1e-10 * max(1.0, h ** (2 * H))
                )
            scale = max(abs(v) for v in spread) + 1e-12
            assert (max(spread) - min(spread)) / scale < 1e-7


class TestMixedIncrementAutocov:
    def test_single_component_degeneration(self):
        params = MixedParams(H1=0.6, H2=0.2, a2=3.0, b2=1e-300)
        single = NifbmParams(H=0.6, h=4.0)
        for n in range(5):
            assert mixed_increment_autocov(params, 2.0, 2, n) == pytest.approx(
                3.0 * increment_autocov(single, n), rel=1e-12
            )

    def test_brownian_zero_lags(self):
        params = MixedParams(H1=0.5 + 1e-12, H2=0.5 - 1e-12, a2=1.0, b2=1.0)
        for n in (2, 3, 9):
            assert mixed_increment_autocov(params, 1.0, 1, n) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_formula_evaluation(self):
        params = MixedParams(H1=0.7, H2=0.3, a2=4.0, b2=4.0)
        expected = 4 * 4.0**1.4 * gamma(0.7, 1) + 4 * 4.0**0.6 * gamma(0.3, 1)
        assert mixed_increment_autocov(params, 2.0, 2, 1) == pytest.approx(
            expected, rel=1e-14
        )

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            mixed_increment_autocov(MixedParams(0.7, 0.3, 1, 1), 2.0, 3, 1)


class TestAutocovSequence:
    def test_single_element(self):
        seq = autocov_sequence(NifbmParams(0.6, 2.0, 3.0), 2.0, 1, 1)
        assert len(seq) == 1
        assert seq.values[0] == pytest.approx(
            3.0 * increment_autocov(NifbmParams(0.6, 2.0), 0), rel=1e-14
        )

    def test_brownian_example(self):
        seq = autocov_sequence(NifbmParams(0.5, 1.0), 1.0, 1, 8)
        expected = [2 / 3, 1 / 6, 0, 0, 0, 0, 0, 0]
        assert np.allclose(seq.values, expected, atol=1e-14)

    def test_positive_definite_grid(self):
        for H in np.arange(0.1, 1.0, 0.1):
            for n in (8, 256):
                seq = autocov_sequence(NifbmParams(round(float(H), 1), 2.0), 2.0, 1, n)
                cholesky_factor(seq)  # raises on failure

    def test_mixed_positive_definite(self):
        seq = autocov_sequence(MixedParams(0.7, 0.2, 2.0, 5.0), 1.5, 4, 256)
        cholesky_factor(seq)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            autocov_sequence(NifbmParams(0.5, 1.0), 1.0, 1, 0)


class TestFindH0:
    def test_value(self):
        h0 = find_h0()
        assert 0.2626219 <= h0 <= 0.2626239

    def test_sign_change_around_root(self):
        h0 = find_h0()
        assert gamma(h0 - 0.05, 1) < 0.0
        assert gamma(h0 + 0.05, 1) > 0.0


class TestParamsValidation:
    def test_hurst_boundaries(self):
        for bad in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError):
                NifbmParams(H=bad, h=1.0)
        assert NifbmParams(H=0.5, h=1.0).H == 0.5

    def test_nifbm_params(self):
        with pytest.raises(ValueError):
            NifbmParams(H=0.5, h=0.0)
        with pytest.raises(ValueError):
            NifbmParams(H=0.5, h=1.0, a2=-1.0)
        with pytest.raises(ValueError):
            NifbmParams(H=1.0, h=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields(self, bad):
        for kwargs in (dict(h=bad), dict(h=1.0, a2=bad)):
            with pytest.raises(ValueError, match="finite and positive"):
                NifbmParams(H=0.5, **kwargs)
        for kwargs in (dict(a2=bad, b2=1.0), dict(a2=1.0, b2=bad)):
            with pytest.raises(ValueError, match="finite and positive"):
                MixedParams(H1=0.5, H2=0.3, **kwargs)

    def test_mixed_params_ordering(self):
        with pytest.raises(ValueError):
            MixedParams(H1=0.3, H2=0.5, a2=1.0, b2=1.0)
        with pytest.raises(ValueError):
            MixedParams(H1=0.5, H2=0.5, a2=1.0, b2=1.0)
        with pytest.raises(ValueError):
            MixedParams(H1=0.5, H2=0.3, a2=1.0, b2=0.0)

    def test_autocov_sequence_invariant(self):
        with pytest.raises(ValueError):
            AutocovSequence(params=NifbmParams(0.5, 1.0), values=np.array([-1.0, 0.0]))
