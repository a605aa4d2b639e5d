import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from nifbm import covariance
from nifbm.asymptotics import jacobian, sigma0_one, sigma_tilde_one
from nifbm.covariance import (
    MixedParams,
    NifbmParams,
    autocov_sequence,
    find_h0,
    gamma,
    nifbm_cov,
    nifbm_var,
)
from nifbm.estimation import forward_moment_map
from nifbm.simulation import cholesky_factor

from conftest import (
    fbm_cov,
    fbm_increment_cov,
    gamma_asymptotic,
    gamma_decimal,
    quad_oracle,
)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, bad):
        # NaN passed the t < 0 test and gave a NaN covariance
        for t, s in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                nifbm_cov(0.3, 1.0, t, s)

    @pytest.mark.parametrize("bad", ["1", True, np.True_, None, [1.0]])
    def test_rejects_non_real_time(self, bad):
        # neither a string is parsed nor a bool read as time 0 or 1
        for t, s in ((bad, 2.0), (2.0, bad)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                nifbm_cov(0.3, 1.0, t, s)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_rejects_bad_time(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            nifbm_var(0.3, 1.0, bad)

    def test_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert nifbm_var(
                rng.uniform(0.05, 0.95), rng.uniform(0.1, 5), rng.uniform(0, 100)
            ) > 0.0


class TestGamma:
    def test_special_values_half(self):
        # exactly, on both sides of the switch to the series at lag 9
        assert gamma(0.5, 0) == 2.0 / 3.0
        assert gamma(0.5, 1) == 1.0 / 6.0
        for n in range(2, 101):
            assert gamma(0.5, n) == 0.0
        assert not gamma(0.5, np.arange(2, 10**6, 997)).any()

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
        # the two branches agree where they meet: each evaluated on the
        # other's side of the switch at lag 8
        for H in (1e-12, 0.15, 0.45, 0.75, 0.9):
            lags = np.array([8.0, 9.0])
            norm = 4.0 * (2.0 * H + 1.0) * (H + 1.0)
            direct = covariance._gamma_direct(H, lags) / norm
            series = covariance._gamma_series(H, lags)
            assert np.allclose(direct, series, rtol=1e-10, atol=0.0)
            assert np.array_equal(gamma(H, lags), [direct[0], series[1]])

    def test_vector_matches_scalar(self):
        lags = np.arange(10)
        vec = gamma(0.42, lags)
        for n in lags:
            assert vec[n] == gamma(0.42, int(n))

    @pytest.mark.parametrize(
        "bad", ["2", True, np.array([1, 2], dtype=object), np.array([True]), 2j]
    )
    def test_rejects_non_real_lags(self, bad):
        # a string is not parsed, nor a bool read as lag 0 or 1
        with pytest.raises(ValueError, match="lags must be real numbers"):
            gamma(0.3, bad)


# lags 0 .. 30, then 120 log-spaced up to 10^6
_ACCURACY_LAGS = np.unique(
    np.r_[np.arange(31), np.geomspace(31, 1e6, 120).round()]
).astype(int)
_ACCURACY_HS = (1e-14, 1e-10, 1e-6, 0.001, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.999)
# measured worst case 6.0e-12 (H = 1e-10, lag 8), at the switch from the
# direct fourth difference to the series
_GAMMA_BOUND = 1e-10


@pytest.fixture(scope="module")
def gamma_errors():
    """Relative error of gamma against gamma_decimal at _ACCURACY_LAGS,
    one row per H of _ACCURACY_HS; where the reference is 0 (H = 1/2,
    n >= 2) the error is relative to its lag-0 value instead."""
    rows = []
    for H in _ACCURACY_HS:
        ref = np.array([gamma_decimal(H, n) for n in _ACCURACY_LAGS])
        scale = np.where(ref != 0.0, np.abs(ref), abs(ref[0]))
        rows.append(np.abs(gamma(H, _ACCURACY_LAGS) - ref) / scale)
    return np.array(rows)


class TestGammaDecimal:
    def test_exact_at_half(self):
        # p = 3: the fourth differences of |x|^3 at 0 and 1 are 8 and 2,
        # and the cubic's fourth difference vanishes from n = 2 on
        assert gamma_decimal(0.5, 0) == 2.0 / 3.0
        assert gamma_decimal(0.5, 1) == 1.0 / 6.0
        for n in (2, 7, 931, 10**6):
            assert gamma_decimal(0.5, n) == 0.0

    def test_matches_asymptotic_to_second_order(self):
        # the fourth difference of x^p is p(p-1)(p-2)(p-3) x^(p-4)
        # (1 + (p-4)(p-5) / (6 x^2) + O(x^-4)): the two oracles are
        # derived independently and must differ by that second term
        for H in (0.1, 0.3, 0.7, 0.9):
            for n in (10**3, 10**4):
                ratio = gamma_decimal(H, n) / gamma_asymptotic(H, n)
                second = (2 * H - 2) * (2 * H - 3) / (6.0 * n**2)
                assert ratio - 1.0 == pytest.approx(second, rel=1e-2)


class TestGammaAccuracy:
    @pytest.mark.parametrize(
        "low, high",
        [(0, 6), (7, 29), (9, 10**6)],
        ids=["lags-0-6", "lags-7-29", "series-branch"],
    )
    def test_relative_error(self, gamma_errors, low, high):
        # one bound at every lag and every H: neither branch cancels an
        # O(1) part, so the error does not grow as H goes to 0
        band = (_ACCURACY_LAGS >= low) & (_ACCURACY_LAGS <= high)
        assert gamma_errors[:, band].max() < _GAMMA_BOUND

    def test_mid_lags_to_1e9(self, gamma_errors):
        # the band where a plain fourth difference of |n|^(2H+2) loses
        # 4 log10(n) digits to cancellation
        band = (_ACCURACY_LAGS >= 7) & (_ACCURACY_LAGS <= 1000)
        assert gamma_errors[:, band].max() < 1e-9

    def test_lag_zero_at_tiny_hurst(self):
        # gamma(H, 0) = 2 expm1(2H ln 2) / ((2H + 1)(H + 1)) in closed form
        H = 1e-10
        exact = 2.0 * math.expm1(2.0 * H * math.log(2.0)) / ((2.0 * H + 1.0) * (H + 1.0))
        assert abs(gamma(H, 0) - exact) <= 1e-8 * exact

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
        assert autocov_sequence(NifbmParams(0.5), 2.0, 1)[0] == pytest.approx(
            4.0 / 3.0, rel=1e-14
        )
        assert autocov_sequence(NifbmParams(0.5), 1.0, 4)[3] == pytest.approx(
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
            params = NifbmParams(H)
            spread = []
            for t in (0.0, 1.7, 1e3):
                a = t + n * h

                def cc(u, v):
                    lo, hi = min(u, v), max(u, v)
                    return nifbm_cov(H, h, lo, hi)

                assembled = cc(t + h, a + h) - cc(t + h, a) - cc(t, a + h) + cc(t, a)
                spread.append(assembled)
                assert autocov_sequence(params, h, n + 1)[n] == pytest.approx(
                    assembled, abs=1e-10 * max(1.0, h ** (2 * H))
                )
            scale = max(abs(v) for v in spread) + 1e-12
            assert (max(spread) - min(spread)) / scale < 1e-7


class TestMixedIncrementAutocov:
    def test_single_component_degeneration(self):
        params = MixedParams(H1=0.6, H2=0.2, a2=3.0, b2=1e-300)
        single = NifbmParams(H=0.6)
        for n in range(5):
            assert autocov_sequence(params, 4.0, n + 1)[n] == pytest.approx(
                3.0 * autocov_sequence(single, 4.0, n + 1)[n], rel=1e-12
            )

    def test_brownian_zero_lags(self):
        params = MixedParams(H1=0.5 + 1e-12, H2=0.5 - 1e-12, a2=1.0, b2=1.0)
        for n in (2, 3, 9):
            assert autocov_sequence(params, 1.0, n + 1)[n] == pytest.approx(
                0.0, abs=1e-10
            )

    def test_formula_evaluation(self):
        params = MixedParams(H1=0.7, H2=0.3, a2=4.0, b2=4.0)
        expected = 4 * 4.0**1.4 * gamma(0.7, 1) + 4 * 4.0**0.6 * gamma(0.3, 1)
        assert autocov_sequence(params, 4.0, 2)[1] == pytest.approx(
            expected, rel=1e-14
        )

    @pytest.mark.parametrize("j", [1, 2, 4, 8])
    def test_sum_of_component_sequences(self, j):
        mixed = autocov_sequence(MixedParams(0.7, 0.2, a2=2.0, b2=5.0), 1.5 * j, 64)
        one = autocov_sequence(NifbmParams(0.7, a2=2.0), 1.5 * j, 64)
        two = autocov_sequence(NifbmParams(0.2, a2=5.0), 1.5 * j, 64)
        assert np.array_equal(mixed, one + two)


class TestAutocovSequence:
    def test_single_element(self):
        seq = autocov_sequence(NifbmParams(0.6, a2=3.0), 2.0, 1)
        assert len(seq) == 1
        assert seq[0] == pytest.approx(
            3.0 * autocov_sequence(NifbmParams(0.6), 2.0, 1)[0], rel=1e-14
        )

    def test_brownian_example(self):
        seq = autocov_sequence(NifbmParams(0.5), 1.0, 8)
        expected = [2 / 3, 1 / 6, 0, 0, 0, 0, 0, 0]
        assert np.allclose(seq, expected, atol=1e-14)

    def test_positive_definite_grid(self):
        for H in np.arange(0.1, 1.0, 0.1):
            for n in (8, 256):
                seq = autocov_sequence(NifbmParams(round(float(H), 1)), 2.0, n)
                cholesky_factor(seq)  # raises on failure

    def test_mixed_positive_definite(self):
        seq = autocov_sequence(MixedParams(0.7, 0.2, 2.0, 5.0), 6.0, 256)
        cholesky_factor(seq)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            autocov_sequence(NifbmParams(0.5), 1.0, 0)

    def test_one_kernel_evaluation_per_hurst_and_length(self, monkeypatch):
        calls = []

        def counting_gamma(H, n):
            calls.append((H, np.size(n)))
            return gamma(H, n)

        monkeypatch.setattr(covariance, "gamma", counting_gamma)
        covariance._unit_kernel.cache_clear()
        lags = np.arange(64)
        for h in (1.0, 2.0, 4.0):
            for a2 in (1.0, 3.0):
                seq = autocov_sequence(NifbmParams(0.3456, a2), h, 64)
                # the same arithmetic as a direct evaluation, bit for bit
                assert np.array_equal(seq, a2 * h ** (2 * 0.3456) * gamma(0.3456, lags))
                seq[0] = 0.0  # the caller's own array
        mixed = autocov_sequence(MixedParams(0.3456, 0.2, 2.0, 5.0), 2.0, 64)
        assert calls == [(0.3456, 64), (0.2, 64)]
        assert np.array_equal(mixed, 2.0 * 2.0 ** (2 * 0.3456) * gamma(0.3456, lags)
                              + 5.0 * 2.0 ** (2 * 0.2) * gamma(0.2, lags))


class TestFindH0:
    def test_value(self):
        h0 = find_h0()
        assert 0.2626219 <= h0 <= 0.2626239

    def test_sign_change_around_root(self):
        h0 = find_h0()
        assert gamma(h0 - 0.05, 1) < 0.0
        assert gamma(h0 + 0.05, 1) > 0.0

    @settings(max_examples=60)
    @given(tol=st.one_of(st.floats(5e-324, 0.2), st.sampled_from((1e-9, 2e-12))))
    def test_equals_scipy_bisect(self, tol):
        expected = scipy.optimize.bisect(lambda H: gamma(H, 1), 0.1, 0.5, xtol=tol)
        assert find_h0(tol) == expected

    def test_rejects_nonpositive_tol(self):
        for tol in (0.0, -1e-9, math.nan):
            with pytest.raises(ValueError):
                find_h0(tol)


class TestParamsValidation:
    def test_hurst_boundaries(self):
        for bad in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError):
                NifbmParams(H=bad)
        assert NifbmParams(H=0.5).H == 0.5

    def test_nifbm_params(self):
        assert [f.name for f in dataclasses.fields(NifbmParams)] == ["H", "a2"]
        with pytest.raises(ValueError):
            forward_moment_map(NifbmParams(H=0.5), 0.0)
        with pytest.raises(ValueError):
            NifbmParams(H=0.5, a2=-1.0)
        with pytest.raises(ValueError):
            NifbmParams(H=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            NifbmParams(H=0.5, a2=bad)
        theta = NifbmParams(H=0.5)
        for call in (
            lambda: forward_moment_map(theta, bad),
            lambda: jacobian(theta, bad),
            lambda: sigma_tilde_one(0.5, bad),
            lambda: sigma0_one(theta, bad),
        ):
            with pytest.raises(ValueError, match="window width h must be finite and positive"):
                call()
        for kwargs in (dict(a2=bad, b2=1.0), dict(a2=1.0, b2=bad)):
            with pytest.raises(ValueError, match="finite and positive"):
                MixedParams(H1=0.5, H2=0.3, **kwargs)

    @pytest.mark.parametrize("bad", ["0.3", "2", True, np.True_, None, 1j, [0.3]])
    @pytest.mark.parametrize(
        "field,message",
        [("H", "Hurst index must lie strictly in"), ("a2", "scale a2 must be finite")],
    )
    def test_non_real_fields_rejected(self, field, message, bad):
        # a string, bool or other non-real value is refused when the
        # params are built, not left to fail in a later computation
        with pytest.raises(ValueError, match=message):
            NifbmParams(**{"H": 0.3, field: bad})

    @pytest.mark.parametrize("bad", ["0.3", True, None])
    @pytest.mark.parametrize(
        "field,message",
        [("H1", "Hurst index"), ("H2", "Hurst index"), ("a2", "scale a2"),
         ("b2", "scale b2")],
    )
    def test_non_real_mixed_fields_rejected(self, field, message, bad):
        kwargs = {"H1": 0.7, "H2": 0.3, "a2": 1.0, "b2": 1.0, field: bad}
        with pytest.raises(ValueError, match=message):
            MixedParams(**kwargs)

    def test_real_scalars_accepted(self):
        # ints, floats and numpy scalars of either are kept as given
        theta = NifbmParams(np.float32(0.25), a2=np.int64(2))
        assert theta.components == ((np.float32(0.25), 2),)
        assert MixedParams(np.float64(0.7), 0.3, 2, np.float16(1.5)).b2 == 1.5

    def test_components(self):
        # a property, not a field: fields() and astuple() are unchanged
        assert NifbmParams(0.4, a2=2.0).components == ((0.4, 2.0),)
        mixed = MixedParams(0.7, 0.3, 2.0, 5.0)
        assert mixed.components == ((0.7, 2.0), (0.3, 5.0))
        assert dataclasses.astuple(mixed) == (0.7, 0.3, 2.0, 5.0)

    def test_mixed_params_ordering(self):
        with pytest.raises(ValueError):
            MixedParams(H1=0.3, H2=0.5, a2=1.0, b2=1.0)
        with pytest.raises(ValueError):
            MixedParams(H1=0.5, H2=0.5, a2=1.0, b2=1.0)
        with pytest.raises(ValueError):
            MixedParams(H1=0.5, H2=0.3, a2=1.0, b2=0.0)

    def test_autocov_sequence_invariant(self):
        # (1e-300)^1.8 underflows to 0, so the variance does too
        with pytest.raises(ValueError, match="lag-0 autocovariance"):
            autocov_sequence(NifbmParams(0.9), 1e-300, 2)

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("params", [NifbmParams(0.3), MixedParams(0.7, 0.3, 1.0, 2.0)])
    def test_bad_window_width(self, params, h):
        message = "window width h must be finite and positive"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                autocov_sequence(params, h, 3)
            with pytest.raises(ValueError, match=message):
                nifbm_cov(0.5, h, 1.0, 2.0)
            with pytest.raises(ValueError, match=message):
                nifbm_var(0.5, h, 1.0)
