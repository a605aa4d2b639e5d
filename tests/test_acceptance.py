"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
"CRITERION n: PASS/FAIL" line with the measured quantities before
asserting, so a full run gives a thirteen-line scoreboard.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.stats import chi2

from nifbm import (
    ExperimentConfig,
    MixedParams,
    NifbmParams,
    RngSeed,
    SampleGrid,
    cholesky_factor,
    estimate_one_nifbm,
    estimate_two_nifbm,
    find_h0,
    forward_moment_map,
    forward_moment_map_one,
    gamma,
    jacobian_one,
    nifbm_cov,
    run_experiment,
    sample_increments,
    sigma0_one,
    sigma_tilde_one,
    xi_statistic,
)
from nifbm.covariance import autocov_sequence

from conftest import (
    hurst_delta_variance,
    jacobian_one_det,
    quad_oracle,
    stream_generator,
)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {number}: {status} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_quadrature_oracle():
    rng = np.random.default_rng(20260801)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        H = rng.uniform(0.05, 0.95)
        h = rng.uniform(0.5, 8.0)
        t, s = rng.uniform(0.0, 20.0, size=2)
        err = abs(nifbm_cov(H, h, t, s) - quad_oracle(H, h, t, s))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-7 and elapsed < 10.0,
        f"max |closed form - quadrature| = {worst:.2e} over 50 cases, "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_special_values_and_sign_change():
    start = time.perf_counter()
    errs = [abs(gamma(0.5, 0) - 2.0 / 3.0), abs(gamma(0.5, 1) - 1.0 / 6.0)]
    errs.extend(abs(gamma(0.5, n)) for n in range(2, 101))
    h0 = find_h0()
    h0_err = abs(h0 - 0.2626229)
    elapsed = time.perf_counter() - start
    report(
        2,
        max(errs) < 1e-12 and h0_err < 1e-6 and elapsed < 1.0,
        f"max gamma error = {max(errs):.2e}, sign-change root = {h0:.9f}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_03_self_similarity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        H = rng.uniform(0.05, 0.95)
        h = rng.uniform(0.3, 5.0)
        t, s = rng.uniform(0.0, 10.0, size=2)
        c = rng.uniform(0.2, 6.0)
        direct = nifbm_cov(H, c * h, c * t, c * s)
        scaled = c ** (2.0 * H) * nifbm_cov(H, h, t, s)
        worst = max(worst, abs(direct - scaled) / max(abs(scaled), 1e-300))
    report(3, worst < 1e-10, f"max relative scaling error = {worst:.2e}")


def test_criterion_04_positive_definiteness():
    start = time.perf_counter()
    n = 4096
    tried = 0
    for H in np.arange(0.1, 0.91, 0.1):
        for h in (2.0, 4.0, 16.0):
            params = NifbmParams(H=round(float(H), 1))
            cholesky_factor(autocov_sequence(params, h, 1, n))
            tried += 1
    elapsed = time.perf_counter() - start
    report(
        4,
        tried == 27 and elapsed < 60.0,
        f"{tried} Cholesky factorizations at N = {n} in {elapsed:.1f}s",
    )


def test_criterion_05_round_trip_identity():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst_two = 0.0
    for _ in range(200):
        h2 = rng.uniform(0.05, 0.85)
        h1 = rng.uniform(h2 + 0.05, 0.95)
        theta = MixedParams(
            H1=h1, H2=h2, a2=rng.uniform(0.2, 5.0), b2=rng.uniform(0.2, 5.0)
        )
        h = rng.uniform(0.5, 4.0)
        eta = forward_moment_map(theta, h)
        est = estimate_two_nifbm(dict(zip((1, 2, 4, 8), eta)), h)
        assert not est.degenerate
        rel = max(
            abs(est.H1_hat - h1) / h1,
            abs(est.H2_hat - h2) / h2,
            abs(est.a2_hat - theta.a2) / theta.a2,
            abs(est.b2_hat - theta.b2) / theta.b2,
        )
        worst_two = max(worst_two, rel)
    worst_one = 0.0
    for _ in range(200):
        H, h, a2 = rng.uniform(0.05, 0.95), rng.uniform(0.5, 4.0), rng.uniform(0.2, 5.0)
        theta = NifbmParams(H=H, a2=a2)
        xi = dict(zip((1, 2), forward_moment_map_one(theta, h)))
        est = estimate_one_nifbm(xi, h)
        rel = max(
            abs(est.H_hat - theta.H) / theta.H,
            abs(est.a2_hat - theta.a2) / theta.a2,
        )
        worst_one = max(worst_one, rel)
    elapsed = time.perf_counter() - start
    report(
        5,
        worst_two < 1e-9 and worst_one < 1e-12 and elapsed < 1.0,
        f"two-process error = {worst_two:.2e}, one-process error = "
        f"{worst_one:.2e}, {elapsed:.2f}s",
    )


def test_criterion_06_discriminant_and_signs():
    rng = np.random.default_rng(13)
    worst = 0.0
    signs_ok = True
    for _ in range(200):
        h2 = rng.uniform(0.05, 0.85)
        h1 = rng.uniform(h2 + 0.05, 0.95)
        a2 = rng.uniform(0.2, 5.0)
        b2 = rng.uniform(0.2, 5.0)
        h = rng.uniform(0.5, 4.0)
        x = 2.0 ** (2.0 * h1)
        y = 2.0 ** (2.0 * h2)
        a_big = a2 * 2.0 * h ** (2.0 * h1) / ((2.0 * h1 + 1.0) * (h1 + 1.0))
        b_big = b2 * 2.0 * h ** (2.0 * h2) / ((2.0 * h2 + 1.0) * (h2 + 1.0))
        x1, x2, x4, x8 = forward_moment_map(
            MixedParams(H1=h1, H2=h2, a2=a2, b2=b2), h
        )
        disc = (x4 * x2 - x8 * x1) ** 2 - 4.0 * (x4 * x1 - x2**2) * (
            x8 * x2 - x4**2
        )
        closed = (
            a_big**2
            * b_big**2
            * (x - 1.0) ** 2
            * (y - 1.0) ** 2
            * (x - y) ** 6
        )
        worst = max(worst, abs(disc - closed) / closed)
        signs_ok = signs_ok and disc > 0.0 and x4 * x1 - x2**2 > 0.0
        signs_ok = signs_ok and x8 * x2 - x4**2 > 0.0
    report(
        6,
        worst < 1e-9 and signs_ok,
        f"max relative discriminant error = {worst:.2e}, "
        f"all sign conditions hold = {signs_ok}",
    )


def test_criterion_07_drift_benchmark_one_process():
    start = time.perf_counter()
    lines = []
    ok = True
    for h_val in (0.1, 0.3, 0.5, 0.7, 0.9):
        cfg = ExperimentConfig(
            model="one-nifbm",
            H1=h_val,
            a2=1.0,
            mu=4.0,
            g_name="benchmark-g",
            grid=((2.0, 2**7),),
            replications=100,
            seed=42,
            outputs=("drift-mle",),
        )
        row = run_experiment(cfg)[0]
        bias_ok = abs(row.mean - 4.0) < 4.0 * row.sd_theory / 10.0
        band_ok = 0.5 * row.sd_theory <= row.sd_emp <= 2.0 * row.sd_theory
        ok = ok and bias_ok and band_ok
        lines.append(f"H={h_val}: mean={row.mean:.5f} sd={row.sd_emp:.2e}")
    elapsed = time.perf_counter() - start
    report(
        7,
        ok and elapsed < 120.0,
        "; ".join(lines) + f"; {elapsed:.1f}s",
    )


def test_criterion_08_drift_benchmark_two_process():
    import nifbm.harness as harness
    from nifbm.estimation import drift_mle, two_point_variance

    params = MixedParams(H1=0.3, H2=0.1, a2=1.0, b2=1.0)
    h, n = 2.0, 2**7
    g = harness.drift_samples("benchmark-g", n, h)
    cov = autocov_sequence(params, h, 1, n)
    sd_mle = drift_mle(np.zeros(n), np.diff(g), cov).variance ** 0.5
    anchor_ok = abs(sd_mle - 0.00015) <= 0.1 * 0.00015

    dominance_ok = True
    for h1, h2 in ((0.3, 0.1), (0.5, 0.1), (0.5, 0.3), (0.7, 0.3), (0.7, 0.5)):
        for hh in (2.0, 4.0):
            for nn in (2**3, 2**5, 2**7):
                p = MixedParams(H1=h1, H2=h2, a2=1.0, b2=1.0)
                gg = harness.drift_samples("benchmark-g", nn, hh)
                v_mle = drift_mle(
                    np.zeros(nn), np.diff(gg), autocov_sequence(p, hh, 1, nn)
                ).variance
                v_two = two_point_variance(p, hh, nn, gg[-1])
                dominance_ok = dominance_ok and v_mle <= v_two * (1 + 1e-12)
    report(
        8,
        anchor_ok and dominance_ok,
        f"sd_theory(mu) = {sd_mle:.6f} vs 0.00015, likelihood variance "
        f"<= two-point variance on all 30 grid points = {dominance_ok}",
    )


def test_criterion_09_hurst_benchmark_one_process():
    start = time.perf_counter()
    n = 2**12
    cfg = ExperimentConfig(
        model="one-nifbm",
        H1=0.5,
        a2=1.0,
        grid=((2.0, n),),
        replications=100,
        seed=42,
        simulation_mode="aggregate",
        outputs=("noise",),
    )
    rows = {r.estimator: r for r in run_experiment(cfg)}
    row = rows["H"]
    predicted = math.sqrt(sigma0_one(NifbmParams(H=0.5), 2.0)[0, 0] / n)
    # At H = 1/2 the base increments have autocovariance h * (2/3, 1/6, 0,
    # ...) (criterion 2), so N * Var(log(xi2 / xi1)) -> 21/32 exactly.
    closed_form = math.sqrt(21.0 / 32.0) / (2.0 * math.log(2.0) * math.sqrt(n))
    oracle = math.sqrt(hurst_delta_variance(2.0 * np.array([2 / 3, 1 / 6]), n))
    mean_ok = 0.49 <= row.mean <= 0.51
    anchor_ok = (
        abs(predicted / closed_form - 1.0) <= 1e-6
        and abs(predicted / oracle - 1.0) <= 1e-3
    )
    # two-sided 99.99% chi-square band for a standard deviation
    dof = cfg.replications - 1
    lo, hi = np.sqrt(chi2.ppf([0.5e-4, 1.0 - 0.5e-4], dof) / dof)
    band_ok = lo * row.sd_theory <= row.sd_emp <= hi * row.sd_theory
    elapsed = time.perf_counter() - start
    report(
        9,
        mean_ok and anchor_ok and band_ok and elapsed < 300.0,
        f"mean(H) = {row.mean:.4f} in [0.49, 0.51]: {mean_ok}; predicted sd "
        f"= {predicted:.7f} vs closed form {closed_form:.7f} and finite-N "
        f"oracle {oracle:.7f}: {anchor_ok}; unreproduced benchmark 0.0138 = "
        f"{0.0138 / predicted:.3f} x theory; sd_emp = {row.sd_emp:.5f} = "
        f"{row.sd_emp / row.sd_theory:.3f} x theory in [{lo:.3f}, {hi:.3f}]: "
        f"{band_ok}; {elapsed:.0f}s",
    )


def test_criterion_10_hurst_benchmark_two_process():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        model="two-nifbm",
        H1=0.5,
        H2=0.3,
        a2=4.0,
        b2=4.0,
        grid=((2.0, 2**12),),
        replications=100,
        seed=42,
        simulation_mode="direct-per-j",
        outputs=("noise",),
    )
    rows = {r.estimator: r for r in run_experiment(cfg)}
    truth = {"H1": 0.5, "H2": 0.3, "a2": 4.0, "b2": 4.0}
    tol = {"H1": 0.005, "H2": 0.005, "a2": 0.1, "b2": 0.1}
    ok = all(abs(rows[k].mean - truth[k]) < tol[k] for k in truth)
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"mean({k}) = {rows[k].mean:.4f}" for k in truth)
    report(10, ok and elapsed < 600.0, detail + f"; {elapsed:.0f}s")


def test_criterion_11_asymptotic_covariance_oracle():
    n = 2**10
    reps = 20_000
    params = NifbmParams(H=0.5)
    tilde = sigma_tilde_one(0.5, 1.0)
    s11, s12, s22 = tilde[0, 0], tilde[0, 1], tilde[1, 1]
    exact_s11_ok = abs(s11 - 0.5) < 1e-12 and abs(s22 - 4.0) < 1e-12

    factor = cholesky_factor(autocov_sequence(params, 1.0, 1, 2 * n + 1))
    rng = stream_generator(RngSeed(2026, 0))
    base = factor @ rng.standard_normal((2 * n + 1, reps))
    fine = base[: 2 * n]
    coarse = 0.5 * (base[2 : 2 * n + 1 : 2] + 2.0 * base[1 : 2 * n : 2]
                    + base[0 : 2 * n - 1 : 2])
    xi1 = np.mean(fine**2, axis=0)
    xi2 = np.mean(coarse**2, axis=0)
    emp = n * np.cov(np.vstack([xi1, xi2]))

    se11 = s11 * math.sqrt(2.0 / reps)
    se22 = s22 * math.sqrt(2.0 / reps)
    se12 = math.sqrt((s11 * s22 + s12**2) / reps)
    d11 = abs(emp[0, 0] - s11)
    d12 = abs(emp[0, 1] - s12)
    d22 = abs(emp[1, 1] - s22)
    mc_ok = d11 < 5 * se11 and d12 < 5 * se12 and d22 < 5 * se22
    report(
        11,
        exact_s11_ok and mc_ok,
        f"empirical ({emp[0, 0]:.4f}, {emp[0, 1]:.4f}, {emp[1, 1]:.4f}) vs "
        f"({s11:.4f}, {s12:.4f}, {s22:.4f}), deviations in "
        f"SE units ({d11 / se11:.1f}, {d12 / se12:.1f}, {d22 / se22:.1f})",
    )


def test_criterion_12_jacobian():
    rng = np.random.default_rng(17)
    worst = 0.0
    det_neg = True
    for _ in range(50):
        H, h, a2 = rng.uniform(0.05, 0.95), rng.uniform(0.5, 8.0), rng.uniform(0.2, 5.0)
        theta = NifbmParams(H=H, a2=a2)
        jac = jacobian_one(theta, h)
        eps_h, eps_a = 1e-6, 1e-6 * a2
        up_h = forward_moment_map_one(NifbmParams(H=H + eps_h, a2=a2), h)
        dn_h = forward_moment_map_one(NifbmParams(H=H - eps_h, a2=a2), h)
        up_a = forward_moment_map_one(NifbmParams(H=H, a2=a2 + eps_a), h)
        dn_a = forward_moment_map_one(NifbmParams(H=H, a2=a2 - eps_a), h)
        fd = np.column_stack(
            [
                (np.subtract(up_h, dn_h)) / (2.0 * eps_h),
                (np.subtract(up_a, dn_a)) / (2.0 * eps_a),
            ]
        )
        worst = max(worst, np.max(np.abs(jac - fd) / np.abs(jac)))
        det = jacobian_one_det(theta, h)
        det_neg = det_neg and det < 0.0
        det_neg = det_neg and abs(np.linalg.det(jac) - det) / abs(det) < 1e-9
    report(
        12,
        worst < 1e-5 and det_neg,
        f"max relative difference vs finite differences = {worst:.2e}, "
        f"determinant negative and matching closed form = {det_neg}",
    )


def test_criterion_13_long_path_ergodicity():
    params = NifbmParams(H=0.7)
    grid = SampleGrid(h=2.0, N=2**16)
    eta1 = forward_moment_map_one(params, grid.h)[0]
    hits = 0
    for seed in range(100):
        series = sample_increments(params, grid, [RngSeed(seed, 0)])[0]
        if abs(xi_statistic(series) - eta1) / eta1 < 0.05:
            hits += 1
    report(
        13,
        hits >= 95,
        f"{hits}/100 long paths have mean squared increment within 5% of "
        f"its expectation",
    )
