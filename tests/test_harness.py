import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nifbm
import nifbm.harness as harness
import nifbm.simulation as simulation
from nifbm.asymptotics import _kernel_table, gamma_square_series, sigma0_one
from nifbm.cli import main
from nifbm.covariance import MixedParams, NifbmParams, autocov_sequence
from nifbm.errors import ConfigError
from nifbm.estimation import (
    drift_mle,
    estimate_one_nifbm,
    estimate_two_nifbm,
    xi_statistics_from_base,
    xi_statistics_from_components,
)
from nifbm.harness import (
    CSV_HEADER,
    MAX_N,
    ExperimentConfig,
    ResultRow,
    drift_samples,
    format_results,
    parse_config,
    run_experiment,
    table_configs,
    write_results,
)
from nifbm.simulation import (
    sample_increments,
    sample_mixed_components,
    seed_blocks,
    stream_generator,
)


def small_drift_config(**overrides):
    kwargs = dict(
        model="one-nifbm",
        H1=0.5,
        a2=1.0,
        mu=4.0,
        g_name="benchmark-g",
        grid=((2.0, 16),),
        replications=5,
        seed=3,
        outputs=("drift-mle", "drift-two-point"),
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
)
_OPTIONAL_FLOATS = st.none() | _FLOATS
_RESULT_ROWS = st.builds(
    ResultRow,
    model=st.sampled_from(["one-nifbm", "two-nifbm"]),
    estimator=st.sampled_from(["H", "H1", "H2", "a2", "b2", "mu_mle", "mu_two_point"]),
    H1=_FLOATS,
    H2=_OPTIONAL_FLOATS,
    a2=_FLOATS,
    b2=_OPTIONAL_FLOATS,
    mu=_OPTIONAL_FLOATS,
    h=_FLOATS,
    N=st.integers(1, 2**40),
    j_mode=st.sampled_from(["aggregate", "direct-per-j"]),
    replications=st.integers(1, 10**9),
    mean=_FLOATS,
    sd_emp=_FLOATS,
    sd_theory=_OPTIONAL_FLOATS,
    degenerate=st.integers(0, 10**9),
    seconds=_FLOATS,
)
_ROW_TYPES = typing.get_type_hints(ResultRow)


def _parse_csv_cell(cell, kind):
    """A CSV cell read back as the ResultRow field type: an empty cell
    is None for optional fields."""
    if kind is str:
        return cell
    if kind is int:
        return int(cell)
    return None if cell == "" else float(cell)


def _same(a, b):
    """Equal values of equal type; floats also agree in the sign of
    zero, and nan matches nan."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def strip_seconds(csv_text):
    return [line.rsplit(",", 1)[0] for line in csv_text.strip().splitlines()]


class TestRunExperiment:
    def test_single_replication(self):
        rows = run_experiment(small_drift_config(replications=1))
        assert len(rows) == 2
        for row in rows:
            assert row.sd_emp == 0.0
            assert np.isfinite(row.mean)
            assert row.degenerate == 0

    def test_drift_means_near_truth(self):
        rows = run_experiment(small_drift_config(replications=50, grid=((2.0, 64),)))
        for row in rows:
            assert row.mean == pytest.approx(4.0, abs=6 * row.sd_theory)
            assert row.sd_theory > 0.0

    def test_determinism(self):
        a = format_results(run_experiment(small_drift_config()))
        b = format_results(run_experiment(small_drift_config()))
        assert strip_seconds(a) == strip_seconds(b)

    def test_noise_rows_one_process(self):
        cfg = ExperimentConfig(
            model="one-nifbm",
            H1=0.5,
            grid=((2.0, 64),),
            replications=10,
            seed=5,
            simulation_mode="aggregate",
            outputs=("noise",),
        )
        rows = {r.estimator: r for r in run_experiment(cfg)}
        assert set(rows) == {"H", "a2"}
        assert rows["H"].sd_theory is not None
        assert abs(rows["H"].mean - 0.5) < 0.2

    def test_one_process_noise_rows_name_the_aggregate_scheme(self):
        # one-process noise always aggregates one base series, whatever
        # the mode; drift rows keep the configured mode
        cfg = small_drift_config(outputs=("drift-mle", "noise"))
        assert cfg.simulation_mode == "direct-per-j"
        modes = {r.estimator: r.j_mode for r in run_experiment(cfg)}
        assert modes == {"mu_mle": "direct-per-j", "H": "aggregate", "a2": "aggregate"}

        def noise_rows(config):
            rows = run_experiment(replace(config, outputs=("noise",)))
            return [replace(row, seconds=0.0) for row in rows]

        assert noise_rows(cfg) == noise_rows(replace(cfg, simulation_mode="aggregate"))

    def test_noise_rows_two_process(self):
        cfg = ExperimentConfig(
            model="two-nifbm",
            H1=0.5,
            H2=0.3,
            a2=4.0,
            b2=4.0,
            grid=((2.0, 128),),
            replications=10,
            seed=5,
            outputs=("noise",),
        )
        rows = {r.estimator: r for r in run_experiment(cfg)}
        assert set(rows) == {"H1", "H2", "a2", "b2"}
        assert rows["H1"].sd_theory is None
        assert rows["H1"].H2 == 0.3

    def test_all_degenerate_grid_point_keeps_rows(self):
        # at N = 2 a single replication is degenerate for some seeds:
        # the first three of them below 200
        def config(seed):
            return ExperimentConfig(
                model="two-nifbm",
                H1=0.5,
                H2=0.3,
                a2=1,
                b2=1,
                grid=((2.0, 2),),
                replications=1,
                seed=seed,
                outputs=("noise",),
            )

        degenerate = (s for s in range(200) if run_experiment(config(s))[0].degenerate)
        seeds = list(itertools.islice(degenerate, 3))
        assert len(seeds) == 3
        for seed in seeds:
            rows = run_experiment(config(seed))
            assert [row.estimator for row in rows] == ["H1", "H2", "a2", "b2"]
            for row in rows:
                assert row.degenerate == 1
                assert math.isnan(row.mean) and math.isnan(row.sd_emp)

    def test_drift_blocks_match_per_replication(self):
        # N = 600 samples in blocks of 65536 // 1200 = 54 rows: 54, 54, 12;
        # the GLS estimates of all rows must equal the one-series ones exactly
        n, reps = 600, 120
        cfg = small_drift_config(
            grid=((2.0, n),), replications=reps, outputs=("drift-mle",)
        )
        rows = run_experiment(cfg)
        params = NifbmParams(0.5)
        dg = np.diff(drift_samples("benchmark-g", n, 2.0))
        cov = autocov_sequence(params, 2.0, n)
        # the drift stage draws its rows in order from stream 0
        paths = sample_increments(params, 2.0, n, stream_generator(3, 0), reps)
        mles = [drift_mle(path + 4.0 * dg, dg, cov).mu_hat for path in paths]
        assert rows[0].mean == float(np.mean(mles))
        assert rows[0].sd_emp == float(np.std(mles, ddof=1))

    def test_drift_estimators_once_per_grid_point(self, monkeypatch):
        # N = 2048, R = 40 draws three seed blocks (16, 16, 8) and still
        # factorizes the covariance once
        n, reps = 2048, 40
        assert len(list(seed_blocks(reps, n))) == 3
        calls = []

        def counted(name):
            original = getattr(harness, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in ("drift_mle", "drift_two_point"):
            monkeypatch.setattr(harness, name, counted(name))
        cfg = small_drift_config(grid=((2.0, n),), replications=reps)
        rows = run_experiment(cfg)
        assert sorted(calls) == ["drift_mle", "drift_two_point"]
        assert [row.estimator for row in rows] == ["mu_mle", "mu_two_point"]

    def test_drift_rows_independent_of_block_size(self, monkeypatch):
        cfg = small_drift_config(replications=7)
        rows = run_experiment(cfg)
        # one row per seed block
        monkeypatch.setattr(simulation, "BLOCK_ELEMENTS", 1)
        assert len(list(seed_blocks(7, 16))) == 7
        single = run_experiment(cfg)
        assert [replace(r, seconds=0.0) for r in single] == [
            replace(r, seconds=0.0) for r in rows
        ]

    @pytest.mark.parametrize("mode", ["direct-per-j", "aggregate"])
    @pytest.mark.parametrize("model", ["one-nifbm", "two-nifbm"])
    def test_csv_independent_of_block_size(self, monkeypatch, model, mode):
        # every stage draws its rows in order from one generator, so
        # one-row blocks give the same CSV, apart from the seconds
        two = dict(H2=0.3, b2=1.5) if model == "two-nifbm" else {}
        cfg = small_drift_config(
            model=model, H1=0.7, grid=((2.0, 16), (1.0, 8)), replications=9,
            simulation_mode=mode, outputs=("drift-mle", "drift-two-point", "noise"),
            **two,
        )

        def csv_text():
            rows = [replace(r, seconds=0.0) for r in run_experiment(cfg)]
            return format_results(rows)

        blocked = csv_text()
        assert len(list(seed_blocks(9, 16))) == 1
        monkeypatch.setattr(simulation, "BLOCK_ELEMENTS", 1)
        assert len(list(seed_blocks(9, 16))) == 9
        assert csv_text() == blocked

    @pytest.mark.parametrize("mode", ["direct-per-j", "aggregate"])
    def test_noise_blocks_match_per_replication(self, mode):
        # direct-per-j at N = 256 samples two components in blocks of
        # 65536 // (2 * 512) = 64 rows (64, 64, 22), aggregate its
        # 2055-increment base in blocks of 15; the rows must equal those
        # built from one-series statistics
        n, reps, seed = 256, 150, 4
        params = MixedParams(H1=0.5, H2=0.3, a2=4.0, b2=4.0)
        cfg = ExperimentConfig(
            model="two-nifbm", H1=0.5, H2=0.3, a2=4.0, b2=4.0, grid=((2.0, n),),
            replications=reps, seed=seed, simulation_mode=mode,
        )
        rows = run_experiment(cfg)
        assert [len(rows) for rows in seed_blocks(reps, n, 2)] == [64, 64, 22]
        estimates = []
        # the noise stage draws its rows in order from stream 1, direct-per-j
        # component c from stream 1 + c
        rng = stream_generator(seed, 1)
        rngs = [rng, stream_generator(seed, 2)]
        for _ in range(reps):
            if mode == "direct-per-j":
                e1, e2 = sample_mixed_components(params, n, rngs, 1)
                xi = xi_statistics_from_components(params, 2.0, e1[0], e2[0])
            else:
                base = sample_increments(params, 2.0, 8 * n + 7, rng, 1)
                xi = xi_statistics_from_base(base[0])
            estimates.append(estimate_two_nifbm(xi, 2.0))
        kept = [est for est in estimates if not est.degenerate]
        assert [row.estimator for row in rows] == ["H1", "H2", "a2", "b2"]
        for row in rows:
            values = np.array([getattr(est, row.estimator + "_hat") for est in kept])
            assert row.degenerate == reps - len(kept)
            assert row.mean == float(values.mean())
            assert row.sd_emp == float(values.std(ddof=1))

    @pytest.mark.parametrize(
        "mode,shape", [("direct-per-j", (2, 64, 512)), ("aggregate", (1, 15, 4320))]
    )
    def test_noise_stage_workspace_per_component(self, monkeypatch, mode, shape):
        # direct-per-j at N = 256 draws each of its two components into a
        # workspace of its own, of 65536 // (2 * 512) = 64 rows; aggregate
        # draws its 2055-increment base into one of 65536 // 4320 = 15
        made = []

        def recorded(*args):
            made.append(simulation.block_workspace(*args))
            return made[-1]

        monkeypatch.setattr(harness, "block_workspace", recorded)
        cfg = ExperimentConfig(
            model="two-nifbm", H1=0.5, H2=0.3, a2=4.0, b2=4.0, grid=((2.0, 256),),
            replications=150, seed=4, simulation_mode=mode,
        )
        run_experiment(cfg)
        count, rows, m = shape
        assert [out.shape for _, out in made] == [(rows, m)] * count
        assert sum(out.size for _, out in made) <= simulation.BLOCK_ELEMENTS
        for normals, _ in made:
            assert normals.shape == (rows, m // 2 + 1, 2)
            assert normals.size <= simulation.BLOCK_ELEMENTS

    def test_direct_noise_rows_independent_of_blocks_and_threads(self, monkeypatch):
        # two components at N = 1024 sample in blocks of
        # 65536 // (2 * 2048) = 16 rows (16, 16, 8), component 1 on a
        # helper thread; two runs and one-row blocks give the same rows
        n, reps = 1024, 40
        assert [len(rows) for rows in seed_blocks(reps, n, 2)] == [16, 16, 8]
        cfg = ExperimentConfig(
            model="two-nifbm", H1=0.7, H2=0.3, a2=4.0, b2=4.0, grid=((2.0, n),),
            replications=reps, seed=8,
        )

        def results():
            return [replace(r, seconds=0.0) for r in run_experiment(cfg)]

        blocked = results()
        assert {row.j_mode for row in blocked} == {"direct-per-j"}
        assert results() == blocked
        monkeypatch.setattr(simulation, "BLOCK_ELEMENTS", 1)
        assert len(list(seed_blocks(reps, n, 2))) == reps
        assert results() == blocked
        assert results() == blocked

    def test_helper_draw_failure_surfaces(self, monkeypatch):
        # a draw that raises on the helper thread raises the same
        # exception from run_experiment, and the helper is joined
        error = MemoryError("helper draw")
        draw = simulation.sample_increments

        def failing_off_main(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise error
            return draw(*args, **kwargs)

        monkeypatch.setattr(simulation, "sample_increments", failing_off_main)
        cfg = ExperimentConfig(
            model="two-nifbm", H1=0.7, H2=0.3, a2=4.0, b2=4.0, grid=((2.0, 64),),
            replications=5, seed=8,
        )
        before = threading.active_count()
        with pytest.raises(MemoryError) as caught:
            run_experiment(cfg)
        assert caught.value is error
        assert threading.active_count() == before

    def test_one_process_noise_blocks_match_per_replication(self):
        # the 2049-increment base of N = 1024 samples in blocks of
        # 65536 // 4098 = 16 rows (16, 16, 8); the rows must equal those
        # built from one-series statistics, sd_theory from sigma0_one
        n, reps, seed, h = 1024, 40, 6, 2.0
        params = NifbmParams(0.3, a2=1.5)
        assert [len(rows) for rows in seed_blocks(reps, 2 * n + 1)] == [16, 16, 8]
        cfg = ExperimentConfig(
            model="one-nifbm", H1=0.3, a2=1.5, grid=((h, n),), replications=reps,
            seed=seed,
        )
        rows = run_experiment(cfg)
        rng = stream_generator(seed, 1)
        estimates = [
            estimate_one_nifbm(
                xi_statistics_from_base(
                    sample_increments(params, h, 2 * n + 1, rng, 1)[0], factors=(1, 2)
                ),
                h,
            )
            for _ in range(reps)
        ]
        kept = [est for est in estimates if not est.degenerate]
        sig = sigma0_one(params, h)
        assert [row.estimator for row in rows] == ["H", "a2"]
        for i, row in enumerate(rows):
            values = np.array([getattr(est, row.estimator + "_hat") for est in kept])
            assert row.j_mode == "aggregate"
            assert row.degenerate == reps - len(kept)
            assert row.mean == float(values.mean())
            assert row.sd_emp == float(values.std(ddof=1))
            assert row.sd_theory == math.sqrt(sig[i, i] / n)

    def test_two_point_with_vanishing_last_drift_value(self):
        # G_N = 0: every two-point estimate is 0 with variance 0
        cfg = small_drift_config(
            g_name=None, g_samples=(0.0, 1.0, 2.0, 1.0, 0.0), grid=((2.0, 4),)
        )
        rows = {row.estimator: row for row in run_experiment(cfg)}
        two = rows["mu_two_point"]
        assert (two.mean, two.sd_emp, two.sd_theory) == (0.0, 0.0, 0.0)
        assert two.degenerate == 0
        assert np.isfinite(rows["mu_mle"].mean)
        # one +0.0 per replication, as the harness summarises them
        mu_hat = nifbm.drift_two_point(0.0, -np.ones(cfg.replications), 0.0).mu_hat
        assert mu_hat.shape == (cfg.replications,) and not np.signbit(mu_hat).any()

    def test_theory_series_once_per_hurst(self):
        # the series depend on H only, so two grid steps share them
        gamma_square_series.cache_clear()
        _kernel_table.cache_clear()
        cfg = ExperimentConfig(
            model="one-nifbm",
            H1=0.3,
            grid=((2.0, 16), (4.0, 16)),
            replications=2,
            seed=1,
            simulation_mode="aggregate",
            outputs=("noise",),
        )
        rows = run_experiment(cfg)
        assert all(row.sd_theory is not None for row in rows)
        info = gamma_square_series.cache_info()
        assert (info.misses, info.hits) == (3, 3)
        assert _kernel_table.cache_info().misses == 1

    def test_theory_above_three_quarters_absent(self):
        cfg = ExperimentConfig(
            model="one-nifbm",
            H1=0.9,
            grid=((2.0, 32),),
            replications=5,
            seed=6,
            outputs=("noise",),
        )
        rows = {r.estimator: r for r in run_experiment(cfg)}
        assert rows["H"].sd_theory is None


class TestWriteResults:
    def test_empty_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results([], str(path), "csv")
        assert path.read_text() == CSV_HEADER + "\n"

    def test_one_row_two_lines(self, tmp_path):
        rows = run_experiment(small_drift_config(outputs=("drift-mle",)))
        path = tmp_path / "out.csv"
        write_results(rows, str(path), "csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_json_round_trip(self, tmp_path):
        rows = run_experiment(small_drift_config())
        # an all-degenerate row: nan statistics, no theory
        rows.append(replace(rows[0], mean=math.nan, sd_emp=math.nan, sd_theory=None))
        path = tmp_path / "out.json"
        write_results(rows, str(path), "json")
        parsed = json.loads(path.read_text())
        assert len(parsed) == len(rows)
        for obj, row in zip(parsed, rows):
            rebuilt = ResultRow(**obj)
            for name, value in vars(row).items():
                got = getattr(rebuilt, name)
                if isinstance(value, float) and math.isnan(value):
                    assert math.isnan(got)
                else:
                    assert got == value
        assert parsed[-1]["sd_theory"] is None

    @given(st.lists(_RESULT_ROWS, max_size=4))
    @settings(max_examples=100)
    def test_csv_and_json_hold_the_same_values(self, rows):
        from_csv = [
            {name: _parse_csv_cell(cell, _ROW_TYPES[name]) for name, cell in record.items()}
            for record in csv.DictReader(io.StringIO(format_results(rows, "csv")))
        ]
        from_json = json.loads(format_results(rows, "json"))
        assert len(from_csv) == len(from_json) == len(rows)
        for csv_row, json_row, row in zip(from_csv, from_json, rows):
            for name, value in vars(row).items():
                assert _same(csv_row[name], json_row[name])
                assert _same(csv_row[name], value)

    def test_seventeen_digit_floats(self):
        rows = run_experiment(small_drift_config(replications=2))
        text = format_results(rows, "csv")
        value = text.strip().splitlines()[1].split(",")[11]
        assert float(value) == rows[0].mean  # exact round trip

    def test_io_error_names_path(self):
        rows = []
        with pytest.raises(OSError, match="no/such/dir"):
            write_results(rows, "/no/such/dir/out.csv", "csv")

    def test_bad_format(self):
        with pytest.raises(ValueError):
            format_results([], "xml")


class TestParseConfig:
    def test_round_trip(self):
        text = """
        # drift benchmark
        model = one-nifbm
        H = 0.5
        a2 = 1.0
        mu = 4.0
        g = benchmark-g
        grid = 2:16, 4:16
        replications = 7
        seed = 11
        outputs = drift-mle, drift-two-point
        """
        cfg = parse_config(text)
        assert cfg.H1 == 0.5
        assert cfg.grid == ((2.0, 16), (4.0, 16))
        assert cfg.replications == 7
        assert cfg.outputs == ("drift-mle", "drift-two-point")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("model = one-nifbm\nbogus = 1\nH = 0.5")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("model = one-nifbm\nH = 0.5\nH1 = 0.6")

    def test_missing_model(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config("H = 0.5")

    def test_bad_grid_entry(self):
        with pytest.raises(ConfigError, match="h:N"):
            parse_config("model = one-nifbm\nH = 0.5\ngrid = 16")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("model one-nifbm")


_ONE = NifbmParams(0.5)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ExperimentConfig(model="one-nifbm", H1=0.5, replications=True),
         ConfigError, "replications must be an integer"),
        (lambda: ExperimentConfig(model="one-nifbm", H1=0.5, seed=True),
         ConfigError, "seed must be an integer"),
        (lambda: autocov_sequence(_ONE, 1.0, True), ValueError, "N must be an integer"),
        (lambda: sample_increments(_ONE, 1.0, True, stream_generator(0, 0), 1),
         ValueError, "N must be an integer"),
        (lambda: stream_generator(0, True), ValueError,
         "seed and stream must be nonnegative integers"),
        (lambda: stream_generator(True, 0), ValueError,
         "seed and stream must be nonnegative integers"),
        (lambda: nifbm.two_point_variance(_ONE, 1.0, True, 3.0), ValueError,
         "N must be an integer"),
        (lambda: gamma_square_series(0.3, (0, 0), True), ValueError,
         "n_terms must be an integer"),
    ],
    ids=["replications", "seed", "autocov-N", "sampler-N", "stream", "sampler-seed",
         "two-point-N", "n_terms"],
)
def test_bool_rejected_where_integer_required(call, error, message):
    # bool subclasses int, so each check must exclude it by name;
    # numpy integers stay accepted
    with pytest.raises(error, match=message):
        call()


def test_caches_do_not_bypass_integer_checks():
    # True == 1 and 64.0 == 64 hash alike: caches keyed on equality
    # alone answered them from the int's entry without the check
    sample_increments(_ONE, 1.0, 1, stream_generator(0, 0), 1)
    sample_increments(_ONE, 1.0, 64, stream_generator(0, 0), 1)
    gamma_square_series(0.3, (0, 0), 1)
    for bad in (True, 64.0):
        with pytest.raises(ValueError, match="N must be an integer"):
            sample_increments(_ONE, 1.0, bad, stream_generator(0, 0), 1)
    with pytest.raises(ValueError, match="n_terms must be an integer"):
        gamma_square_series(0.3, (0, 0), True)


def test_estimator_covariance_is_a_test_oracle():
    # the Monte Carlo covariance of the estimators is built in conftest
    # on the public API; the harness keeps one noise stage and exports
    # only names it binds
    for module in (nifbm, harness):
        assert not hasattr(module, "empirical_estimator_cov")
    assert not hasattr(harness, "_noise_estimates")
    for name in harness.__all__:
        assert hasattr(harness, name)


class TestConfigValidation:
    def test_bad_model(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="three-nifbm", H1=0.5)

    def test_two_process_needs_h2(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="two-nifbm", H1=0.5)

    @pytest.mark.parametrize("extra", ["H2 = 0.3", "b2 = 7", "H2 = 0.3\nb2 = 7"])
    def test_one_process_rejects_second_process(self, extra):
        text = f"model = one-nifbm\nH = 0.5\n{extra}\noutputs = noise"
        with pytest.raises(ConfigError, match="one-nifbm takes no H2 or b2"):
            parse_config(text)

    def test_drift_without_g(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                model="one-nifbm", H1=0.5, mu=4.0, outputs=("drift-mle",)
            )

    def test_empty_grid(self):
        with pytest.raises(ConfigError, match="grid"):
            ExperimentConfig(model="one-nifbm", H1=0.5, grid=())

    def test_non_finite_mu(self):
        text = "model = one-nifbm\nH = 0.5\nmu = inf\ng = linear\noutputs = drift-mle"
        with pytest.raises(ConfigError, match="mu must be finite"):
            parse_config(text)

    def test_non_finite_grid_step(self):
        # two-nifbm params carry no h, so the grid check alone catches it
        text = "model = two-nifbm\nH1 = 0.5\nH2 = 0.3\nb2 = 1\ngrid = nan:8"
        with pytest.raises(ConfigError, match="grid step h"):
            parse_config(text)

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(H1="0.3"), "Hurst index must lie strictly in"),
            (dict(a2="1"), "scale a2 must be finite"),
            (dict(a2=True), "scale a2 must be finite"),
            (dict(mu="4"), "mu must be finite"),
            (dict(grid=(("2", 8),)), "grid step h"),
            (dict(g_name=None, g_samples=("0", 1.0)), "g_samples must all be finite"),
            (dict(model="two-nifbm", H1=0.7, H2="0.3", b2=1.0), "Hurst index must lie strictly in"),
        ],
        ids=["H1", "a2", "a2-bool", "mu", "grid-step", "g-samples", "H2"],
    )
    def test_non_real_fields_rejected(self, overrides, message):
        # malformed numbers are refused when the config is built, as a
        # ConfigError, not left to raise TypeError in a run
        kwargs = dict(
            model="one-nifbm", H1=0.5, mu=1.0, g_name="linear", grid=((2.0, 8),),
            outputs=("drift-two-point",),
        )
        kwargs.update(overrides)
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**kwargs)

    def test_non_finite_g_samples(self):
        text = (
            "model = one-nifbm\nH = 0.5\nmu = 1\ng_samples = 0 nan 2\n"
            "grid = 1:2\noutputs = drift-mle"
        )
        with pytest.raises(ConfigError, match="g_samples must all be finite"):
            parse_config(text)

    def test_g_and_g_samples_exclusive(self):
        text = (
            "model = one-nifbm\nH = 0.5\nmu = 1\ng = linear\n"
            "g_samples = 0 1 2\ngrid = 1:2\noutputs = drift-mle"
        )
        with pytest.raises(ConfigError, match="not both"):
            parse_config(text)

    @pytest.mark.parametrize(
        "g_samples,grid,message",
        [
            ((0.0, 1.0, 2.0), ((2.0, 4),), "g_samples has 3 points, grid needs 5"),
            # rejected before the first grid point runs
            ((0.0, 1.0, 2.0, 3.0, 4.0), ((2.0, 4), (2.0, 8)), "has 5 points, grid needs 9"),
            ((1.0, 2.0, 3.0), ((2.0, 2),), r"G\(0\) = 0, got 1.0"),
            ((0.0, 0.0, 0.0), ((2.0, 2),), "must not all be zero"),
        ],
        ids=["size", "size-at-later-grid-point", "g0-nonzero", "all-zero"],
    )
    def test_malformed_g_samples(self, g_samples, grid, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(
                model="one-nifbm", H1=0.5, mu=1.0, g_samples=g_samples, grid=grid,
                outputs=("drift-two-point",),
            )

    def test_g_samples_size_unchecked_without_drift(self):
        cfg = ExperimentConfig(model="one-nifbm", H1=0.5, g_samples=(0.0, 1.0))
        assert cfg.outputs == ("noise",)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            parse_config("model = one-nifbm\nH = 0.5\nseed = -1")

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"grid": ((2.0, 8.5),)}, "grid size N must be an integer, got 8.5"),
            ({"grid": ((2.0, 8.0),)}, "grid size N must be an integer, got 8.0"),
            ({"replications": 2.5}, "replications must be an integer, got 2.5"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ],
        ids=["N", "N-float-integral", "replications", "seed"],
    )
    def test_non_integer_sizes(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(model="one-nifbm", H1=0.5, **kwargs)

    def test_numpy_integer_sizes(self):
        # stored as ints: the same config, the same rows and valid JSON
        common = dict(model="one-nifbm", H1=0.5, mu=1.0, g_name="linear",
                      outputs=("drift-two-point", "noise"))
        ints = ExperimentConfig(grid=((2.0, 8),), replications=3, seed=1, **common)
        numpy_ints = ExperimentConfig(
            grid=((2.0, np.int64(8)),), replications=np.int32(3), seed=np.uint8(1),
            **common,
        )
        assert numpy_ints == ints and type(numpy_ints.grid[0][1]) is int
        rows = run_experiment(numpy_ints)
        strip = [replace(row, seconds=0.0) for row in rows]
        assert strip == [replace(row, seconds=0.0) for row in run_experiment(ints)]
        assert json.loads(format_results(rows, "json"))[0]["replications"] == 3

    def test_n_envelope(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="one-nifbm", H1=0.5, grid=((2.0, 2**14),))

    def test_bad_output(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="one-nifbm", H1=0.5, outputs=("bogus",))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("model = one-nifbm\nH = 0.5\na2 = -1", "scale a2 must be finite and positive"),
            ("model = one-nifbm\nH = 1.5", "Hurst index must lie strictly in"),
            ("model = two-nifbm\nH1 = 0.3\nH2 = 0.5\nb2 = 1", "canonical ordering"),
        ],
        ids=["negative-a2", "H-above-one", "H1-below-H2"],
    )
    def test_out_of_range_params_are_config_errors(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_two_process_aggregate_envelope(self):
        # the base series of 8N + 7 increments is sampled by FFT, so N is
        # bounded by MAX_N alone, as for every other model and mode
        common = dict(model="two-nifbm", H1=0.5, H2=0.3, a2=1.0, b2=1.0,
                      simulation_mode="aggregate", outputs=("noise",))
        ExperimentConfig(grid=((2.0, 2**12),), **common)
        cfg = ExperimentConfig(grid=((2.0, MAX_N),), replications=2, **common)
        rows = run_experiment(cfg)
        assert [row.estimator for row in rows] == ["H1", "H2", "a2", "b2"]
        assert all(row.N == MAX_N and row.replications == 2 for row in rows)


class TestDriftSamples:
    def test_linear(self):
        assert np.allclose(drift_samples("linear", 4, 2.0), [0, 2, 4, 6, 8])

    def test_benchmark_g_starts_at_zero(self):
        g = drift_samples("benchmark-g", 8, 2.0)
        assert g[0] == 0.0
        assert g.size == 9

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            drift_samples("mystery", 4, 1.0)


class TestTableConfigs:
    def test_structure(self):
        assert len(table_configs(1)) == 5
        assert len(table_configs(2)) == 5
        assert len(table_configs(3)) == 4
        assert len(table_configs(4)) == 5
        assert table_configs(3)[0].simulation_mode == "aggregate"
        assert table_configs(4)[0].simulation_mode == "direct-per-j"

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            table_configs(5)


class TestCli:
    def test_runs_without_scipy(self):
        # the package runs on numpy alone: neither its import nor a drift
        # table, the one-process aggregate noise table with sigma0_one
        # theory (3), the two-process shared-noise table (4) nor the
        # constants (with find_h0) load any scipy module
        code = "\n".join([
            "import contextlib, io, sys",
            "import nifbm.cli",
            "def scipy_modules():",
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))",
            "print(scipy_modules())",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    for which in '134':",
            "        assert nifbm.cli.main(['tables', '--which', which, '--replications', '2']) == 0",
            "    assert nifbm.cli.main(['constants', '--H', '0.3']) == 0",
            "print(scipy_modules())",
        ])
        src = str(Path(nifbm.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.stdout.splitlines() == ["[]", "[]"]

    def test_helper_threads_load_with_two_components(self):
        # the package import and a one-process table leave the helper
        # threads' module unloaded and start no thread; a two-process
        # direct-per-j table loads it, without concurrent.futures, and
        # joins its helpers
        code = "\n".join([
            "import contextlib, io, sys, threading",
            "import nifbm.cli",
            "def state():",
            "    loaded = [m for m in ('nifbm.threads', 'concurrent.futures') if m in sys.modules]",
            "    return loaded, threading.active_count()",
            "print(state())",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert nifbm.cli.main(['tables', '--which', '3', '--replications', '2']) == 0",
            "print(state())",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert nifbm.cli.main(['tables', '--which', '4', '--replications', '2']) == 0",
            "print(state())",
        ])
        src = str(Path(nifbm.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.stdout.splitlines() == [
            "([], 1)", "([], 1)", "(['nifbm.threads'], 1)"
        ]

    def test_constants(self, capsys):
        assert main(["constants", "--H", "0.5", "--max-lag", "4"]) == 0
        out = capsys.readouterr().out
        assert "0.66666666666666663" in out
        assert "gamma(0.5, 4) = 0" in out
        assert "0.2626229" in out

    def test_simulate_estimate_pipe(self, tmp_path, capsys):
        series = tmp_path / "series.txt"
        assert (
            main(
                [
                    "simulate",
                    "--model",
                    "one-nifbm",
                    "--H",
                    "0.5",
                    "--h",
                    "2",
                    "--N",
                    "65",
                    "--seed",
                    "1",
                    "--out",
                    str(series),
                ]
            )
            == 0
        )
        assert len(series.read_text().split()) == 65
        assert (
            main(["estimate", "--model", "one-nifbm", "--h", "2", "--in", str(series)])
            == 0
        )
        result = json.loads(capsys.readouterr().out)
        assert set(result) == {"H_hat", "a2_hat", "degenerate"}

    def test_estimate_overflow_is_degenerate(self, tmp_path, capsys):
        # h^(2 H) overflows at h = 1e200: a2_hat is 0 and flagged, and
        # both models keep their JSON keys and types
        series = tmp_path / "series.txt"
        argv = ["simulate", "--model", "one-nifbm", "--H", "0.9", "--h", "1",
                "--N", "2001", "--seed", "1", "--out", str(series)]
        assert main(argv) == 0
        estimate = ["estimate", "--h", "1e200", "--in", str(series), "--model"]
        assert main(estimate + ["one-nifbm"]) == 0
        one = json.loads(capsys.readouterr().out)
        assert one["a2_hat"] == 0.0 and one["degenerate"] is True
        assert main(estimate + ["two-nifbm"]) == 0
        two = json.loads(capsys.readouterr().out)
        assert two["degenerate"] is True
        for result, keys in (
            (one, ["H_hat", "a2_hat"]),
            (two, ["H1_hat", "H2_hat", "a2_hat", "b2_hat", "discriminant"]),
        ):
            assert list(result) == keys + ["degenerate"]
            assert all(isinstance(result[key], float) for key in keys)

    def test_estimate_rejects_non_finite(self, tmp_path, capsys):
        series = tmp_path / "series.txt"
        series.write_text("0.5 -0.2\nnan 0.1 0.3\n")
        argv = ["estimate", "--model", "one-nifbm", "--h", "2", "--in", str(series)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite input value 'nan' at position 3" in captured.err

    def test_simulate_determinism(self, capsys):
        argv = [
            "simulate", "--model", "two-nifbm", "--H1", "0.6", "--H2", "0.2",
            "--h", "1", "--N", "8", "--seed", "5", "--stream", "2",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_experiment_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "model = one-nifbm\nH = 0.5\nmu = 4\ng = benchmark-g\n"
            "grid = 2:16\nreplications = 3\nseed = 1\noutputs = drift-mle\n"
        )
        assert main(["experiment", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER)
        assert "mu_mle" in out

    def test_tables_structure(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert (
            main(
                [
                    "tables", "--which", "1", "--replications", "2",
                    "--seed", "42", "--out", str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        # 5 H values x 6 grid points x 2 estimators
        assert len(lines) == 1 + 5 * 6 * 2

    def test_validation_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model = one-nifbm\nH = 0.5\nbogus = 1\n")
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_unknown_flag_exit_code(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--model", "one-nifbm", "--H", "0.5", "--h", "nan", "--N", "4"],
            ["simulate", "--model", "one-nifbm", "--H", "0.5", "--h", "1",
             "--a2", "inf", "--N", "4"],
            ["simulate", "--model", "two-nifbm", "--H1", "0.6", "--H2", "0.2",
             "--h", "inf", "--N", "4"],
            ["simulate", "--model", "two-nifbm", "--H1", "0.6", "--H2", "0.2",
             "--b2", "nan", "--h", "1", "--N", "4"],
            ["constants", "--H", "0.5", "--h", "nan"],
        ],
    )
    def test_non_finite_parameter_exit_code(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite and positive" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--model", "one-nifbm", "--H", "0.9", "--h", "1e200", "--N", "4"],
            ["constants", "--H", "0.6", "--h", "1e200"],
        ],
        ids=["simulate", "constants"],
    )
    def test_overflow_exit_code(self, argv, capsys):
        # h ** (2H) overflows a float: one error line, no traceback
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: numerical overflow")
        assert err.count("\n") == 1

    def test_constants_overflow_prints_no_partial_output(self, capsys):
        assert main(["constants", "--H", "0.6", "--h", "1e200"]) == 1
        assert capsys.readouterr().out == ""

    def test_estimate_rejects_bad_step(self, tmp_path, capsys):
        series = tmp_path / "series.txt"
        series.write_text(" ".join(["0.5", "-0.2", "0.1"] * 6))
        for h in ("-1", "nan"):
            argv = ["estimate", "--model", "two-nifbm", "--h", h, "--in", str(series)]
            assert main(argv) == 1
            assert "step h must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("h", ["-1", "nan", "0"])
    def test_simulate_rejects_bad_step_before_scaling(self, h, capsys):
        # --h is checked before any sampling, and named in the message
        argv = ["simulate", "--model", "one-nifbm", "--H", "0.5", "--h", h, "--N", "4"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"step h must be finite and positive, got {float(h)}" in captured.err

    def test_constants_rejects_negative_max_lag(self, capsys):
        assert main(["constants", "--H", "0.3", "--max-lag", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-lag must be nonnegative, got -3\n"

    @pytest.mark.parametrize("flag", ["--seed", "--stream"])
    def test_simulate_rejects_negative_seed_or_stream(self, flag, capsys):
        argv = ["simulate", "--model", "one-nifbm", "--H", "0.5", "--h", "1",
                "--N", "4", flag, "-1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed and stream must be nonnegative integers" in captured.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--model", "one-nifbm", "--H", "0.3", "--H2", "0.1", "--b2", "5"],
             "one-nifbm takes no --H1, --H2 or --b2"),
            (["--model", "one-nifbm", "--H", "0.3", "--b2", "1"],
             "one-nifbm takes no --H1, --H2 or --b2"),
            (["--model", "one-nifbm", "--H", "0.3", "--H1", "0.7"],
             "one-nifbm takes no --H1, --H2 or --b2"),
            (["--model", "two-nifbm", "--H", "0.3", "--H1", "0.7", "--H2", "0.1"],
             "two-nifbm takes no --H"),
        ],
        ids=["one-H2-b2", "one-b2", "one-H1", "two-H"],
    )
    def test_simulate_rejects_other_model_flags(self, argv, message, capsys):
        assert main(["simulate", "--h", "2", "--N", "4"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_simulate_two_process_b2_defaults_to_one(self, capsys):
        argv = ["simulate", "--model", "two-nifbm", "--H1", "0.7", "--H2", "0.1",
                "--h", "2", "--N", "4"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--b2", "1"]) == 0
        assert capsys.readouterr().out == default

    def test_missing_h_for_one_process(self, capsys):
        assert (
            main(["simulate", "--model", "one-nifbm", "--h", "1", "--N", "4"]) == 1
        )
        assert "requires --H" in capsys.readouterr().err
