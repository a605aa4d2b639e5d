import json

import numpy as np
import pytest

from nifbm.cli import main
from nifbm.errors import ConfigError
from nifbm.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    drift_samples,
    format_results,
    parse_config,
    run_experiment,
    table_configs,
    write_results,
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
        path = tmp_path / "out.json"
        write_results(rows, str(path), "json")
        parsed = json.loads(path.read_text())
        assert len(parsed) == len(rows)
        for obj, row in zip(parsed, rows):
            rebuilt = ResultRow(**obj)
            assert rebuilt == row

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


class TestConfigValidation:
    def test_bad_model(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="three-nifbm", H1=0.5)

    def test_two_process_needs_h2(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="two-nifbm", H1=0.5)

    def test_drift_without_g(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                model="one-nifbm", H1=0.5, mu=4.0, outputs=("drift-mle",)
            )

    def test_n_envelope(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="one-nifbm", H1=0.5, grid=((2.0, 2**14),))

    def test_bad_output(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="one-nifbm", H1=0.5, outputs=("bogus",))

    def test_two_process_aggregate_cap(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                model="two-nifbm",
                H1=0.5,
                H2=0.3,
                a2=1.0,
                b2=1.0,
                grid=((2.0, 2**12),),
                simulation_mode="aggregate",
                outputs=("noise",),
            )


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

    def test_missing_h_for_one_process(self, capsys):
        assert (
            main(["simulate", "--model", "one-nifbm", "--h", "1", "--N", "4"]) == 1
        )
        assert "requires --H" in capsys.readouterr().err
