"""Golden output: the CSV of fixed experiments and the text of fixed
`nifbm simulate` and `nifbm estimate` runs, byte for byte.

A refactor must leave the harness output byte-identical at a fixed seed
apart from the wall-clock `seconds` column, which is stripped here.  The
files under tests/golden/ cover tables 1 to 4 at 10 replications, seed
42, one two-process aggregate-mode experiment with drift, one simulated
series per model, and the estimate JSON of each model on its simulated
series and of both models on a degenerate (constant) series.

A deliberate change of the draws or of the estimators' arithmetic
changes these files.  Regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and log the change and its cause in CHANGES.md.
"""

import contextlib
import io
from pathlib import Path

import pytest

from nifbm.cli import main
from nifbm.harness import ExperimentConfig, format_results, run_experiment, table_configs

GOLDEN = Path(__file__).resolve().parent / "golden"


def _two_process_drift_aggregate():
    return [
        ExperimentConfig(
            model="two-nifbm", H1=0.7, H2=0.3, a2=2.0, b2=1.5, mu=1.5,
            g_name="linear", grid=((2.0, 128), (0.5, 256)), replications=10,
            seed=42, simulation_mode="aggregate",
            outputs=("drift-mle", "drift-two-point", "noise"),
        )
    ]


CASES = {
    **{f"table{k}": (lambda k=k: table_configs(k, replications=10, seed=42))
       for k in (1, 2, 3, 4)},
    "two-drift-aggregate": _two_process_drift_aggregate,
}


def golden_text(name: str) -> str:
    """The CSV of a case without its last (`seconds`) column."""
    rows = [row for config in CASES[name]() for row in run_experiment(config)]
    lines = format_results(rows).splitlines()
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)


# CLI cases: golden file name -> the argument list of one `nifbm` run;
# a "{name}" argument is the path of that golden file (an input series)
_SIM = ["simulate", "--h", "2", "--seed", "42", "--stream", "3"]
CLI_CASES = {
    "simulate-one-nifbm.txt": _SIM + ["--model", "one-nifbm", "--H", "0.3",
                                      "--a2", "2", "--N", "64", "--j", "2"],
    "simulate-two-nifbm.txt": _SIM + ["--model", "two-nifbm", "--H1", "0.7",
                                      "--H2", "0.3", "--a2", "2", "--b2", "1.5",
                                      "--N", "255"],
    "constant-series.txt": None,  # input only: sixteen ones
    "estimate-one-nifbm.json": ["estimate", "--model", "one-nifbm", "--h", "4",
                                "--in", "{simulate-one-nifbm.txt}"],
    "estimate-two-nifbm.json": ["estimate", "--model", "two-nifbm", "--h", "2",
                                "--in", "{simulate-two-nifbm.txt}"],
    "estimate-one-nifbm-degenerate.json": ["estimate", "--model", "one-nifbm",
                                           "--h", "1", "--in", "{constant-series.txt}"],
    "estimate-two-nifbm-degenerate.json": ["estimate", "--model", "two-nifbm",
                                           "--h", "1", "--in", "{constant-series.txt}"],
}


def cli_text(name: str) -> str:
    """What `nifbm` writes to stdout for a CLI case."""
    if CLI_CASES[name] is None:
        return "1\n" * 16
    argv = [str(GOLDEN / a[1:-1]) if a.startswith("{") else a for a in CLI_CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    assert golden_text(name) == expected


@pytest.mark.parametrize("name", sorted(n for n in CLI_CASES if CLI_CASES[n]))
def test_cli_output_matches_golden(name):
    assert cli_text(name) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.csv").write_text(golden_text(case), encoding="utf-8")
    # in order: the estimate cases read the series written before them
    for name in CLI_CASES:
        (GOLDEN / name).write_text(cli_text(name), encoding="utf-8")
