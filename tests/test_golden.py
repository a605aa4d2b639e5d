"""Golden harness output: the CSV of fixed experiments, byte for byte.

A refactor must leave the harness output byte-identical at a fixed seed
apart from the wall-clock `seconds` column, which is stripped here.  The
files under tests/golden/ cover tables 1 to 4 at 10 replications, seed
42, and one two-process aggregate-mode experiment with drift.

A deliberate change of the draws or of the estimators' arithmetic
changes these files.  Regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and log the change and its cause in CHANGES.md.
"""

from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    assert golden_text(name) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.csv").write_text(golden_text(case), encoding="utf-8")
