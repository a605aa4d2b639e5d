"""Self-tests of the benchmark's output check, tracer and metric list.

    python3 -m unittest discover -s benchmarks -p "test_*.py"

The baseline CSVs under baseline/ are the workloads' outputs at seed 42.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
from check import check_output  # noqa: E402
from workloads import NAMES, workload  # noqa: E402


def baseline(name: str, call: str) -> str:
    with open(os.path.join(HERE, "baseline", name, f"{call}.csv"), encoding="utf-8") as handle:
        return handle.read()


def edit_rows(text: str, edit) -> str:
    """CSV text with `edit(rows)` applied to its list of row dicts."""
    reader = csv.DictReader(io.StringIO(text))
    rows = edit(list(reader))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=reader.fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def failures(call, text: str) -> list:
    return [p for problems in check_output(call.points, text).values() for p in problems]


class OutputCheckTest(unittest.TestCase):
    def test_accepts_seed_42_baseline(self):
        for name in NAMES:
            for call in workload(name, 42).calls:
                with self.subTest(workload=name, call=call.name):
                    self.assertEqual(failures(call, baseline(name, call.name)), [])

    def test_flags_shifted_mean(self):
        for name, index, estimator in (("small-n", 0, "mu_mle"),
                                       ("noise-one-long", 0, "H"),
                                       ("small-n", 2, "b2")):
            call = workload(name, 42).calls[index]

            def shift(rows):
                row = next(r for r in rows if r["estimator"] == estimator)
                row["mean"] = repr(float(row["mean"]) * 1.5)
                return rows

            with self.subTest(workload=name, call=call.name):
                found = failures(call, edit_rows(baseline(name, call.name), shift))
                self.assertEqual(len(found), 1)
                self.assertIn(f"{estimator}: mean", found[0])

    def test_flags_nan(self):
        call = workload("small-n", 42).calls[3]

        def poison(rows):
            rows[3]["sd_emp"] = "nan"
            return rows

        found = failures(call, edit_rows(baseline("small-n", call.name), poison))
        self.assertEqual(len(found), 1)
        self.assertIn("non-finite", found[0])

    def test_flags_missing_theory(self):
        call = workload("noise-one-long", 42).calls[0]

        def drop_theory(rows):
            rows[0]["sd_theory"] = ""
            return rows

        found = failures(call, edit_rows(baseline("noise-one-long", call.name), drop_theory))
        self.assertEqual(len(found), 1)

    def test_flags_missing_estimator_row(self):
        call = workload("small-n", 42).calls[1]
        found = failures(call, edit_rows(baseline("small-n", call.name),
                                         lambda rows: rows[:-1]))
        self.assertEqual(len(found), 1)
        self.assertIn("missing estimator row 'mu_two_point'", found[0])

    def test_flags_drift_sd_ratio(self):
        call = workload("small-n", 42).calls[0]

        def inflate(rows):
            rows[0]["sd_theory"] = repr(float(rows[0]["sd_theory"]) / 3.0)
            return rows

        found = failures(call, edit_rows(baseline("small-n", call.name), inflate))
        self.assertEqual(len(found), 1)
        self.assertIn("sd_emp/sd_theory", found[0])


class TracerTest(unittest.TestCase):
    def test_self_times_account_for_root(self):
        tracer = tracing.Tracer()

        def leaf():
            time.sleep(0.002)

        leaf_traced = tracer.wrap("covariance.gamma", leaf)

        def middle(cov):
            leaf_traced()
            leaf_traced()
            time.sleep(0.001)

        middle_traced = tracer.wrap("simulation.cholesky_factor", middle,
                                    tracing._cholesky_counts)
        root = tracer.wrap("cli.main", lambda: [middle_traced([1.0] * 4) for _ in range(3)])
        root()
        metrics = tracer.layer_metrics()
        self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(self_total, tracer.root_seconds(), places=9)
        self.assertEqual(metrics["cli.main.calls"], 1)
        self.assertEqual(metrics["simulation.cholesky_factor.calls"], 3)
        self.assertEqual(metrics["covariance.gamma.calls"], 6)
        self.assertEqual(metrics["simulation.cholesky_factor.flops"], 3 * 4**3 / 3.0)
        self.assertEqual(metrics["simulation.cholesky_factor.bytes"], 8.0 * 16)
        self.assertGreaterEqual(metrics["covariance.gamma.self_s"], 0.012)


class BenchmarkJsonTest(unittest.TestCase):
    def test_lists_the_reported_metrics(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        per_layer = dict(tracing.metric_units(), **run.DERIVED_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, per_layer)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(NAMES))


if __name__ == "__main__":
    unittest.main()
