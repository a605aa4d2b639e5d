"""nifbm benchmark runner.

    python3 benchmarks/run.py --workload {small-n,noise-one-long}
                              [--seed 42] [--seconds 60] [--trace 0|1]

Each iteration is a fresh process (child.py) that imports the package
from this checkout's src/ and runs the workload's `nifbm` command lines
in-process, closed loop: the next iteration starts when the previous one
has ended.  BLAS threads are left at the machine default and recorded.

--trace 0 reports the end-to-end metrics, each the median over the
run's processes:
  setup_s      process start to the first experiment call (imports and
               config build), sampled also by a set-up-only process
               before each iteration
  wall_s       first experiment call to written, checked result CSVs
  peak_rss_mb  the process's high-water resident set size
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of tracing.py (medians over traced iterations), the
share of degenerate replications, and the tracing overhead.

Grid points that raised or failed the output check (check.py) are the
`failed` count against `attempted`.  The last line of standard output
is the JSON result; the CSVs, spans and a run record are left in
.bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
from workloads import NAMES, workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

MIN_ITERATIONS = 3
MIN_TRACE_ITERATIONS = 2  # one untraced, one traced
HARD_LIMIT_S = 170.0  # the whole run, including set-up probes

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics beyond tracing.metric_units()
DERIVED_UNITS = {"estimation.degenerate_frac": "fraction", "trace.overhead_frac": "fraction"}


class BenchError(RuntimeError):
    pass


def git_sha(root: str):
    """Commit of the checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    return None


def spawn(args, out: str, deadline: float, trace=False, setup_only=False) -> dict:
    """Run one child process to completion and return its report."""
    cmd = [sys.executable, CHILD, "--workload", args.workload,
           "--seed", str(args.seed), "--out", out]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"iteration exceeded the {HARD_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"iteration exited with code {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["t_first"] - start
    report["elapsed_s"] = time.monotonic() - start
    if not setup_only:
        report["wall_s"] = report["t_end"] - report["t_first"]
    report["traced"] = trace
    return report


def run_iterations(args, out: str, start: float) -> tuple:
    """Iterations until --seconds is spent (at least the minimum count).

    Untraced runs start a set-up-only probe before each iteration, so
    set-up time is sampled as often as the iterations and over the
    same stretch of time.  Returns (probes, iterations).
    """
    soft_end = start + args.seconds
    hard_end = start + HARD_LIMIT_S
    minimum = MIN_TRACE_ITERATIONS if args.trace else MIN_ITERATIONS
    probes, reports = [], []
    while True:
        if len(reports) >= minimum:
            typical = statistics.median(r["elapsed_s"] for r in reports)
            if probes:
                typical += statistics.median(r["elapsed_s"] for r in probes)
            if time.monotonic() + typical > soft_end:
                return probes, reports
        if not args.trace:
            probes.append(spawn(args, out, hard_end, setup_only=True))
        # traced runs alternate untraced and traced iterations
        traced = bool(args.trace) and len(reports) % 2 == 1
        reports.append(spawn(args, out, hard_end, trace=traced))


def describe(name: str, values: list, unit: str) -> str:
    med = statistics.median(values)
    return (f"{name}: median {med:.6g} {unit} over {len(values)} samples "
            f"(min {min(values):.6g}, max {max(values):.6g})")


def end_to_end(probes: list, iterations: list):
    samples = {
        "setup_s": [r["setup_s"] for r in probes + iterations],
        "wall_s": [r["wall_s"] for r in iterations],
        "peak_rss_mb": [r["peak_rss_mb"] for r in iterations],
    }
    lines = [describe(n, v, END_TO_END_UNITS[n]) for n, v in samples.items()]
    lines += [describe(f"{name} wall_s", [r["call_s"][name] for r in iterations], "s")
              for name in iterations[0]["call_s"]]
    metrics = {n: {"value": statistics.median(v), "unit": END_TO_END_UNITS[n]}
               for n, v in samples.items()}
    return metrics, lines


def per_layer(iterations: list):
    traced = [r for r in iterations if r["traced"]]
    plain = [r for r in iterations if not r["traced"]]
    units = tracing.metric_units()
    metrics = {n: {"value": statistics.median(r["layers"][n] for r in traced), "unit": u}
               for n, u in units.items()}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    derived = {
        "estimation.degenerate_frac": statistics.median(r["degenerate_frac"] for r in iterations),
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
    }
    metrics.update({n: {"value": v, "unit": DERIVED_UNITS[n]} for n, v in derived.items()})
    accounted = statistics.median(
        sum(v for n, v in r["layers"].items() if n.endswith(".self_s")) / r["traced_root_s"]
        for r in traced)
    lines = [describe("traced wall_s", [r["wall_s"] for r in traced], "s"),
             describe("untraced wall_s", [r["wall_s"] for r in plain], "s"),
             f"layer self times / root spans: {accounted:.9f}"]
    ranked = sorted((m["value"], n) for n, m in metrics.items() if n.endswith(".self_s"))
    lines += [f"{n}: {v:.6g} s ({v / traced_wall:.1%} of traced wall_s)"
              for v, n in reversed(ranked) if v > 0.0]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    start = time.monotonic()
    out = os.path.join(ROOT, ".bench_out", args.workload)
    shutil.rmtree(out, ignore_errors=True)  # leave only this run's outputs
    os.makedirs(out)
    try:
        probes, iterations = run_iterations(args, out, start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in iterations)
    failed = sum(r["failed"] for r in iterations)
    if args.trace:
        metrics, lines = per_layer(iterations)
    else:
        metrics, lines = end_to_end(probes, iterations)
    lines.append(f"failed_frac: {failed / attempted:.6g} "
                 f"({failed} of {attempted} grid points)")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": iterations[0]["blas"],
        "versions": iterations[0]["versions"],
        "git_sha": git_sha(ROOT),
        "calls": [{"argv": list(c.argv), "config": c.config}
                  for c in workload(args.workload, args.seed).calls],
        "iterations": [{k: r[k] for k in ("traced", "setup_s", "wall_s", "call_s",
                                          "peak_rss_mb", "failed", "problems")}
                       for r in iterations],
        "setup_probes_s": [r["setup_s"] for r in probes],
        "metrics": metrics,
    }
    with open(os.path.join(out, "run_record.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for problem in sorted({p for r in iterations for p in r["problems"]}):
        print(f"check failed: {problem}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
