"""One benchmark iteration, run in a fresh process by run.py.

    python3 benchmarks/child.py --workload NAME --seed N --out DIR
                                [--trace] [--setup-only]

Imports `nifbm` from the checkout's `src/` directory, writes the
workload's config files into DIR, and calls `nifbm.cli.main` in-process
once per command line of the workload, each writing its result CSV into
DIR.  The CSVs are then checked.  The last line of standard output is a
JSON report with monotonic-clock stamps (comparable with the parent's,
since CLOCK_MONOTONIC is system-wide on Linux) of the first experiment
call and of the checked result, each command line's time to its
checked CSV, peak RSS, grid points attempted and failed, degeneracy,
and per-layer metrics when traced.

With --setup-only the process stops at the first experiment call, so the
parent can sample set-up time (interpreter start, imports, config build)
several times per run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class _SetupDone(Exception):
    """Raised at the first experiment call of a set-up-only process."""


def blas_info() -> dict:
    """Runtime thread count and config of every loaded OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = sorted({line.split()[-1] for line in handle
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    info = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        info[os.path.basename(path)] = entry
    return info


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "nifbm")):
        print(f"error: no nifbm package under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, SRC)
    import nifbm.cli

    if not os.path.abspath(nifbm.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported nifbm from {nifbm.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 3

    from check import check_output, degeneracy
    from tracing import Tracer
    from workloads import workload

    work = workload(args.workload, args.seed)
    os.makedirs(args.out, exist_ok=True)
    jobs = []
    for call in work.calls:
        out = os.path.join(args.out, f"{call.name}.csv")
        config = os.path.join(args.out, f"{call.name}.cfg")
        if os.path.exists(out):  # check only what this process writes
            os.remove(out)
        if call.config is not None:
            with open(config, "w", encoding="utf-8") as handle:
                handle.write(call.config)
        jobs.append((call, out, [a.format(out=out, config=config) for a in call.argv]))

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    stamps = {}
    run_experiment = nifbm.cli.run_experiment

    def stamped_run_experiment(config):
        if "first" not in stamps:
            stamps["first"] = time.monotonic()
            if args.setup_only:
                raise _SetupDone
        return run_experiment(config)

    nifbm.cli.run_experiment = stamped_run_experiment

    attempted = failed = degenerate = replications = 0
    problems = []
    call_s = {}
    for call, out, argv in jobs:
        attempted += len(call.points)
        call_start = time.monotonic()
        try:
            code = nifbm.cli.main(argv)
        except _SetupDone:
            print(json.dumps({"t_first": stamps["first"]}))
            return 0
        except Exception:  # an unexpected error fails this call's grid points
            code = None
            problems.append(f"{call.name}: {traceback.format_exc()}")
        if code != 0:
            failed += len(call.points)
            if code is not None:
                problems.append(f"{call.name}: nifbm exited with code {code}")
            call_s[call.name] = time.monotonic() - call_start
            continue
        with open(out, encoding="utf-8") as handle:
            text = handle.read()
        for point_problems in check_output(call.points, text).values():
            failed += bool(point_problems)
            problems.extend(point_problems)
        deg, reps = degeneracy(call.points, text)
        degenerate += deg
        replications += reps
        call_s[call.name] = time.monotonic() - call_start
    t_end = time.monotonic()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {
        "t_first": stamps.get("first", t_end),
        "t_end": t_end,
        "peak_rss_mb": peak_kb / 1024.0,
        "call_s": call_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "degenerate_frac": degenerate / replications if replications else 0.0,
        "blas": blas_info(),
        "versions": versions(),
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["traced_root_s"] = tracer.root_seconds()
        with open(os.path.join(args.out, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
