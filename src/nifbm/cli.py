"""Command line front end.

Subcommands:
  simulate     emit one raw increment series (one value per line)
  estimate     read an increment series, print parameter estimates
  experiment   run a Monte Carlo experiment from a config file
  tables       run the built-in benchmark table configurations
  constants    print the autocovariance kernel and related constants
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

import numpy as np

from .covariance import (
    AGGREGATION_FACTORS,
    MixedParams,
    NifbmParams,
    check_positive,
    find_h0,
    gamma,
)
from .errors import NifbmError
from .estimation import MOMENT_ESTIMATORS, MOMENT_FACTORS, xi_statistics_from_base
from .harness import (
    MODEL_PARAMS,
    format_results,
    parse_config,
    run_experiment,
    table_configs,
    write_results,
)
from .simulation import RngSeed, SampleGrid, sample_increments


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nifbm",
        description="Simulation and inference for window-averaged "
        "fractional Brownian motion models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="emit a raw increment series")
    sim.add_argument("--model", choices=tuple(MODEL_PARAMS), required=True)
    sim.add_argument("--H", type=float, help="Hurst index (one-nifbm)")
    sim.add_argument("--H1", type=float, help="larger Hurst index (two-nifbm)")
    sim.add_argument("--H2", type=float, help="smaller Hurst index (two-nifbm)")
    sim.add_argument("--a2", type=float, default=1.0)
    sim.add_argument("--b2", type=float, default=1.0)
    sim.add_argument("--h", type=float, required=True)
    sim.add_argument("--N", type=int, required=True)
    sim.add_argument("--j", type=int, default=1, choices=AGGREGATION_FACTORS)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--stream", type=int, default=0)
    sim.add_argument("--out", default=None, help="output path (default stdout)")

    est = sub.add_parser("estimate", help="estimate parameters from a series")
    est.add_argument("--model", choices=tuple(MODEL_PARAMS), required=True)
    est.add_argument("--h", type=float, required=True)
    est.add_argument(
        "--in", dest="infile", default=None, help="series path (default stdin)"
    )

    exp = sub.add_parser("experiment", help="run an experiment from a config file")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", default=None)
    exp.add_argument("--format", choices=("csv", "json"), default="csv")

    tab = sub.add_parser("tables", help="run a built-in benchmark table")
    tab.add_argument("--which", type=int, required=True, choices=(1, 2, 3, 4))
    tab.add_argument("--replications", type=int, default=100)
    tab.add_argument("--seed", type=int, default=42)
    tab.add_argument("--out", default=None)
    tab.add_argument("--format", choices=("csv", "json"), default="csv")

    con = sub.add_parser("constants", help="print kernel values and constants")
    con.add_argument("--H", type=float, required=True)
    con.add_argument("--h", type=float, default=1.0)
    con.add_argument("--max-lag", type=int, default=10)
    return parser


def _cmd_simulate(args) -> int:
    if args.model == "one-nifbm":
        if args.H is None:
            raise NifbmError("simulate --model one-nifbm requires --H")
        params = NifbmParams(H=args.H, a2=args.a2)
    else:
        if args.H1 is None or args.H2 is None:
            raise NifbmError("simulate --model two-nifbm requires --H1 and --H2")
        params = MixedParams(H1=args.H1, H2=args.H2, a2=args.a2, b2=args.b2)
    grid = SampleGrid(h=args.h, N=args.N, j=args.j)
    values = sample_increments(params, grid, [RngSeed(args.seed, args.stream)])[0]
    text = "\n".join(format(v, ".17g") for v in values) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _read_series(path: Optional[str]) -> np.ndarray:
    handle = open(path, "r", encoding="utf-8") if path else sys.stdin
    try:
        tokens = handle.read().replace(",", " ").split()
    finally:
        if path:
            handle.close()
    if not tokens:
        raise NifbmError("no input values found")
    values = np.array([float(t) for t in tokens])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NifbmError(
            f"non-finite input value {tokens[bad[0]]!r} at position {bad[0] + 1}"
        )
    return values


def _cmd_estimate(args) -> int:
    base = _read_series(args.infile)
    kind = MODEL_PARAMS[args.model]
    xi = xi_statistics_from_base(base, factors=MOMENT_FACTORS[kind])
    result = MOMENT_ESTIMATORS[kind](xi, args.h)
    print(json.dumps(dataclasses.asdict(result), indent=2))
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        config = parse_config(handle.read())
    rows = run_experiment(config)
    if args.out:
        write_results(rows, args.out, args.format)
    else:
        sys.stdout.write(format_results(rows, args.format))
    return 0


def _cmd_tables(args) -> int:
    rows = []
    for config in table_configs(args.which, args.replications, args.seed):
        rows.extend(run_experiment(config))
    if args.out:
        write_results(rows, args.out, args.format)
    else:
        sys.stdout.write(format_results(rows, args.format))
    return 0


def _cmd_constants(args) -> int:
    check_positive("window width h", args.h)
    sig = None
    if args.H < 0.75:
        from .asymptotics import sigma_tilde_one

        # evaluated first: an overflow must not follow a partial output
        sig = sigma_tilde_one(args.H, args.h)
    lags = np.arange(args.max_lag + 1)
    values = gamma(args.H, lags)
    print(f"H = {args.H}, h = {args.h}")
    for lag, value in zip(lags, values):
        print(f"gamma({args.H}, {lag}) = {format(value, '.17g')}")
    print(f"H0 (lag-1 sign change) = {format(find_h0(), '.17g')}")
    if sig is None:
        print("sigma_tilde entries unavailable for H >= 3/4")
    else:
        for name, value in (("11", sig[0, 0]), ("12", sig[0, 1]), ("22", sig[1, 1])):
            print(f"sigma_tilde_{name} = {format(value, '.17g')}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {
        "simulate": _cmd_simulate,
        "estimate": _cmd_estimate,
        "experiment": _cmd_experiment,
        "tables": _cmd_tables,
        "constants": _cmd_constants,
    }
    try:
        return commands[args.command](args)
    except (NifbmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError:
        # float powers such as h ** (2H) overflow for extreme inputs
        print("error: numerical overflow: h or a scale is too large", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
