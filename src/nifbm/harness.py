"""Config-driven Monte Carlo experiment runner.

An experiment fixes a model, parameter values, an optional drift, a
grid of (h, N) pairs and a replication count.  Each grid point is
simulated with per-replication random streams, the requested estimators
are run, and one result row per estimator is emitted with the empirical
mean, empirical standard deviation, theoretical standard deviation
(where a closed form exists) and the count of degenerate replications.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .asymptotics import sigma0_one
from .covariance import MixedParams, NifbmParams, Params, autocov_sequence
from .errors import ConfigError, HTooLargeError
from .estimation import (
    drift_mle,
    drift_two_point,
    estimate_one_nifbm,
    estimate_two_nifbm,
    xi_statistic,
    xi_statistics_from_base,
)
from .simulation import (
    DriftSpec,
    IncrementSeries,
    SampleGrid,
    add_drift,
    combine_mixed_components,
    sample_increments,
    sample_mixed_components,
    seed_blocks,
)
# benchmarks/tracing.py wraps harness.cholesky_factor, so the name stays bound
from .simulation import cholesky_factor  # noqa: F401

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "parse_config",
    "run_experiment",
    "write_results",
    "format_results",
    "table_configs",
    "drift_samples",
    "CSV_HEADER",
]

MAX_N = 2**13

CSV_HEADER = (
    "model,estimator,H1,H2,a2,b2,mu,h,N,j_mode,replications,"
    "mean,sd_emp,sd_theory,degenerate,seconds"
)

_MODELS = ("one-nifbm", "two-nifbm")
_MODES = ("direct-per-j", "aggregate")
_OUTPUTS = ("drift-mle", "drift-two-point", "noise")
_G_NAMES = ("benchmark-g", "linear")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment byte for byte."""

    model: str
    H1: float
    a2: float = 1.0
    H2: Optional[float] = None
    b2: Optional[float] = None
    mu: float = 0.0
    g_name: Optional[str] = None
    g_samples: Optional[Tuple[float, ...]] = None
    grid: Tuple[Tuple[float, int], ...] = ((2.0, 128),)
    replications: int = 100
    seed: int = 0
    simulation_mode: str = "direct-per-j"
    outputs: Tuple[str, ...] = ("noise",)

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ConfigError(f"model must be one of {_MODELS}, got {self.model!r}")
        if self.model == "two-nifbm":
            if self.H2 is None or self.b2 is None:
                raise ConfigError("two-nifbm requires H2 and b2")
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if self.simulation_mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}")
        if not self.outputs:
            raise ConfigError("at least one output estimator required")
        for name in self.outputs:
            if name not in _OUTPUTS:
                raise ConfigError(f"unknown output {name!r}; choose from {_OUTPUTS}")
        if ("drift-mle" in self.outputs or "drift-two-point" in self.outputs) and (
            self.g_name is None and self.g_samples is None
        ):
            raise ConfigError("drift estimators need a drift function g")
        for h, n in self.grid:
            if h <= 0.0:
                raise ConfigError(f"grid step h must be positive, got {h}")
            if n < 2 or n > MAX_N:
                raise ConfigError(f"grid size N must be in [2, {MAX_N}], got {n}")
            if (
                self.model == "two-nifbm"
                and self.simulation_mode == "aggregate"
                and "noise" in self.outputs
                and 8 * n + 7 > MAX_N
            ):
                raise ConfigError(
                    "two-nifbm aggregate-mode noise estimation needs a base "
                    f"series of 8N+7 <= {MAX_N} increments; reduce N or use "
                    "direct-per-j"
                )
        # parameter validation happens here, once
        self.make_params()

    def make_params(self) -> Params:
        if self.model == "two-nifbm":
            return MixedParams(H1=self.H1, H2=self.H2, a2=self.a2, b2=self.b2)
        return NifbmParams(H=self.H1, h=self.grid[0][0], a2=self.a2)


@dataclass(frozen=True)
class ResultRow:
    model: str
    estimator: str
    H1: float
    H2: Optional[float]
    a2: float
    b2: Optional[float]
    mu: Optional[float]
    h: float
    N: int
    j_mode: str
    replications: int
    mean: float
    sd_emp: float
    sd_theory: Optional[float]
    degenerate: int
    seconds: float


def drift_samples(name: str, N: int, h: float) -> np.ndarray:
    """Sample the named drift function at the N+1 observation points.

    "linear" is G(t) = t sampled at t = k*h.  "benchmark-g" is
    G(t) = 5 cos t - exp(-4t) + 2 t^2 sampled at the observation index
    (t = k) with G(0) subtracted so that the G(0) = 0 assumption holds;
    the index convention reproduces the reference table values.
    """
    if name == "linear":
        return np.arange(N + 1) * h
    if name == "benchmark-g":
        t = np.arange(N + 1, dtype=float)
        g = 5.0 * np.cos(t) - np.exp(-4.0 * t) + 2.0 * t**2
        return g - g[0]
    raise ConfigError(f"unknown drift function {name!r}; choose from {_G_NAMES}")


def _config_g(config: ExperimentConfig, N: int, h: float) -> np.ndarray:
    if config.g_samples is not None:
        g = np.asarray(config.g_samples, dtype=float)
        if g.size != N + 1:
            raise ConfigError(
                f"g_samples has {g.size} points, grid needs {N + 1}"
            )
        return g
    return drift_samples(config.g_name, N, h)


def _summary(samples: List[float]) -> Tuple[float, float]:
    arr = np.asarray(samples, dtype=float)
    mean = float(arr.mean()) if arr.size else math.nan
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, sd


def _noise_statistics(config: ExperimentConfig, params: Params, h: float, N: int):
    """xi statistics of each noise replication, drawn on the streams
    after the drift replications' ones."""
    first = config.replications
    if config.model == "two-nifbm" and config.simulation_mode == "direct-per-j":
        # direct sampling at each factor with shared component noise,
        # rescaled from unit-gamma draws
        for seeds in seed_blocks(config.seed, first, config.replications, N):
            e1, e2 = sample_mixed_components(params, N, seeds)
            for r in range(len(seeds)):
                yield {
                    j: xi_statistic(combine_mixed_components(params, h, j, e1[r], e2[r]))
                    for j in (1, 2, 4, 8)
                }
        return
    # otherwise aggregate a longer base series
    if config.model == "one-nifbm":
        grid, factors = SampleGrid(h=h, N=2 * N + 1), (1, 2)
    else:
        grid, factors = SampleGrid(h=h, N=8 * N + 7), (1, 2, 4, 8)
    for seeds in seed_blocks(config.seed, first, config.replications, grid.N):
        for values in sample_increments(params, grid, seeds):
            base = IncrementSeries(grid=grid, values=values)
            yield xi_statistics_from_base(base, factors=factors)


def _run_grid_point(
    config: ExperimentConfig, h: float, N: int
) -> List[ResultRow]:
    t_start = time.perf_counter()
    params = (
        MixedParams(H1=config.H1, H2=config.H2, a2=config.a2, b2=config.b2)
        if config.model == "two-nifbm"
        else NifbmParams(H=config.H1, h=h, a2=config.a2)
    )
    want_drift = [o for o in config.outputs if o.startswith("drift")]
    want_noise = "noise" in config.outputs

    samples: Dict[str, List[float]] = {}
    degenerate: Dict[str, int] = {}
    theory: Dict[str, Optional[float]] = {}

    if want_drift:
        g = _config_g(config, N, h)
        dg = np.diff(g)
        cov = autocov_sequence(params, h, 1, N)
        drift = DriftSpec(mu=config.mu, g_values=g)
        grid = SampleGrid(h=h, N=N)
        for seeds in seed_blocks(config.seed, 0, config.replications, N):
            for values in sample_increments(params, grid, seeds):
                dy = add_drift(IncrementSeries(grid=grid, values=values), drift)
                if "drift-mle" in want_drift:
                    est = drift_mle(dy, dg, cov)
                    samples.setdefault("mu_mle", []).append(est.mu_hat)
                    theory["mu_mle"] = math.sqrt(est.variance)
                    degenerate.setdefault("mu_mle", 0)
                if "drift-two-point" in want_drift:
                    y_last = float(np.sum(dy.values))
                    est = drift_two_point(0.0, y_last, g[-1], params, h, N)
                    samples.setdefault("mu_two_point", []).append(est.mu_hat)
                    theory["mu_two_point"] = math.sqrt(est.variance)
                    degenerate.setdefault("mu_two_point", 0)

    if want_noise:
        for stats in _noise_statistics(config, params, h, N):
            if config.model == "one-nifbm":
                est = estimate_one_nifbm(stats.xi[1], stats.xi[2], h)
                values = {"H": est.H_hat, "a2": est.a2_hat}
            else:
                est = estimate_two_nifbm(stats, h)
                values = {
                    "H1": est.H1_hat,
                    "H2": est.H2_hat,
                    "a2": est.a2_hat,
                    "b2": est.b2_hat,
                }
            for name, value in values.items():
                degenerate.setdefault(name, 0)
                if est.degenerate:
                    degenerate[name] += 1
                else:
                    samples.setdefault(name, []).append(value)

    if want_noise and config.model == "one-nifbm":
        try:
            sig = sigma0_one(params)
            theory["H"] = math.sqrt(sig[0, 0] / N)
            theory["a2"] = math.sqrt(sig[1, 1] / N)
        except HTooLargeError:
            theory["H"] = None
            theory["a2"] = None

    seconds = time.perf_counter() - t_start
    rows = []
    for name in samples:
        mean, sd = _summary(samples[name])
        rows.append(
            ResultRow(
                model=config.model,
                estimator=name,
                H1=config.H1,
                H2=config.H2,
                a2=config.a2,
                b2=config.b2,
                mu=config.mu if want_drift else None,
                h=h,
                N=N,
                j_mode=config.simulation_mode,
                replications=config.replications,
                mean=mean,
                sd_emp=sd,
                sd_theory=theory.get(name),
                degenerate=degenerate.get(name, 0),
                seconds=seconds,
            )
        )
    return rows


def run_experiment(config: ExperimentConfig) -> List[ResultRow]:
    """Run every grid point of the experiment and collect result rows."""
    rows: List[ResultRow] = []
    for h, n in config.grid:
        rows.extend(_run_grid_point(config, h, n))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def format_results(rows: Sequence[ResultRow], fmt: str = "csv") -> str:
    """Render result rows as CSV (fixed header) or a JSON array."""
    names = [f.name for f in fields(ResultRow)]
    if fmt == "csv":
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        for row in rows:
            out.write(",".join(_fmt(getattr(row, n)) for n in names) + "\n")
        return out.getvalue()
    if fmt == "json":
        items = []
        for row in rows:
            body = []
            for n in names:
                value = getattr(row, n)
                if value is None:
                    body.append(f'"{n}": null')
                elif isinstance(value, float):
                    body.append(f'"{n}": {format(value, ".17g")}')
                elif isinstance(value, str):
                    body.append(f'"{n}": {json.dumps(value)}')
                else:
                    body.append(f'"{n}": {value}')
            items.append("{" + ", ".join(body) + "}")
        return "[\n" + ",\n".join(items) + "\n]" if items else "[]"
    raise ValueError("format must be 'csv' or 'json'")


def write_results(rows: Sequence[ResultRow], path: str, fmt: str = "csv") -> None:
    """Write result rows to a file; I/O failures name the path."""
    text = format_results(rows, fmt)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc


_KEY_PARSERS = {
    "model": str,
    "H1": float,
    "H": float,
    "H2": float,
    "a2": float,
    "b2": float,
    "mu": float,
    "g": str,
    "g_samples": str,
    "grid": str,
    "replications": int,
    "seed": int,
    "mode": str,
    "outputs": str,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value experiment configuration format.

    One "key = value" pair per line; '#' starts a comment; unknown keys
    are errors.  The grid is a list of h:N pairs, e.g. "2:128 4:128";
    outputs is a comma list from {drift-mle, drift-two-point, noise}.
    """
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw or (key in ("H", "H1") and ("H" in raw or "H1" in raw)):
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    kwargs = {}
    try:
        if "model" not in raw:
            raise ConfigError("missing required key 'model'")
        kwargs["model"] = raw["model"]
        h1 = raw.get("H1", raw.get("H"))
        if h1 is None:
            raise ConfigError("missing required key 'H1' (or 'H')")
        kwargs["H1"] = float(h1)
        for key, target in (("H2", "H2"), ("a2", "a2"), ("b2", "b2"), ("mu", "mu")):
            if key in raw:
                kwargs[target] = float(raw[key])
        if "g" in raw:
            kwargs["g_name"] = raw["g"]
        if "g_samples" in raw:
            kwargs["g_samples"] = tuple(
                float(v) for v in raw["g_samples"].replace(",", " ").split()
            )
        if "grid" in raw:
            pairs = []
            for token in raw["grid"].replace(",", " ").split():
                h_str, _, n_str = token.partition(":")
                if not n_str:
                    raise ConfigError(f"grid entry {token!r} is not of the form h:N")
                pairs.append((float(h_str), int(n_str)))
            kwargs["grid"] = tuple(pairs)
        if "replications" in raw:
            kwargs["replications"] = int(raw["replications"])
        if "seed" in raw:
            kwargs["seed"] = int(raw["seed"])
        if "mode" in raw:
            kwargs["simulation_mode"] = raw["mode"]
        if "outputs" in raw:
            kwargs["outputs"] = tuple(
                token.strip() for token in raw["outputs"].split(",") if token.strip()
            )
    except ValueError as exc:
        raise ConfigError(f"invalid value in configuration: {exc}") from exc
    return ExperimentConfig(**kwargs)


_TABLE_H_PAIRS = ((0.3, 0.1), (0.5, 0.1), (0.5, 0.3), (0.7, 0.3), (0.7, 0.5))


def table_configs(which: int, replications: int = 100, seed: int = 42):
    """Built-in experiment configurations mirroring the benchmark
    tables: 1 and 2 are drift estimation for the one- and two-process
    models, 3 and 4 are noise-parameter estimation."""
    drift_grid = tuple((h, n) for h in (2.0, 4.0) for n in (2**3, 2**5, 2**7))
    noise_grid_one = tuple(
        (h, n) for h in (2.0, 4.0, 16.0) for n in (2**6, 2**8, 2**10, 2**12)
    )
    noise_grid_two = tuple((2.0, n) for n in (2**6, 2**8, 2**10, 2**12))
    common = dict(replications=replications, seed=seed)
    if which == 1:
        return [
            ExperimentConfig(
                model="one-nifbm",
                H1=h_val,
                a2=1.0,
                mu=4.0,
                g_name="benchmark-g",
                grid=drift_grid,
                outputs=("drift-mle", "drift-two-point"),
                **common,
            )
            for h_val in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
    if which == 2:
        return [
            ExperimentConfig(
                model="two-nifbm",
                H1=h1,
                H2=h2,
                a2=1.0,
                b2=1.0,
                mu=4.0,
                g_name="benchmark-g",
                grid=drift_grid,
                outputs=("drift-mle", "drift-two-point"),
                **common,
            )
            for h1, h2 in _TABLE_H_PAIRS
        ]
    if which == 3:
        return [
            ExperimentConfig(
                model="one-nifbm",
                H1=h_val,
                a2=1.0,
                grid=noise_grid_one,
                simulation_mode="aggregate",
                outputs=("noise",),
                **common,
            )
            for h_val in (0.1, 0.3, 0.5, 0.7)
        ]
    if which == 4:
        return [
            ExperimentConfig(
                model="two-nifbm",
                H1=h1,
                H2=h2,
                a2=4.0,
                b2=4.0,
                grid=noise_grid_two,
                simulation_mode="direct-per-j",
                outputs=("noise",),
                **common,
            )
            for h1, h2 in _TABLE_H_PAIRS
        ]
    raise ConfigError("table number must be 1, 2, 3 or 4")
