"""Config-driven Monte Carlo experiment runner.

An experiment fixes a model, parameter values, an optional drift, a
grid of (h, N) pairs and a replication count.  The model parameters
are built once per experiment; the window width h belongs to the grid
and is passed next to them.  Each grid point is one pipeline: drift
stage (paths drawn per seed block, in order from stream 0 of the seed,
then one call of each estimator on all replications), noise stage (xi
statistics per seed block, on paths drawn in order from stream 1, or
component c of two-process direct-per-j from stream 1 + c, then one
estimator call on all replications), then one row per requested
estimator with the empirical mean and standard deviation of the
non-degenerate replications (nan if there are none), the theoretical
standard deviation where a closed form exists, and the count of
degenerate replications.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .asymptotics import sigma0_one
from .covariance import (
    MODEL_PARAMS, MixedParams, NifbmParams, Params, autocov_sequence, is_integer,
    is_real,
)
from .errors import ConfigError, HTooLargeError
from .estimation import (
    MOMENT_FACTORS,
    base_length,
    drift_mle,
    drift_two_point,
    estimate_one_nifbm,
    estimate_two_nifbm,
    xi_statistics_from_base,
    xi_statistics_from_components,
)
from .simulation import (
    DriftSpec,
    add_drift,
    block_workspace,
    sample_increments,
    sample_mixed_components,
    seed_blocks,
    stream_generator,
)
# benchmarks/tracing.py wraps these names at harness, so they stay bound
# although the harness no longer calls them
from .estimation import xi_statistic  # noqa: F401
from .simulation import cholesky_factor, combine_mixed_components  # noqa: F401

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

# no step is dense: paths are sampled by FFT circulant embedding and
# drift_mle solves by FFT-preconditioned conjugate gradients.  This is
# the largest N at which the solver's iteration counts were measured;
# the embedding of the longest base it admits, 8N + 7 increments, is
# tested nonnegative definite for nine H from 0.01 to 0.99
MAX_N = 2**13

_MODES = ("direct-per-j", "aggregate")
_OUTPUTS = ("drift-mle", "drift-two-point", "noise")
_G_NAMES = ("benchmark-g", "linear")
_DRIFT_OUTPUTS = ("drift-mle", "drift-two-point")


def _integer(name: str, value) -> int:
    if not is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
        if self.model not in MODEL_PARAMS:
            models = tuple(MODEL_PARAMS)
            raise ConfigError(f"model must be one of {models}, got {self.model!r}")
        if self.model == "two-nifbm" and (self.H2 is None or self.b2 is None):
            raise ConfigError("two-nifbm requires H2 and b2")
        if self.model == "one-nifbm" and (self.H2 is not None or self.b2 is not None):
            raise ConfigError("one-nifbm takes no H2 or b2")
        # numpy integers are accepted and stored as ints, here and in the grid
        for name in ("replications", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not (is_real(self.mu) and math.isfinite(self.mu)):
            raise ConfigError(f"drift coefficient mu must be finite, got {self.mu!r}")
        if self.simulation_mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}")
        if not self.outputs:
            raise ConfigError("at least one output estimator required")
        for name in self.outputs:
            if name not in _OUTPUTS:
                raise ConfigError(f"unknown output {name!r}; choose from {_OUTPUTS}")
        want_drift = any(o in _DRIFT_OUTPUTS for o in self.outputs)
        if want_drift and self.g_name is None and self.g_samples is None:
            raise ConfigError("drift estimators need a drift function g")
        if self.g_name is not None and self.g_samples is not None:
            raise ConfigError("give the drift function as g or g_samples, not both")
        g = self.g_samples
        if g is not None:
            if not all(is_real(v) and math.isfinite(v) for v in g):
                raise ConfigError("g_samples must all be finite")
            if not any(g):
                raise ConfigError("g_samples must not all be zero")
            if g[0] != 0.0:
                raise ConfigError(f"g_samples must start with G(0) = 0, got {g[0]}")
        if not self.grid:
            raise ConfigError("grid needs at least one h:N pair")
        grid = tuple((h, _integer("grid size N", n)) for h, n in self.grid)
        object.__setattr__(self, "grid", grid)
        for h, n in self.grid:
            if not (is_real(h) and 0.0 < h < math.inf):
                raise ConfigError(f"grid step h must be finite and positive, got {h!r}")
            if n < 2 or n > MAX_N:
                raise ConfigError(f"grid size N must be in [2, {MAX_N}], got {n}")
            if want_drift and g is not None and len(g) != n + 1:
                raise ConfigError(f"g_samples has {len(g)} points, grid needs {n + 1}")
        try:
            self.make_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def make_params(self) -> Params:
        """Model parameters; the only place they are built."""
        if self.model == "two-nifbm":
            return MixedParams(H1=self.H1, H2=self.H2, a2=self.a2, b2=self.b2)
        return NifbmParams(H=self.H1, a2=self.a2)


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


CSV_HEADER = ",".join(f.name for f in fields(ResultRow))


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


def _drift_stage(config: ExperimentConfig, params: Params, h: float, N: int):
    """(row name, mean, sd_emp, degenerate count, sd_theory, j_mode) of
    each requested drift estimator on R paths drawn in order from
    stream 0, per seed block, and drifted into one (R, N) array, then
    estimated in one call per estimator."""
    g = config.g_samples
    g = drift_samples(config.g_name, N, h) if g is None else np.asarray(g, dtype=float)
    drift = DriftSpec(mu=config.mu, g_values=g)
    dy = np.empty((config.replications, N))
    rng = stream_generator(config.seed, 0)
    for rows in seed_blocks(config.replications, N):
        noise = sample_increments(params, h, N, rng, len(rows))
        dy[rows.start : rows.stop] = add_drift(noise, drift)
    estimates = {}
    if "drift-mle" in config.outputs:
        estimates["mu_mle"] = drift_mle(dy, np.diff(g), autocov_sequence(params, h, N))
    if "drift-two-point" in config.outputs:
        y_n = dy.sum(axis=1)
        estimates["mu_two_point"] = drift_two_point(0.0, y_n, g[-1], params, h, N)
    return [
        (name, *_summary(est.mu_hat), 0, math.sqrt(est.variance), config.simulation_mode)
        for name, est in estimates.items()
    ]


def _noise_stage(config: ExperimentConfig, params: Params, h: float, N: int):
    """The same for the noise estimators, on R replications drawn in
    order from stream 1, per seed block, their xi statistics estimated
    in one call; sd_theory comes from sigma0_one for the one-process
    model.  j_mode names the scheme: two-process direct-per-j rescales
    shared unit-scale components to every width j*h, component c drawn
    from stream 1 + c, the first by the caller and the others on the
    stage's ThreadPoolExecutor, its xi statistics taken from the
    components' Gram moments (xi_statistics_from_components) once a
    block's components are all drawn; every other case, the
    one-process model in either mode included, is "aggregate", one
    base series at step h whose coarsest aggregate has N increments.
    Every seed block is drawn into the stage's block workspaces, one
    per component it draws, whose paths are read before the next block
    overwrites them."""
    mixed = isinstance(params, MixedParams)
    direct = mixed and config.simulation_mode == "direct-per-j"
    factors = MOMENT_FACTORS[type(params)]
    n_base = N if direct else base_length(factors, N)
    components = len(params.components) if direct else 1
    rngs = [stream_generator(config.seed, 1 + c) for c in range(components)]
    blocks = list(seed_blocks(config.replications, n_base, components))
    workspaces = [block_workspace(n_base, len(blocks[0])) for _ in rngs]
    xis = []
    if direct:
        # loaded with the first stage that needs it, not with the package
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(components - 1) as pool:
            for rows in blocks:
                parts = sample_mixed_components(
                    params, N, rngs, len(rows), workspace=workspaces, pool=pool
                )
                xi = xi_statistics_from_components(params, h, *parts)
                xis.append([xi[j] for j in factors])
    else:
        for rows in blocks:
            paths = sample_increments(
                params, h, n_base, rngs[0], len(rows), workspace=workspaces[0]
            )
            xi = xi_statistics_from_base(paths, factors=factors)
            xis.append([xi[j] for j in factors])
    xi = dict(zip(factors, map(np.concatenate, zip(*xis))))
    # called by this module's names, which benchmarks/tracing.py wraps
    est = estimate_two_nifbm(xi, h) if mixed else estimate_one_nifbm(xi, h)
    kept, degenerate = ~est.degenerate, int(np.count_nonzero(est.degenerate))
    theory = {}
    if not mixed:
        try:
            sig = sigma0_one(params, h)
            theory = {"H": math.sqrt(sig[0, 0] / N), "a2": math.sqrt(sig[1, 1] / N)}
        except HTooLargeError:
            pass
    mode = "direct-per-j" if direct else "aggregate"
    # one row per parameter field, summarising the estimate field name + "_hat"
    return [
        (f.name, *_summary(getattr(est, f.name + "_hat")[kept]), degenerate,
         theory.get(f.name), mode)
        for f in fields(params)
    ]


def _summary(samples: np.ndarray) -> Tuple[float, float]:
    if samples.size == 0:
        return math.nan, math.nan
    sd = float(samples.std(ddof=1)) if samples.size > 1 else 0.0
    return float(samples.mean()), sd


def _run_grid_point(
    config: ExperimentConfig, params: Params, h: float, N: int
) -> List[ResultRow]:
    t_start = time.perf_counter()
    want_drift = any(output in _DRIFT_OUTPUTS for output in config.outputs)
    stages = _drift_stage(config, params, h, N) if want_drift else []
    if "noise" in config.outputs:
        stages += _noise_stage(config, params, h, N)
    seconds = time.perf_counter() - t_start
    return [
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
            j_mode=j_mode,
            replications=config.replications,
            mean=mean,
            sd_emp=sd,
            sd_theory=sd_theory,
            degenerate=degenerate,
            seconds=seconds,
        )
        for name, mean, sd, degenerate, sd_theory, j_mode in stages
    ]


def run_experiment(config: ExperimentConfig) -> List[ResultRow]:
    """Run every grid point of the experiment and collect result rows."""
    params = config.make_params()
    rows: List[ResultRow] = []
    for h, n in config.grid:
        rows.extend(_run_grid_point(config, params, h, n))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def format_results(rows: Sequence[ResultRow], fmt: str = "csv") -> str:
    """Render result rows as CSV (fixed header) or a JSON array.

    CSV floats carry 17 significant digits; JSON floats are Python's
    shortest round-trip repr, with nan written as NaN.
    """
    if fmt == "csv":
        names = [f.name for f in fields(ResultRow)]
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        for row in rows:
            out.write(",".join(_fmt(getattr(row, n)) for n in names) + "\n")
        return out.getvalue()
    if fmt == "json":
        return json.dumps([asdict(row) for row in rows], indent=2)
    raise ValueError("format must be 'csv' or 'json'")


def write_results(rows: Sequence[ResultRow], path: str, fmt: str = "csv") -> None:
    """Write result rows to a file; I/O failures name the path."""
    text = format_results(rows, fmt)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc


def _floats(text: str) -> Tuple[float, ...]:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _grid(text: str) -> Tuple[Tuple[float, int], ...]:
    pairs = []
    for token in text.replace(",", " ").split():
        h_str, _, n_str = token.partition(":")
        if not n_str:
            raise ConfigError(f"grid entry {token!r} is not of the form h:N")
        pairs.append((float(h_str), int(n_str)))
    return tuple(pairs)


def _names(text: str) -> Tuple[str, ...]:
    return tuple(token.strip() for token in text.split(",") if token.strip())


# config key -> (ExperimentConfig field, parser of the value text)
_KEYS = {
    "model": ("model", str),
    "H1": ("H1", float),
    "H": ("H1", float),
    "H2": ("H2", float),
    "a2": ("a2", float),
    "b2": ("b2", float),
    "mu": ("mu", float),
    "g": ("g_name", str),
    "g_samples": ("g_samples", _floats),
    "grid": ("grid", _grid),
    "replications": ("replications", int),
    "seed": ("seed", int),
    "mode": ("simulation_mode", str),
    "outputs": ("outputs", _names),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value experiment configuration format.

    One "key = value" pair per line; '#' starts a comment; unknown keys
    are errors, and so is a second key for one field ("H" is "H1").  The
    grid is a list of h:N pairs, e.g. "2:128 4:128"; outputs is a comma
    list from {drift-mle, drift-two-point, noise}.
    """
    raw: Dict[str, tuple] = {}  # field -> (parser, value text)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        target, parser = _KEYS[key]
        if target in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[target] = (parser, value.strip())

    if "model" not in raw:
        raise ConfigError("missing required key 'model'")
    if "H1" not in raw:
        raise ConfigError("missing required key 'H1' (or 'H')")
    try:
        kwargs = {target: parser(value) for target, (parser, value) in raw.items()}
    except ValueError as exc:
        raise ConfigError(f"invalid value in configuration: {exc}") from exc
    return ExperimentConfig(**kwargs)


_TABLE_H_PAIRS = ((0.3, 0.1), (0.5, 0.1), (0.5, 0.3), (0.7, 0.3), (0.7, 0.5))


def table_configs(which: int, replications: int = 100, seed: int = 42):
    """Built-in experiment configurations mirroring the benchmark
    tables: 1 and 2 are drift estimation for the one- and two-process
    models, 3 and 4 are noise-parameter estimation."""
    common = dict(replications=replications, seed=seed)
    drift = dict(
        mu=4.0,
        g_name="benchmark-g",
        grid=tuple((h, n) for h in (2.0, 4.0) for n in (2**3, 2**5, 2**7)),
        outputs=("drift-mle", "drift-two-point"),
        **common,
    )
    if which == 1:
        return [
            ExperimentConfig(model="one-nifbm", H1=h_val, **drift)
            for h_val in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
    if which == 2:
        return [
            ExperimentConfig(model="two-nifbm", H1=h1, H2=h2, b2=1.0, **drift)
            for h1, h2 in _TABLE_H_PAIRS
        ]
    if which == 3:
        grid = tuple(
            (h, n) for h in (2.0, 4.0, 16.0) for n in (2**6, 2**8, 2**10, 2**12)
        )
        return [
            ExperimentConfig(model="one-nifbm", H1=h_val, grid=grid,
                             simulation_mode="aggregate", **common)
            for h_val in (0.1, 0.3, 0.5, 0.7)
        ]
    if which == 4:
        grid = tuple((2.0, n) for n in (2**6, 2**8, 2**10, 2**12))
        return [
            ExperimentConfig(model="two-nifbm", H1=h1, H2=h2, a2=4.0, b2=4.0,
                             grid=grid, **common)
            for h1, h2 in _TABLE_H_PAIRS
        ]
    raise ConfigError("table number must be 1, 2, 3 or 4")
