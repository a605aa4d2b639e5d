"""The two benchmark workloads.

A workload is a list of `nifbm` command lines run in one process, and
for each command line the grid points its result CSV must hold, with
the true parameter values the output check compares against.  The
definitions here are independent of the package: the check must not
trust the program to say what it should have produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

DRIFT_ESTIMATORS = ("mu_mle", "mu_two_point")


@dataclass(frozen=True)
class GridPoint:
    """One (parameter set, h, N) cell of an experiment and its truth."""

    model: str
    H1: float
    H2: Optional[float]
    h: float
    N: int
    replications: int
    truth: Tuple[Tuple[str, float], ...]  # (estimator, true value) pairs
    has_theory: bool  # rows must carry a finite sd_theory

    def key(self) -> tuple:
        return (self.model, self.H1, self.H2, self.h, self.N)


@dataclass(frozen=True)
class Call:
    """One `nifbm` command line and the grid points of its output.

    `argv` holds the placeholders {out} (result CSV) and {config}
    (config file path, written from `config` before the call).
    """

    name: str
    argv: Tuple[str, ...]
    config: Optional[str]
    points: Tuple[GridPoint, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: Tuple[Call, ...]


_DRIFT_GRID = tuple((h, n) for h in (2.0, 4.0) for n in (8, 32, 128))
_TABLE1_H = (0.1, 0.3, 0.5, 0.7, 0.9)
_TABLE2_PAIRS = ((0.3, 0.1), (0.5, 0.1), (0.5, 0.3), (0.7, 0.3), (0.7, 0.5))
_DRIFT_REPS = 100
_DRIFT_MU = 4.0


def _drift_points(model: str, pairs) -> Tuple[GridPoint, ...]:
    truth = tuple((name, _DRIFT_MU) for name in DRIFT_ESTIMATORS)
    return tuple(
        GridPoint(model, h1, h2, h, n, _DRIFT_REPS, truth, has_theory=True)
        for h1, h2 in pairs
        for h, n in _DRIFT_GRID
    )


def _drift_calls(seed: int) -> Tuple[Call, ...]:
    """Built-in tables 1 and 2 in full."""
    return tuple(
        Call(
            name=f"table{which}",
            argv=("tables", "--which", str(which), "--replications",
                  str(_DRIFT_REPS), "--seed", str(seed), "--out", "{out}"),
            config=None,
            points=_drift_points(model, pairs),
        )
        for which, model, pairs in (
            (1, "one-nifbm", [(h, None) for h in _TABLE1_H]),
            (2, "two-nifbm", _TABLE2_PAIRS),
        )
    )


def _noise_one_long(seed: int) -> Workload:
    H, reps, grid = 0.3, 100, ((2.0, 256), (2.0, 1024), (2.0, 4096))
    config = "\n".join([
        "model = one-nifbm",
        f"H = {H}",
        "a2 = 1",
        "grid = " + ", ".join(f"{h:g}:{n}" for h, n in grid),
        f"replications = {reps}",
        f"seed = {seed}",
        "mode = aggregate",
        "outputs = noise",
    ]) + "\n"
    truth = (("H", H), ("a2", 1.0))
    points = tuple(
        GridPoint("one-nifbm", H, None, h, n, reps, truth, has_theory=True)
        for h, n in grid
    )
    call = Call("one-long", ("experiment", "--config", "{config}", "--out", "{out}"),
                config, points)
    return Workload(
        "noise-one-long",
        "table-3 slice to base length 8193: dense Cholesky and per-rep "
        "matvec dominate time and peak memory",
        (call,),
    )


def _two_many_calls(seed: int) -> Tuple[Call, ...]:
    """Table-4 shape at small N with many replications."""
    reps, grid, scale = 4000, ((2.0, 64), (2.0, 256)), 4.0
    calls = []
    for h1, h2 in ((0.5, 0.3), (0.7, 0.3)):
        config = "\n".join([
            "model = two-nifbm",
            f"H1 = {h1}",
            f"H2 = {h2}",
            f"a2 = {scale:g}",
            f"b2 = {scale:g}",
            "grid = " + ", ".join(f"{h:g}:{n}" for h, n in grid),
            f"replications = {reps}",
            f"seed = {seed}",
            "mode = direct-per-j",
            "outputs = noise",
        ]) + "\n"
        truth = (("H1", h1), ("H2", h2), ("a2", scale), ("b2", scale))
        points = tuple(
            GridPoint("two-nifbm", h1, h2, h, n, reps, truth, has_theory=False)
            for h, n in grid
        )
        calls.append(Call(f"two-{h1:g}-{h2:g}",
                          ("experiment", "--config", "{config}", "--out", "{out}"),
                          config, points))
    return tuple(calls)


def _small_n(seed: int) -> Workload:
    return Workload(
        "small-n",
        "tables 1-2 plus a table-4 shape at N <= 256, 4000 reps: per-replication "
        "Toeplitz refactorization in drift_mle and per-rep Python in the shared-noise sampler",
        _drift_calls(seed) + _two_many_calls(seed),
    )


_DEFINITIONS = {
    "small-n": _small_n,
    "noise-one-long": _noise_one_long,
}

NAMES = tuple(_DEFINITIONS)


def workload(name: str, seed: int) -> Workload:
    """The named workload with its inputs drawn from `seed`."""
    return _DEFINITIONS[name](seed)
