"""Span tracing from outside the package.

Public functions are wrapped at the module attribute each caller looks
them up under (e.g. `nifbm.harness.cholesky_factor` and
`nifbm.simulation.cholesky_factor` are both the simulation layer's
`cholesky_factor`), so every call through the package's own call graph
opens a span.  Spans are kept in memory as (name, start, end, parent)
and reduced to per-layer counts and self times when the run ends.

`gamma` is deliberately not wrapped inside `nifbm.asymptotics`: its
series evaluations there are the theory layer's work and stay in
`asymptotics.sigma0_one`.  Unwrapped helpers (e.g.
`mixed_component_factors`) are charged to their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple


def _order(cov) -> int:
    return len(getattr(cov, "values", cov))


def _cholesky_counts(cov, *args, **kwargs) -> Dict[str, float]:
    n = _order(cov)
    return {"flops": n**3 / 3.0, "bytes": 8.0 * n * n}


def _drift_mle_counts(delta_y, delta_g, cov, *args, **kwargs) -> Dict[str, float]:
    return {"flops": _order(cov) ** 3 / 3.0}


# layer name -> the modules whose attribute of that name is wrapped
LAYERS: Dict[str, Tuple[str, ...]] = {
    "cli.main": ("nifbm.cli",),
    "harness.run_experiment": ("nifbm.cli",),
    "harness.format_results": ("nifbm.cli", "nifbm.harness"),
    "simulation.cholesky_factor": ("nifbm.harness", "nifbm.simulation"),
    "simulation.sample_increments": ("nifbm.harness",),
    "simulation.sample_mixed_components": ("nifbm.harness",),
    "simulation.combine_mixed_components": ("nifbm.harness",),
    "simulation.aggregate_increments": ("nifbm.estimation",),
    "simulation.add_drift": ("nifbm.harness",),
    "estimation.xi_statistic": ("nifbm.harness",),
    "estimation.xi_statistics_from_base": ("nifbm.harness",),
    "estimation.estimate_one_nifbm": ("nifbm.harness",),
    "estimation.estimate_two_nifbm": ("nifbm.harness",),
    "estimation.drift_mle": ("nifbm.harness",),
    "estimation.drift_two_point": ("nifbm.harness",),
    "asymptotics.sigma0_one": ("nifbm.harness",),
    "covariance.autocov_sequence": ("nifbm.harness", "nifbm.simulation"),
    "covariance.gamma": ("nifbm.covariance", "nifbm.simulation"),
}

# layer name -> (counter computed from the call's arguments, counter units)
COUNTERS: Dict[str, Tuple[Callable, Dict[str, str]]] = {
    "simulation.cholesky_factor": (_cholesky_counts, {"flops": "flop", "bytes": "B"}),
    "estimation.drift_mle": (_drift_mle_counts, {"flops": "flop"}),
}
# counters whose per-run value is the largest single call, not the sum
MAX_COUNTERS = ("bytes",)


def metric_units() -> Dict[str, str]:
    """Unit of every per-layer metric a traced run reports."""
    units = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        for key, unit in COUNTERS.get(name, (None, {}))[1].items():
            units[f"{name}.{key}"] = unit
    return units


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[str, Dict[str, float]] = {}
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable] = None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts.setdefault(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(*args, **kwargs).items():
                    if key in MAX_COUNTERS:
                        counts[key] = max(counts.get(key, 0.0), value)
                    else:
                        counts[key] = counts.get(key, 0.0) + value
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        """Wrap every layer function at each of its import sites."""
        for name, sites in LAYERS.items():
            attr = name.rsplit(".", 1)[1]
            counter = COUNTERS.get(name, (None, {}))[0]
            for site in sites:
                module = importlib.import_module(site)
                setattr(module, attr, self.wrap(name, getattr(module, attr), counter))

    def layer_metrics(self) -> Dict[str, float]:
        """calls and self_s per layer, plus the counters.

        Self time is a span's duration minus its children's durations;
        calls never overlap, so the self times of all spans add up to
        the root spans' total.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        metrics = {name: 0.0 for name in metric_units()}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += (end - start) - inner
        for name, counts in self.counts.items():
            for key, value in counts.items():
                metrics[f"{name}.{key}"] = value
        return metrics

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)
