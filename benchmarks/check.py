"""Output check for result CSVs written by `nifbm tables` / `experiment`.

A grid point passes when, for every estimator it should report:

- a row exists with finite mean and sd_emp (and a finite sd_theory
  where the model has a closed form);
- |mean - truth| <= 5 * sd_emp / sqrt(replications - degenerate)
  + allowance, where the allowance is 0 for drift, 0.02 for Hurst
  indices and 10 % of the true value for scales.  The allowance covers
  the small-N bias of the moment estimators, which at 4000
  replications reaches about 11 standard errors for H2; the bound must
  hold for any exact sampler, not just one set of draws;
- drift rows have sd_emp / sd_theory in [0.5, 2].

Degenerate replications are a statistical outcome, not a failure.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Dict, List, Optional, Sequence

from workloads import GridPoint

Z_BOUND = 5.0
HURST_ALLOWANCE = 0.02
SCALE_ALLOWANCE = 0.10
SD_RATIO_RANGE = (0.5, 2.0)


def _optional_float(text: str) -> Optional[float]:
    return float(text) if text != "" else None


def parse_rows(text: str) -> List[dict]:
    """Result rows of a CSV, numeric fields converted."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        rows.append({
            "model": raw["model"],
            "estimator": raw["estimator"],
            "H1": float(raw["H1"]),
            "H2": _optional_float(raw["H2"]),
            "h": float(raw["h"]),
            "N": int(raw["N"]),
            "replications": int(raw["replications"]),
            "mean": float(raw["mean"]),
            "sd_emp": float(raw["sd_emp"]),
            "sd_theory": _optional_float(raw["sd_theory"]),
            "degenerate": int(raw["degenerate"]),
        })
    return rows


def _row_key(row: dict) -> tuple:
    return (row["model"], row["H1"], row["H2"], row["h"], row["N"])


def _allowance(estimator: str, truth: float) -> float:
    if estimator.startswith("mu_"):
        return 0.0
    if estimator.startswith("H"):
        return HURST_ALLOWANCE
    return SCALE_ALLOWANCE * abs(truth)


def point_problems(point: GridPoint, rows: Sequence[dict]) -> List[str]:
    """Why the grid point's rows fail the check; empty when they pass."""
    by_name = {row["estimator"]: row for row in rows}
    where = f"{point.model} H1={point.H1} H2={point.H2} h={point.h} N={point.N}"
    problems = []
    for name, truth in point.truth:
        row = by_name.get(name)
        if row is None:
            problems.append(f"{where}: missing estimator row {name!r}")
            continue
        mean, sd, theory = row["mean"], row["sd_emp"], row["sd_theory"]
        values = [mean, sd] + ([theory] if point.has_theory else [])
        if any(v is None or not math.isfinite(v) for v in values):
            problems.append(f"{where} {name}: non-finite value in {values}")
            continue
        if row["replications"] != point.replications:
            problems.append(f"{where} {name}: {row['replications']} replications, "
                            f"expected {point.replications}")
            continue
        used = row["replications"] - row["degenerate"]
        if used < 2:
            problems.append(f"{where} {name}: only {used} non-degenerate replications")
            continue
        limit = Z_BOUND * sd / math.sqrt(used) + _allowance(name, truth)
        if not abs(mean - truth) <= limit:
            problems.append(f"{where} {name}: mean {mean:.6g} is "
                            f"{abs(mean - truth):.3g} from {truth} (limit {limit:.3g})")
        if name.startswith("mu_"):
            lo, hi = SD_RATIO_RANGE
            ratio = sd / theory if theory > 0.0 else math.inf
            if not lo <= ratio <= hi:
                problems.append(f"{where} {name}: sd_emp/sd_theory = {ratio:.3g} "
                                f"outside [{lo}, {hi}]")
    return problems


def check_output(points: Sequence[GridPoint], text: str) -> Dict[GridPoint, List[str]]:
    """Problems per expected grid point of one result CSV."""
    grouped: Dict[tuple, List[dict]] = {}
    for row in parse_rows(text):
        grouped.setdefault(_row_key(row), []).append(row)
    return {p: point_problems(p, grouped.get(p.key(), [])) for p in points}


def degeneracy(points: Sequence[GridPoint], text: str) -> tuple:
    """(degenerate, attempted) replications over the grid points.

    Every estimator row of a grid point carries the same degenerate
    count, so each point contributes its largest one once.
    """
    degenerate: Dict[tuple, int] = {}
    for row in parse_rows(text):
        key = _row_key(row)
        degenerate[key] = max(degenerate.get(key, 0), row["degenerate"])
    return (sum(degenerate.get(p.key(), 0) for p in points),
            sum(p.replications for p in points))
