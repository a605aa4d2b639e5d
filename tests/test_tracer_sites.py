"""Every package name the benchmark tracer wraps must stay bound.

benchmarks/tracing.py wraps layer functions by attribute name at each
module that calls them, so renaming or no longer importing one breaks
traced benchmark runs.  This reads the tracer's LAYERS table without
installing any wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _sites():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(layer, site) for layer, sites in tracing.LAYERS.items() for site in sites]


@pytest.mark.parametrize("layer,site", _sites())
def test_traced_name_is_bound(layer, site):
    attr = layer.rsplit(".", 1)[1]
    assert hasattr(importlib.import_module(site), attr), f"{site}.{attr} is gone"
