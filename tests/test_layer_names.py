"""Each per-layer metric of BENCHMARK.json names a function the benchmark traces.

perfbench/run.py wraps the public functions, those in `__all__`, of the
modules in its TRACED_MODULES, and its layer_metrics reads a span that
never ran as 0.  So a traced function that is renamed or leaves `__all__`
would turn its per-layer metric into a silent 0.  For every metric named
`<module>.<function>.<stat>` whose module is traced, the function must be
one that the tracer wraps: a function defined in that module and listed
in its `__all__`.
"""

import importlib
import inspect
import json
from pathlib import Path

from test_plan_digests import _load_bench

ROOT = Path(__file__).resolve().parents[1]


def _traced_layer_names() -> list:
    """(module, function) of each per-layer metric whose module run.py traces."""
    traced = _load_bench().TRACED_MODULES
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    return sorted({tuple(name.split(".")[:2]) for name in names
                   if name.count(".") == 2 and name.split(".")[0] in traced})


def test_every_traced_layer_metric_names_a_public_function():
    layers = _traced_layer_names()
    assert ("series", "apply_K_smooth") in layers and ("verify", "kg_residual") in layers
    for module, function in layers:
        mod = importlib.import_module(f"qmetric.{module}")
        obj = getattr(mod, function, None)
        assert function in getattr(mod, "__all__", ()), f"{module}.{function} not in __all__"
        assert inspect.isfunction(obj) and obj.__module__ == mod.__name__, \
            f"{module}.{function} is not a function of qmetric.{module}"
