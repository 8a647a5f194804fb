"""The package still defines every function the benchmark traces.

`perfbench` wraps `spinchain.<module>.<function>` for each per-layer metric
named `<module>.<function>.<stat>` in BENCHMARK.json, and reports a name it
cannot find as absent instead of measuring it. This module only reads
BENCHMARK.json, so a change that drops or renames a traced function fails
here rather than in a benchmark run.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from spinchain import evolve

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
MODULES = ("cli", "dynamics", "measures", "model", "plotting")
TRACED = sorted({tuple(parts[:2]) for parts in (m["name"].split(".") for m in SPEC["per_layer"])
                 if len(parts) == 3 and parts[0] in MODULES})


@pytest.mark.parametrize("module,function", TRACED)
def test_traced_function_is_defined(module, function):
    assert callable(getattr(importlib.import_module(f"spinchain.{module}"), function, None))


def test_evolve_keeps_cfg_parameter():
    # the step count behind dynamics.evolve.us_per_step is read from `cfg`
    assert "cfg" in inspect.signature(evolve).parameters
