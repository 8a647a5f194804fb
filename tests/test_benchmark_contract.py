"""The package still defines every function the benchmark traces.

`perfbench` wraps `spinchain.<module>.<function>` for each per-layer metric
named `<module>.<function>.<stat>` in BENCHMARK.json, and reports a name it
cannot find as absent instead of measuring it. This module only reads
BENCHMARK.json and `perfbench/`, so a change that drops or renames a traced
function, or stops passing what a counter reads, fails here rather than in
a benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinchain
from spinchain import evolve

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULES = ("cli", "dynamics", "measures", "model", "plotting")
TRACED = sorted({tuple(parts[:2]) for parts in (m["name"].split(".") for m in SPEC["per_layer"])
                 if len(parts) == 3 and parts[0] in MODULES})


@pytest.mark.parametrize("module,function", TRACED)
def test_traced_function_is_defined(module, function):
    assert callable(getattr(importlib.import_module(f"spinchain.{module}"), function, None))


def test_evolve_keeps_cfg_parameter():
    # the step count behind dynamics.evolve.us_per_step is read from `cfg`
    assert "cfg" in inspect.signature(evolve).parameters


# names the benchmark runner adds itself, outside the traced operation
RUNNER_METRICS = ("trace.overhead_s", "dynamics.max_err_vs_analytic")

TRACE_CONF = "J = 2.0\nb = 2.0\ntheta = 0.7\nt_max = 0.5\ndt = 0.01\nrecord_every = 1\n"


def _traced_metrics(tmp_path, argv):
    """Per-layer metrics of one CLI call run by perfbench/child.py --trace."""
    (tmp_path / "run.conf").write_text(TRACE_CONF)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(spinchain.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "result.json",
         "--trace", "spans.json", "--", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "result.json").read_text())["exit_code"] == 0
    # load perfbench/spans.py by path; the wrappers were installed only in the child
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    trace = json.loads((tmp_path / "spans.json").read_text())
    assert trace["absent"] == []
    return spans.layer_metrics(trace)


@pytest.mark.parametrize("argv", [
    ["evolve", "--config", "run.conf", "--out", "run.csv", "--plot"],
    ["sweep", "--config", "run.conf", "--param", "b", "--from", "0.5", "--to", "2.5",
     "--count", "3", "--out", "sweep.csv"],
    ["evolve", "--config", "run.conf", "--out", "mix.csv", "--mode", "sector-mixture",
     "--compare-j0-zero"],
])
def test_traced_run_reports_every_per_layer_metric(tmp_path, argv):
    metrics = _traced_metrics(tmp_path, argv)
    wanted = [m["name"] for m in SPEC["per_layer"]
              if not m["name"].startswith("import.") and m["name"] not in RUNNER_METRICS]
    missing = [name for name in wanted if name not in metrics]
    assert missing == []
    assert all(math.isfinite(metrics[name]) for name in wanted)
    # one `evolve` call per point x reference x sector, counted from the `cfg` it was given
    points = int(argv[argv.index("--count") + 1]) if "--count" in argv else 1
    runs = points * (2 if "--compare-j0-zero" in argv else 1) * (3 if "sector-mixture" in argv else 1)
    assert metrics["dynamics.evolve.calls"] == runs
    assert metrics["dynamics.evolve.steps"] == 50 * runs
    assert metrics["dynamics.evolve.samples"] == 51 * runs
    assert metrics["cli.write_csv.bytes"] > 0
    if "--plot" in argv:
        assert metrics["plotting.svg_bytes"] > 0
