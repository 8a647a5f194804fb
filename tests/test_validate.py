"""The `validate` checks fail on the values they guard, at their bounds."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinchain
from spinchain.cli import main
from spinchain.validate import conservation


def _run():
    """A valid X series: I/4 with coherence 0.1 in both blocks, at five times."""
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 3] = rho[3, 0] = rho[1, 2] = rho[2, 1] = 0.1
    return np.linspace(0.0, 1.0, 5), np.array([rho] * 5)


@pytest.mark.parametrize("low,status", [(-2e-9, "FAIL"), (-5e-10, "PASS")])
def test_conservation_reads_every_sample_eigenvalue(low, status):
    # the true minimum, also when it is positive: block eigenvalues 1/4 +- 0.1
    assert conservation([_run()]).values["min_eig"] == pytest.approx(0.15, abs=1e-15)
    times, states = _run()
    # one sample of the second run: outer block [[1/4, c], [c, 1/4]], eigenvalues 1/4 +- c
    states[2, 0, 3] = states[2, 3, 0] = 0.25 - low
    check = conservation([_run(), (times, states)])
    assert check.status == status
    assert check.values["min_eig"] == pytest.approx(low, abs=1e-15)


@pytest.mark.parametrize("leak,status", [(2e-9, "FAIL"), (5e-10, "PASS")])
def test_conservation_reads_off_pattern_entries(leak, status):
    times, states = _run()
    states[3, 0, 1] = states[3, 1, 0] = leak
    check = conservation([_run(), (times, states)])
    assert check.status == status
    assert check.values["x_leakage"] == leak


@pytest.mark.parametrize("dt,detail", [
    ("0.5", "FAIL  analytic-vs-numeric           max|err| = "),
    ("0.7", "FAIL  analytic-vs-numeric           integration unstable: RK4 amplification"),
])
def test_validate_exits_1_on_a_failing_check(dt, detail, capsys):
    assert main(["validate", "--quick", "--dt", dt]) == 1
    out = capsys.readouterr().out
    assert detail in out
    assert out.endswith("validate: FAIL (1 failing checks)\n")


# prints validate's lines, then whether numpy.random was ever imported
_QUICK_IN_FRESH_PROCESS = """
import sys
from spinchain.cli import main
status = main(["validate", "--quick"])
print("numpy.random imported:", "numpy.random" in sys.modules)
print("spinchain.csvtext imported:", "spinchain.csvtext" in sys.modules)
sys.exit(status)
"""


def test_validate_quick_draws_without_numpy_random(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(spinchain.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)
    outputs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", _QUICK_IN_FRESH_PROCESS],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(proc.stdout.splitlines())
    # a command that writes no CSV does not load the CSV text kernel either
    assert outputs[0][-3:] == ["validate: OK (0 failing checks)", "numpy.random imported: False",
                               "spinchain.csvtext imported: False"]
    # the draws are seeded: a second process prints the same lines
    assert outputs[0] == outputs[1]
