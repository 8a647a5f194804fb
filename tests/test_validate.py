"""The `validate` checks fail on the values they guard, at their bounds."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinchain
from spinchain import initial_state, lqfi, lqfi_paper_variant
from spinchain.cli import main
from spinchain.validate import (
    _random_valid_params,
    conservation,
    lqfi_anchors,
    lqfi_variant_probe,
    random_x_states,
    steady_state,
)


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


def _one_x_state(rng):
    """One X state by the per-state formula the stacked draws replaced."""
    exps = [rng.expovariate(1.0) for _ in range(4)]
    total = sum(exps)
    pops = [e / total for e in exps]
    m14 = rng.uniform(0, 1) * math.sqrt(pops[0] * pops[3])
    m23 = rng.uniform(0, 1) * math.sqrt(pops[1] * pops[2])
    ph14 = rng.uniform(0, 2 * math.pi)
    ph23 = rng.uniform(0, 2 * math.pi)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = pops
    rho[0, 3] = m14 * np.exp(1j * ph14)
    rho[3, 0] = np.conj(rho[0, 3])
    rho[1, 2] = m23 * np.exp(1j * ph23)
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


@pytest.mark.parametrize("n", [0, 1, 300])
def test_random_x_states_are_the_per_state_draws(n):
    stacked_rng, single_rng = random.Random(20240817), random.Random(20240817)
    stack = random_x_states(stacked_rng, n)
    assert stack.shape == (n, 4, 4)
    singles = np.array([_one_x_state(single_rng) for _ in range(n)]).reshape(n, 4, 4)
    assert np.array_equal(stack, singles)
    # the same draws in the same order: the next draw of both generators is the same
    assert stacked_rng.getstate() == single_rng.getstate()


@pytest.mark.parametrize("bad", [0, 19])
def test_steady_state_fails_on_one_wrong_stationary_state(monkeypatch, bad):
    points = [_random_valid_params(random.Random(seed)) for seed in range(20)]
    assert steady_state(points).status == "PASS"
    exact = spinchain.validate.steady_state_limit

    def perturbed(p):
        rho = exact(p)
        if p is points[bad]:
            rho[0, 3] += 1e-6
            rho[3, 0] += 1e-6
        return rho

    monkeypatch.setattr(spinchain.validate, "steady_state_limit", perturbed)
    check = steady_state(points)
    assert check.status == "FAIL"
    assert check.values["max_rhs"] > 1e-8


def test_steady_state_of_no_points_passes_with_n_zero():
    check = steady_state([])
    assert check.status == "PASS"
    assert check.values == {"n": 0, "max_rhs": 0.0, "trace_identity_dev": 0.0}


def test_stacked_anchor_and_probe_calls_give_the_single_state_bits():
    # three states of distinct LQFI, so a value read from the wrong state shows
    a, b, c = random_x_states(random.Random(7), 3)
    assert len({lqfi(a), lqfi(b), lqfi(c)}) == 3
    assert lqfi_anchors(a, b, c).values == {"mixed": lqfi(a), "product": lqfi(b), "bell": lqfi(c)}
    assert lqfi_variant_probe(a, b).values == {
        "product": lqfi(b), "variant_product": lqfi_paper_variant(b),
        "mixed": lqfi(a), "variant_mixed": lqfi_paper_variant(a)}
    # a Bell state at another angle moves the anchor off 1 and fails the check
    mixed = np.eye(4, dtype=complex) / 4.0
    product = np.zeros((4, 4), dtype=complex)
    product[1, 1] = 1.0
    assert lqfi_anchors(mixed, product, initial_state(math.pi / 4)).status == "PASS"
    assert lqfi_anchors(mixed, product, initial_state(0.5)).status == "FAIL"
