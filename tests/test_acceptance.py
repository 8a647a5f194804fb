"""End-to-end acceptance checks.

Each test prints exactly one line naming the check and its outcome, so
``pytest tests/test_acceptance.py -s`` reads as a short report. Criteria
1-6 run the check functions of ``spinchain validate`` on inputs of their
own and hold the measured values to the tolerances written here, so a
tolerance loosened inside the package still fails a test. Tolerances are
part of the package contract; do not relax them to make a failing
configuration pass.
"""

import io
import math
import time
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np
import pytest

from helpers import random_params, random_x_state
from spinchain import (
    IntegratorConfig,
    ModelParams,
    analytic_state,
    evaluate_measures,
    evolve,
    initial_state,
)
from spinchain.cli import detect_events, run_validate
from spinchain.dynamics import max_abs
from spinchain.validate import (
    analytic_vs_numeric,
    concurrence_routes,
    conservation,
    initial_condition,
    lqfi_anchors,
    lqfi_routes,
    lqfi_variant_probe,
    steady_state,
)

THETAS = (0.0, math.pi / 4)
MUS = (1, 0, -1)


def report(num: int, name: str, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def reference_runs():
    """The six default-parameter runs, keyed by (theta, mu): (p, (times, states), seconds)."""
    runs = {}
    cfg = IntegratorConfig(dt=1e-3, t_max=20.0, record_every=10)
    for theta in THETAS:
        for mu in MUS:
            p = ModelParams(theta=theta, mu=mu)
            start = time.perf_counter()
            run = evolve(initial_state(theta), p, cfg)
            runs[(theta, mu)] = (p, run, time.perf_counter() - start)
    return runs


def test_criterion_1_initial_state_anchors():
    start = time.perf_counter()
    thetas = np.linspace(0.0, math.pi / 2, 5)
    worst = initial_condition([ModelParams(theta=float(theta), mu=mu)
                               for theta in thetas for mu in MUS]).values["max_err"]
    for theta in thetas:
        rho = initial_state(theta)
        s, c = math.sin(theta), math.cos(theta)
        worst = max(worst, abs(rho[1, 1].real - s * s),
                    abs(rho[2, 2].real - c * c),
                    abs(rho[1, 2] - s * c))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "initial-state anchors", ok,
           f"max|err| = {worst:.3e} (tol 1e-12), {elapsed:.2f} s (budget 1 s)")


def test_criterion_2_analytic_matches_integration(reference_runs):
    points, runs, elapsed = zip(*reference_runs.values())
    worst = analytic_vs_numeric(points, runs, 1e-3).values["max_err"]
    slowest = max(elapsed)
    ok = worst <= 1e-6 and slowest < 10.0
    report(2, "closed form vs integration", ok,
           f"6 runs, max|err| = {worst:.3e} (tol 1e-06), slowest {slowest:.2f} s "
           f"(budget 10 s)")


def test_criterion_3_state_invariants(reference_runs):
    _, runs, _ = zip(*reference_runs.values())
    v = conservation(runs).values
    ok = v["trace_dev"] <= 1e-9 and v["min_eig"] >= -1e-9 and v["x_leakage"] <= 1e-9
    report(3, "trace, positivity, X pattern", ok,
           f"trace_dev = {v['trace_dev']:.3e}, min_eig = {v['min_eig']:.3e}, "
           f"leakage = {v['x_leakage']:.3e} (tols 1e-09)")


def test_criterion_4_steady_state_fixed_point(rng):
    v = steady_state([random_params(rng) for _ in range(100)]).values
    ok = v["max_rhs"] <= 1e-8 and v["trace_identity_dev"] <= 1e-12
    report(4, "stationary limit", ok,
           f"100 draws, max|rhs| = {v['max_rhs']:.3e} (tol 1e-08), "
           f"trace identity dev = {v['trace_identity_dev']:.3e} (tol 1e-12)")


def test_criterion_5_measure_route_agreement(rng):
    start = time.perf_counter()
    worst_c = concurrence_routes([random_x_state(rng) for _ in range(1000)]).values["max_diff"]
    worst_q = lqfi_routes([random_x_state(rng) for _ in range(200)]).values["max_diff"]
    elapsed = time.perf_counter() - start
    ok = worst_c <= 1e-9 and worst_q <= 1e-10 and elapsed < 60.0
    report(5, "measure dual routes", ok,
           f"concurrence diff = {worst_c:.3e} (tol 1e-09, n = 1000), "
           f"lqfi diff = {worst_q:.3e} (tol 1e-10, n = 200), {elapsed:.1f} s "
           f"(budget 60 s)")


def test_criterion_6_lqfi_anchors_and_variant():
    mixed = np.eye(4, dtype=complex) / 4.0
    product = np.zeros((4, 4), dtype=complex)
    product[1, 1] = 1.0
    anchors = lqfi_anchors(mixed, product, initial_state(math.pi / 4)).values
    v_mixed = abs(anchors["mixed"])
    v_product = abs(anchors["product"])
    v_bell = abs(anchors["bell"] - 1.0)
    variant_gap = abs(lqfi_variant_probe(mixed, product).values["variant_product"] - 1.0)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run_validate(quick=True)
    out = buffer.getvalue()
    reported = "lqfi variant probe" in out and "INFO" in out
    ok = (v_mixed <= 1e-10 and v_product <= 1e-9 and v_bell <= 1e-9
          and variant_gap <= 1e-9 and code == 0 and reported)
    report(6, "lqfi anchors and variant", ok,
           f"I/4 = {v_mixed:.1e} (tol 1e-10), product = {v_product:.1e} "
           f"(tol 1e-09), Bell dev = {v_bell:.1e} (tol 1e-09), "
           f"variant reads 1 on product (dev {variant_gap:.1e}), "
           f"validate reports probe: {reported}")


def test_criterion_7_death_and_revival(reference_runs):
    _, (ts0, states0), _ = reference_runs[(0.0, 1)]
    kinds0 = [e.kind for e in detect_events(ts0, evaluate_measures(states0).concurrence)]

    _, (tsb, statesb), _ = reference_runs[(math.pi / 4, 1)]
    msb = evaluate_measures(statesb)
    kindsb = [e.kind for e in detect_events(tsb, msb.concurrence)]
    alive = np.flatnonzero(msb.concurrence > 1e-9)
    first, last = alive[0], alive[-1]
    branch_order = (msb.c1_branch[first] >= msb.c2_branch[first]
                    and msb.c2_branch[last] > msb.c1_branch[last])

    ok = ("ESD" in kinds0 and "ESB" in kinds0
          and "ESD" in kindsb and branch_order)
    report(7, "entanglement death and revival", ok,
           f"theta=0: {kinds0.count('ESD')} ESD / {kinds0.count('ESB')} ESB; "
           f"theta=pi/4: {kindsb.count('ESD')} ESD, inner branch leads at "
           f"t = {tsb[first]:g}, outer branch leads at t = {tsb[last]:g}")


def test_criterion_8_inner_channel_ignores_neighborhood(reference_runs):
    p1, (_, states1), _ = reference_runs[(math.pi / 4, 1)]
    p0 = replace(p1, J0=0.0)
    cfg = IntegratorConfig(dt=1e-3, t_max=20.0, record_every=10)
    _, states0 = evolve(initial_state(p0.theta), p0, cfg)
    diff23 = max_abs(2 * np.abs(states1[:, 1, 2]) - 2 * np.abs(states0[:, 1, 2]))
    diff14 = max_abs(2 * np.abs(states1[:, 0, 3]) - 2 * np.abs(states0[:, 0, 3]))
    ok = diff23 < 1e-9 and diff14 > 1e-3
    report(8, "coherence channel split across J0", ok,
           f"2|rho23| diff = {diff23:.3e} (tol 1e-09), "
           f"2|rho14| diff = {diff14:.3e} (must exceed 1e-03)")


def test_criterion_9_integrator_convergence_order(reference_runs):
    p, (fine_times, fine_states), _ = reference_runs[(math.pi / 4, 1)]
    fine = max_abs(fine_states - analytic_state(p, fine_times))
    cfg = IntegratorConfig(dt=2e-3, t_max=20.0, record_every=5)
    coarse_times, coarse_states = evolve(initial_state(p.theta), p, cfg)
    coarse = max_abs(coarse_states - analytic_state(p, coarse_times))
    ratio = coarse / fine
    ok = ratio >= 8.0
    report(9, "step halving", ok,
           f"err(2dt) = {coarse:.3e}, err(dt) = {fine:.3e}, "
           f"ratio = {ratio:.1f} (must be >= 8)")
