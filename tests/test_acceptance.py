"""End-to-end acceptance checks.

Each test prints exactly one line naming the check and its outcome, so
``pytest tests/test_acceptance.py -s`` reads as a short report. Tolerances
are part of the package contract; do not relax them to make a failing
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
    concurrence_generic,
    concurrence_x,
    derived_scales,
    evaluate_measures,
    evolve,
    hamiltonian_block,
    initial_state,
    jump_operators,
    lindblad_rhs,
    lqfi,
    lqfi_bruteforce,
    lqfi_paper_variant,
    record_from_state,
    steady_state_limit,
    x_leakage,
)
from spinchain.cli import detect_events, run_validate
from spinchain.dynamics import max_abs

THETAS = (0.0, math.pi / 4)
MUS = (1, 0, -1)


def report(num: int, name: str, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def reference_runs():
    """The six default-parameter trajectories, keyed by (theta, mu)."""
    runs = {}
    cfg = IntegratorConfig(dt=1e-3, t_max=20.0, record_every=10)
    for theta in THETAS:
        for mu in MUS:
            p = ModelParams(theta=theta, mu=mu)
            start = time.perf_counter()
            series = list(zip(*evolve(initial_state(theta), p, cfg)))
            runs[(theta, mu)] = (p, series, time.perf_counter() - start)
    return runs


def test_criterion_1_initial_state_anchors():
    start = time.perf_counter()
    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 2, 5):
        for mu in MUS:
            p = ModelParams(theta=float(theta), mu=mu)
            rho = analytic_state(p, 0.0)
            worst = max(worst, max_abs(rho - initial_state(theta)))
            s, c = math.sin(theta), math.cos(theta)
            worst = max(worst, abs(rho[1, 1].real - s * s),
                        abs(rho[2, 2].real - c * c),
                        abs(rho[1, 2] - s * c))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "initial-state anchors", ok,
           f"max|err| = {worst:.3e} (tol 1e-12), {elapsed:.2f} s (budget 1 s)")


def test_criterion_2_analytic_matches_integration(reference_runs):
    worst = 0.0
    slowest = 0.0
    for (theta, mu), (p, series, elapsed) in reference_runs.items():
        err = max(max_abs(rho - analytic_state(p, t)) for t, rho in series)
        worst = max(worst, err)
        slowest = max(slowest, elapsed)
    ok = worst <= 1e-6 and slowest < 10.0
    report(2, "closed form vs integration", ok,
           f"6 runs, max|err| = {worst:.3e} (tol 1e-06), slowest {slowest:.2f} s "
           f"(budget 10 s)")


def test_criterion_3_state_invariants(reference_runs):
    worst_tr, worst_eig, worst_leak = 0.0, 0.0, 0.0
    for (_, series, _) in reference_runs.values():
        for t, rho in series:
            rec = record_from_state(t, rho)
            worst_tr = max(worst_tr, rec.trace_dev)
            worst_eig = min(worst_eig, rec.min_eig)
            worst_leak = max(worst_leak, x_leakage(rho))
    ok = worst_tr <= 1e-9 and worst_eig >= -1e-9 and worst_leak <= 1e-9
    report(3, "trace, positivity, X pattern", ok,
           f"trace_dev = {worst_tr:.3e}, min_eig = {worst_eig:.3e}, "
           f"leakage = {worst_leak:.3e} (tols 1e-09)")


def test_criterion_4_steady_state_fixed_point(rng):
    worst_rhs, worst_ident = 0.0, 0.0
    for _ in range(100):
        p = random_params(rng)
        ss = steady_state_limit(p)
        rhs = lindblad_rhs(ss, hamiltonian_block(p), jump_operators(p))
        worst_rhs = max(worst_rhs, max_abs(rhs))
        d = derived_scales(p)
        ident = (4.0 * p.J**2 * p.eta**2 + 16.0 * d.Delta**2 + 4.0 * p.gamma**2) \
            / (4.0 * (d.Omega**2 + p.gamma**2))
        worst_ident = max(worst_ident, abs(ident - 1.0))
    ok = worst_rhs <= 1e-8 and worst_ident <= 1e-12
    report(4, "stationary limit", ok,
           f"100 draws, max|rhs| = {worst_rhs:.3e} (tol 1e-08), "
           f"trace identity dev = {worst_ident:.3e} (tol 1e-12)")


def test_criterion_5_measure_route_agreement(rng):
    start = time.perf_counter()
    worst_c = 0.0
    for _ in range(1000):
        rho = random_x_state(rng)
        worst_c = max(worst_c, abs(concurrence_x(rho).concurrence
                                   - concurrence_generic(rho)))
    worst_q = 0.0
    for _ in range(200):
        rho = random_x_state(rng)
        worst_q = max(worst_q, abs(lqfi(rho) - lqfi_bruteforce(rho)))
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
    bell = initial_state(math.pi / 4)
    v_mixed = abs(lqfi(mixed))
    v_product = abs(lqfi(product))
    v_bell = abs(lqfi(bell) - 1.0)
    variant_gap = abs(lqfi_paper_variant(product) - 1.0)
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


def _concurrence_series(series):
    ts, cs, c1s, c2s = [], [], [], []
    for t, rho in series:
        ms = evaluate_measures(rho)
        ts.append(t)
        cs.append(ms.concurrence)
        c1s.append(ms.c1_branch)
        c2s.append(ms.c2_branch)
    return ts, cs, c1s, c2s


def test_criterion_7_death_and_revival(reference_runs):
    ts0, cs0, _, _ = _concurrence_series(reference_runs[(0.0, 1)][1])
    events0 = detect_events(ts0, cs0)
    kinds0 = [e.kind for e in events0]

    tsb, csb, c1b, c2b = _concurrence_series(reference_runs[(math.pi / 4, 1)][1])
    eventsb = detect_events(tsb, csb)
    kindsb = [e.kind for e in eventsb]
    alive = [k for k, c in enumerate(csb) if c > 1e-9]
    first, last = alive[0], alive[-1]
    branch_order = c1b[first] >= c2b[first] and c2b[last] > c1b[last]

    ok = ("ESD" in kinds0 and "ESB" in kinds0
          and "ESD" in kindsb and branch_order)
    report(7, "entanglement death and revival", ok,
           f"theta=0: {kinds0.count('ESD')} ESD / {kinds0.count('ESB')} ESB; "
           f"theta=pi/4: {kindsb.count('ESD')} ESD, inner branch leads at "
           f"t = {tsb[first]:g}, outer branch leads at t = {tsb[last]:g}")


def test_criterion_8_inner_channel_ignores_neighborhood(reference_runs):
    p1, series1, _ = reference_runs[(math.pi / 4, 1)]
    p0 = replace(p1, J0=0.0)
    cfg = IntegratorConfig(dt=1e-3, t_max=20.0, record_every=10)
    series0 = list(zip(*evolve(initial_state(p0.theta), p0, cfg)))
    diff23 = max(abs(2 * abs(a[1, 2]) - 2 * abs(b[1, 2]))
                 for (_, a), (_, b) in zip(series1, series0))
    diff14 = max(abs(2 * abs(a[0, 3]) - 2 * abs(b[0, 3]))
                 for (_, a), (_, b) in zip(series1, series0))
    ok = diff23 < 1e-9 and diff14 > 1e-3
    report(8, "coherence channel split across J0", ok,
           f"2|rho23| diff = {diff23:.3e} (tol 1e-09), "
           f"2|rho14| diff = {diff14:.3e} (must exceed 1e-03)")


def test_criterion_9_integrator_convergence_order(reference_runs):
    p, fine_series, _ = reference_runs[(math.pi / 4, 1)]
    fine = max(max_abs(rho - analytic_state(p, t)) for t, rho in fine_series)
    cfg = IntegratorConfig(dt=2e-3, t_max=20.0, record_every=5)
    coarse_series = zip(*evolve(initial_state(p.theta), p, cfg))
    coarse = max(max_abs(rho - analytic_state(p, t)) for t, rho in coarse_series)
    ratio = coarse / fine
    ok = ratio >= 8.0
    report(9, "step halving", ok,
           f"err(2dt) = {coarse:.3e}, err(dt) = {fine:.3e}, "
           f"ratio = {ratio:.1f} (must be >= 8)")
