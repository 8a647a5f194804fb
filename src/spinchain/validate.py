"""The cross-checks behind ``spinchain validate``.

Each check is a function of its inputs (parameter points, integrated
(times, states) runs, X states) that returns a `Check` record: its name,
its status, the line of detail `validate` prints, and its measured values
by name. The checks draw nothing themselves. `run_validate` draws their
inputs from a seeded stdlib `random.Random`, so `numpy.random` is never
imported, and prints one line per record; the acceptance tests call the
same functions on inputs of their own and hold the measured values to
their own tolerances.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from .dynamics import (
    IntegratorConfig,
    StepUnstable,
    analytic_state,
    evolve,
    lindblad_rhs,
    max_abs,
    min_eigenvalue,
    record_from_state,
    steady_state_limit,
    x_leakage,
)
from .measures import (
    concurrence_generic,
    concurrence_x,
    lqfi,
    lqfi_bruteforce,
    lqfi_paper_variant,
)
from .model import ModelParams, derived_scales, hamiltonian_block, initial_state, jump_operators


class Check(NamedTuple):
    """Outcome of one check; `status` is PASS, FAIL, SKIP or INFO."""

    name: str
    status: str
    detail: str
    values: dict[str, float]


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def initial_condition(points: Sequence[ModelParams]) -> Check:
    """The closed form at t = 0 against the initial state of each point."""
    residue = max(max_abs(analytic_state(p, 0.0) - initial_state(p.theta)) for p in points)
    return Check("initial-condition residue", _verdict(residue <= 1e-9),
                 f"max|err| = {residue:.3e}  tol = 1e-09", {"max_err": residue})


def analytic_vs_numeric(points: Sequence[ModelParams], runs, dt: float) -> Check:
    """Each run's states against the closed form of its point at the same times."""
    worst = max(max_abs(states - analytic_state(p, times))
                for p, (times, states) in zip(points, runs))
    return Check("analytic-vs-numeric", _verdict(worst <= 1e-6),
                 f"max|err| = {worst:.3e}  tol = 1e-06  (dt = {dt:g})", {"max_err": worst})


def conservation(runs) -> Check:
    """Worst trace deviation, smallest eigenvalue and X leakage over every sample."""
    worst_tr = max(float(np.max(record_from_state(times, states).trace_dev))
                   for times, states in runs)
    worst_eig = min(float(np.min(min_eigenvalue(states))) for _, states in runs)
    worst_leak = max(float(np.max(x_leakage(states))) for _, states in runs)
    ok = worst_tr <= 1e-8 and worst_eig >= -1e-9 and worst_leak <= 1e-9
    return Check("conservation", _verdict(ok),
                 f"trace_dev = {worst_tr:.3e}  min_eig = {worst_eig:.3e}  "
                 f"x_leakage = {worst_leak:.3e}",
                 {"trace_dev": worst_tr, "min_eig": worst_eig, "x_leakage": worst_leak})


def concurrence_routes(states) -> Check:
    """X-state concurrence against the generic spin-flip route, one call each on the stack."""
    stack = np.asarray(states)
    worst = float(np.max(np.abs(concurrence_x(stack) - concurrence_generic(stack))))
    return Check("concurrence x-vs-generic", _verdict(worst <= 1e-9),
                 f"n = {len(states)}  max|diff| = {worst:.3e}  tol = 1e-09",
                 {"n": len(states), "max_diff": worst})


def lqfi_routes(states) -> Check:
    """LQFI by its fast route against the polarization route, one call each on the stack."""
    stack = np.asarray(states)
    worst = float(np.max(np.abs(lqfi(stack) - lqfi_bruteforce(stack))))
    return Check("lqfi-vs-bruteforce", _verdict(worst <= 1e-10),
                 f"n = {len(states)}  max|diff| = {worst:.3e}  tol = 1e-10",
                 {"n": len(states), "max_diff": worst})


def lqfi_anchors(mixed, product, bell) -> Check:
    """LQFI is 0 on I/4 and on a product state, and 1 on a Bell state."""
    q = {"mixed": lqfi(mixed), "product": lqfi(product), "bell": lqfi(bell)}
    ok = abs(q["mixed"]) <= 1e-10 and abs(q["product"]) <= 1e-9 and abs(q["bell"] - 1.0) <= 1e-9
    return Check("lqfi anchors", _verdict(ok),
                 f"I/4: {q['mixed']:.3e}  product: {q['product']:.3e}  Bell: {q['bell']:.10f}", q)


def lqfi_variant_probe(mixed, product) -> Check:
    """The dropped-diagonal variant next to the full sum on I/4 and a pure product state."""
    values = {"product": lqfi(product), "variant_product": lqfi_paper_variant(product),
              "mixed": lqfi(mixed), "variant_mixed": lqfi_paper_variant(mixed)}
    return Check("lqfi variant probe", "INFO",
                 f"pure product |01>: full-sum = {values['product']:.3e}, "
                 f"diagonal-dropped = {values['variant_product']:.6f} "
                 f"(spurious 1 expected); I/4: full-sum = {values['mixed']:.3e}, "
                 f"diagonal-dropped = {values['variant_mixed']:.3e}", values)


def steady_state(points: Sequence[ModelParams]) -> Check:
    """The stationary state of each point is annihilated by its generator.

    Also the trace identity of its populations. Skipped when a point has
    gamma = 0, which has no unique stationary state.
    """
    if any(p.gamma == 0 for p in points):
        return Check("steady-state fixed point", "SKIP",
                     "gamma = 0: no unique stationary state", {})
    worst_rhs, worst_tr = 0.0, 0.0
    for p in points:
        ss = steady_state_limit(p)
        worst_rhs = max(worst_rhs, max_abs(lindblad_rhs(ss, hamiltonian_block(p),
                                                        jump_operators(p))))
        d = derived_scales(p)
        ident = (4 * p.J**2 * p.eta**2 + 16 * d.Delta**2 + 4 * p.gamma**2) \
            / (4 * (d.Omega**2 + p.gamma**2))
        worst_tr = max(worst_tr, abs(ident - 1.0))
    ok = worst_rhs <= 1e-8 and worst_tr <= 1e-12
    return Check("steady-state fixed point", _verdict(ok),
                 f"n = {len(points)}  max|rhs| = {worst_rhs:.3e}  tol = 1e-08  "
                 f"trace identity dev = {worst_tr:.3e}",
                 {"n": len(points), "max_rhs": worst_rhs, "trace_identity_dev": worst_tr})


def _random_valid_params(rng: random.Random, gamma_override=None) -> ModelParams:
    while True:
        gamma = rng.uniform(0.05, 3.0) if gamma_override is None else gamma_override
        p = ModelParams(
            J=rng.uniform(-3, 3), Jz=rng.uniform(-3, 3),
            eta=rng.uniform(-3, 3), J0=rng.uniform(-3, 3),
            B=rng.uniform(-3, 3), b=rng.uniform(-3, 3),
            gamma=gamma, mu=rng.randrange(-1, 2),
            theta=rng.uniform(0, math.pi),
        )
        d = derived_scales(p)
        if d.Omega > 1e-6 and d.omega > 1e-6:
            return p


def random_x_state(rng: random.Random) -> np.ndarray:
    """Random valid X-form density matrix (Dirichlet populations,
    positivity-bounded coherences with random phases).

    The flat Dirichlet populations are four Exp(1) draws over their sum.
    """
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


def _checks(quick: bool, dt: float, gamma: float | None) -> Iterator[Check]:
    """Every check of `validate`, in order, on inputs drawn from a fixed seed."""
    rng = random.Random(20240817)
    base_gamma = 0.2 if gamma is None else gamma
    yield initial_condition([ModelParams(theta=float(theta), gamma=base_gamma)
                             for theta in np.linspace(0.0, math.pi / 2, 9)])

    points = [ModelParams(theta=theta, mu=mu, gamma=base_gamma)
              for theta in (math.pi / 4, 0.0) for mu in ((1,) if quick else (1, 0, -1))]
    cfg = IntegratorConfig(dt=dt, t_max=5.0 if quick else 20.0, record_every=10)
    try:
        times, states = evolve(np.stack([initial_state(p.theta) for p in points]), points, cfg)
    except StepUnstable as exc:
        yield Check("analytic-vs-numeric", "FAIL", f"integration unstable: {exc}", {})
    else:
        runs = [(times, point_states) for point_states in states]
        yield analytic_vs_numeric(points, runs, dt)
        yield conservation(runs)

    yield concurrence_routes([random_x_state(rng) for _ in range(200 if quick else 1000)])
    yield lqfi_routes([random_x_state(rng) for _ in range(10 if quick else 50)])
    mixed = np.eye(4, dtype=complex) / 4.0
    product = np.zeros((4, 4), dtype=complex)
    product[1, 1] = 1.0  # |01><01|
    yield lqfi_anchors(mixed, product, initial_state(math.pi / 4))
    yield lqfi_variant_probe(mixed, product)
    yield steady_state([_random_valid_params(rng, gamma) for _ in range(20 if quick else 100)])


def run_validate(quick: bool = False, dt: float | None = None,
                 gamma: float | None = None) -> int:
    """Run the cross-checks between independent computation routes.

    Prints one line per check; exit status 1 when any check fails.
    ``--quick`` lowers sample counts without touching tolerances.
    """
    failed = 0
    for check in _checks(quick, 1e-3 if dt is None else dt, gamma):
        failed += check.status == "FAIL"
        print(f"{check.status:<4}  {check.name:<28}  {check.detail}")
    print(f"validate: {'FAIL' if failed else 'OK'} ({failed} failing checks)")
    return 1 if failed else 0
