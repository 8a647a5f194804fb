"""Random state and parameter factories shared across the test modules.

The X-state factory here is deliberately built differently from the one
`spinchain validate` draws its inputs with (rejection sampling against an
explicit eigenvalue test instead of analytic positivity bounds), so tests
that compare two computation routes do not inherit the sampler's
assumptions.
"""

import math

import numpy as np

from spinchain import ModelParams


def random_density(rng, dim=4):
    """Full-rank random density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_x_state(rng):
    """Random density matrix supported on the X pattern only."""
    while True:
        pops = rng.dirichlet(np.ones(4))
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = pops
        rho[0, 3] = (rng.normal() + 1j * rng.normal()) * 0.5 * math.sqrt(pops[0] * pops[3])
        rho[1, 2] = (rng.normal() + 1j * rng.normal()) * 0.5 * math.sqrt(pops[1] * pops[2])
        rho[3, 0] = np.conj(rho[0, 3])
        rho[2, 1] = np.conj(rho[1, 2])
        if np.linalg.eigvalsh(rho).min() >= 0.0:
            return rho


def random_pure_state(rng, dim=4):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_unitary(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_params(rng, span=3.0, **fixed):
    """Random model parameters, uniform in [-span, span] (gamma in [0.05, span])."""
    kwargs = dict(
        J=float(rng.uniform(-span, span)),
        Jz=float(rng.uniform(-span, span)),
        eta=float(rng.uniform(-span, span)),
        J0=float(rng.uniform(-span, span)),
        B=float(rng.uniform(-span, span)),
        b=float(rng.uniform(-span, span)),
        gamma=float(rng.uniform(0.05, span)),
        mu=int(rng.integers(-1, 2)),
        theta=float(rng.uniform(0.0, math.pi)),
    )
    kwargs.update(fixed)
    return ModelParams(**kwargs)
