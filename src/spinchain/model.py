"""Spin-1/2 XYZ dimer embedded in an Ising chain segment, with local decay.

Two central spin-1/2 sites ("the dimer") interact through an anisotropic
XYZ exchange and sit in a longitudinal field with a nonuniform component.
They are attached by Ising z-z links of strength J0 to two outer spins
whose z projections are conserved, so the total outer projection
mu in {-1, 0, +1} is a good quantum number and the dimer evolves inside a
fixed mu sector. Each dimer site additionally relaxes toward spin-down at
rate gamma through its own zero-temperature reservoir (amplitude damping).

Conventions (hbar = 1):

* basis order {|00>, |01>, |10>, |11>} with |0> = spin-up;
* spin operators are sigma/2;
* sector field shift Delta = J0*mu + B;
* gap scales Omega = sqrt(J^2 eta^2 + 4 Delta^2) (outer pair |00>,|11>)
  and omega = sqrt(J^2 + 4 b^2) (inner pair |01>,|10>);
* the nonuniform field splits the inner diagonal as -b on |01> and
  +b on |10>. This fixes which dimer site is "first"; the closed-form
  trajectories in `dynamics` hold elementwise only for this assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# lowering operator: |0> (up) -> |1> (down)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

# the per-site lowering operators sigma^- x I and I x sigma^-, shared by every point
LOWER_FIRST = np.kron(SIGMA_MINUS, IDENTITY_2)
LOWER_SECOND = np.kron(IDENTITY_2, SIGMA_MINUS)
LOWER_FIRST.setflags(write=False)
LOWER_SECOND.setflags(write=False)

_ALLOWED_MU = (-1, 0, 1)


@dataclass(frozen=True)
class ModelParams:
    """Couplings, fields, damping rate, sector label, initial-state angle.

    Defaults are the reference scenario used throughout the demos and the
    validation suite.
    """

    J: float = 2.0
    Jz: float = 0.0
    eta: float = 0.2
    J0: float = 1.0
    B: float = 0.2
    b: float = 2.0
    gamma: float = 0.2
    mu: int = 1
    theta: float = math.pi / 4

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(float(value)):
                raise ValueError(f"parameter {f.name} must be finite, got {value!r}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.mu not in _ALLOWED_MU:
            raise ValueError(f"mu must be one of {_ALLOWED_MU}, got {self.mu!r}")


class DerivedScales(NamedTuple):
    """Sector shift and the two block gap scales."""

    Delta: float
    Omega: float
    omega: float


def derived_scales(p: ModelParams) -> DerivedScales:
    delta = p.J0 * p.mu + p.B
    big_omega = math.sqrt(p.J**2 * p.eta**2 + 4.0 * delta**2)
    small_omega = math.sqrt(p.J**2 + 4.0 * p.b**2)
    return DerivedScales(delta, big_omega, small_omega)


def hamiltonian_block(p: ModelParams) -> np.ndarray:
    """Dimer Hamiltonian restricted to the Ising sector mu, as a 4x4 matrix.

    The XY anisotropy couples |00> <-> |11> with strength J*eta/2 and
    |01> <-> |10> with strength J/2; all other off-diagonal entries vanish,
    so the matrix has the same sparsity pattern as an X-form state. The
    diagonal carries the Jz/4 exchange shifts, +/-Delta on the outer states,
    -/+b on the inner states, and the sector scalar B*mu/2.
    """
    delta = p.J0 * p.mu + p.B
    shift = p.B * p.mu / 2.0
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = shift + p.Jz / 4.0 + delta
    h[1, 1] = shift - p.Jz / 4.0 - p.b
    h[2, 2] = shift - p.Jz / 4.0 + p.b
    h[3, 3] = shift + p.Jz / 4.0 - delta
    h[0, 3] = h[3, 0] = p.J * p.eta / 2.0
    h[1, 2] = h[2, 1] = p.J / 2.0
    return h


def jump_operators(p: ModelParams) -> list[tuple[np.ndarray, float]]:
    """Per-site lowering operators with their damping rates.

    Both dimer sites decay independently at the same rate gamma:
    sigma^- x I on the first site, I x sigma^- on the second. The
    operators are the read-only module constants LOWER_FIRST and
    LOWER_SECOND, the same arrays for every point.
    """
    return [(LOWER_FIRST, p.gamma), (LOWER_SECOND, p.gamma)]


def initial_state(theta: float) -> np.ndarray:
    """Density matrix of the pure state sin(theta)|01> + cos(theta)|10>.

    theta = pi/4 gives the maximally entangled Bell combination;
    theta = 0 gives the product state |10>.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    amp = np.zeros(4, dtype=complex)
    amp[1] = math.sin(theta)
    amp[2] = math.cos(theta)
    return np.outer(amp, amp.conj())
