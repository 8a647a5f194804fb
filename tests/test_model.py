import math
from typing import NamedTuple

import numpy as np
import pytest

from helpers import random_params
from spinchain import (
    ModelParams,
    derived_scales,
    hamiltonian_block,
    initial_state,
    jump_operators,
)
from spinchain.dynamics import max_abs
from spinchain.model import IDENTITY_2, SIGMA_MINUS


def test_defaults():
    p = ModelParams()
    assert (p.J, p.Jz, p.eta, p.J0, p.B, p.b, p.gamma, p.mu) == \
        (2.0, 0.0, 0.2, 1.0, 0.2, 2.0, 0.2, 1)
    assert p.theta == pytest.approx(math.pi / 4)


@pytest.mark.parametrize("bad", [
    dict(gamma=-0.1),
    dict(mu=2),
    dict(J=float("nan")),
    dict(b=float("inf")),
])
def test_param_validation(bad):
    with pytest.raises(ValueError):
        ModelParams(**bad)


def test_derived_scales_at_defaults():
    d = derived_scales(ModelParams())
    assert d.Delta == pytest.approx(1.2)          # J0*mu + B
    assert d.Omega**2 == pytest.approx(5.92)      # (J*eta)^2 + 4*Delta^2
    assert d.omega**2 == pytest.approx(20.0)      # J^2 + 4*b^2


def test_hamiltonian_block_entries():
    p = ModelParams(J=2.0, Jz=0.4, eta=0.2, J0=1.0, B=0.2, b=2.0, mu=1)
    h = hamiltonian_block(p)
    shift = p.B * p.mu / 2.0
    delta = p.J0 * p.mu + p.B
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = shift + p.Jz / 4.0 + delta
    expected[1, 1] = shift - p.Jz / 4.0 - p.b
    expected[2, 2] = shift - p.Jz / 4.0 + p.b
    expected[3, 3] = shift + p.Jz / 4.0 - delta
    expected[0, 3] = expected[3, 0] = p.J * p.eta / 2.0
    expected[1, 2] = expected[2, 1] = p.J / 2.0
    assert max_abs(h - expected) == 0.0


def test_hamiltonian_is_hermitian_with_x_sparsity(rng):
    for _ in range(20):
        h = hamiltonian_block(random_params(rng))
        assert max_abs(h - h.conj().T) == 0.0
        for i, j in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            assert h[i, j] == 0.0
            assert h[j, i] == 0.0


class SpectrumClosedForm(NamedTuple):
    """Sector eigenvalues; e1/e4 from the outer pair, e2/e3 from the inner."""

    e1: float
    e2: float
    e3: float
    e4: float


def spectrum_closed_form(p: ModelParams) -> SpectrumClosedForm:
    """Closed-form eigenvalues of `hamiltonian_block`, the reference of the tests below.

    e1,4 = B*mu/2 + Jz/4 +/- Omega/2 and e2,3 = B*mu/2 - Jz/4 +/- omega/2.
    """
    d = derived_scales(p)
    shift = p.B * p.mu / 2.0
    return SpectrumClosedForm(
        e1=shift + p.Jz / 4.0 + d.Omega / 2.0,
        e2=shift - p.Jz / 4.0 + d.omega / 2.0,
        e3=shift - p.Jz / 4.0 - d.omega / 2.0,
        e4=shift + p.Jz / 4.0 - d.Omega / 2.0,
    )


def test_closed_form_spectrum_matches_direct_diagonalization(rng):
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng)
        closed = np.sort(np.array(spectrum_closed_form(p)))
        direct = np.linalg.eigvalsh(hamiltonian_block(p))
        worst = max(worst, float(np.abs(closed - direct).max()))
    assert worst < 1e-10


def test_spectrum_independent_of_jz_up_to_shift():
    # Jz only moves levels pairwise; the gaps inside each coherence sector
    # are what the dynamics sees, so check the split form directly.
    a = spectrum_closed_form(ModelParams(Jz=0.0))
    b = spectrum_closed_form(ModelParams(Jz=1.6))
    assert (a.e1 - a.e4) == pytest.approx(b.e1 - b.e4)
    assert (a.e2 - a.e3) == pytest.approx(b.e2 - b.e3)


def test_jump_operators_structure():
    p = ModelParams(gamma=0.7)
    ops = jump_operators(p)
    assert len(ops) == 2
    first, second = ops
    assert max_abs(first[0] - np.kron(SIGMA_MINUS, IDENTITY_2)) == 0.0
    assert max_abs(second[0] - np.kron(IDENTITY_2, SIGMA_MINUS)) == 0.0
    assert first[1] == second[1] == 0.7
    # shared read-only constants: no call builds them, and no caller can change them
    assert first[0] is jump_operators(ModelParams())[0][0]
    assert second[0] is jump_operators(ModelParams())[1][0]
    for op in (first[0], second[0]):
        with pytest.raises(ValueError, match="read-only"):
            op[1, 0] = 2.0
    assert np.array_equal(first[0], np.kron(SIGMA_MINUS, IDENTITY_2))


def test_sigma_minus_lowers():
    # 0 indexes the up state, so lowering maps index 0 to index 1
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    assert np.array_equal(SIGMA_MINUS @ up, down)
    assert np.array_equal(SIGMA_MINUS @ down, np.zeros(2))


@pytest.mark.parametrize("theta,idx", [(0.0, 2), (math.pi / 2, 1)])
def test_initial_state_limits(theta, idx):
    rho = initial_state(theta)
    expected = np.zeros((4, 4), dtype=complex)
    expected[idx, idx] = 1.0
    assert max_abs(rho - expected) < 1e-15


def test_initial_state_general(rng):
    for _ in range(20):
        theta = float(rng.uniform(0, math.pi))
        rho = initial_state(theta)
        s, c = math.sin(theta), math.cos(theta)
        assert rho[1, 1] == pytest.approx(s * s)
        assert rho[2, 2] == pytest.approx(c * c)
        assert rho[1, 2] == pytest.approx(s * c)
        assert np.trace(rho).real == pytest.approx(1.0)
        # pure state
        assert max_abs(rho @ rho - rho) < 1e-14
    with pytest.raises(ValueError, match="finite"):
        initial_state(math.nan)
