"""Entanglement, coherence, and metrological measures for two-qubit states.

Concurrence comes in two routes that the tests pin against each other: the
generic spin-flip construction valid for any two-qubit state, and the
closed-form X-state expression whose two max-arguments ("branches") are
physically distinct coherence channels. Coherence is the l1 sum of
off-diagonal magnitudes, optionally after a local product-basis rotation.

The local quantum Fisher information (LQFI) quantifies the worst-case
usefulness of the state for phase estimation generated on one qubit:
Q = min over unit vectors r of F(rho, sigma_r x I). The minimum is reached
in closed form as 1 - lambda_max(M) for a 3x3 matrix M built from the
eigendecomposition of rho, PROVIDED the double sum defining M runs over all
index pairs (the diagonal i = j contributes p_i <i|A|i><i|B|i>). Dropping
the diagonal, as sometimes written, breaks the identity on low-rank states
(a pure product state then scores a spurious Q = 1); that variant is kept
as `lqfi_paper_variant` for comparison.

LQFI has two routes, as concurrence does. On X states (Kim, Li, Kumar &
Wu, PRA 97, 032326, 2018, specialized) M is block diagonal and follows in
closed form from the eigenpairs of the two 2x2 blocks, outer {|00>, |11>}
and inner {|01>, |10>}: `lqfi` and `lqfi_paper_variant` take this route
and raise NotXForm for any other state, as `concurrence_x` does.
`lqfi_bruteforce` is the generic route for any state and checks the
closed form without forming M: qfi(rho, r.sigma x I) is a quadratic form
in r, so its 3x3 matrix follows exactly from the generic QFI of six
generators by polarization, and the minimum over unit r is its smallest
eigenvalue. Every LQFI here probes the first tensor factor, the site that
sees -b: the field terms of `model.hamiltonian_block` are
(Delta - b)/2 sigma_z x I + (Delta + b)/2 I x sigma_z, Delta = J0 mu + B.
The second site's LQFI is that of SWAP rho SWAP, a different number when
b != 0.

The fast routes (`concurrence_x`, `l1_coherence`, `lqfi`,
`lqfi_paper_variant`, `evaluate_measures`) take one 4x4 state or a
(T, 4, 4) stack and return floats for one state and length-T arrays for a
stack, so a whole trajectory is measured in one call. Their guards check
every element and raise for the first one that fails, in one order:
NotHermitian, then NotXForm, then NotPositive. No eigh runs in them:
`evaluate_measures` runs the guards once, reads each state's X components
once and solves its two blocks once; the components give both concurrence
branches, and the block spectra give `lqfi` and the `min_eig` it reports.
The generic routes (`concurrence_generic`, `qfi`, `lqfi_bruteforce`) take
the same two shapes and run one eigh per state: `lqfi_bruteforce` reuses
it for all six polarization generators. Every route reads its input
through `dynamics.as_states`, which raises a ValueError naming the shape of
an input that is neither 4x4 nor a stack of 4x4 states, or naming NaN or
Inf entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import (
    EIG_CLAMP,
    HERMITIAN_TOL,
    X_FORM_TOL,
    XComponents,
    as_states,
    hermiticity_defect,
    magnitude,
    per_state,
    x_components,
    x_leakage,
)
from .model import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z

# eigenvalue pairs with p_i + p_j at or below this are dropped from the sums
PAIR_EPS = 1e-12

# sigma_l x I for l = x, y, z
_LOCAL_OBS = np.stack([np.kron(s, IDENTITY_2) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
# the direction pairs (l, k) whose sums sigma_l + sigma_k polarization needs
_POLARIZATION_PAIRS = ((0, 1), (0, 2), (1, 2))
# the six generators of `lqfi_bruteforce`: x, y, z, then x+y, x+z, y+z
_PROBE_GENERATORS = np.concatenate(
    [_LOCAL_OBS, [_LOCAL_OBS[l] + _LOCAL_OBS[k] for l, k in _POLARIZATION_PAIRS]])
# sigma_y x sigma_y, the spin flip of the generic concurrence
_SIGMA_YY = np.kron(SIGMA_Y, SIGMA_Y)


class NotHermitian(ValueError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPositive(ValueError):
    """Density matrix has an eigenvalue below -EIG_CLAMP.

    `min_eig` is the smallest eigenvalue of the first offending state and
    `index` its position in the stack (0 for a single state).
    """

    def __init__(self, min_eig: float, index: int = 0):
        super().__init__(f"density eigenvalue {min_eig:.3e} below -{EIG_CLAMP:.0e}")
        self.min_eig = min_eig
        self.index = index


class NotXForm(ValueError):
    """State has entries outside the X sparsity pattern beyond tolerance."""


def _first_above(values, tol):
    """(index, value) of the first element of a scalar or stack above tol, or None."""
    flat = np.ravel(values)
    hits = np.flatnonzero(flat > tol)
    return (int(hits[0]), float(flat[hits[0]])) if hits.size else None


def _adjoint(a):
    return a.conj().swapaxes(-1, -2)


def concurrence_generic(rho) -> float | np.ndarray:
    """Concurrence of arbitrary two-qubit density matrices, one or a stack.

    Spin-flip construction: with l1..l4 the decreasing square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy), C = max(l1-l2-l3-l4, 0).
    The l_i are computed as the singular values of sqrt(rho) (sy x sy)
    conj(sqrt(rho)), which is algebraically the same but does not amplify
    eps-sized spurious eigenvalues to sqrt(eps) on rank-deficient states.
    """
    r = as_states(rho)
    w, v = np.linalg.eigh((r + _adjoint(r)) / 2.0)
    w[w < 0.0] = 0.0  # clamp roundoff negatives before the root
    sq = (v * np.sqrt(w)[..., None, :]) @ _adjoint(v)
    lam = np.linalg.svd(sq @ _SIGMA_YY @ sq.conj(), compute_uv=False)
    return per_state(np.maximum(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0))


def concurrence_x(rho) -> float | np.ndarray:
    """Closed-form concurrence of X-form states, one or a stack.

    Raises NotXForm when any off-pattern entry of a state exceeds the X
    budget. `evaluate_measures` also reports the two branches.
    """
    return per_state(_x_concurrence(x_components(_x_form_states(rho)))[0])


def _x_concurrence(c: XComponents):
    """(concurrence, c1_branch, c2_branch) from the X components of guarded states."""
    c1 = magnitude(c.rho23) - np.sqrt(np.maximum(c.rho11, 0.0) * np.maximum(c.rho44, 0.0))
    c2 = magnitude(c.rho14) - np.sqrt(np.maximum(c.rho22, 0.0) * np.maximum(c.rho33, 0.0))
    return 2.0 * np.maximum(np.maximum(c1, c2), 0.0), c1, c2


@dataclass(frozen=True)
class BasisRotation:
    """Local single-qubit rotation applied to both qubits.

    U = [[cos(phi), -exp(i varphi) sin(phi)],
         [exp(-i varphi) sin(phi), cos(phi)]]
    """

    phi: float
    varphi: float

    def __post_init__(self):
        for name in ("phi", "varphi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def _two_qubit_rotation(rot: BasisRotation) -> np.ndarray:
    """U x U, with U the single-qubit unitary of `rot`."""
    c, s = math.cos(rot.phi), math.sin(rot.phi)
    phase = np.exp(1j * rot.varphi)
    u = np.array([[c, -phase * s], [np.conj(phase) * s, c]], dtype=complex)
    return np.kron(u, u)


def l1_coherence(rho, rotation: BasisRotation | None = None) -> float | np.ndarray:
    """Sum of off-diagonal entry magnitudes, optionally in a rotated basis.

    For an X state in the unrotated basis this is 2|rho23| + 2|rho14|.
    """
    r = as_states(rho)
    if rotation is not None:
        u = _two_qubit_rotation(rotation)
        r = u @ r @ u.conj().T
    a = np.abs(r)
    n = a.shape[-1]
    a[..., range(n), range(n)] = 0.0
    return per_state(a.sum(axis=(-2, -1)))


def _hermitian_states(rho) -> np.ndarray:
    """rho as 4x4 states, after the Hermiticity guard on every state.

    The guard reads any finite square matrices or stack of them, so a
    non-Hermitian input is named as such before `as_states` checks its size.
    Non-finite input skips it, for `as_states` to reject.
    """
    r = np.asarray(rho, dtype=complex)
    if r.ndim in (2, 3) and r.shape[-1] == r.shape[-2] and np.isfinite(r).all():
        bad = _first_above(hermiticity_defect(r), HERMITIAN_TOL)
        if bad:
            raise NotHermitian(f"state hermiticity defect {bad[1]:.3e} exceeds {HERMITIAN_TOL:.0e}")
    return as_states(r)


def _x_form_states(rho):
    """rho as 4x4 states, after the X-pattern guard on every state.

    ValueError names a wrong shape; NotXForm names the first offender.
    """
    rho = as_states(rho)
    bad = _first_above(x_leakage(rho), X_FORM_TOL)
    if bad:
        raise NotXForm(f"off-pattern magnitude {bad[1]:.3e} exceeds {X_FORM_TOL:.3e}")
    return rho


def _check_positive(min_eig) -> None:
    bad = _first_above(-min_eig, EIG_CLAMP)
    if bad:
        raise NotPositive(-bad[1], bad[0])


class _XBlock(NamedTuple):
    """Spectrum of one 2x2 block [[a, c], [c*, d]] of an X state (arrays for a stack).

    `low` <= `high` are its eigenvalues. In its eigenbasis sigma_z has
    diagonal elements +-`cos` and off-diagonal magnitude `sin`: (cos, sin)
    is ((a - d) / 2, |c|) over the eigenvalue half-gap, and (1, 0) for a
    block proportional to the identity, whose eigenbasis is arbitrary.
    """

    low: float
    high: float
    cos: float
    sin: float


def _block_spectrum(a, d, c) -> _XBlock:
    mean, half, mag = 0.5 * (a + d), 0.5 * (a - d), magnitude(c)
    gap = np.hypot(half, mag)
    split = gap > 0.0
    safe = np.where(split, gap, 1.0)
    return _XBlock(mean - gap, mean + gap, np.where(split, half / safe, 1.0), mag / safe)


def _x_blocks(c: XComponents) -> tuple[_XBlock, _XBlock]:
    """The outer {|00>, |11>} and inner {|01>, |10>} block spectra of X states.

    `c` holds the components of states that passed the Hermiticity and
    X-pattern guards; NotPositive names the first state whose smaller block
    eigenvalue lies below -EIG_CLAMP.
    """
    outer = _block_spectrum(c.rho11, c.rho44, c.rho14)
    inner = _block_spectrum(c.rho22, c.rho33, c.rho23)
    _check_positive(np.minimum(outer.low, inner.low))
    return outer, inner


def qfi(rho, h) -> float | np.ndarray:
    """Quantum Fisher information of `rho`, one state or a stack, for generator `h`.

    F = (1/2) sum over i != j of (p_i - p_j)^2 / (p_i + p_j) |<i|h|j>|^2,
    pairs with p_i + p_j <= PAIR_EPS dropped. Normalized so that a pure
    state gives the variance of h; for h = sigma_r x I the value is at
    most 1. Raises NotHermitian for `h`, then the guards of `_guarded_eigh`.
    """
    hs = _hermitian_generators(np.asarray(h, dtype=complex)[None])
    return per_state(_qfi_from_eigh(*_guarded_eigh(rho), hs)[..., 0])


def _hermitian_generators(hs) -> np.ndarray:
    """The stack of generators `hs`, after the Hermiticity guard on each."""
    bad = _first_above(hermiticity_defect(hs), HERMITIAN_TOL)
    if bad:
        raise NotHermitian(f"generator hermiticity defect {bad[1]:.3e} exceeds {HERMITIAN_TOL:.0e}")
    return hs


def _guarded_eigh(rho):
    """Eigenpairs (p, v) of each state, after the shape, Hermiticity and positivity guards.

    Eigenvalues in [-EIG_CLAMP, 0) pass the guard; the QFI counts them as 0.
    """
    p, v = np.linalg.eigh(_hermitian_states(rho))
    _check_positive(p[..., 0])
    return p, v


def _qfi_from_eigh(p, v, hs) -> np.ndarray:
    """QFI of states with eigenpairs (p, v) for each generator of the stack `hs`, as [..., G]."""
    p = np.where(p < 0.0, 0.0, p)
    # (p_i - p_j)^2 / (p_i + p_j) weights on the off-diagonal pairs
    psum = p[..., :, None] + p[..., None, :]
    pdif = p[..., :, None] - p[..., None, :]
    mask = psum > PAIR_EPS
    mask[..., range(4), range(4)] = False
    w = np.divide(pdif**2, psum, out=np.zeros_like(psum), where=mask)
    v = v[..., None, :, :]
    h_eig = _adjoint(v) @ hs @ v
    return 0.5 * np.sum(w[..., None, :, :] * np.abs(h_eig) ** 2, axis=(-2, -1))


def _pair_weights(p) -> np.ndarray:
    """w_ij = 2 p_i p_j / (p_i + p_j) for eigenvalues p[..., n], as w[..., n, n].

    Negative eigenvalues count as 0, and pairs with p_i + p_j <= PAIR_EPS
    get weight 0; the i = j terms are p_i.
    """
    p = np.where(p < 0.0, 0.0, p)
    psum = p[..., :, None] + p[..., None, :]
    return np.divide(2.0 * (p[..., :, None] * p[..., None, :]), psum,
                     out=np.zeros_like(psum), where=psum > PAIR_EPS)


# sign of each outer-inner eigenvalue pair, - for a block's `low` and + for its `high`
_PAIR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _lqfi_from_blocks(outer: _XBlock, inner: _XBlock, include_diagonal: bool = True):
    """1 - lambda_max(M) of X states from their two block spectra.

    sigma_z x I keeps each block, and sigma_x x I, sigma_y x I map the outer
    block onto the inner one as sigma_x and sigma_y, so M is block diagonal.
    M_zz sums over the pairs inside each block. M_xx, M_yy and M_xy sum over
    the outer-inner pairs; with W the sum of their weights and V the sum
    signed by `_PAIR_SIGNS`, the larger eigenvalue of that (x, y) block is
    W - V cos_o cos_i + |V| sin_o sin_i. The i = j terms touch only M_zz,
    through the diagonal weights; `include_diagonal=False` drops them.
    """
    w = _pair_weights(np.stack([outer.low, outer.high, inner.low, inner.high], axis=-1))
    if not include_diagonal:
        w[..., range(4), range(4)] = 0.0
    m_zz = ((w[..., 0, 0] + w[..., 1, 1]) * outer.cos**2 + 2.0 * w[..., 0, 1] * outer.sin**2
            + (w[..., 2, 2] + w[..., 3, 3]) * inner.cos**2 + 2.0 * w[..., 2, 3] * inner.sin**2)
    cross = w[..., :2, 2:]
    w_sum = cross.sum(axis=(-2, -1))
    v_sum = (cross * _PAIR_SIGNS).sum(axis=(-2, -1))
    m_xy = w_sum - v_sum * outer.cos * inner.cos + np.abs(v_sum) * outer.sin * inner.sin
    return 1.0 - np.maximum(m_zz, m_xy)


def _guarded_blocks(rho) -> tuple[_XBlock, _XBlock]:
    """The block spectra of `rho`, after the Hermiticity, X-pattern and positivity guards."""
    return _x_blocks(x_components(_x_form_states(_hermitian_states(rho))))


def lqfi(rho) -> float | np.ndarray:
    """Local quantum Fisher information of X states, Q = 1 - lambda_max(M).

    Full double sum (diagonal included), which makes Q equal the minimum of
    qfi(rho, sigma_r x I) over unit directions r. Q = 0 for product states
    and the maximally mixed state, Q = 1 for Bell states.

    The generator sigma_r x I acts on the first tensor factor, the site
    whose local field is Delta - b (the other sees Delta + b). The second
    site's LQFI is lqfi(SWAP rho SWAP); with b != 0 the two differ.

    Q comes in closed form from the two 2x2 block spectra, elementwise over
    the stack. Raises NotHermitian, then NotXForm for a state outside the
    X pattern (`lqfi_bruteforce` takes any state), then NotPositive.
    """
    return per_state(_lqfi_from_blocks(*_guarded_blocks(rho)))


def lqfi_paper_variant(rho) -> float | np.ndarray:
    """LQFI of X states with the i = j terms dropped from the double sum.

    Kept for comparison: on rank-deficient states this overestimates Q
    (a pure product state scores 1 instead of 0). Basis-dependent on
    degenerate spectra: it takes the eigenbasis of each 2x2 block, and the
    computational basis of a block proportional to the identity. Raises
    NotHermitian, NotXForm and NotPositive as `lqfi` does.
    """
    return per_state(_lqfi_from_blocks(*_guarded_blocks(rho), include_diagonal=False))


def lqfi_bruteforce(rho) -> float | np.ndarray:
    """Minimum of qfi(rho, sigma_r x I) over unit directions r, by polarization.

    Independent cross-check for `lqfi`, on one state or a stack:
    qfi(rho, r.sigma x I) = r^T F r, and the 3x3 matrix F follows exactly
    from the generic QFI on the generators for x, y, z, x+y, x+z and y+z,
    since F_lk = (qfi(l + k) - qfi(l) - qfi(k)) / 2. The result is
    lambda_min(F). Each state is decomposed once, by the guarded eigh of
    `qfi`, for all six generators. M is never formed.

    It agrees with `lqfi` within 1e-10 on positive states, and within
    1e-10 + |min_eig| on a state with an eigenvalue in [-EIG_CLAMP, 0):
    the block route counts that eigenvalue as 0, which drops that much
    trace, and 1 - lambda_max(M) assumes unit trace.
    """
    hs = _hermitian_generators(_PROBE_GENERATORS)
    g = _qfi_from_eigh(*_guarded_eigh(rho), hs)
    f = np.zeros(g.shape[:-1] + (3, 3))
    f[..., range(3), range(3)] = g[..., :3]
    for n, (l, k) in enumerate(_POLARIZATION_PAIRS, start=3):
        f[..., l, k] = f[..., k, l] = 0.5 * (g[..., n] - g[..., l] - g[..., k])
    return per_state(np.linalg.eigvalsh(f)[..., 0])


@dataclass(frozen=True)
class MeasureSet:
    """All scalar measures of one state (floats) or of a stack (arrays).

    concurrence = 2 * max(c1_branch, c2_branch, 0), with the branches
    c1_branch = |rho23| - sqrt(rho11 rho44) (inner coherence channel) and
    c2_branch = |rho14| - sqrt(rho22 rho33) (outer coherence channel);
    they may be negative. `min_eig` is the smallest eigenvalue of the
    state, from the same block spectra as `lqfi`; `dynamics.min_eigenvalue`
    is its generic cross-check.
    """

    concurrence: float
    c1_branch: float
    c2_branch: float
    l1_coherence: float
    lqfi: float
    min_eig: float


def evaluate_measures(rho) -> MeasureSet:
    """Bundle the X-state measures of one state or of a (T, 4, 4) stack.

    The guards run once, in the order of `lqfi`: NotHermitian, NotXForm,
    NotPositive. Each state's X components are read once and its two 2x2
    blocks solved once, in closed form: the components give the concurrence
    and its branches, and the block spectra give `lqfi` and `min_eig`, the
    smaller of the two lower block eigenvalues. No eigh runs.
    """
    r = _x_form_states(_hermitian_states(rho))
    c = x_components(r)
    outer, inner = _x_blocks(c)
    conc, c1, c2 = _x_concurrence(c)
    return MeasureSet(
        concurrence=per_state(conc),
        c1_branch=per_state(c1),
        c2_branch=per_state(c2),
        l1_coherence=l1_coherence(r),
        lqfi=per_state(_lqfi_from_blocks(outer, inner)),
        min_eig=per_state(np.minimum(outer.low, inner.low)),
    )
