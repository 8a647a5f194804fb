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
stack, so a whole trajectory is measured in one call. `concurrence_x`,
`lqfi`, `lqfi_paper_variant` and `evaluate_measures` read their input
through one guarded X reader, whose guards check every element and raise
for the first one that fails, in one order: NotHermitian, then NotXForm,
then NotPositive. No eigh runs in them: the reader reads each state's X
components once and solves its two blocks once; the components give both
concurrence branches, and the block spectra give `lqfi` and the `min_eig`
that `evaluate_measures` reports.
`evaluate_measures` also owns `l1_rotated`, the l1 coherence in the basis
of an optional rotation, taken from six fixed combinations of the X
components: within 1e-14 of the generic `l1_coherence(rho, rotation)` on
exactly X-form states Hermitian to rounding, and within
4 (8 X_FORM_TOL + 4 HERMITIAN_TOL) on any state the guards pass.
The generic routes (`concurrence_generic`, `qfi`, `lqfi_bruteforce`) take
the same two shapes and run one guarded eigh per state, whose guards raise
NotHermitian, then NotPositive: `lqfi_bruteforce` reuses it for all six
polarization generators. Every route reads its input
through `dynamics.as_states` once, which raises a ValueError naming the
shape of an input that is neither 4x4 nor a stack of 4x4 states, or naming
NaN or Inf entries; the steps inside a route take the checked array.
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
    _x_components,
    _x_leakage,
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
    Raises the guards of `_guarded_eigh`, NotHermitian then NotPositive.
    """
    w, v = _guarded_eigh(rho)
    w[w < 0.0] = 0.0  # clamp roundoff negatives before the root
    sq = (v * np.sqrt(w)[..., None, :]) @ _adjoint(v)
    lam = np.linalg.svd(sq @ _SIGMA_YY @ sq.conj(), compute_uv=False)
    return per_state(np.maximum(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0))


def concurrence_x(rho) -> float | np.ndarray:
    """Closed-form concurrence of X-form states, one or a stack.

    Raises NotHermitian, then NotXForm when any off-pattern entry of a
    state exceeds the X budget, then NotPositive, as `lqfi` does.
    `evaluate_measures` also reports the two branches.
    """
    return per_state(_x_concurrence(_guarded_x(rho)[1])[0])


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
    return per_state(_l1_coherence(as_states(rho), rotation))


def _l1_coherence(r: np.ndarray, rotation: BasisRotation | None = None) -> np.ndarray:
    """l1_coherence of states that passed `as_states`, as an array."""
    if rotation is not None:
        u = _two_qubit_rotation(rotation)
        r = u @ r @ u.conj().T
    a = np.abs(r)
    n = a.shape[-1]
    a[..., range(n), range(n)] = 0.0
    return a.sum(axis=(-2, -1))


def _x_rotation_map(rotation: BasisRotation) -> np.ndarray:
    """The real (8, 12) map from the X components of a state to its rotated entries.

    Rows follow rho11, rho22, rho33, rho44, Re rho14, Im rho14, Re rho23,
    Im rho23, with rho41 and rho32 their conjugates. Columns 0-5 give the
    real parts and 6-11 the imaginary parts of the six entries of
    U rho U^H above the diagonal, U = U_1 x U_1 the rotation of `rotation`.
    """
    u = _two_qubit_rotation(rotation)
    a, b = np.triu_indices(4, 1)
    # k[i, j] holds the coefficients of rho_ij: U_ai conj(U_bj) for each entry (a, b)
    k = u[a].T[:, None, :] * u[b].conj().T[None, :, :]
    rows = np.array([k[0, 0], k[1, 1], k[2, 2], k[3, 3],
                     k[0, 3] + k[3, 0], 1j * (k[0, 3] - k[3, 0]),
                     k[1, 2] + k[2, 1], 1j * (k[1, 2] - k[2, 1])])
    return np.concatenate([rows.real, rows.imag], axis=1)


def _x_l1_rotated(c: XComponents, rotation: BasisRotation) -> np.ndarray:
    """l1_coherence in the basis of `rotation` of guarded X states, from their X components.

    The rotated state is Hermitian, so its l1 sum is twice that of the six
    entries above the diagonal, each a fixed real combination of the eight
    X entries (`_x_rotation_map`). The combination is an unoptimized einsum,
    a multiply-add loop over the stack with no BLAS call.
    """
    x = np.stack([c.rho11, c.rho22, c.rho33, c.rho44, np.real(c.rho14), np.imag(c.rho14),
                  np.real(c.rho23), np.imag(c.rho23)], axis=-1)
    q = np.einsum("...k,km->...m", x, _x_rotation_map(rotation), optimize=False)
    q *= q
    return 2.0 * np.sqrt(q[..., :6] + q[..., 6:]).sum(axis=-1)


def _hermitian(m, what: str) -> np.ndarray:
    """The square matrices `m`, after the Hermiticity guard on each."""
    bad = _first_above(hermiticity_defect(m), HERMITIAN_TOL)
    if bad:
        raise NotHermitian(f"{what} hermiticity defect {bad[1]:.3e} exceeds {HERMITIAN_TOL:.0e}")
    return m


def _hermitian_states(rho) -> np.ndarray:
    """rho as 4x4 states (`as_states`), after the Hermiticity guard on every state.

    A finite square input of another size is guarded too, so it is named
    non-Hermitian before `as_states` rejects its size; a 4x4 one is
    scanned for NaN and Inf once, by `as_states`, before the guard.
    """
    r = np.asarray(rho, dtype=complex)
    if r.ndim in (2, 3) and r.shape[-1] == r.shape[-2] != 4 and np.isfinite(r).all():
        _hermitian(r, "state")
    return _hermitian(as_states(r), "state")


def _x_form_states(r: np.ndarray) -> np.ndarray:
    """Checked states r after the X-pattern guard; NotXForm names the first offender."""
    bad = _first_above(_x_leakage(r), X_FORM_TOL)
    if bad:
        raise NotXForm(f"off-pattern magnitude {bad[1]:.3e} exceeds {X_FORM_TOL:.3e}")
    return r


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
    hs = _hermitian(np.asarray(h, dtype=complex)[None], "generator")
    return per_state(_qfi_from_eigh(*_guarded_eigh(rho), hs)[..., 0])


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


def _pair_weight(a, b):
    """w = 2 a b / (a + b) for eigenvalues a, b already clamped at 0.

    Pairs with a + b <= PAIR_EPS get weight 0; the i = j weight of an
    eigenvalue p is `_pair_weight(p, p)`.
    """
    s = a + b
    return np.divide(2.0 * (a * b), s, out=np.zeros_like(s), where=s > PAIR_EPS)


def _lqfi_from_blocks(outer: _XBlock, inner: _XBlock, include_diagonal: bool = True):
    """1 - lambda_max(M) of X states from their two block spectra.

    sigma_z x I keeps each block, and sigma_x x I, sigma_y x I map the outer
    block onto the inner one as sigma_x and sigma_y, so M is block diagonal.
    M_zz sums over the pairs inside each block. M_xx, M_yy and M_xy sum over
    the outer-inner pairs; with W the sum of their weights and V the sum
    with the weight of each low-high pair negated, the larger eigenvalue of
    that (x, y) block is W - V cos_o cos_i + |V| sin_o sin_i. The i = j
    terms touch only M_zz, through the diagonal weights;
    `include_diagonal=False` drops them. Negative eigenvalues count as 0.
    Only the ten weights read are formed, elementwise over the stack.
    """
    ol, oh, il, ih = (np.where(p < 0.0, 0.0, p)
                      for p in (outer.low, outer.high, inner.low, inner.high))
    if include_diagonal:
        o_diag = _pair_weight(ol, ol) + _pair_weight(oh, oh)
        i_diag = _pair_weight(il, il) + _pair_weight(ih, ih)
    else:
        o_diag = i_diag = np.zeros_like(ol)
    m_zz = (o_diag * outer.cos**2 + 2.0 * _pair_weight(ol, oh) * outer.sin**2
            + i_diag * inner.cos**2 + 2.0 * _pair_weight(il, ih) * inner.sin**2)
    w_ll, w_lh, w_hl, w_hh = (_pair_weight(ol, il), _pair_weight(ol, ih),
                              _pair_weight(oh, il), _pair_weight(oh, ih))
    w_sum = w_ll + w_lh + w_hl + w_hh
    v_sum = w_ll - w_lh - w_hl + w_hh
    m_xy = w_sum - v_sum * outer.cos * inner.cos + np.abs(v_sum) * outer.sin * inner.sin
    return 1.0 - np.maximum(m_zz, m_xy)


def _guarded_x(rho) -> tuple[np.ndarray, XComponents, _XBlock, _XBlock]:
    """(states, X components, outer block, inner block) of `rho`, after every X-route guard.

    The guards run in one order: Hermiticity, X pattern, positivity.
    """
    r = _x_form_states(_hermitian_states(rho))
    c = _x_components(r)
    return (r, c, *_x_blocks(c))


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
    return per_state(_lqfi_from_blocks(*_guarded_x(rho)[2:]))


def lqfi_paper_variant(rho) -> float | np.ndarray:
    """LQFI of X states with the i = j terms dropped from the double sum.

    Kept for comparison: on rank-deficient states this overestimates Q
    (a pure product state scores 1 instead of 0). Basis-dependent on
    degenerate spectra: it takes the eigenbasis of each 2x2 block, and the
    computational basis of a block proportional to the identity. Raises
    NotHermitian, NotXForm and NotPositive as `lqfi` does.
    """
    return per_state(_lqfi_from_blocks(*_guarded_x(rho)[2:], include_diagonal=False))


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
    hs = _hermitian(_PROBE_GENERATORS, "generator")
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
    they may be negative. `l1_rotated` is the l1 coherence in the basis of
    the rotation passed to `evaluate_measures`, and `l1_coherence` itself
    without one. `min_eig` is the smallest eigenvalue of the state, from
    the same block spectra as `lqfi`; `dynamics.min_eigenvalue` is its
    generic cross-check.
    """

    concurrence: float
    c1_branch: float
    c2_branch: float
    l1_coherence: float
    l1_rotated: float
    lqfi: float
    min_eig: float


def evaluate_measures(rho, rotation: BasisRotation | None = None) -> MeasureSet:
    """Bundle the X-state measures of one state or of a (T, 4, 4) stack.

    The guards run once, in the order of `lqfi`: NotHermitian, NotXForm,
    NotPositive. Each state's X components are read once and its two 2x2
    blocks solved once, in closed form: the components give the concurrence
    and its branches and `l1_rotated`, and the block spectra give `lqfi`
    and `min_eig`, the smaller of the two lower block eigenvalues. No eigh
    runs.

    Without a rotation `l1_rotated` is `l1_coherence`, bit for bit. With
    one it is built from the X components alone, so it agrees with the
    generic `l1_coherence(rho, rotation)` within 1e-14 on a state that is
    exactly X-form and Hermitian to rounding, as every integrated state
    is. On another state that passes the guards, it also leaves out the
    off-pattern entries and the anti-Hermitian part, which can move it by
    up to 4 (8 X_FORM_TOL + 4 HERMITIAN_TOL), about 3.4e-8.
    """
    r, c, outer, inner = _guarded_x(rho)
    conc, c1, c2 = _x_concurrence(c)
    l1 = per_state(_l1_coherence(r))
    return MeasureSet(
        concurrence=per_state(conc),
        c1_branch=per_state(c1),
        c2_branch=per_state(c2),
        l1_coherence=l1,
        l1_rotated=l1 if rotation is None else per_state(_x_l1_rotated(c, rotation)),
        lqfi=per_state(_lqfi_from_blocks(outer, inner)),
        min_eig=per_state(np.minimum(outer.low, inner.low)),
    )
