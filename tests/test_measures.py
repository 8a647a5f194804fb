import math
from functools import partial

import numpy as np
import pytest

from helpers import random_density, random_pure_state, random_unitary, random_x_state
from spinchain import (
    BasisRotation,
    IntegratorConfig,
    ModelParams,
    NotHermitian,
    NotXForm,
    analytic_state,
    concurrence_generic,
    concurrence_x,
    evaluate_measures,
    evolve,
    initial_state,
    l1_coherence,
    lqfi,
    lqfi_bruteforce,
    lqfi_paper_variant,
    qfi,
    record_from_state,
    steady_state_limit,
    validate_density,
    x_leakage,
)
from spinchain.dynamics import HERMITIAN_TOL, X_FORM_TOL, max_abs, min_eigenvalue
from spinchain.measures import (
    EIG_CLAMP,
    PAIR_EPS,
    NotPositive,
    _guarded_x,
    _two_qubit_rotation,
)
from spinchain.model import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z


def bell_state():
    return initial_state(math.pi / 4)


def product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0
    return rho


def werner_state(p):
    phi_plus = np.zeros(4, dtype=complex)
    phi_plus[0] = phi_plus[3] = 1.0 / math.sqrt(2.0)
    return p * np.outer(phi_plus, phi_plus.conj()) + (1.0 - p) * np.eye(4) / 4.0


# --- concurrence --------------------------------------------------------------

def test_concurrence_anchors():
    assert concurrence_generic(bell_state()) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_generic(product_state()) == pytest.approx(0.0, abs=1e-12)
    assert concurrence_x(bell_state()) == pytest.approx(1.0, abs=1e-12)
    ms = evaluate_measures(bell_state())
    assert ms.concurrence == pytest.approx(1.0, abs=1e-12)
    assert ms.c1_branch == pytest.approx(0.5, abs=1e-12)
    assert ms.c2_branch == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0])
def test_concurrence_werner_family(p):
    # known value max(0, (3p-1)/2), reached by both computation routes
    expected = max(0.0, (3.0 * p - 1.0) / 2.0)
    w = werner_state(p)
    assert concurrence_generic(w) == pytest.approx(expected, abs=1e-12)
    assert concurrence_x(w) == pytest.approx(expected, abs=1e-12)


def test_concurrence_pure_state_formula(rng):
    # for amplitudes (a, b, c, d) the concurrence is 2|ad - bc|
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        expected = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
        assert concurrence_generic(rho) == pytest.approx(expected, abs=1e-10)


def test_concurrence_routes_agree_on_x_states(rng):
    worst = 0.0
    for _ in range(300):
        rho = random_x_state(rng)
        worst = max(worst, abs(concurrence_x(rho) - concurrence_generic(rho)))
    assert worst < 1e-9


def test_concurrence_local_unitary_invariance(rng):
    for _ in range(20):
        rho = random_density(rng)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert concurrence_generic(rotated) == pytest.approx(
            concurrence_generic(rho), abs=1e-10)


def test_concurrence_x_rejects_off_pattern(rng):
    rho = random_density(rng)
    with pytest.raises(NotXForm):
        concurrence_x(rho)


def test_concurrence_routes_refuse_non_states():
    # rho22 = rho33 = 0.5 with rho23 = 0.9: inner block eigenvalues 1.4 and -0.4
    negative = np.zeros((4, 4), dtype=complex)
    negative[1, 1] = negative[2, 2] = 0.5
    negative[1, 2] = negative[2, 1] = 0.9
    skewed = negative.copy()
    skewed[1, 2], skewed[2, 1] = 0.3, 0.1
    for route in (concurrence_x, concurrence_generic):
        with pytest.raises(NotPositive, match=r"^density eigenvalue -4\.000e-01 below") as err:
            route(np.array([bell_state(), negative]))
        assert err.value.index == 1
        with pytest.raises(NotHermitian, match=r"^state hermiticity defect 2\.000e-01 exceeds"):
            route(skewed)


# --- l1 coherence -------------------------------------------------------------

def test_l1_anchors():
    assert l1_coherence(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)) == 0.0
    assert l1_coherence(bell_state()) == pytest.approx(1.0, abs=1e-12)


def test_l1_x_state_is_sum_of_coherence_channels(rng):
    for _ in range(20):
        rho = random_x_state(rng)
        expected = 2.0 * abs(rho[0, 3]) + 2.0 * abs(rho[1, 2])
        assert l1_coherence(rho) == pytest.approx(expected, abs=1e-12)


def test_l1_identity_rotation_is_plain_value(rng):
    rho = random_x_state(rng)
    assert l1_coherence(rho, BasisRotation(0.0, 0.0)) == pytest.approx(
        l1_coherence(rho), abs=1e-12)


def test_l1_rotated_anchor():
    # |00><00| seen from the pi/4-rotated local basis: all sixteen entries
    # have magnitude 1/4, so the off-diagonal sum is 3
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert l1_coherence(rho, BasisRotation(math.pi / 4, 0.0)) == pytest.approx(3.0, abs=1e-12)


def _rotation_unitary(rot):
    """The single-qubit U of the `BasisRotation` docstring, the tests' reference."""
    c, s = math.cos(rot.phi), math.sin(rot.phi)
    phase = np.exp(1j * rot.varphi)
    return np.array([[c, -phase * s], [np.conj(phase) * s, c]], dtype=complex)


def test_l1_rotation_consistent_with_unitary_helpers(rng):
    for _ in range(10):
        rho = random_x_state(rng)
        rot = BasisRotation(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
        u = np.kron(_rotation_unitary(rot), _rotation_unitary(rot))
        assert l1_coherence(rho, rot) == pytest.approx(
            l1_coherence(u @ rho @ u.conj().T), abs=1e-12)


def test_rotation_unitary_anchors():
    assert max_abs(_two_qubit_rotation(BasisRotation(0.0, 0.0)) - np.eye(4)) == 0.0
    full = _two_qubit_rotation(BasisRotation(math.pi / 2, 0.0))
    assert max_abs(full @ full.conj().T - np.eye(4)) < 1e-15
    # U[0,0] * U[0,1] with |U[0,1]| = 1 at pi/2: holds |U[0,0]| itself below 1e-15
    assert abs(full[0, 1]) < 1e-15
    u = _rotation_unitary(BasisRotation(0.3, 0.7))
    assert max_abs(_two_qubit_rotation(BasisRotation(0.3, 0.7)) - np.kron(u, u)) == 0.0


_ROTATIONS = [BasisRotation(0.0, 0.0), BasisRotation(0.4, 1.3), BasisRotation(math.pi / 2, 0.7)]


@pytest.mark.parametrize("rot", _ROTATIONS, ids=lambda r: f"{r.phi:.3g},{r.varphi:.3g}")
def test_l1_rotated_from_x_components_matches_the_generic_route(rot, rng):
    stack = np.array([random_x_state(rng) for _ in range(50)])
    values = evaluate_measures(stack, rot).l1_rotated
    assert isinstance(values, np.ndarray) and values.shape == (50,)
    assert np.abs(values - l1_coherence(stack, rot)).max() <= 1e-14
    one = evaluate_measures(stack[0], rot).l1_rotated
    assert isinstance(one, float)
    assert abs(one - l1_coherence(stack[0], rot)) <= 1e-14


def test_l1_rotated_without_rotation_is_l1_coherence(rng):
    stack = np.array([random_x_state(rng) for _ in range(50)])
    for states in (stack, stack[0]):
        ms = evaluate_measures(states)
        assert np.array_equal(ms.l1_rotated, l1_coherence(states))
        assert np.array_equal(ms.l1_rotated, ms.l1_coherence)


def test_l1_rotated_keeps_the_x_form_guard(rng):
    rho = random_x_state(rng)
    rho[0, 1] = rho[1, 0] = 1e-6
    with pytest.raises(NotXForm):
        evaluate_measures(rho, BasisRotation(0.4, 1.3))


def test_l1_rotated_bound_on_states_the_guards_let_through(rng):
    # the X route drops the off-pattern entries and the anti-Hermitian part;
    # the documented bound is four times the l1 norm of what it drops
    rot = BasisRotation(0.4, 1.3)
    rho = random_x_state(rng)
    rows, cols = [0, 0, 1, 2], [1, 2, 3, 3]  # the off-pattern entries above the diagonal
    rho[rows, cols] = 0.9 * X_FORM_TOL * np.exp(1j * rng.uniform(0, 2 * math.pi, 4))
    rho[cols, rows] = rho[rows, cols].conj()
    rho[3, 0] += 0.4 * HERMITIAN_TOL
    rho[range(4), range(4)] += 0.4j * HERMITIAN_TOL
    gap = abs(evaluate_measures(rho, rot).l1_rotated - l1_coherence(rho, rot))
    assert 1e-14 < gap <= 4 * (8 * X_FORM_TOL + 4 * HERMITIAN_TOL)


# --- quantum Fisher information ------------------------------------------------

def test_qfi_pure_state_is_generator_variance(rng):
    for _ in range(30):
        rho = random_pure_state(rng)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        mean = np.trace(rho @ h).real
        mean_sq = np.trace(rho @ h @ h).real
        assert qfi(rho, h) == pytest.approx(mean_sq - mean * mean, abs=1e-9)


def test_qfi_maximally_mixed_vanishes(rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    assert qfi(np.eye(4, dtype=complex) / 4.0, h) == pytest.approx(0.0, abs=1e-13)


def test_qfi_rejects_non_hermitian_generator(rng):
    with pytest.raises(NotHermitian):
        qfi(np.eye(4) / 4.0, np.array([[0.0, 1.0], [0.0, 0.0]]))
    # also on a stack of states
    h = np.kron(SIGMA_X, IDENTITY_2)
    h[0, 1] += 1e-6
    with pytest.raises(NotHermitian, match=r"^generator hermiticity defect 1\.000e-06 exceeds"):
        qfi(np.array([random_density(rng) for _ in range(5)]), h)


def test_lqfi_anchors():
    assert abs(lqfi(np.eye(4, dtype=complex) / 4.0)) <= 1e-10
    assert abs(lqfi(product_state())) <= 1e-9
    assert lqfi(bell_state()) == pytest.approx(1.0, abs=1e-9)


def test_stationary_lqfi_under_both_formulas():
    # near the product |11>, rho44 = 0.980: the full sum reads near 0, the variant near 1
    ss = steady_state_limit(ModelParams(mu=1, gamma=0.2, J0=1.0))
    assert lqfi(ss) == pytest.approx(0.0265, abs=1e-3)
    assert lqfi_paper_variant(ss) == pytest.approx(0.9732, abs=1e-3)


def test_lqfi_paper_variant_spurious_on_pure_product():
    # dropping the equal-index terms discards the whole variance of a pure
    # product state, inflating the reading to its maximum
    assert lqfi_paper_variant(product_state()) == pytest.approx(1.0, abs=1e-9)
    assert lqfi(product_state()) == pytest.approx(0.0, abs=1e-9)


def test_lqfi_is_minimum_over_probe_axes(rng):
    axes = [np.kron(s, IDENTITY_2) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
    for _ in range(10):
        rho = random_x_state(rng)
        q = lqfi(rho)
        for h in axes:
            assert q <= qfi(rho, h) + 1e-9


def test_lqfi_matches_direction_grid(rng):
    # the polarization route is exact, so the two routes agree to rounding
    # on X states; generic full-rank and pure states are for the
    # polarization route alone
    worst = 0.0
    for _ in range(30):
        rho = random_x_state(rng)
        worst = max(worst, abs(lqfi(rho) - lqfi_bruteforce(rho)))
    assert worst < 1e-10
    for draw in (random_density, random_pure_state):
        for _ in range(5):
            rho = draw(rng)
            with pytest.raises(NotXForm, match=f"off-pattern magnitude {x_leakage(rho):.3e}"):
                lqfi(rho)


def test_lqfi_local_unitary_invariance(rng):
    # the rotated states leave the X pattern, so they go through the
    # polarization route; Bell and |01> keep pure states covered
    eye = np.eye(2, dtype=complex)
    for rho in [random_x_state(rng) for _ in range(20)] + [bell_state(), product_state()]:
        # probe-side rotation alone, then a full product rotation
        ua = np.kron(random_unitary(rng), eye)
        assert lqfi_bruteforce(ua @ rho @ ua.conj().T) == pytest.approx(lqfi(rho), abs=1e-8)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        assert lqfi_bruteforce(u @ rho @ u.conj().T) == pytest.approx(lqfi(rho), abs=1e-9)


def test_lqfi_rejects_bad_inputs():
    with pytest.raises(NotHermitian):
        lqfi(np.array([[0.5, 0.2], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        lqfi(np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex))


def test_evaluate_measures_bundles_routes(rng):
    for _ in range(10):
        rho = random_x_state(rng)
        ms = evaluate_measures(rho)
        assert ms.concurrence == concurrence_x(rho)
        # the branches of the X-state formula, from the entries themselves
        c1 = abs(rho[1, 2]) - math.sqrt(rho[0, 0].real * rho[3, 3].real)
        c2 = abs(rho[0, 3]) - math.sqrt(rho[1, 1].real * rho[2, 2].real)
        assert ms.c1_branch == pytest.approx(c1, abs=1e-15)
        assert ms.c2_branch == pytest.approx(c2, abs=1e-15)
        assert ms.concurrence == 2.0 * max(ms.c1_branch, ms.c2_branch, 0.0)
        assert ms.l1_coherence == l1_coherence(rho)
        assert ms.lqfi == lqfi(rho)


# --- stacks of states -----------------------------------------------------------

STACKED_MEASURES = [l1_coherence, partial(l1_coherence, rotation=BasisRotation(0.4, 1.3)),
                    lqfi, lqfi_paper_variant]
X_ONLY_MEASURES = (lqfi, lqfi_paper_variant)


@pytest.mark.parametrize("draw", [random_x_state, random_density])
def test_stacked_measures_match_single_state_calls(draw, rng):
    stack = np.array([draw(rng) for _ in range(50)])
    for measure in STACKED_MEASURES:
        if draw is random_density and measure in X_ONLY_MEASURES:
            # a generic stack fails at its first state, alone or stacked
            for states in (stack, stack[0]):
                with pytest.raises(NotXForm, match=f"magnitude {x_leakage(stack[0]):.3e} "):
                    measure(states)
            continue
        values = measure(stack)
        assert values.shape == (50,)
        assert np.abs(values - [measure(rho) for rho in stack]).max() <= 1e-15


def test_stacked_x_measures_match_single_state_calls(rng):
    stack = np.array([random_x_state(rng) for _ in range(50)])
    conc = concurrence_x(stack)
    ms = evaluate_measures(stack)
    assert isinstance(conc, np.ndarray) and conc.shape == (50,)
    for k, rho in enumerate(stack):
        one = concurrence_x(rho)
        assert isinstance(one, float)
        assert abs(conc[k] - one) <= 1e-15
        single = evaluate_measures(rho)
        for field in ("concurrence", "c1_branch", "c2_branch", "l1_coherence", "lqfi"):
            assert abs(getattr(ms, field)[k] - getattr(single, field)) <= 1e-15



def test_evaluate_measures_decomposes_each_state_once(rng, monkeypatch):
    stack = np.array([random_x_state(rng) for _ in range(50)])
    expected_lqfi = lqfi(stack)
    # the block spectra give min_eig; the generic eigvalsh agrees to rounding
    min_eig = min_eigenvalue(stack)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    ms = evaluate_measures(stack)
    assert calls == []
    assert np.array_equal(ms.lqfi, expected_lqfi)
    assert np.abs(ms.min_eig - min_eig).max() <= 1e-15
    assert isinstance(evaluate_measures(stack[0]).min_eig, float)


def test_stack_guards_fire_on_one_bad_element(rng):
    stack = np.array([random_x_state(rng) for _ in range(20)])
    off_pattern = stack.copy()
    off_pattern[7, 0, 1] = off_pattern[7, 1, 0] = 1e-6
    off_pattern[9, 0, 2] = off_pattern[9, 2, 0] = 1e-5  # larger, but later
    for measure in (concurrence_x, lqfi, lqfi_paper_variant, evaluate_measures):
        with pytest.raises(NotXForm, match=r"^off-pattern magnitude 1\.000e-06 exceeds"):
            measure(off_pattern)
    skewed = stack.copy()
    skewed[11, 0, 3] += 1e-6
    # the Hermiticity guard runs first, also on a stack that leaves the X pattern
    for states in (skewed, np.concatenate([off_pattern[:11], skewed[11:]])):
        for measure in (concurrence_x, lqfi, lqfi_paper_variant, evaluate_measures):
            with pytest.raises(NotHermitian, match="state hermiticity defect 1.000e-06"):
                measure(states)


def test_not_positive_names_the_earliest_offender(rng):
    stack = np.array([random_x_state(rng) for _ in range(20)])
    stack[5] = np.diag([1.0 + 3e-9, -3e-9, 0.0, 0.0])
    stack[12] = np.diag([1.0 + 1e-8, -1e-8, 0.0, 0.0])  # more negative, but later
    for measure in (concurrence_x, lqfi, lqfi_paper_variant, evaluate_measures):
        with pytest.raises(NotPositive) as err:
            measure(stack)
        assert err.value.index == 5
        assert err.value.min_eig == pytest.approx(-3e-9, rel=1e-6)


# --- the X-block route of lqfi ------------------------------------------------

def _x_state(outer, inner):
    """The X state with 2x2 blocks `outer` on {|00>, |11>} and `inner` on {|01>, |10>}."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[np.ix_([0, 3], [0, 3])] = outer
    rho[np.ix_([1, 2], [1, 2])] = inner
    return rho


def _block(rng, low, high):
    """A 2x2 Hermitian block with eigenvalues low and high in a random basis."""
    u = random_unitary(rng)
    return (u * [low, high]) @ u.conj().T


def _hard_x_states(rng):
    """Random X states with degenerate blocks, pure states and tiny negative eigenvalues."""
    states = []
    for k in range(60):
        rho = random_x_state(rng)
        idx = [0, 3] if k % 2 else [1, 2]  # the block made special
        if k < 15:
            rho[idx[0], idx[1]] = rho[idx[1], idx[0]] = 0.0  # coherence 0
        elif k < 30:
            rho[idx[0], idx[0]] = rho[idx[1], idx[1]] = rho[idx, idx].real.mean()  # equal populations
        elif k < 45:
            rho[np.ix_(idx, idx)] = np.eye(2) * rho[idx, idx].real.mean()  # both
        states.append(rho)
    for k in range(20):
        one = _block(rng, 0.0, 1.0)
        states.append(_x_state(one, np.zeros((2, 2))) if k % 2 else _x_state(np.zeros((2, 2)), one))
    for k in range(20):
        tiny = -EIG_CLAMP * rng.uniform(0.05, 0.95)
        share = rng.uniform(0.1, 0.9)
        states.append(_x_state(_block(rng, tiny, share), _block(rng, 0.0, 1.0 - share - tiny)))
    return np.array(states)


def _refuse_eigh(a):
    raise AssertionError("the X-block route ran eigh")


@pytest.fixture
def no_eigh(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _refuse_eigh)


def test_x_block_route_matches_m_route_and_bruteforce(rng, monkeypatch):
    stack = _hard_x_states(rng)
    assert np.all(x_leakage(stack) <= X_FORM_TOL)
    lows = np.linalg.eigvalsh(stack)[:, 0]
    assert np.sum(lows < 0.0) >= 20
    assert lows.min() >= -EIG_CLAMP
    brute = np.array([lqfi_bruteforce(rho) for rho in stack])
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", _refuse_eigh)
        values = lqfi(stack)
        ms = evaluate_measures(stack)
        singles = [lqfi(rho) for rho in stack]
    assert np.abs(values - brute)[lows >= 0.0].max() <= 1e-13
    # the block route counts an eigenvalue in [-EIG_CLAMP, 0) as 0 and so
    # loses that much trace, which moves it from the polarization route by
    # up to its size
    assert np.all(np.abs(values - brute) <= 1e-10 + np.maximum(-lows, 0.0))
    assert np.abs(values - singles).max() <= 1e-15
    assert np.array_equal(ms.lqfi, values)
    assert np.abs(ms.min_eig - lows).max() <= 1e-15


def _reference_lqfi_from_blocks(outer, inner, include_diagonal=True):
    """The (T, 4, 4) pair-weight form of the block formula, the ten-weight route's reference."""
    p = np.stack([outer.low, outer.high, inner.low, inner.high], axis=-1)
    p = np.where(p < 0.0, 0.0, p)
    psum = p[..., :, None] + p[..., None, :]
    w = np.divide(2.0 * (p[..., :, None] * p[..., None, :]), psum,
                  out=np.zeros_like(psum), where=psum > PAIR_EPS)
    if not include_diagonal:
        w[..., range(4), range(4)] = 0.0
    m_zz = ((w[..., 0, 0] + w[..., 1, 1]) * outer.cos**2 + 2.0 * w[..., 0, 1] * outer.sin**2
            + (w[..., 2, 2] + w[..., 3, 3]) * inner.cos**2 + 2.0 * w[..., 2, 3] * inner.sin**2)
    cross = w[..., :2, 2:]
    w_sum = cross.sum(axis=(-2, -1))
    v_sum = (cross * np.array([[1.0, -1.0], [-1.0, 1.0]])).sum(axis=(-2, -1))
    m_xy = w_sum - v_sum * outer.cos * inner.cos + np.abs(v_sum) * outer.sin * inner.sin
    return 1.0 - np.maximum(m_zz, m_xy)


def test_ten_pair_weights_match_the_full_pair_weight_form(rng):
    # with pairs whose sums fall below PAIR_EPS: eigenvalues of 2e-13 and 3e-13 in both blocks
    tiny = [_x_state(_block(rng, 3e-13, share), _block(rng, 2e-13, 1.0 - share - 5e-13))
            for share in (0.3, 0.6)]
    stack = np.concatenate([_hard_x_states(rng), tiny, [random_x_state(rng) for _ in range(200)]])
    for measure, diagonal in ((lqfi, True), (lqfi_paper_variant, False)):
        assert np.array_equal(measure(stack),
                              _reference_lqfi_from_blocks(*_guarded_x(stack)[2:], diagonal))
        for rho in stack[:100]:
            assert measure(rho) == _reference_lqfi_from_blocks(*_guarded_x(rho)[2:], diagonal)


def test_x_block_route_anchors_are_exact(no_eigh):
    assert lqfi(np.eye(4, dtype=complex) / 4.0) == 0.0
    assert lqfi(product_state()) == 0.0
    assert lqfi(bell_state()) == 1.0
    assert lqfi_paper_variant(np.eye(4, dtype=complex) / 4.0) == 0.0
    assert lqfi_paper_variant(product_state()) == 1.0
    assert lqfi_paper_variant(bell_state()) == 1.0


# lqfi_paper_variant of the first six `random_x_state` draws of the `rng`
# fixture, as an eigh of the whole state and the 3x3 direction matrix gave it
_VARIANT_PINS = [0.12997641106582825, 0.8346956109891698, 0.39528723148455047,
                 0.2016211343182408, 0.17047202686370866, 0.1058682102953753]


def test_lqfi_paper_variant_pinned_on_x_states(rng, no_eigh):
    stack = np.array([random_x_state(rng) for _ in range(6)])
    values = lqfi_paper_variant(stack)
    assert np.abs(values - _VARIANT_PINS).max() <= 1e-13
    # the dropped diagonal matters on these states: the variant is not lqfi
    assert np.abs(values - lqfi(stack)).max() > 0.1


def test_x_block_route_guards(rng, no_eigh):
    stack = np.array([random_x_state(rng) for _ in range(20)])
    skewed = stack.copy()
    skewed[3, 1, 2] += 2e-6
    for measure in (lqfi, lqfi_paper_variant, evaluate_measures):
        with pytest.raises(NotHermitian, match=r"^state hermiticity defect 2\.000e-06 exceeds 1e-10$"):
            measure(skewed)
    negative = stack.copy()
    negative[6] = _x_state(_block(rng, -3e-9, 0.5), _block(rng, 0.0, 0.5 + 3e-9))
    negative[14] = _x_state(_block(rng, 0.5, 0.5), _block(rng, -1e-8, 1e-8))  # more negative, later
    for measure in (lqfi, lqfi_paper_variant, evaluate_measures):
        with pytest.raises(NotPositive, match=r"^density eigenvalue -3\.000e-09 below -1e-09$") as err:
            measure(negative)
        assert err.value.index == 6
        assert err.value.min_eig == pytest.approx(-3e-9, rel=1e-6)


def test_lqfi_keeps_pairs_just_above_pair_eps(rng):
    # rank 3: rho11 = rho44 = 1e-6 beside a pure inner block. The outer
    # eigenvalues pair with each other and with the inner zero at sums of
    # about 1e-6; dropping those pairs would move lqfi by 2e-6
    psi = np.zeros(4, dtype=complex)
    psi[1], psi[2] = math.cos(0.3), math.sin(0.3)
    rho = (1.0 - 2e-6) * np.outer(psi, psi.conj())
    rho[0, 0] = rho[3, 3] = 1e-6
    assert lqfi(rho) == pytest.approx(0.3188204851194174, abs=1e-13)
    assert abs(lqfi(rho) - lqfi_bruteforce(rho)) <= 1e-10
    # a local unitary keeps the value but leaves the X pattern: the
    # polarization route alone
    u = np.kron(random_unitary(rng), random_unitary(rng))
    rotated = u @ rho @ u.conj().T
    assert x_leakage(rotated) > X_FORM_TOL
    with pytest.raises(NotXForm):
        lqfi(rotated)
    assert lqfi_bruteforce(rotated) == pytest.approx(0.3188204851194174, abs=1e-10)


# --- the generic routes on stacks -----------------------------------------------

_PROBE = np.kron(SIGMA_X, IDENTITY_2) + 0.3 * np.kron(SIGMA_Z, SIGMA_Y)
GENERIC_ROUTES = [concurrence_generic, partial(qfi, h=_PROBE), lqfi_bruteforce]


def _route_id(route):
    return getattr(route, "__name__", None) or route.func.__name__


@pytest.mark.parametrize("draw", [random_x_state, random_density])
@pytest.mark.parametrize("route", GENERIC_ROUTES, ids=_route_id)
def test_stacked_generic_routes_match_single_state_calls(draw, route, rng):
    stack = np.array([draw(rng) for _ in range(40)])
    values = route(stack)
    singles = [route(rho) for rho in stack]
    assert values.shape == (40,)
    assert all(isinstance(one, float) for one in singles)
    assert np.array_equal(values, singles)


def _with_spectrum(rng, spectrum):
    """A generic state with the given eigenvalues in a random basis."""
    u = np.kron(random_unitary(rng), random_unitary(rng)) @ random_unitary(rng, 4)
    return (u * spectrum) @ u.conj().T


@pytest.mark.parametrize("route", GENERIC_ROUTES, ids=_route_id)
def test_stacked_generic_guards_name_the_first_bad_state(route, rng):
    stack = np.array([random_density(rng) for _ in range(12)])
    negative = stack.copy()
    negative[4] = _with_spectrum(rng, [0.6 + 3e-9, 0.3, 0.1, -3e-9])
    negative[9] = _with_spectrum(rng, [0.6 + 1e-8, 0.3, 0.1, -1e-8])  # more negative, but later
    with pytest.raises(NotPositive, match=r"^density eigenvalue -3\.000e-09 below -1e-09$") as err:
        route(negative)
    assert err.value.index == 4
    skewed = stack.copy()
    skewed[7, 0, 2] += 2e-6
    with pytest.raises(NotHermitian, match=r"^state hermiticity defect 2\.000e-06 exceeds 1e-10$"):
        route(skewed)


SHAPED_ROUTES = [lqfi, lqfi_paper_variant, concurrence_x, evaluate_measures, l1_coherence,
                 concurrence_generic, lqfi_bruteforce, partial(qfi, h=_PROBE),
                 x_leakage, partial(record_from_state, 0.0), min_eigenvalue]


@pytest.mark.parametrize("rho", [np.eye(2) / 2.0, np.ones((4, 3)) / 4.0, np.ones((2, 3, 4, 4))],
                         ids=["2x2", "4x3", "4-d"])
@pytest.mark.parametrize("route", SHAPED_ROUTES, ids=_route_id)
def test_routes_name_a_wrong_shape(route, rho):
    with pytest.raises(ValueError, match=rf"got shape \({', '.join(map(str, rho.shape))}\)$") as err:
        route(rho)
    assert err.type is ValueError


@pytest.mark.parametrize("entry", [(0, 3, math.nan), (1, 1, math.inf)], ids=["nan-rho14", "inf-rho22"])
@pytest.mark.parametrize("route", SHAPED_ROUTES, ids=_route_id)
def test_routes_reject_non_finite_entries(route, entry, rng):
    # named by the shared input check before any guard or formula reads the entry
    row, col, value = entry
    stack = np.array([random_x_state(rng) for _ in range(5)])
    stack[3, row, col] = value
    for states in (stack, stack[3]):
        with pytest.raises(ValueError, match="NaN or Inf") as err:
            route(states)
        assert err.type is ValueError


@pytest.mark.parametrize("route", SHAPED_ROUTES + [validate_density], ids=_route_id)
def test_routes_scan_their_input_for_non_finite_entries_once(route, rng, monkeypatch):
    # the steps inside a route take the array its one `as_states` call checked
    isfinite, scans = np.isfinite, []

    def counting_isfinite(a, *args, **kwargs):
        scans.append(np.shape(a))
        return isfinite(a, *args, **kwargs)

    rho = random_x_state(rng)
    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    route(rho)
    assert scans == [(4, 4)]


# --- which qubit the LQFI probes ------------------------------------------------

# exchanges the two tensor factors: |01> <-> |10>
_SWAP = np.eye(4)[[0, 2, 1, 3]]


def test_lqfi_probes_the_first_site():
    # default run at t = 2.5: the first site (field -b) against the
    # second (+b), which is the first site of the swapped state
    rho = analytic_state(ModelParams(theta=math.pi / 4), 2.5)
    swapped = _SWAP @ rho @ _SWAP
    both = np.array([rho, swapped])
    assert lqfi(rho) == pytest.approx(0.5508815222, abs=1e-6)
    assert lqfi(swapped) == pytest.approx(0.2922292429, abs=1e-6)
    assert np.abs(lqfi_bruteforce(both) - lqfi(both)).max() <= 1e-10
    # without the staggered field the two sites are equivalent
    times = np.linspace(0.0, 20.0, 201)
    states = analytic_state(ModelParams(theta=math.pi / 4, b=0.0), times)
    assert np.abs(lqfi(states) - lqfi(_SWAP @ states @ _SWAP)).max() <= 1e-12


_SECOND_SITE_OBS = [np.kron(IDENTITY_2, s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]


def _second_site_lqfi(states):
    """min over unit r of qfi(rho, I x r.sigma): lambda_min of its 3x3 form, by polarization."""
    g = [qfi(states, h) for h in _SECOND_SITE_OBS]
    f = np.zeros(np.shape(g[0]) + (3, 3))
    for i in range(3):
        f[..., i, i] = g[i]
        for j in range(i + 1, 3):
            h = _SECOND_SITE_OBS[i] + _SECOND_SITE_OBS[j]
            f[..., i, j] = f[..., j, i] = 0.5 * (qfi(states, h) - g[i] - g[j])
    return np.linalg.eigvalsh(f)[..., 0]


def test_second_site_lqfi_matches_its_polarization_route(rng):
    # the second site's LQFI by generators on the second tensor factor,
    # against the fast route on the swapped state
    stack = np.array([random_x_state(rng) for _ in range(500)])
    _, run = evolve(initial_state(math.pi / 4), ModelParams(), IntegratorConfig())
    for states in (stack, run):
        assert np.abs(_second_site_lqfi(states) - lqfi(_SWAP @ states @ _SWAP)).max() <= 1e-13
