import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import random_density, random_params, random_x_state
from spinchain import (
    IntegratorConfig,
    ModelParams,
    NoDissipation,
    NotHermitian,
    StepUnstable,
    analytic_state,
    evaluate_measures,
    evolve,
    hamiltonian_block,
    initial_state,
    jump_operators,
    lindblad_rhs,
    record_from_state,
    steady_state_limit,
    validate_density,
    x_leakage,
)
from spinchain.dynamics import (
    HERMITIAN_TOL,
    TimeSeriesRecord,
    _keep_hermitian,
    _liouvillian,
    _precompute_jumps,
    _rk4_step,
    _sin_over,
    _x_components,
    as_states,
    hermiticity_defect,
    max_abs,
    min_eigenvalue,
)


# --- structure helpers ------------------------------------------------------

def test_max_abs():
    assert max_abs(np.array([[1.0, -3.0], [2.0, 0.5]])) == 3.0


def test_hermiticity_defect(rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    assert hermiticity_defect(h) == 0.0
    h[0, 1] += 1e-3
    assert hermiticity_defect(h) >= 1e-3 / 2


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_hermiticity_guard_at_half_and_twice_the_tolerance(rng, scale):
    skew = scale * HERMITIAN_TOL * (0.6 + 0.8j)  # both parts count: |skew| = scale * tol
    stack = np.array([random_x_state(rng) for _ in range(6)])
    stack[2, 0, 3] += skew
    stack[4, 1, 2] += 1.5 * skew  # larger, but later
    defect = hermiticity_defect(stack)
    assert defect[[0, 1, 3, 5]].tolist() == [0.0] * 4
    assert defect[2] == pytest.approx(scale * HERMITIAN_TOL, rel=1e-5)
    assert defect[4] == pytest.approx(1.5 * scale * HERMITIAN_TOL, rel=1e-5)
    for k in (2, 4):
        assert hermiticity_defect(stack[k]) == defect[k]
    if scale < 1:
        evaluate_measures(stack)
        validate_density(stack[2])
        return
    # the first offender is named, with its own defect
    with pytest.raises(NotHermitian, match=r"^state hermiticity defect 2\.000e-10 exceeds 1e-10$"):
        evaluate_measures(stack)
    with pytest.raises(ValueError, match=r"^density matrix hermiticity defect 2\.000e-10 > 1\.000e-10$"):
        validate_density(stack[2])


def _reference_hermiticity_defect(a):
    """The strided .real/.imag form of the defect, the interleaved route's reference."""
    m = np.asarray(a, dtype=complex)
    sq = m.real - m.real.swapaxes(-1, -2)
    im = m.imag + m.imag.swapaxes(-1, -2)
    sq *= sq
    im *= im
    sq += im
    return np.sqrt(np.max(sq, axis=(-2, -1)))


def test_hermiticity_defect_matches_the_strided_form_bit_for_bit(rng):
    h = rng.normal(size=(40, 4, 4)) + 1j * rng.normal(size=(40, 4, 4))
    h = h + h.conj().swapaxes(-1, -2)
    h += 1e-11 * rng.normal(size=h.shape) + 1e-11j * rng.normal(size=h.shape)
    odd = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
    # contiguous, strided and transposed stacks, one state, another size, real input
    for a in (h, h[::3], h.swapaxes(-1, -2), h[:, ::-1, ::-1], h[7], odd, h.real):
        assert np.array_equal(hermiticity_defect(a), _reference_hermiticity_defect(a))


def _reference_keep_hermitian(m):
    """The fancy-index form of `_keep_hermitian`, its reference."""
    transposed = np.arange(16).reshape(4, 4).T.reshape(16)
    return 0.5 * (m + m[..., transposed[:, None], transposed].conj())


def test_keep_hermitian_matches_the_fancy_index_form_bit_for_bit(rng):
    m = rng.normal(size=(5, 16, 16)) + 1j * rng.normal(size=(5, 16, 16))
    for a in (m, m[2], m[:, ::-1], m.swapaxes(-1, -2)):
        assert np.array_equal(_keep_hermitian(a), _reference_keep_hermitian(a))


def test_x_components_extraction(rng):
    rho = random_x_state(rng)
    xc = _x_components(as_states(rho))
    assert xc.rho11 == pytest.approx(rho[0, 0].real)
    assert xc.rho22 == pytest.approx(rho[1, 1].real)
    assert xc.rho33 == pytest.approx(rho[2, 2].real)
    assert xc.rho44 == pytest.approx(rho[3, 3].real)
    assert xc.rho14 == rho[0, 3]
    assert xc.rho23 == rho[1, 2]


def test_x_leakage(rng):
    rho = random_x_state(rng)
    assert x_leakage(rho) == 0.0
    rho[0, 1] = 1e-4
    assert x_leakage(rho) == pytest.approx(1e-4)


def test_validate_density_rejections(rng):
    rho = random_x_state(rng)
    validate_density(rho)
    with pytest.raises(ValueError):
        validate_density(rho * 1.01)  # trace off
    bad = rho.copy()
    bad[0, 1] = 1e-3  # no conjugate partner
    with pytest.raises(ValueError):
        validate_density(bad)
    neg = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        validate_density(neg)
    # the trace and eigenvalue bounds of 1e-9, from either side
    validate_density(np.diag([0.25, 0.25, 0.25, 0.25 + 5e-10]).astype(complex))
    with pytest.raises(ValueError, match="trace"):
        validate_density(np.diag([0.25, 0.25, 0.25, 0.25 + 2e-9]).astype(complex))
    validate_density(np.diag([0.5 + 5e-10, 0.5, 0.0, -5e-10]).astype(complex))
    with pytest.raises(ValueError, match="eigenvalue"):
        validate_density(np.diag([0.5 + 2e-9, 0.5, 0.0, -2e-9]).astype(complex))
    # evolve holds its initial states to the same checks
    with pytest.raises(ValueError, match="must be 4x4"):
        evolve(np.eye(2) / 2.0, ModelParams())
    nan_entry = rho.copy()
    nan_entry[0, 3] = nan_entry[3, 0] = math.nan
    inf_entry = rho.copy()
    inf_entry[1, 1] = math.inf
    with pytest.raises(ValueError, match="NaN or Inf"):
        validate_density(inf_entry)
    with pytest.raises(ValueError, match="NaN or Inf"):
        evolve(nan_entry, ModelParams())


# --- generator --------------------------------------------------------------

def test_generator_annihilates_trace(rng):
    p = random_params(rng)
    h = hamiltonian_block(p)
    jumps = jump_operators(p)
    for _ in range(50):
        rhs = lindblad_rhs(random_density(rng), h, jumps)
        assert abs(np.trace(rhs)) < 1e-13


def test_generator_preserves_x_pattern_exactly(rng):
    p = random_params(rng)
    h = hamiltonian_block(p)
    jumps = jump_operators(p)
    for _ in range(20):
        rhs = lindblad_rhs(random_x_state(rng), h, jumps)
        assert x_leakage(rhs) == 0.0


def test_stacked_generator_equals_the_single_state_calls(rng):
    # each point has its own rate per jump, so a misaligned rate would show
    points = [random_params(rng) for _ in range(7)]
    states = np.array([random_density(rng) for _ in points])
    hams = np.array([hamiltonian_block(p) for p in points])
    (first, _), (second, _) = jump_operators(points[0])
    rates = np.array([p.gamma for p in points])
    stacked = lindblad_rhs(states, hams, [(first, rates), (second, 2.0 * rates[::-1])])
    assert stacked.shape == (7, 4, 4)
    for k, p in enumerate(points):
        single = lindblad_rhs(states[k], hams[k],
                              [(first, rates[k]), (second, 2.0 * rates[-1 - k])])
        assert np.array_equal(stacked[k], single)
    # a float rate applies to every state of the stack
    same = lindblad_rhs(states, hams, [(first, 0.3), (second, 0.3)])
    assert np.array_equal(same, lindblad_rhs(states, hams, [(first, np.full(7, 0.3)),
                                                             (second, np.full(7, 0.3))]))


def test_pure_decay_rate_without_hamiltonian():
    # both qubits excited, no coherent part: population leaves at rate 2*gamma
    gamma = 0.3
    p = ModelParams(gamma=gamma)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    rhs = lindblad_rhs(rho, np.zeros((4, 4), dtype=complex), jump_operators(p))
    assert rhs[0, 0].real == pytest.approx(-2.0 * gamma)
    # one quantum goes to each singly excited level
    assert rhs[1, 1].real == pytest.approx(gamma)
    assert rhs[2, 2].real == pytest.approx(gamma)
    assert rhs[3, 3].real == pytest.approx(0.0)


def test_exponential_population_decay_without_hamiltonian():
    gamma = 0.25
    free = ModelParams(J=0.0, Jz=0.0, eta=0.0, J0=0.0, B=0.0, b=0.0,
                      gamma=gamma, mu=0)
    assert max_abs(hamiltonian_block(free)) == 0.0
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    cfg = IntegratorConfig(dt=1e-3, t_max=4.0, record_every=100)
    for t, rho in zip(*evolve(rho0, free, cfg)):
        assert rho[0, 0].real == pytest.approx(math.exp(-2 * gamma * t), abs=1e-8)


# --- closed forms vs integration --------------------------------------------

@pytest.mark.parametrize("theta,mu", [(math.pi / 4, 1), (0.0, -1)])
def test_analytic_matches_integration(theta, mu):
    p = ModelParams(theta=theta, mu=mu)
    cfg = IntegratorConfig(dt=1e-3, t_max=5.0, record_every=50)
    times, states = evolve(initial_state(theta), p, cfg)
    assert max_abs(states - analytic_state(p, times)) < 1e-8


def test_analytic_at_zero_reproduces_initial_state(rng):
    for _ in range(20):
        p = random_params(rng)
        assert max_abs(analytic_state(p, 0.0) - initial_state(p.theta)) < 1e-12


def test_unitary_limit_preserves_purity():
    p = ModelParams(gamma=0.0)
    cfg = IntegratorConfig(dt=1e-3, t_max=5.0, record_every=100)
    times, states = evolve(initial_state(p.theta), p, cfg)
    purity = np.trace(states @ states, axis1=-2, axis2=-1).real
    assert max_abs(purity - 1.0) <= 1e-8
    assert max_abs(states - analytic_state(p, times)) < 1e-8


def test_evolution_invariants(rng):
    p = random_params(rng, gamma=0.4)
    cfg = IntegratorConfig(dt=1e-3, t_max=5.0, record_every=100)
    for t, rho in zip(*evolve(initial_state(p.theta), p, cfg)):
        rec = record_from_state(t, rho)
        assert rec.trace_dev < 1e-9
        assert min_eigenvalue(rho) > -1e-9
        assert x_leakage(rho) == 0.0


def test_long_unitary_run_keeps_trace_and_hermiticity():
    # the same stride matrix is applied 20 000 times; its rounding must not add up
    p = ModelParams(gamma=0.0)
    cfg = IntegratorConfig(dt=1e-3, t_max=200.0, record_every=10)
    for t, rho in zip(*evolve(initial_state(p.theta), p, cfg)):
        assert abs(np.trace(rho) - 1.0) < 1e-13
        assert max_abs(rho - rho.conj().T) < 1e-13


def test_recording_grid():
    cfg = IntegratorConfig(dt=0.01, t_max=0.05, record_every=2)
    times, _ = evolve(initial_state(0.3), ModelParams(theta=0.3), cfg)
    assert times.tolist() == pytest.approx([0.0, 0.02, 0.04, 0.05])


def test_propagator_matches_stage_by_stage_rk4(rng):
    # reference: the four-stage RK4 loop on the matrix right-hand side
    p = random_params(rng)
    h, jumps = hamiltonian_block(p), jump_operators(p)
    dt, n_steps = 1e-2, 300
    rho = initial_state(p.theta)
    expected = [rho]
    for _ in range(n_steps):
        k1 = lindblad_rhs(rho, h, jumps)
        k2 = lindblad_rhs(rho + 0.5 * dt * k1, h, jumps)
        k3 = lindblad_rhs(rho + 0.5 * dt * k2, h, jumps)
        k4 = lindblad_rhs(rho + dt * k3, h, jumps)
        rho = rho + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        expected.append(rho)
    cfg = IntegratorConfig(dt=dt, t_max=n_steps * dt, record_every=1)
    _, states = evolve(initial_state(p.theta), p, cfg)
    assert len(states) == len(expected)
    for got, want in zip(states, expected):
        assert max_abs(got - want) < 1e-12


def test_runs_end_exactly_at_t_max():
    p = ModelParams()
    # not a whole number of steps: one short exact RK4 step ends the run
    cfg = IntegratorConfig(dt=1e-3, t_max=0.1005, record_every=10)
    times, states = evolve(initial_state(p.theta), p, cfg)
    t_last, rho_last = times[-1], states[-1]
    assert t_last == 0.1005
    assert max_abs(rho_last - analytic_state(p, 0.1005)) < 1e-9
    cfg = IntegratorConfig(dt=0.3, t_max=1.0, record_every=1)
    times = evolve(initial_state(p.theta), p, cfg)[0].tolist()
    assert times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
    assert times[-1] == 1.0
    # three whole steps, although 3 * 0.1 rounds to 0.30000000000000004
    cfg = IntegratorConfig(dt=0.1, t_max=0.3, record_every=3)
    assert evolve(initial_state(p.theta), p, cfg)[0].tolist() == [0.0, 0.3]


@pytest.mark.parametrize("t_max", [0.1, 0.1005])
def test_strided_samples_match_every_step_samples(t_max):
    # 100 whole steps, not a multiple of the stride; the second window adds a short step
    p = ModelParams()
    every_step = dict(zip(*evolve(initial_state(p.theta), p,
                                  IntegratorConfig(dt=1e-3, t_max=t_max, record_every=1))))
    strided = list(zip(*evolve(initial_state(p.theta), p,
                               IntegratorConfig(dt=1e-3, t_max=t_max, record_every=7))))
    assert [t for t, _ in strided][:-1] == [k * 1e-3 for k in range(0, 99, 7)]
    assert strided[-1][0] == t_max
    for t, rho in strided:
        assert max_abs(rho - every_step[t]) < 1e-12


def test_whole_float_record_every_samples_like_the_int():
    # IntegratorConfig accepts any whole number, so 2.0 must stride like 2
    p = ModelParams()
    runs = [evolve(initial_state(p.theta), p,
                   IntegratorConfig(dt=0.01, t_max=0.05, record_every=every))
            for every in (2, 2.0)]
    assert runs[0][0].tolist() == runs[1][0].tolist()


def test_halving_dt_shrinks_error_by_rk4_factor():
    p = ModelParams()
    errors = {}
    for dt in (2e-3, 1e-3):
        cfg = IntegratorConfig(dt=dt, t_max=5.0, record_every=int(round(0.1 / dt)))
        times, states = evolve(initial_state(p.theta), p, cfg)
        errors[dt] = max_abs(states - analytic_state(p, times))
    assert errors[2e-3] / errors[1e-3] >= 8.0


# --- sampling by doubling ------------------------------------------------------

def _stride_loop(p, cfg, n_strides, rem, short):
    """The samples of one stride step per sample, each with rho44 set from the trace."""
    gen = _liouvillian(hamiltonian_block(p), _precompute_jumps(jump_operators(p)))
    step = _rk4_step(gen, cfg.dt)
    stride = _keep_hermitian(np.linalg.matrix_power(step, cfg.record_every))
    last = np.linalg.matrix_power(step, rem)
    if short:
        last = _rk4_step(gen, short) @ last
    v = initial_state(p.theta).reshape(16)
    trace = v[0] + v[5] + v[10] + v[15]
    samples = [v]
    for m in [stride] * n_strides + ([_keep_hermitian(last)] if rem or short else []):
        v = m @ v
        v[15] = trace - v[0] - v[5] - v[10]
        samples.append(v)
    return np.array(samples).reshape(-1, 4, 4)


# around the powers of two at which a doubling step starts
@pytest.mark.parametrize("n_strides", [0, 1, 2, 3, 4, 7, 8, 9, 31, 32, 33, 64, 65, 67])
@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("tail", [False, True])
def test_block_sampling_matches_a_stride_loop(n_strides, every, tail):
    # with a tail the run also ends on whole steps short of a stride and a half step
    p = ModelParams()
    dt, rem = 0.01, every // 2 if tail else 0
    short = dt / 2 if tail else 0.0
    cfg = IntegratorConfig(dt=dt, t_max=(n_strides * every + rem) * dt + short, record_every=every)
    times, states = evolve(initial_state(p.theta), p, cfg)
    expected = _stride_loop(p, cfg, n_strides, rem, short)
    assert len(times) == len(states) == len(expected) == n_strides + 1 + tail
    assert max_abs(states - expected) <= 1e-13
    # rho44 of every stepped sample is the trace left by the other three populations
    trace = np.trace(states[0])
    rest = trace - states[1:, 0, 0] - states[1:, 1, 1] - states[1:, 2, 2]
    assert np.array_equal(states[1:, 3, 3], rest)


def test_long_undamped_run_stays_near_the_stride_loop():
    # the rounding of the powers S^n grows with the sample count: 3.66e-13 on these 20 001
    # samples, where the first 1001 stay within 1e-13
    p = ModelParams(gamma=0.0, J=3.0, b=-2.5, J0=2.0)
    cfg = IntegratorConfig(dt=0.01, t_max=200.0, record_every=1)
    _, states = evolve(initial_state(p.theta), p, cfg)
    expected = _stride_loop(p, cfg, 20000, 0, 0.0)
    assert max_abs(states - expected) <= 5e-13
    assert max_abs(states[:1001] - expected[:1001]) <= 1e-13
    # each power S^2n is made Hermiticity-preserving again: 5.0e-16 here, 8.8e-14 without
    assert np.max(hermiticity_defect(states)) <= 1e-15


@pytest.mark.parametrize("t_max", [20.0, 20.0005])
def test_evolve_fills_each_block_of_samples_in_one_matmul(monkeypatch, t_max):
    # 2000 strides: a loop of one matmul per sample would make 2000 calls, doubling makes 11
    p = ModelParams()
    cfg = IntegratorConfig(dt=1e-3, t_max=t_max, record_every=10)
    calls = []
    matmul = np.matmul

    def counting(a, b, *args, **kwargs):
        if np.shape(b)[-1] == 1:  # a map applied to the state vectors
            calls.append(np.shape(a))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    times, _ = evolve(initial_state(p.theta), p, cfg)
    n_strides, tail = 2000, t_max != 20.0
    assert len(times) == n_strides + 1 + tail
    assert calls == [(16, 16)] * (math.ceil(math.log2(n_strides + 1)) + tail)


# --- one point per call -------------------------------------------------------

def test_evolve_takes_one_point_and_one_state():
    rho0 = initial_state(0.3)
    with pytest.raises(TypeError, match="got list; call it once per point"):
        evolve(rho0, [ModelParams(), ModelParams(b=1.0)])
    with pytest.raises(ValueError, match=r"must be 4x4, got \(2, 4, 4\)"):
        evolve(np.stack([rho0, rho0]), ModelParams())


def test_jz_and_the_j0_zero_sectors_drop_out():
    # (Jz/4) sz x sz is +Jz/4 on the whole outer block and -Jz/4 on the whole
    # inner block, so it commutes with every X state; at J0 = 0 every sector
    # has Delta = B, and its shift B mu / 2 is a multiple of the identity
    cfg = IntegratorConfig(dt=0.01, t_max=20.0)
    for theta in (0.0, 0.3, math.pi / 4):
        rho0 = initial_state(theta)
        no_jz, jz = (evolve(rho0, ModelParams(theta=theta, Jz=jz), cfg)[1] for jz in (0.0, 3.0))
        assert np.abs(jz - no_jz).max() <= 1e-13
        plus, zero, minus = (evolve(rho0, ModelParams(theta=theta, J0=0.0, mu=mu), cfg)[1]
                             for mu in (1, 0, -1))
        for other in (zero, minus, 0.25 * plus + 0.5 * zero + 0.25 * minus):
            assert np.abs(other - plus).max() <= 1e-13


# --- stationary state ---------------------------------------------------------

def test_steady_state_is_fixed_point(rng):
    for _ in range(50):
        p = random_params(rng)
        ss = steady_state_limit(p)
        validate_density(ss)
        rhs = lindblad_rhs(ss, hamiltonian_block(p), jump_operators(p))
        assert max_abs(rhs) < 1e-12


def test_evolution_approaches_steady_state():
    p = ModelParams(gamma=1.0)
    cfg = IntegratorConfig(dt=1e-3, t_max=40.0, record_every=40000)
    final = evolve(initial_state(p.theta), p, cfg)[1][-1]
    assert max_abs(final - steady_state_limit(p)) < 1e-6


# Omega = 0 (eta = 0 and Delta = J0 mu + B = 0) and omega = 0 (J = 0 and b = 0)
_ZERO_GAPS = [ModelParams(eta=0.0, J0=0.0, B=0.0), ModelParams(J=0.0, b=0.0)]


def test_analytic_long_time_limit_matches_steady_state(rng):
    for p in _ZERO_GAPS + [random_params(rng) for _ in range(20)]:
        horizon = 60.0 / p.gamma
        assert max_abs(analytic_state(p, horizon) - steady_state_limit(p)) < 1e-9


@pytest.mark.parametrize("p", _ZERO_GAPS, ids=["Omega=0", "omega=0"])
def test_steady_state_at_the_closed_form_singular_points(p):
    # the limit divides only by Omega^2 + gamma^2
    ss = steady_state_limit(p)
    assert np.array_equal(ss, np.diag([0.0, 0.0, 0.0, 1.0]))
    cfg = IntegratorConfig(dt=1e-2, t_max=200.0, record_every=20000)
    final = evolve(initial_state(p.theta), p, cfg)[1][-1]
    assert max_abs(final - ss) < 1e-12


# --- error paths --------------------------------------------------------------

def test_unstable_step_raises_with_context():
    p = ModelParams(J=40.0, b=80.0)
    cfg = IntegratorConfig(dt=0.9, t_max=40.0, record_every=1)
    with pytest.raises(StepUnstable) as err:
        evolve(initial_state(p.theta), p, cfg)
    assert "t=" in str(err.value)
    assert "dt=" in str(err.value)


def test_step_outside_stability_region_raises():
    # the linear RK4 step keeps the trace exactly, so this run used to diverge silently
    p = ModelParams()
    cfg = IntegratorConfig(dt=0.7, t_max=10.0, record_every=1)
    with pytest.raises(StepUnstable) as err:
        evolve(initial_state(p.theta), p, cfg)
    assert "dt=0.7" in str(err.value)
    assert "reduce dt" in str(err.value)


def test_step_just_past_the_stability_boundary_is_refused():
    # at the default parameters the RK4 amplification factor crosses 1 near
    # dt = 0.6485: it is 1 + 1.1e-15 at dt = 0.6484 and 1 + 1.46e-5 at
    # dt = 0.64854, so the gate must hold to far better than 1e-5
    p = ModelParams()
    times, _ = evolve(initial_state(p.theta), p,
                      IntegratorConfig(dt=0.6484, t_max=4 * 0.6484, record_every=1))
    assert len(times) == 5
    with pytest.raises(StepUnstable, match=r"amplification factor 1\.00001 > 1"):
        evolve(initial_state(p.theta), p,
               IntegratorConfig(dt=0.64854, t_max=4 * 0.64854, record_every=1))


def test_analytic_rejects_negative_time():
    with pytest.raises(ValueError, match="got -0.1$"):
        analytic_state(ModelParams(), -0.1)
    with pytest.raises(ValueError, match="got -0.001$"):
        analytic_state(ModelParams(), [0.0, 1.0, -1e-3])


def test_sin_over_is_continuous_at_zero():
    # sin(x t)/x at x = 0 is its limit t; analytic_state multiplies it by 0 there
    times = np.linspace(0.0, 20.0, 201)
    for t, sin in [(times, np.sin), (7.5, math.sin)]:
        assert np.array_equal(_sin_over(0.0, t, sin), t)
        for x in (1e-8, -1e-8):
            assert max_abs(_sin_over(x, t, sin) - t) < 1e-12


@pytest.mark.parametrize("p,nudges", [
    (_ZERO_GAPS[0], [{"eta": 1e-8}, {"B": 1e-8}]),
    (_ZERO_GAPS[1], [{"J": 1e-8}, {"b": 1e-8}]),
    (ModelParams(eta=0.0, J0=0.0, B=0.0, gamma=0.0), [{"eta": 1e-8}, {"B": 1e-8}]),
], ids=["Omega=0", "omega=0", "Omega=0,gamma=0"])
def test_analytic_at_zero_gaps_matches_integration(p, nudges):
    # sin(x t)/x and (1 - cos(x t))/x^2 are entire in the gap x, so the zeros are ordinary points
    cfg = IntegratorConfig(dt=1e-3, t_max=5.0, record_every=10)
    times, states = evolve(initial_state(p.theta), p, cfg)
    exact = analytic_state(p, times)
    assert max_abs(states - exact) < 1e-9
    for i in (1, len(times) // 2, -1):
        assert max_abs(states[i] - analytic_state(p, float(times[i]))) < 1e-9
    # the value at the zero is the limit along either path into it
    for nudge in nudges:
        assert max_abs(analytic_state(replace(p, **nudge), times) - exact) < 1e-6


def test_stacked_closed_form_matches_scalar_form(rng):
    # t = 0 first and t_max = 20 last, as on an `evolve` grid
    times = np.linspace(0.0, 20.0, 401)
    for p in [ModelParams(), ModelParams(gamma=0.0)] + [random_params(rng) for _ in range(5)]:
        stack = analytic_state(p, times)
        assert stack.shape == (len(times), 4, 4)
        for t, rho in zip(times, stack):
            one = analytic_state(p, float(t))
            assert one.shape == (4, 4)
            assert max_abs(rho - one) <= 1e-15
        assert max_abs(stack[0] - initial_state(p.theta)) < 1e-12


def test_steady_state_requires_dissipation():
    with pytest.raises(NoDissipation):
        steady_state_limit(ModelParams(gamma=0.0))


@pytest.mark.parametrize("kwargs", [
    dict(dt=0.0), dict(dt=-1e-3), dict(t_max=-1.0), dict(record_every=0),
])
def test_integrator_config_validation(kwargs):
    with pytest.raises(ValueError):
        IntegratorConfig(**{**dict(dt=1e-3, t_max=1.0, record_every=1), **kwargs})


def test_record_from_state_fields():
    rho = initial_state(math.pi / 4)
    rec = record_from_state(1.5, rho)
    assert rec.t == 1.5
    assert rec.rho22 == pytest.approx(0.5)
    assert rec.rho33 == pytest.approx(0.5)
    assert rec.abs_rho23 == pytest.approx(0.5)
    assert rec.abs_rho14 == 0.0
    assert rec.trace_dev < 1e-15
    assert min_eigenvalue(rho) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("t,count,message", [
    (np.zeros(3), 5, r"times of shape \(3,\) for states of shape \(5, 4, 4\)"),
    (np.zeros(3), None, r"times of shape \(3,\) for states of shape \(4, 4\)"),
    (0.0, 5, r"times of shape \(\) for states of shape \(5, 4, 4\)"),
], ids=["3-times-5-states", "3-times-1-state", "1-time-5-states"])
def test_record_from_state_needs_one_time_per_state(t, count, message):
    rho = initial_state(math.pi / 4)
    states = rho if count is None else np.stack([rho] * count)
    with pytest.raises(ValueError, match=f"^{message}$"):
        record_from_state(t, states)


@pytest.mark.parametrize("draw", [random_x_state, random_density])
def test_stacked_records_match_single_state_calls(draw, rng):
    stack = np.array([draw(rng) for _ in range(50)])
    times = np.linspace(0.0, 4.9, 50)
    rec = record_from_state(times, stack)
    leak = x_leakage(stack)
    defect = hermiticity_defect(stack)
    low = min_eigenvalue(stack)
    assert leak.shape == defect.shape == low.shape == (50,)
    for k, rho in enumerate(stack):
        one = record_from_state(times[k], rho)
        assert isinstance(one.trace_dev, float)
        assert isinstance(min_eigenvalue(rho), float)
        assert abs(low[k] - min_eigenvalue(rho)) <= 1e-15
        for field in TimeSeriesRecord.__dataclass_fields__:
            assert abs(getattr(rec, field)[k] - getattr(one, field)) <= 1e-15
        assert leak[k] == x_leakage(rho)
        assert defect[k] == hermiticity_defect(rho)
