import math

import numpy as np
import pytest

from helpers import random_density, random_params, random_x_state
from spinchain import (
    IntegratorConfig,
    ModelParams,
    NoDissipation,
    NotHermitian,
    SingularScale,
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
    _SAMPLE_BLOCK,
    HERMITIAN_TOL,
    TimeSeriesRecord,
    _keep_hermitian,
    _liouvillian,
    _precompute_jumps,
    _rk4_step,
    hermiticity_defect,
    max_abs,
    min_eigenvalue,
    x_components,
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


def test_x_components_extraction(rng):
    rho = random_x_state(rng)
    xc = x_components(rho)
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
    with pytest.raises(ValueError, match="NaN or Inf"):
        evolve(np.stack([rho, nan_entry]), [ModelParams(), ModelParams(b=1.0)])


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


# --- block sampling ---------------------------------------------------------------

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


B = _SAMPLE_BLOCK


@pytest.mark.parametrize("n_strides", [0, 1, B - 1, B, B + 1, 2 * B + 3])
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


@pytest.mark.parametrize("t_max", [20.0, 20.0005])
def test_evolve_fills_each_block_of_samples_in_one_matmul(monkeypatch, t_max):
    # 2000 strides: a loop of one matmul per sample would make 2000 calls, blocks make 63
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
    assert 0 < len(calls) <= math.ceil(n_strides / B) + tail


# --- batched integration --------------------------------------------------------

def _assert_batch_matches_single_calls(rho0, points, cfg):
    times, states = evolve(rho0, points, cfg)
    assert states.shape == (len(points), len(times), 4, 4)
    for k, p in enumerate(points):
        one_times, one_states = evolve(rho0 if np.ndim(rho0) == 2 else rho0[k], p, cfg)
        assert np.array_equal(one_times, times)
        assert np.array_equal(one_states, states[k])  # bit for bit


@pytest.mark.parametrize("t_max", [0.2, 0.2005])
def test_batched_points_match_single_calls(t_max):
    # 200 whole steps, not a multiple of the stride: 66 strides, three blocks of samples;
    # the second window adds a short tail step
    points = [ModelParams(b=b, mu=mu) for b in (0.5, 1.5, 2.5) for mu in (1, 0, -1)]
    _assert_batch_matches_single_calls(initial_state(math.pi / 4), points,
                                       IntegratorConfig(dt=1e-3, t_max=t_max, record_every=3))


def test_batched_theta_sweep_matches_single_calls():
    # a theta sweep starts every point from its own initial state
    thetas = np.linspace(0.0, 1.5, 4)
    points = [ModelParams(theta=float(theta)) for theta in thetas]
    rho0 = np.stack([initial_state(theta) for theta in thetas])
    # 33 strides, two blocks of samples, then a short tail step
    _assert_batch_matches_single_calls(rho0, points,
                                       IntegratorConfig(dt=1e-3, t_max=0.1005, record_every=3))


def test_batched_evolve_rejects_mismatched_inputs():
    points = [ModelParams(), ModelParams(b=1.0)]
    with pytest.raises(ValueError, match="3 initial states for 2 parameter points"):
        evolve(np.stack([initial_state(0.3)] * 3), points)
    with pytest.raises(ValueError, match="at least one"):
        evolve(initial_state(0.3), [])


def test_batched_unstable_point_is_named_by_index():
    # at dt = 0.01 the RK4 step is stable for b = 50 and 100 and unstable from b = 150 on
    cfg = IntegratorConfig(dt=0.01, t_max=1.0, record_every=1)
    points = [ModelParams(b=b) for b in (50.0, 100.0, 150.0, 200.0)]
    with pytest.raises(StepUnstable) as err:
        evolve(initial_state(0.3), points, cfg)
    assert err.value.index == 2
    with pytest.raises(StepUnstable) as single:
        evolve(initial_state(0.3), points[2], cfg)
    assert single.value.index == 0
    assert str(err.value) == str(single.value)


def test_jz_and_the_j0_zero_sectors_drop_out():
    # (Jz/4) sz x sz is +Jz/4 on the whole outer block and -Jz/4 on the whole
    # inner block, so it commutes with every X state; at J0 = 0 every sector
    # has Delta = B, and its shift B mu / 2 is a multiple of the identity
    cfg = IntegratorConfig(dt=0.01, t_max=20.0)
    thetas = (0.0, 0.3, math.pi / 4)
    rho0 = np.stack([initial_state(theta) for theta in thetas])
    _, states = evolve(np.repeat(rho0, 2, axis=0),
                       [ModelParams(theta=theta, Jz=jz) for theta in thetas for jz in (0.0, 3.0)],
                       cfg)
    assert np.abs(states[0::2] - states[1::2]).max() <= 1e-13
    _, states = evolve(np.repeat(rho0, 3, axis=0),
                       [ModelParams(theta=theta, J0=0.0, mu=mu) for theta in thetas
                        for mu in (1, 0, -1)], cfg)
    plus, zero, minus = states.reshape(3, 3, *states.shape[1:]).swapaxes(0, 1)
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


def test_analytic_long_time_limit_matches_steady_state(rng):
    for _ in range(20):
        p = random_params(rng)
        horizon = 60.0 / p.gamma
        assert max_abs(analytic_state(p, horizon) - steady_state_limit(p)) < 1e-9


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


def test_analytic_rejects_singular_scales():
    for t in (1.0, [0.0, 1.0]):
        with pytest.raises(SingularScale):
            analytic_state(ModelParams(eta=0.0, J0=0.0, B=0.0), t)
        with pytest.raises(SingularScale):
            analytic_state(ModelParams(J=0.0, b=0.0), t)


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
