"""Open-system dynamics of the damped dimer.

The state obeys the Markovian master equation

    d(rho)/dt = -i [H, rho]
                + gamma * sum_j ( L_j rho L_j^+ - {L_j^+ L_j, rho}/2 )

with H from `model.hamiltonian_block` and L_j the per-site lowering
operators. Because H shares the X sparsity pattern and both jump operators
map X states to X states, an X-form initial condition stays X-form for all
times; populations couple only to populations and each coherence evolves
inside its own 2x2 block.

Two independent routes to rho(t) live here and the test suite pins them to
elementwise agreement: * `analytic_state` evaluates closed-form
trajectories; * `evolve` integrates the generator directly with a classical
fixed-step 4th-order Runge-Kutta scheme.

The generator is linear, so one RK4 step of length dt is exactly the matrix
polynomial P = I + A + A^2/2 + A^3/6 + A^4/24 with A = dt L, where L is the
16x16 Liouvillian acting on vec(rho) (the degree-4 Taylor polynomial of
exp(dt L); Hairer & Wanner, Solving ODEs II, IV.2). `evolve` builds L by
applying the generic right-hand side to the 16 basis matrices, forms P once
and fills the samples by doubling: with S = P^record_every the stride, samples
n .. 2n-1 are S^n applied to samples 0 .. n-1, for n = 1, 2, 4, .... Because L
annihilates the trace, P preserves it exactly, so divergence never shows as
trace loss: stability is decided before integrating, from the spectral
radius of P (the RK4 amplification factor max |R(dt lambda)| over the
eigenvalues lambda of L). The two identities every RK4 step keeps, trace
and Hermiticity, are kept exact in the propagation too, so that the
rounding of the powers S^n cannot accumulate in them.

`evolve` integrates one parameter point from one initial state and
returns arrays, (times[T], states[T, 4, 4]). A sweep or a sector mixture
calls it once per point.

The per-sample helpers (`x_leakage`, `record_from_state`,
`min_eigenvalue`) take one 4x4 state or a (T, 4, 4) stack of states and
return floats for one state and length-T arrays for a stack, so a whole
trajectory is reduced in one call. They and every measure route read their
input through `as_states` once, which raises a ValueError naming the shape of
anything else, or naming NaN or Inf entries. `hermiticity_defect` takes any
square matrix or stack of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelParams, derived_scales, hamiltonian_block, jump_operators

# an RK4 step matrix is unstable once its spectral radius exceeds 1 by this
_RADIUS_TOL = 1e-12

# whole steps within this fraction of t_max / dt count as filling the window
_STEP_COUNT_RTOL = 1e-9

# X-form off-pattern budget for states fed to the X-only measures
X_FORM_TOL = 1e-9

# largest max |a_ij - conj(a_ji)| accepted for a state or a generator
HERMITIAN_TOL = 1e-10

# density eigenvalues in [-EIG_CLAMP, 0) count as roundoff; below is an error
EIG_CLAMP = 1e-9

# trace budget enforced on the initial state of a run
_TRACE_TOL = 1e-9

class StepUnstable(RuntimeError):
    """dt lies outside the RK4 stability region of the generator.

    Raised by `evolve` before it integrates, when the amplification factor
    (spectral radius) of a step matrix exceeds 1 or is not finite. `index`
    is the sweep point the failure belongs to: `evolve` leaves it 0 and
    `cli.scenario_rows` sets it.
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class NoDissipation(ValueError):
    """Long-time limit requested with gamma = 0; no unique stationary state."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration window and sampling cadence."""

    dt: float = 1e-3
    t_max: float = 20.0
    record_every: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not (math.isfinite(self.t_max) and self.t_max >= 0):
            raise ValueError(f"t_max must be >= 0 and finite, got {self.t_max!r}")
        if int(self.record_every) != self.record_every or self.record_every < 1:
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every!r}")


class XComponents(NamedTuple):
    """The six independent entries of an X-form state (arrays for a stack).

    Populations are returned as real parts; their imaginary parts are
    bounded by the Hermiticity budget of the state.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: complex
    rho23: complex


# row and column indices of the entries outside the X sparsity pattern
_OFF_ROWS, _OFF_COLS = np.array([(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]).T


def per_state(values):
    """A float for one state's 0-d result, the array itself for a stack's."""
    return float(values) if np.ndim(values) == 0 else values


def as_states(rho) -> np.ndarray:
    """rho as a complex (4, 4) or (N, 4, 4) array of finite entries.

    Any other shape, or a NaN or Inf entry, raises ValueError.
    """
    r = np.asarray(rho, dtype=complex)
    if r.ndim not in (2, 3) or r.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 state or an (N, 4, 4) stack, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("state contains NaN or Inf entries")
    return r


def magnitude(z):
    """|z| computed as hypot(Re z, Im z), the rounding of Python's abs(complex).

    np.abs on complex numbers differs from it in the last bit for about a
    third of inputs.
    """
    return np.hypot(np.real(z), np.imag(z))


def _x_components(r: np.ndarray) -> XComponents:
    # r has passed as_states; [()] turns the 0-d results of one state into numpy scalars
    return XComponents(
        rho11=r[..., 0, 0].real[()],
        rho22=r[..., 1, 1].real[()],
        rho33=r[..., 2, 2].real[()],
        rho44=r[..., 3, 3].real[()],
        rho14=r[..., 0, 3][()],
        rho23=r[..., 1, 2][()],
    )


def x_leakage(rho) -> float | np.ndarray:
    """Largest entry magnitude outside the X sparsity pattern, per state."""
    return per_state(_x_leakage(as_states(rho)))


def _x_leakage(r: np.ndarray) -> np.ndarray:
    return np.max(np.abs(r[..., _OFF_ROWS, _OFF_COLS]), axis=-1)


def max_abs(a) -> float:
    """Largest entry magnitude (elementwise infinity norm)."""
    return float(np.max(np.abs(np.asarray(a))))


def hermiticity_defect(a) -> float | np.ndarray:
    """max |a_ij - conj(a_ji)| of a square matrix, per matrix of a stack.

    The root of the largest re^2 + im^2 of the difference: one square root
    per matrix rather than a complex abs per entry. re and im are read from
    the interleaved float64 view of the input, made contiguous first.
    """
    m = np.ascontiguousarray(a, dtype=complex)
    v = m.view(np.float64).reshape(m.shape + (2,))
    t = v.swapaxes(-3, -2)
    sq = v[..., 0] - t[..., 0]
    im = v[..., 1] + t[..., 1]
    sq *= sq
    im *= im
    sq += im
    return per_state(np.sqrt(np.max(sq, axis=(-2, -1))))


def min_eigenvalue(states) -> float | np.ndarray:
    """Smallest eigenvalue of each state's Hermitian part, the generic check of min_eig."""
    return per_state(_min_eigenvalue(as_states(states)))


def _min_eigenvalue(r: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((r + r.conj().swapaxes(-1, -2)) / 2.0)[..., 0]


def validate_density(rho) -> np.ndarray:
    """Check the density-matrix invariants, returning the array on success.

    4x4 with finite entries (`as_states`), Hermitian within HERMITIAN_TOL,
    unit trace within 1e-9, eigenvalues above -1e-9.
    """
    if np.shape(rho) != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {np.shape(rho)}")
    r = as_states(rho)
    herm = hermiticity_defect(r)
    if herm > HERMITIAN_TOL:
        raise ValueError(f"density matrix hermiticity defect {herm:.3e} > {HERMITIAN_TOL:.3e}")
    tr_dev = abs(complex(np.trace(r)) - 1.0)
    if tr_dev > _TRACE_TOL:
        raise ValueError(f"density matrix trace deviates from 1 by {tr_dev:.3e}")
    min_eig = _min_eigenvalue(r)
    if min_eig < -EIG_CLAMP:
        raise ValueError(f"density matrix eigenvalue {min_eig:.3e} below {-EIG_CLAMP:.3e}")
    return r


def _precompute_jumps(jumps):
    pre = []
    for op, rate in jumps:
        op = np.asarray(op, dtype=complex)
        op_dag = op.conj().T
        # a float rate scales every state; an (N,) array scales the N states of a stack, one each
        rate = np.asarray(rate, dtype=float)[..., None, None]
        pre.append((op, op_dag, op_dag @ op, rate))
    return pre


def _rhs(rho, h, pre):
    out = -1j * (h @ rho - rho @ h)
    for op, op_dag, number, rate in pre:
        out += rate * (op @ rho @ op_dag - 0.5 * (number @ rho + rho @ number))
    return out


def lindblad_rhs(rho, h, jumps) -> np.ndarray:
    """Right-hand side of the master equation for state `rho`.

    `jumps` is a list of (operator, rate) pairs as produced by
    `model.jump_operators`. The result is traceless and Hermitian for
    Hermitian input (up to roundoff).

    For N points at once, `rho` and `h` are (N, 4, 4) stacks and each rate
    is a float or an (N,) array; the result is the (N, 4, 4) stack of the
    single-state right-hand sides.
    """
    return _rhs(np.asarray(rho, dtype=complex), np.asarray(h, dtype=complex),
                _precompute_jumps(jumps))


def _liouvillian(h, pre) -> np.ndarray:
    """The generator as a 16x16 matrix on row-major vec(rho).

    Column k is the right-hand side applied to the k-th basis matrix, so the
    matrix knows nothing of the X structure.
    """
    basis = np.eye(16, dtype=complex).reshape(16, 4, 4)
    return _rhs(basis, h, pre).reshape(16, 16).T


def _rk4_step(gen: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of length h for v' = gen v, as a matrix."""
    a = h * gen
    eye = np.eye(a.shape[-1], dtype=complex)
    return eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)


def _check_stable(step: np.ndarray, h: float, cfg: IntegratorConfig) -> None:
    """Raise StepUnstable when a step of length h has spectral radius above 1 or not finite."""
    radius = np.max(np.abs(np.linalg.eigvals(step))) if np.isfinite(step).all() else math.inf
    if not radius <= 1.0 + _RADIUS_TOL:
        raise StepUnstable(
            f"RK4 amplification factor {radius:.6g} > 1 for a step of {h:g} "
            f"(dt={cfg.dt:g}): the run over t=0..{cfg.t_max:g} would diverge; reduce dt")


def _keep_hermitian(m: np.ndarray) -> np.ndarray:
    """m made to map Hermitian matrices to Hermitian ones exactly, as RK4 does.

    The map that transposes both sides takes entry (4i + j, 4k + l) of m to
    (4j + i, 4l + k), the row-major vec(rho) position of rho transposed.
    """
    t = m.reshape(m.shape[:-2] + (4, 4, 4, 4)).swapaxes(-4, -3).swapaxes(-2, -1)
    return 0.5 * (m + t.reshape(m.shape).conj())


def _fill(dest: np.ndarray, src: np.ndarray, power: np.ndarray, trace: complex) -> None:
    """Fill the samples dest with the 16x16 map power applied to the samples src, in one matmul.

    Each sample is then given rho44 from the trace, which every RK4 step
    keeps exactly; the rounding of the maps would otherwise move it.
    """
    np.matmul(power, src[..., None], out=dest[..., None])
    dest[:, 15] = trace - dest[:, 0] - dest[:, 5] - dest[:, 10]


def _step_split(t_max: float, dt: float) -> tuple[int, float]:
    """Whole steps of length dt that fit in [0, t_max], and the time left over."""
    ratio = t_max / dt
    n_steps = round(ratio)
    if abs(ratio - n_steps) <= _STEP_COUNT_RTOL * ratio:
        return n_steps, 0.0
    n_steps = math.floor(ratio)
    return n_steps, t_max - n_steps * dt


def evolve(rho0, p: ModelParams, cfg: IntegratorConfig | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the master equation of point `p` from the 4x4 state `rho0` with fixed-step RK4.

    The RK4 step is applied as a precomputed 16x16 propagator. Returns
    (times[T], states[T, 4, 4]) sampled at t = 0, every `cfg.record_every`
    steps, and t = `cfg.t_max`. When t_max is not a whole number of steps,
    one exact RK4 step of the remaining length ends the run at t_max.

    The samples are filled by doubling, in about log2(T) matmuls for T
    samples: with S the stride, samples n .. 2n-1 are S^n applied to
    samples 0 .. n-1, for n = 1, 2, 4, .... They differ from repeated
    single stride steps by up to about 1e-16 T, growing with the rounding
    of the powers S^n: within 1e-13 up to about 1000 samples, 3.7e-13 on
    a 20 001-sample undamped run.

    Raises StepUnstable before integrating when the spectral radius of a
    step matrix that the run applies exceeds 1 + 1e-12 or is not finite.
    Raises ValueError, before integrating too, when the arrays of the
    samples cannot be allocated.
    """
    if not isinstance(p, ModelParams):
        raise TypeError(f"evolve integrates one ModelParams, got {type(p).__name__}; "
                        "call it once per point")
    if cfg is None:
        cfg = IntegratorConfig()
    rho = validate_density(rho0)
    gen = _liouvillian(hamiltonian_block(p), _precompute_jumps(jump_operators(p)))
    dt, every = cfg.dt, int(cfg.record_every)
    n_steps, tail = _step_split(cfg.t_max, dt)
    step = _rk4_step(gen, dt)
    if n_steps:
        _check_stable(step, dt, cfg)
    last = np.linalg.matrix_power(step, n_steps % every)
    if tail:
        short = _rk4_step(gen, tail)
        _check_stable(short, tail, cfg)
        last = short @ last
    stride = _keep_hermitian(np.linalg.matrix_power(step, every))
    last = _keep_hermitian(last)

    ends_on_stride = not (n_steps % every or tail)
    n_samples = n_steps // every + 1 + (not ends_on_stride)
    try:
        # the states first: np.empty touches no page, so a grid too large is refused
        # before the times are filled
        states = np.empty((n_samples, 16), dtype=complex)
        times = np.arange(0, n_steps + 1, every) * dt
    except MemoryError as exc:
        raise ValueError(
            f"the {n_samples} samples of dt={dt:g} over t=0..{cfg.t_max:g} "
            f"(record_every={every}) cannot be allocated: {exc}; "
            "raise dt or record_every") from exc
    if not ends_on_stride:
        times = np.append(times, cfg.t_max)
    elif n_steps:
        times[-1] = cfg.t_max
    states[0] = rho.reshape(16)
    trace = np.trace(rho)
    n_strides = n_steps // every
    # samples n .. 2n-1 are S^n applied to samples 0 .. n-1
    n, power = 1, stride
    while n <= n_strides:
        k = min(n, n_strides + 1 - n)
        _fill(states[n:n + k], states[:k], power, trace)
        n *= 2
        if n <= n_strides:
            power = _keep_hermitian(power @ power)
    if not ends_on_stride:
        _fill(states[-1:], states[-2:-1], last, trace)
    return times, states.reshape(len(times), 4, 4)


def _sin_over(x: float, t, sin):
    """sin(x t) / x, an entire function of x that is t at x = 0."""
    return sin(x * t) / x if x else t


def analytic_state(p: ModelParams, t: float | np.ndarray) -> np.ndarray:
    """Closed-form X-state trajectory at time t >= 0, or at each of times t[T].

    Evaluates the exact solution of the master equation for the initial
    state sin(theta)|01> + cos(theta)|10>: a (4, 4) state for a scalar t,
    a (T, 4, 4) stack for an array of times. It takes every point the CLI
    accepts, Omega = 0 (eta = 0 and Delta = 0) and omega = 0 (J = 0 and
    b = 0) included: the gaps x = Omega, omega enter only through the
    entire functions sin(x t)/x and (1 - cos(x t))/x^2 = 2 (sin(x t/2)/x)^2,
    and every other ratio has the denominator D = Omega^2 + gamma^2. D is 0
    only at gamma = 0 with J eta = 0, where both ratios over it, J^2 eta^2/D
    and J eta/D, are taken as 0.
    """
    times = np.asarray(t, dtype=float)
    # one time is evaluated in Python floats, several times faster than in a 0-d array
    if times.ndim:
        t, exp, sin, cos = times, np.exp, np.sin, np.cos
        earliest = float(times.min(initial=0.0))
    else:
        t, exp, sin, cos = float(times), math.exp, math.sin, math.cos
        earliest = t
    if earliest < 0:
        raise ValueError(f"t must be >= 0, got {earliest!r}")
    delta, big_om, om = derived_scales(p)

    j, eta, b, g = p.J, p.eta, p.b, p.gamma
    denom = big_om * big_om + g * g
    je = j * eta / denom if denom else 0.0  # J eta / D
    k = j * eta * je  # J^2 eta^2 / D
    s2t = math.sin(2.0 * p.theta)
    c2t = math.cos(2.0 * p.theta)
    eg = exp(-g * t)
    eg2 = exp(-2.0 * g * t)
    sinc_big = _sin_over(big_om, t, sin)  # sin(Omega t) / Omega
    vers_big = 2.0 * _sin_over(big_om, 0.5 * t, sin) ** 2  # (1 - cos(Omega t)) / Omega^2
    sinc_om = _sin_over(om, t, sin)  # sin(omega t) / omega
    vers_om = 2.0 * _sin_over(om, 0.5 * t, sin) ** 2  # (1 - cos(omega t)) / omega^2

    damped = 1.0 + g * g * vers_big
    rho11 = k * (1.0 - eg2 - 2.0 * g * sinc_big * eg) / 4.0
    inner = (1.0 - k * damped) * eg / 2.0 + k * (1.0 + eg2) / 4.0
    swap = (c2t + j * (2.0 * b * s2t - j * c2t) * vers_om) * eg / 2.0
    rho22 = inner - swap
    rho33 = inner + swap
    rho44 = (k * g * sinc_big / 2.0 - 1.0 + k * damped) * eg + 1.0 - k * (3.0 + eg2) / 4.0
    rho23 = (s2t - (j * c2t - 2.0 * b * s2t) * (1j * sinc_om - 2.0 * b * vers_om)) * eg / 2.0
    rho14 = je * ((g * (1j * g + 2.0 * delta) * sinc_big + 1j * g * cos(big_om * t)
                   + 2.0 * delta * damped) * eg - (1j * g + 2.0 * delta)) / 2.0

    rho = np.zeros(times.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = rho11
    rho[..., 1, 1] = rho22
    rho[..., 2, 2] = rho33
    rho[..., 3, 3] = rho44
    rho[..., 1, 2] = rho23
    rho[..., 2, 1] = np.conj(rho23)
    rho[..., 0, 3] = rho14
    rho[..., 3, 0] = np.conj(rho14)
    return rho


def steady_state_limit(p: ModelParams) -> np.ndarray:
    """The t -> infinity limit of the closed-form trajectories.

    Populations rho11 = rho22 = rho33 = J^2 eta^2 / (4 (Omega^2 + gamma^2)),
    rho44 carries the rest of the trace, rho23 -> 0, and
    rho14 -> -J eta (i gamma + 2 Delta) / (2 (Omega^2 + gamma^2)).
    Independent of theta. Requires gamma > 0, and nothing else: it divides
    only by Omega^2 + gamma^2. With eta = 0 or J = 0 the limit is the pure
    state |11><11|.
    """
    if p.gamma == 0:
        raise NoDissipation("gamma = 0: no unique long-time limit")
    delta, big_om, _ = derived_scales(p)
    g = p.gamma
    denom = big_om**2 + g * g
    pop = p.J**2 * p.eta**2 / (4.0 * denom)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[1, 1] = rho[2, 2] = pop
    rho[3, 3] = (big_om**2 + 12.0 * delta**2 + 4.0 * g * g) / (4.0 * denom)
    rho14 = -p.J * p.eta * (1j * g + 2.0 * delta) / (2.0 * denom)
    rho[0, 3] = rho14
    rho[3, 0] = np.conj(rho14)
    return rho


@dataclass(frozen=True)
class TimeSeriesRecord:
    """Time, populations, coherence magnitudes and trace deviation of samples.

    Each field is a float for one sample and a length-T array for a stack.
    The measures, `min_eig` among them, are `measures.MeasureSet`'s.
    """

    t: float
    rho11: float
    rho22: float
    rho33: float
    rho44: float
    abs_rho14: float
    abs_rho23: float
    trace_dev: float


def record_from_state(t, rho) -> TimeSeriesRecord:
    """The record of one state at time t, or of a (T, 4, 4) stack at times t[T], one per state."""
    r = as_states(rho)
    t = np.asarray(t, dtype=float)
    if t.shape != r.shape[:-2]:
        raise ValueError(f"times of shape {t.shape} for states of shape {r.shape}")
    c = _x_components(r)
    return TimeSeriesRecord(
        t=per_state(t),
        rho11=per_state(c.rho11),
        rho22=per_state(c.rho22),
        rho33=per_state(c.rho33),
        rho44=per_state(c.rho44),
        abs_rho14=per_state(magnitude(c.rho14)),
        abs_rho23=per_state(magnitude(c.rho23)),
        trace_dev=per_state(np.abs(np.trace(r, axis1=-2, axis2=-1) - 1.0)),
    )
