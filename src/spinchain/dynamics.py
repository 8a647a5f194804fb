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
and fills the samples a block at a time, applying the stacked powers S, S^2, ..., S^32 of
the stride S = P^record_every to the first state of each block. Because L
annihilates the trace, P preserves it exactly, so divergence never shows as
trace loss: stability is decided before integrating, from the spectral
radius of P (the RK4 amplification factor max |R(dt lambda)| over the
eigenvalues lambda of L). The two identities every RK4 step keeps, trace
and Hermiticity, are kept exact in the propagation too, so that the
rounding of the matrices applied block after block cannot accumulate in
them.

`evolve` returns arrays, (times[T], states[..., T, 4, 4]). Given a
sequence of N parameter points (a sweep, the sectors of a mixture) it
builds the (N, 16, 16) propagators, gates each for stability, and steps
all N in one loop of stacked matrix-vector products. The block length does
not depend on N, so each point's states are bit for bit those of its own
call.

The per-sample helpers (`x_components`, `x_leakage`, `record_from_state`,
`min_eigenvalue`) take one 4x4 state or a (T, 4, 4) stack of states and
return floats for one state and length-T arrays for a stack, so a whole
trajectory is reduced in one call. They and every measure route read their
input through `as_states`, which raises a ValueError naming the shape of
anything else, or naming NaN or Inf entries. `hermiticity_defect` takes any
square matrix or stack of them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import DerivedScales, ModelParams, derived_scales, hamiltonian_block, jump_operators

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

# evolve fills this many samples per matmul, from a stack of stride powers
_SAMPLE_BLOCK = 32

# row-major vec(rho) position of each entry of rho transposed
_TRANSPOSED = np.arange(16).reshape(4, 4).T.reshape(16)


class StepUnstable(RuntimeError):
    """dt lies outside the RK4 stability region of the generator.

    Raised by `evolve` before it integrates, when the amplification factor
    (spectral radius) of a step matrix exceeds 1 or is not finite. `index`
    is the position of the failing point among those integrated together
    (0 for a single one).
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class SingularScale(ValueError):
    """A closed-form expression divides by Omega or omega equal to zero."""


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


def x_components(rho) -> XComponents:
    r = as_states(rho)
    # [()] turns the 0-d results of one state into numpy scalars
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
    r = as_states(rho)
    return per_state(np.max(np.abs(r[..., _OFF_ROWS, _OFF_COLS]), axis=-1))


def max_abs(a) -> float:
    """Largest entry magnitude (elementwise infinity norm)."""
    return float(np.max(np.abs(np.asarray(a))))


def hermiticity_defect(a) -> float | np.ndarray:
    """max |a_ij - conj(a_ji)| of a square matrix, per matrix of a stack.

    The root of the largest re^2 + im^2 of the difference: one square root
    per matrix rather than a complex abs per entry.
    """
    m = np.asarray(a, dtype=complex)
    sq = m.real - m.real.swapaxes(-1, -2)
    im = m.imag + m.imag.swapaxes(-1, -2)
    sq *= sq
    im *= im
    sq += im
    return per_state(np.sqrt(np.max(sq, axis=(-2, -1))))


def min_eigenvalue(states) -> float | np.ndarray:
    """Smallest eigenvalue of each state's Hermitian part, the generic check of min_eig."""
    r = as_states(states)
    return per_state(np.linalg.eigvalsh((r + r.conj().swapaxes(-1, -2)) / 2.0)[..., 0])


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
    min_eig = min_eigenvalue(r)
    if min_eig < -EIG_CLAMP:
        raise ValueError(f"density matrix eigenvalue {min_eig:.3e} below {-EIG_CLAMP:.3e}")
    return r


def _precompute_jumps(jumps):
    pre = []
    for op, rate in jumps:
        op = np.asarray(op, dtype=complex)
        op_dag = op.conj().T
        pre.append((op, op_dag, op_dag @ op, float(rate)))
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
    """One classical RK4 step of length h for v' = gen v, as a matrix (per matrix of a stack)."""
    a = h * gen
    eye = np.eye(a.shape[-1], dtype=complex)
    return eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)


def _spectral_radii(steps: np.ndarray) -> np.ndarray:
    """Spectral radius of each matrix of a stack; inf where one is not finite."""
    radii = np.full(len(steps), math.inf)
    finite = np.all(np.isfinite(steps), axis=(-2, -1))
    if finite.any():
        radii[finite] = np.max(np.abs(np.linalg.eigvals(steps[finite])), axis=-1)
    return radii


def _check_stable(checks: list[tuple[np.ndarray, float]], cfg: IntegratorConfig) -> None:
    """Raise StepUnstable for the first point with a step matrix of radius above 1.

    `checks` holds (steps[N, 16, 16], h) pairs in the order one point applies them.
    """
    radii = [_spectral_radii(steps) for steps, _ in checks]
    for index, point_radii in enumerate(zip(*radii)):
        for (_, h), radius in zip(checks, point_radii):
            if not radius <= 1.0 + _RADIUS_TOL:
                raise StepUnstable(
                    f"RK4 amplification factor {radius:.6g} > 1 for a step of {h:g} "
                    f"(dt={cfg.dt:g}): the run over t=0..{cfg.t_max:g} would diverge; reduce dt",
                    index)


def _keep_hermitian(m: np.ndarray) -> np.ndarray:
    """m made to map Hermitian matrices to Hermitian ones exactly, as RK4 does."""
    return 0.5 * (m + m[..., _TRANSPOSED[:, None], _TRANSPOSED].conj())


def _stride_powers(stride: np.ndarray, count: int) -> np.ndarray:
    """The powers S, S^2, ..., S^count of each point's stride matrix S, (N, count, 16, 16).

    Each power is kept Hermiticity-preserving like S itself.
    """
    powers = np.empty((len(stride), count, 16, 16), dtype=complex)
    powers[:, :1] = stride[:, None]
    for j in range(1, count):
        powers[:, j] = _keep_hermitian(stride @ powers[:, j - 1])
    return powers


def _fill(states: np.ndarray, k: int, maps: np.ndarray, trace: np.ndarray) -> None:
    """Fill the samples after states[:, k] with the (N, b, 16, 16) maps applied to it, in one matmul.

    Sample k+j is maps[:, j-1] @ states[:, k], with rho44 then set from the
    trace, which every RK4 step keeps exactly. The same rounded matrices are
    applied block after block, so their rounding would otherwise move the
    trace by the same amount each time.
    """
    block = states[:, k + 1:k + 1 + maps.shape[1]]
    np.matmul(maps, states[:, k, None, :, None], out=block[..., None])
    block[..., 15] = trace[:, None] - block[..., 0] - block[..., 5] - block[..., 10]


def _step_split(t_max: float, dt: float) -> tuple[int, float]:
    """Whole steps of length dt that fit in [0, t_max], and the time left over."""
    ratio = t_max / dt
    n_steps = round(ratio)
    if abs(ratio - n_steps) <= _STEP_COUNT_RTOL * ratio:
        return n_steps, 0.0
    n_steps = math.floor(ratio)
    return n_steps, t_max - n_steps * dt


def _initial_states(rho0, n: int) -> np.ndarray:
    """The validated (n, 4, 4) initial states: one state shared, or one per point."""
    r = np.asarray(rho0, dtype=complex)
    if r.ndim == 2:
        return np.broadcast_to(validate_density(r), (n, 4, 4))
    if r.shape[0] != n:
        raise ValueError(f"{r.shape[0]} initial states for {n} parameter points")
    return np.stack([validate_density(one) for one in r])


def evolve(rho0, p: ModelParams | Sequence[ModelParams], cfg: IntegratorConfig | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the master equation from `rho0` with fixed-step RK4.

    The RK4 step is applied as a precomputed 16x16 propagator. Returns
    (times[T], states) sampled at t = 0, every `cfg.record_every` steps,
    and t = `cfg.t_max`. When t_max is not a whole number of steps, one
    exact RK4 step of the remaining length ends the run at t_max.

    The samples are filled 32 at a time, each block in one matmul of the
    stacked stride powers S, S^2, ..., S^32 with the block's first state.
    They are within 1e-13 of repeated single stride steps, not bit for
    bit equal to them.

    `p` is one ModelParams, giving states[T, 4, 4], or a sequence of N,
    giving states[N, T, 4, 4]: the N propagators are built and stepped
    together, and each point's states are bit for bit those of its own
    call. `rho0` is one 4x4 state, shared by every point, or an (N, 4, 4)
    stack with one per point.

    Raises StepUnstable before integrating when the spectral radius of a
    step matrix that the run applies exceeds 1 + 1e-12 or is not finite;
    its `index` is the first such point.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    points = [p] if isinstance(p, ModelParams) else list(p)
    if not points:
        raise ValueError("evolve needs at least one ModelParams")
    rho = _initial_states(rho0, len(points))
    gen = np.stack([_liouvillian(hamiltonian_block(q), _precompute_jumps(jump_operators(q)))
                    for q in points])
    dt, every = cfg.dt, int(cfg.record_every)
    n_steps, tail = _step_split(cfg.t_max, dt)
    step = _rk4_step(gen, dt)
    checks = [(step, dt)] if n_steps else []
    if tail:
        short = _rk4_step(gen, tail)
        checks.append((short, tail))
    _check_stable(checks, cfg)
    last = np.linalg.matrix_power(step, n_steps % every)
    if tail:
        last = short @ last
    stride = _keep_hermitian(np.linalg.matrix_power(step, every))
    last = _keep_hermitian(last)

    times = [k * dt for k in range(0, n_steps + 1, every)]
    ends_on_stride = not (n_steps % every or tail)
    if not ends_on_stride:
        times.append(float(cfg.t_max))
    elif n_steps:
        times[-1] = float(cfg.t_max)
    states = np.empty((len(points), len(times), 16), dtype=complex)
    states[:, 0] = rho.reshape(-1, 16)
    trace = np.trace(rho, axis1=-2, axis2=-1)
    n_strides = n_steps // every
    powers = _stride_powers(stride, min(n_strides, _SAMPLE_BLOCK))
    for start in range(0, n_strides, _SAMPLE_BLOCK):
        _fill(states, start, powers[:, :n_strides - start], trace)
    if not ends_on_stride:
        _fill(states, n_strides, last[:, None], trace)
    states = states.reshape(len(points), len(times), 4, 4)
    return np.array(times), states[0] if isinstance(p, ModelParams) else states


def _closed_form_scales(p: ModelParams) -> DerivedScales:
    """derived_scales(p), refusing the points where the closed forms divide by zero."""
    d = derived_scales(p)
    if d.Omega == 0.0:
        raise SingularScale("Omega = 0 (eta = 0 and Delta = 0): closed forms divide by Omega")
    if d.omega == 0.0:
        raise SingularScale("omega = 0 (J = 0 and b = 0): closed forms divide by omega")
    return d


def analytic_state(p: ModelParams, t: float | np.ndarray) -> np.ndarray:
    """Closed-form X-state trajectory at time t >= 0, or at each of times t[T].

    Evaluates the exact solution of the master equation for the initial
    state sin(theta)|01> + cos(theta)|10>: a (4, 4) state for a scalar t,
    a (T, 4, 4) stack for an array of times. Singular parameter points
    Omega = 0 (eta = 0 and Delta = 0) or omega = 0 (J = 0 and b = 0) are
    rejected rather than regularized.
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
    delta, big_om, om = _closed_form_scales(p)

    j, eta, b, g = p.J, p.eta, p.b, p.gamma
    om2 = om * om
    big2 = big_om * big_om
    denom = big2 + g * g
    a2 = j * j * eta * eta  # J^2 eta^2
    s2t = math.sin(2.0 * p.theta)
    c2t = math.cos(2.0 * p.theta)
    eg = exp(-g * t)
    eg2 = exp(-2.0 * g * t)
    sin_big = sin(big_om * t)
    cos_big = cos(big_om * t)
    sin_om = sin(om * t)
    cos_om = cos(om * t)

    rho11 = a2 * (big_om * (1.0 - eg2) - 2.0 * g * sin_big * eg) / (4.0 * big_om * denom)
    rho22 = (
        (j * (2.0 * b * s2t - j * c2t) * cos_om) * eg / (2.0 * om2)
        - (2.0 * big2 * b * b * c2t + big2 * j * b * s2t - 2.0 * delta**2 * om2) * eg / (big2 * om2)
        + a2 * g * g * cos_big * eg / (2.0 * big2 * denom)
        + a2 * (1.0 + eg2) / (4.0 * denom)
    )
    rho33 = (
        (j * (j * c2t - 2.0 * b * s2t) * cos_om) * eg / (2.0 * om2)
        + (2.0 * big2 * b * b * c2t + big2 * j * b * s2t + 2.0 * delta**2 * om2) * eg / (big2 * om2)
        + a2 * g * g * cos_big * eg / (2.0 * big2 * denom)
        + a2 * (1.0 + eg2) / (4.0 * denom)
    )
    rho44 = (
        a2 * g * (big_om * sin_big - 2.0 * g * cos_big) * eg / (2.0 * big2 * denom)
        - 4.0 * delta**2 * eg / big2
        + (-a2 * eg2 + big2 + 12.0 * delta**2 + 4.0 * g * g) / (4.0 * denom)
    )
    rho23 = (
        -(j * c2t - 2.0 * b * s2t) * (1j * om * sin_om + 2.0 * b * cos_om) * eg / (2.0 * om2)
        + j * (j * s2t + 2.0 * b * c2t) * eg / (2.0 * om2)
    )
    rho14 = (
        j * eta * g * ((1j * g + 2.0 * delta) * big_om * sin_big
                       + (1j * big2 - 2.0 * g * delta) * cos_big) * eg / (2.0 * big2 * denom)
        + j * eta * (2.0 * delta * denom * eg - (1j * g + 2.0 * delta) * big2) / (2.0 * big2 * denom)
    )

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
    Independent of theta. Requires gamma > 0; with eta = 0 the limit is the
    pure state |11><11|.
    """
    if p.gamma == 0:
        raise NoDissipation("gamma = 0: no unique long-time limit")
    delta, big_om, _ = _closed_form_scales(p)
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
    """The record of one state at time t, or of a (T, 4, 4) stack at times t[T]."""
    r = as_states(rho)
    c = x_components(r)
    return TimeSeriesRecord(
        t=per_state(np.asarray(t, dtype=float)),
        rho11=per_state(c.rho11),
        rho22=per_state(c.rho22),
        rho33=per_state(c.rho33),
        rho44=per_state(c.rho44),
        abs_rho14=per_state(magnitude(c.rho14)),
        abs_rho23=per_state(magnitude(c.rho23)),
        trace_dev=per_state(np.abs(np.trace(r, axis1=-2, axis2=-1) - 1.0)),
    )
