"""Coherence is a basis-relative statement.

The l1 coherence of the evolved state is scanned against the angle of a
local product-basis rotation applied to both qubits. The unrotated reading
sits at a stationary point; other angles can report several times more
coherence from the same state.
"""

import math

import numpy as np

from spinchain import (
    BasisRotation,
    IntegratorConfig,
    ModelParams,
    evolve,
    initial_state,
    l1_coherence,
)

p = ModelParams()
cfg = IntegratorConfig(dt=1e-3, t_max=5.0, record_every=5000)
rho = evolve(initial_state(p.theta), p, cfg)[1][-1]

print(f"state at t = 5, plain l1 coherence: {l1_coherence(rho):.4f}")
print(f"{'phi':>8} {'varphi':>8} {'l1':>8}")
best = (0.0, 0.0, l1_coherence(rho))
for phi in np.linspace(0.0, math.pi / 2, 7):
    for varphi in (0.0, math.pi / 2):
        value = l1_coherence(rho, BasisRotation(float(phi), varphi))
        print(f"{phi:8.4f} {varphi:8.4f} {value:8.4f}")
        if value > best[2]:
            best = (float(phi), varphi, value)

print(f"largest reading {best[2]:.4f} at phi = {best[0]:.4f}, varphi = {best[1]:.4f}")
