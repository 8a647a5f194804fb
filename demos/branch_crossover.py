"""Which coherence channel carries the entanglement, and when.

The X-state concurrence is 2 * max(c1, c2, 0) with c1 fed by rho23 and c2
fed by rho14. At early times the initial Bell pair keeps c1 on top; decay
drains it below zero, the state disentangles, and the revival that follows
is carried entirely by c2, i.e. by coherence the damping itself pumped
into the outer channel.
"""

import math
from pathlib import Path

from spinchain import IntegratorConfig, ModelParams, evaluate_measures, evolve, initial_state

p = ModelParams(theta=math.pi / 4)
cfg = IntegratorConfig(dt=1e-3, t_max=20.0, record_every=10)
times, states = evolve(initial_state(p.theta), p, cfg)
ms = evaluate_measures(states)  # one array per measure over the whole trajectory

previous = None
for t, conc, c1, c2 in zip(times, ms.concurrence, ms.c1_branch, ms.c2_branch):
    if conc == 0.0:
        leader = None
    else:
        leader = "c1" if c1 >= c2 else "c2"
    if leader != previous:
        if leader is None:
            print(f"t = {t:6.2f}  entanglement gone (c1 = {c1:+.4f}, c2 = {c2:+.4f})")
        else:
            print(f"t = {t:6.2f}  {leader} leads (c1 = {c1:+.4f}, c2 = {c2:+.4f})")
        previous = leader
