"""The two coherence channels react differently to the Ising neighborhood.

An X state carries coherence in two places: the inner element rho23
(between the singly excited levels) and the outer element rho14 (between
the fully excited and fully de-excited levels). Their equations of motion
decouple, and only the outer one feels the neighborhood coupling J0.
Running the same scenario with J0 = 1 and J0 = 0 makes that visible:
the rho23 traces coincide to machine precision while the rho14 traces
separate immediately.
"""

import csv
from dataclasses import replace
from pathlib import Path

from spinchain import IntegratorConfig, ModelParams, evolve, initial_state
from spinchain.plotting import emit_plot

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

cfg = IntegratorConfig(dt=1e-3, t_max=20.0, record_every=10)
p1 = ModelParams()                 # J0 = 1 by default
p0 = replace(p1, J0=0.0)

# both couplings from the same initial state
times, run1 = evolve(initial_state(p1.theta), p1, cfg)
_, run0 = evolve(initial_state(p0.theta), p0, cfg)

rows = []
gap23 = 0.0
gap14 = 0.0
for t, a, b in zip(times.tolist(), run1, run0):
    inner1, inner0 = 2 * abs(a[1, 2]), 2 * abs(b[1, 2])
    outer1, outer0 = 2 * abs(a[0, 3]), 2 * abs(b[0, 3])
    gap23 = max(gap23, abs(inner1 - inner0))
    gap14 = max(gap14, abs(outer1 - outer0))
    rows.append([t, inner1, outer1, outer0])

print(f"max |inner(J0=1) - inner(J0=0)| = {gap23:.3e}   (identical)")
print(f"max |outer(J0=1) - outer(J0=0)| = {gap14:.3e}   (split by the neighborhood)")

csv_path = OUT / "coherence_channels.csv"
header = ["t", "inner", "outer_J0_1", "outer_J0_0"]
with open(csv_path, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)

emit_plot(header, rows, ["inner", "outer_J0_1", "outer_J0_0"],
          OUT / "coherence_channels.svg")
print(f"wrote {csv_path} and the matching SVG")
