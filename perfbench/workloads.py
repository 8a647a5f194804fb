"""Seeded inputs for the three benchmark workloads.

Each workload has fixed input sizes (integration window, step size, sample
cadence, sweep length); the seed only moves parameter values inside the
ranges below, so every seed does the same amount of work. The ranges keep
Omega, omega > 0 and dt far inside the RK4 stability region: dt times the
largest generator eigenvalue magnitude is at most 0.054 (on `dense-sweep`),
against about 2.8 at the RK4 stability boundary. They also keep the
integrator within the 1e-6 closed-form tolerance that the output check
applies: the worst residual is about 8e-8 (`dense-sweep`, b = 2.5).
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("trajectory", "dense-sweep", "validate-quick")

# Model parameters the seed does not draw; written into every config so the
# checker evaluates the closed form at exactly what the program was given.
BASE_PARAMS = {"J": 2.0, "Jz": 0.0, "eta": 0.2, "J0": 1.0, "B": 0.2,
               "b": 2.0, "gamma": 0.2, "mu": 1, "theta": math.pi / 4}

TRAJECTORY_RANGES = {"theta": (0.2, 1.4), "J0": (0.5, 1.5), "b": (1.0, 3.0)}
TRAJECTORY_WINDOW = {"t_max": 20.0, "dt": 1e-3, "record_every": 10}

SWEEP_FROM = (0.3, 1.0)
SWEEP_TO = (2.0, 2.5)
SWEEP_ROTATION = (0.1, 1.5)  # phi and varphi, radians
SWEEP_COUNT = 9
SWEEP_WINDOW = {"t_max": 20.0, "dt": 1e-2, "record_every": 1}

VALIDATE_GAMMA = (0.1, 0.5)


class _CountingRandom:
    """Seeded uniform draws that count themselves (the draw count is part of
    the input shape, which must not depend on the seed)."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.draws = 0

    def uniform(self, bounds: tuple[float, float]) -> float:
        self.draws += 1
        return self._rng.uniform(*bounds)


def _config_text(params: dict, window: dict, extra: dict | None = None) -> str:
    entries = {**params, **window, **(extra or {})}
    return "".join(f"{key} = {value!r}\n" for key, value in entries.items())


def _rows_per_point(window: dict) -> int:
    steps = round(window["t_max"] / window["dt"])
    return steps // window["record_every"] + (1 if steps % window["record_every"] else 0) + 1


def make_operation(workload: str, seed: int) -> dict:
    """The inputs of one operation: argv, files to write, and what to expect.

    `points` lists the model parameters of every trajectory the output must
    hold, in output order; `shape` holds the counts that must not depend on
    the seed.
    """
    rng = _CountingRandom(seed)
    if workload == "trajectory":
        params = dict(BASE_PARAMS)
        for key, bounds in TRAJECTORY_RANGES.items():
            params[key] = rng.uniform(bounds)
        window = TRAJECTORY_WINDOW
        op = {
            "argv": ["evolve", "--config", "run.conf", "--out", "trajectory.csv", "--plot"],
            "files": {"run.conf": _config_text(params, window)},
            "kind": "series",
            "csv": "trajectory.csv",
            "svg": "trajectory.svg",
            "sweep": None,
            "points": [params],
            "inputs": {key: params[key] for key in TRAJECTORY_RANGES},
        }
    elif workload == "dense-sweep":
        params = dict(BASE_PARAMS)
        start, stop = rng.uniform(SWEEP_FROM), rng.uniform(SWEEP_TO)
        rotation = {"phi": rng.uniform(SWEEP_ROTATION), "varphi": rng.uniform(SWEEP_ROTATION)}
        window = SWEEP_WINDOW
        values = [start + (stop - start) * i / (SWEEP_COUNT - 1) for i in range(SWEEP_COUNT)]
        op = {
            "argv": ["sweep", "--config", "sweep.conf", "--param", "b",
                     "--from", repr(start), "--to", repr(stop),
                     "--count", str(SWEEP_COUNT), "--out", "sweep.csv"],
            "files": {"sweep.conf": _config_text(params, window, rotation)},
            "kind": "series",
            "csv": "sweep.csv",
            "svg": None,
            "sweep": values,
            "points": [{**params, "b": v} for v in values],
            "inputs": {"from": start, "to": stop, **rotation},
        }
    elif workload == "validate-quick":
        gamma = rng.uniform(VALIDATE_GAMMA)
        window = None
        op = {
            "argv": ["validate", "--quick", "--gamma", repr(gamma)],
            "files": {},
            "kind": "validate",
            "csv": None,
            "svg": None,
            "sweep": None,
            "points": [],
            "inputs": {"gamma": gamma},
        }
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")

    if window is not None:
        op["t_max"] = window["t_max"]
        op["rows_per_point"] = _rows_per_point(window)
        steps = round(window["t_max"] / window["dt"]) * len(op["points"])
        rows = op["rows_per_point"] * len(op["points"])
    else:
        steps = rows = 0
    op["shape"] = {"steps": steps, "rows": rows, "draws": rng.draws}
    return op
