"""Output checks for one benchmark operation (run untimed, after it ends).

An operation passes only if the process exited 0 and every output agrees
with the documented format and with the package's closed form, using the
repository's own tolerances: 1e-6 elementwise against `analytic_state`
(the `validate` analytic-vs-numeric tolerance), trace deviation <= 1e-8 and
smallest eigenvalue >= -1e-9 (the `validate` conservation tolerances).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# The CSV header documented in README.md; `sweep` prepends `sweep_value`.
DOCUMENTED_COLUMNS = [
    "t", "rho11", "rho22", "rho33", "rho44", "abs_rho14", "abs_rho23",
    "concurrence", "c1_branch", "c2_branch", "l1_coherence", "l1_rotated",
    "lqfi", "trace_dev", "min_eig",
]
STATE_COLUMNS = ["rho11", "rho22", "rho33", "rho44", "abs_rho14", "abs_rho23"]

STATE_TOL = 1e-6
TRACE_TOL = 1e-8
EIG_FLOOR = -1e-9
SWEEP_VALUE_RTOL = 1e-12


class CheckFailed(Exception):
    """One operation's output is wrong; the message says where."""


def check_operation(op: dict, workdir: Path, exit_code: int | None, stdout: str) -> float:
    """Raise CheckFailed unless the operation's outputs are correct.

    Returns the worst state residual against the closed form (the value the
    program printed for `validate`), for reporting only.
    """
    if exit_code != 0:
        raise CheckFailed(f"exit code {exit_code}")
    if op["kind"] == "validate":
        return check_validate_output(stdout)
    worst = check_series_csv(op, (workdir / op["csv"]).read_text(encoding="ascii"))
    if op["svg"] is not None:
        check_svg((workdir / op["svg"]).read_text(encoding="utf-8"))
    return worst


def check_validate_output(stdout: str) -> float:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    failing = [ln for ln in lines if ln.startswith("FAIL")]
    if failing:
        raise CheckFailed(f"validate reported: {failing[0]}")
    if not lines or not lines[-1].startswith("validate: OK"):
        raise CheckFailed("validate output does not end with 'validate: OK'")
    for ln in lines:
        if "analytic-vs-numeric" in ln and "max|err| =" in ln:
            return float(ln.split("max|err| =", 1)[1].split()[0])
    raise CheckFailed("validate printed no analytic-vs-numeric residual")


def check_svg(text: str) -> None:
    body = text.strip()
    if not body.startswith("<svg") or not body.endswith("</svg>") or body.count("<svg") != 1:
        raise CheckFailed("SVG is not one complete <svg>...</svg> document")


def check_series_csv(op: dict, text: str) -> float:
    """Check an `evolve` or `sweep` CSV against the closed form, point by point."""
    from spinchain.dynamics import analytic_state
    from spinchain.model import ModelParams

    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckFailed("CSV does not end with a line feed")
    header = lines[0].split(",")
    expected_header = DOCUMENTED_COLUMNS if op["sweep"] is None else ["sweep_value"] + DOCUMENTED_COLUMNS
    if header != expected_header:
        raise CheckFailed(f"header {header} differs from the documented columns")
    body = lines[1:-1]
    n_points, per_point = len(op["points"]), op["rows_per_point"]
    if len(body) != n_points * per_point:
        raise CheckFailed(f"{len(body)} rows, expected {n_points} x {per_point}")
    try:
        data = np.array([ln.split(",") for ln in body], dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"malformed CSV row: {exc}") from None
    if data.shape != (len(body), len(header)):
        raise CheckFailed(f"CSV rows have {data.shape[1]} fields, header has {len(header)}")
    col = {name: i for i, name in enumerate(header)}

    worst = 0.0
    for k, params in enumerate(op["points"]):
        block = data[k * per_point:(k + 1) * per_point]
        if op["sweep"] is not None:
            value = op["sweep"][k]
            got = block[:, col["sweep_value"]]
            if not np.all(np.abs(got - value) <= SWEEP_VALUE_RTOL * abs(value)):
                raise CheckFailed(f"point {k}: sweep_value {got[0]!r}, expected {value!r}")
            params = {**params, "b": float(got[0])}
        t = block[:, col["t"]]
        if t[0] != 0.0 or t[-1] != op["t_max"]:
            raise CheckFailed(f"point {k}: samples span [{t[0]!r}, {t[-1]!r}], "
                              f"expected [0, {op['t_max']!r}]")
        p = ModelParams(**params)
        exact = np.array([_state_columns(analytic_state(p, float(ti))) for ti in t])
        err = float(np.max(np.abs(block[:, [col[c] for c in STATE_COLUMNS]] - exact)))
        if not err <= STATE_TOL:
            raise CheckFailed(f"point {k}: state differs from analytic_state by {err:.3e}")
        worst = max(worst, err)
        trace_dev = float(np.max(block[:, col["trace_dev"]]))
        if not trace_dev <= TRACE_TOL:
            raise CheckFailed(f"point {k}: trace_dev {trace_dev:.3e} > {TRACE_TOL:g}")
        min_eig = float(np.min(block[:, col["min_eig"]]))
        if not min_eig >= EIG_FLOOR:
            raise CheckFailed(f"point {k}: min_eig {min_eig:.3e} < {EIG_FLOOR:g}")
    return worst


def _state_columns(rho) -> list[float]:
    return [rho[0, 0].real, rho[1, 1].real, rho[2, 2].real, rho[3, 3].real,
            abs(rho[0, 3]), abs(rho[1, 2])]
