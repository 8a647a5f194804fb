"""Command-line front end: evolve / sweep / validate / plot.

Scenario configs are flat ``key = value`` text files with ``#`` comments.
One table, `_KEYS`, gives every config key its type in flag order: the
file parser, the command-line flags (which override file values) and the
ScenarioConfig build all read it, and ScenarioConfig holds the defaults.
Outputs are deterministic: CSV with 17 significant digits and LF line
endings, SVG charts with fixed formatting. Exit codes: 0 ok, 1 validation
failure, 2 config error, 3 numeric instability.

`scenario_rows` owns the run layout of an `evolve` or `sweep` run: sweep
point x J0 = 0 reference x mixture sector. It integrates every run in one
`evolve` call and measures each (point, reference) entry into one
preallocated table; the CSV is streamed from that table in blocks of rows
and the plot drawn from it in memory. When a run is unstable, the entries
before it are integrated again and measured first, so that the failure
reported is the one a point-by-point run meets first.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dynamics import EIG_CLAMP, IntegratorConfig, StepUnstable, evolve, record_from_state
from .measures import BasisRotation, NotPositive, evaluate_measures, l1_coherence
from .model import ModelParams, initial_state
from .plotting import UnknownColumn, emit_plot, read_csv
from .validate import run_validate

# the fields of TimeSeriesRecord and of MeasureSet, and l1_rotated, in output order
CSV_COLUMNS = [
    "t", "rho11", "rho22", "rho33", "rho44", "abs_rho14", "abs_rho23",
    "concurrence", "c1_branch", "c2_branch", "l1_coherence", "l1_rotated",
    "lqfi", "trace_dev", "min_eig",
]

# write_csv formats and writes this many rows at a time
_CSV_BLOCK = 1024

# a run of at least _DEAD_RUN samples below _DEAD_BELOW is a dead interval
_DEAD_BELOW = 1e-9
_DEAD_RUN = 3

# every config key and its type, in the order of the command-line flags
_KEYS = {
    "out": str, "plot": bool,
    "J": float, "Jz": float, "eta": float, "J0": float, "B": float, "b": float,
    "gamma": float, "theta": float, "t_max": float, "dt": float,
    "phi": float, "varphi": float,
    "mu": int, "record_every": int, "mode": str, "compare_j0_zero": bool,
}
# the keys that set a ModelParams field, in field order
_PARAM_KEYS = tuple(f.name for f in fields(ModelParams))

_MODES = ("single-sector", "sector-mixture")


class ConfigError(Exception):
    """Malformed config file, bad flag value, or inconsistent scenario."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified run: model, integration window, and output."""

    params: ModelParams
    mode: str = "single-sector"
    t_max: float = IntegratorConfig.t_max
    dt: float = IntegratorConfig.dt
    record_every: int = IntegratorConfig.record_every
    phi: float | None = None
    varphi: float | None = None
    compare_j0_zero: bool = False
    out: str | None = None
    plot: bool = False

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(dt=self.dt, t_max=self.t_max, record_every=self.record_every)

    def rotation(self) -> BasisRotation | None:
        """The basis of the l1_rotated column; None for the computational basis."""
        if self.phi is None and self.varphi is None:
            return None
        return BasisRotation(phi=self.phi or 0.0, varphi=self.varphi or 0.0)


class Event(NamedTuple):
    kind: str  # "ESD" or "ESB"
    t: float


def _coerce(key: str, raw: str, where: str):
    kind = _KEYS[key]
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc


def parse_config_file(path) -> dict:
    """Parse a flat ``key = value`` config file into typed entries."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    entries: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{where}: empty value for {key!r}")
        entries[key] = _coerce(key, value, where)
    return entries


def scenario_from_entries(entries: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from typed entries; absent keys keep its defaults."""
    mode = entries.get("mode", ScenarioConfig.mode)
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    try:
        cfg = ScenarioConfig(
            ModelParams(**{k: entries[k] for k in _PARAM_KEYS if k in entries}),
            **{k: entries[k] for k in _KEYS if k in entries and k not in _PARAM_KEYS})
        # build the integration window and the rotation eagerly so errors surface as config errors
        cfg.integrator()
        cfg.rotation()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def scenario_rows(cfg: ScenarioConfig, sweep: Sequence[tuple[float, ModelParams]] | None = None
                  ) -> tuple[list[str], np.ndarray]:
    """Evaluate one scenario into a CSV header and a (rows, columns) float table.

    With compare_j0_zero the same scenario is re-run at J0 = 0 and every
    non-time column is appended again with a ``_ref`` suffix. `sweep`
    holds (value, ModelParams) points that replace cfg.params: the table
    then stacks one block of rows per point, in order, behind a leading
    ``sweep_value`` column.

    Every run (point x reference x sector) is integrated in one `evolve`
    call, then each (point, reference) entry is measured into the table.
    The guards fire as in a point-by-point run: when a run is unstable, the
    whole entries before it are integrated again and measured first, so a
    positivity loss among them is still the one reported. RK4 does not keep
    positivity, so a coarse but stable dt can leave a recorded state with
    an eigenvalue below -EIG_CLAMP; that is an integration failure too. A
    StepUnstable carries the `index` of the failing point.
    """
    values, points = zip(*sweep) if sweep else ((), (cfg.params,))
    lead = 1 if sweep else 0
    header = ["sweep_value"] * lead + list(CSV_COLUMNS)
    refs = (False,)
    if cfg.compare_j0_zero:
        header += [name + "_ref" for name in CSV_COLUMNS[1:]]
        refs = (False, True)
    # sector average weighting mu = 1, 0, -1 as 1:2:1; the mu = 0 sector is doubly degenerate
    mus = (None,) if cfg.mode == "single-sector" else (1, 0, -1)
    entries = [replace(p, J0=0.0) if ref else p for p in points for ref in refs]
    runs = [p if mu is None else replace(p, mu=mu) for p in entries for mu in mus]
    icfg, rotation = cfg.integrator(), cfg.rotation()
    unstable = None
    try:
        times, states = evolve(np.stack([initial_state(p.theta) for p in runs]), runs, icfg)
    except StepUnstable as exc:
        unstable, runs = exc, runs[:exc.index - exc.index % len(mus)]
        exc.index //= len(mus) * len(refs)
        if not runs:
            raise
        times, states = evolve(np.stack([initial_state(p.theta) for p in runs]), runs, icfg)
    table = np.empty((len(points) * len(times), len(header)))
    for first in range(0, len(runs), len(mus)):
        point, is_ref = divmod(first // len(mus), len(refs))
        if len(mus) == 1:
            rho = states[first]
        else:
            plus, zero, minus = states[first:first + 3]
            rho = 0.25 * plus + 0.5 * zero + 0.25 * minus
        try:
            ms = evaluate_measures(rho)
        except NotPositive as exc:
            raise StepUnstable(
                f"integrated state at t={times[exc.index]:.6g} has min_eig {exc.min_eig:.3e} "
                f"below -{EIG_CLAMP:.0e} (dt={cfg.dt:g}): RK4 lost positivity; reduce dt",
                point) from exc
        l1_rot = ms.l1_coherence if rotation is None else l1_coherence(rho, rotation)
        columns = {**vars(record_from_state(times, rho)), **vars(ms), "l1_rotated": l1_rot}
        rows = np.column_stack([columns[name] for name in CSV_COLUMNS])
        block = table[point * len(times):(point + 1) * len(times)]
        if is_ref:
            block[:, lead + len(CSV_COLUMNS):] = rows[:, 1:]
        else:
            block[:, lead:lead + len(CSV_COLUMNS)] = rows
        if sweep:
            block[:, 0] = values[point]
    if unstable is not None:
        raise unstable
    return header, table


def format_csv_value(x) -> str:
    """The CSV text of one value; `write_csv` writes exactly these bytes."""
    return format(float(x), ".17g")


def write_csv(path, header: list[str], rows) -> None:
    """Write rows with 17 significant digits and LF endings (byte stable).

    Rows are formatted and written in blocks of _CSV_BLOCK, one format
    string per block, so the file is never held whole as text.
    """
    rows = np.asarray(rows, dtype=float)
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for start in range(0, len(rows), _CSV_BLOCK):
            block = rows[start:start + _CSV_BLOCK]
            fh.write(((row_format * len(block)) % tuple(block.ravel().tolist())).encode("ascii"))


def detect_events(times, values) -> list[Event]:
    """Sudden-death / sudden-birth events of a sampled nonnegative series.

    A maximal run of at least 3 consecutive samples below 1e-9 counts as a
    dead interval. Entering one from above is an ESD event, leaving one is
    an ESB event; event times interpolate the threshold crossing linearly
    between the bracketing samples. Runs touching the series ends yield no
    event on that side, so a constant zero series reports nothing and
    events always alternate in kind.
    """
    times = list(times)
    values = list(values)
    n = len(values)
    dead = [v < _DEAD_BELOW for v in values]
    events: list[Event] = []
    i = 0
    while i < n:
        if not dead[i]:
            i += 1
            continue
        j = i
        while j < n and dead[j]:
            j += 1
        if j - i >= _DEAD_RUN:
            if i > 0:
                events.append(Event("ESD", _crossing(times[i - 1], values[i - 1],
                                                     times[i], values[i])))
            if j < n:
                events.append(Event("ESB", _crossing(times[j - 1], values[j - 1],
                                                     times[j], values[j])))
        i = j
    return events


def _crossing(t0, v0, t1, v1) -> float:
    # one of the two samples is dead (< _DEAD_BELOW) and the other is not, so v0 != v1
    lam = (v0 - _DEAD_BELOW) / (v0 - v1)
    return float(t0 + lam * (t1 - t0))


# ---------------------------------------------------------------------------
# subcommands


def run_evolve(cfg: ScenarioConfig) -> int:
    header, rows = scenario_rows(cfg)
    path = Path(cfg.out or "evolve.csv")
    write_csv(path, header, rows)
    print(f"wrote {path} ({len(rows)} samples)")
    concurrence = rows[:, CSV_COLUMNS.index("concurrence")]
    events = detect_events(rows[:, 0].tolist(), concurrence.tolist())
    for ev in events:
        print(f"{ev.kind} at t = {format(ev.t, '.6g')}")
    if cfg.plot:
        svg = path.with_suffix(".svg")
        emit_plot(header, rows, ["concurrence", "l1_coherence", "lqfi"], svg)
        print(f"wrote {svg}")
    return 0


def run_sweep(cfg: ScenarioConfig, param: str, start: float, stop: float,
              count: int) -> int:
    if param not in _PARAM_KEYS:
        raise ConfigError(f"sweep parameter must be one of {_PARAM_KEYS}, got {param!r}")
    if count < 2:
        raise ConfigError(f"sweep count must be >= 2, got {count}")
    if param == "mu" and cfg.mode == "sector-mixture":
        raise ConfigError("a sector-mixture run averages over mu; sweep mu in single-sector mode")
    sweep = []
    for v in np.linspace(start, stop, count):
        value = v
        if param == "mu":
            if abs(v - round(v)) > 1e-12:
                raise ConfigError(f"mu sweep values must be integers, got {v!r}")
            value = int(round(v))
        try:
            sweep.append((float(value), replace(cfg.params, **{param: value})))
        except ValueError as exc:
            raise ConfigError(f"sweep value {param}={value!r}: {exc}") from exc

    try:
        header, rows = scenario_rows(cfg, sweep)
    except StepUnstable as exc:
        raise StepUnstable(f"sweep point {param}={sweep[exc.index][0]:g}: {exc}") from exc
    path = Path(cfg.out or "sweep.csv")
    write_csv(path, header, rows)
    print(f"wrote {path} ({count} values of {param} x {len(rows) // count} samples)")
    return 0


def run_plot(csv_path, columns: list[str], out_path) -> int:
    emit_plot(*read_csv(csv_path), columns, out_path)
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_key_flags(sub, keys):
    """One flag per config key, typed by _KEYS; an absent flag leaves the file value."""
    for key in keys:
        flag = "--" + key.replace("_", "-")
        if _KEYS[key] is bool:
            sub.add_argument(flag, action="store_const", const=True, default=None)
        else:
            sub.add_argument(flag, type=_KEYS[key], default=None,
                             choices=_MODES if key == "mode" else None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinchain",
        description="Dissipative XYZ dimer in an Ising sector: evolve, sweep, validate, plot.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="integrate one scenario and write a CSV")
    p_evolve.add_argument("--config", required=True)
    _add_key_flags(p_evolve, _KEYS)

    p_sweep = sub.add_parser("sweep", help="run a linear grid over one parameter")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--count", type=int, required=True)
    # a sweep writes no plot, so it has no --plot and ignores a plot key
    _add_key_flags(p_sweep, [key for key in _KEYS if key != "plot"])

    p_validate = sub.add_parser("validate", help="cross-check the computation routes")
    p_validate.add_argument("--quick", action="store_true")
    p_validate.add_argument("--dt", type=float, default=None)
    p_validate.add_argument("--gamma", type=float, default=None)

    p_plot = sub.add_parser("plot", help="render CSV columns as an SVG chart")
    p_plot.add_argument("--csv", required=True)
    p_plot.add_argument("--columns", required=True,
                        help="comma-separated column names")
    p_plot.add_argument("--out", required=True)
    return parser


def _scenario_from_args(args) -> ScenarioConfig:
    entries = parse_config_file(args.config)
    entries.update({key: getattr(args, key) for key in _KEYS
                    if getattr(args, key, None) is not None})
    return scenario_from_entries(entries)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "evolve":
            return run_evolve(_scenario_from_args(args))
        if args.command == "sweep":
            return run_sweep(_scenario_from_args(args), args.param, args.start, args.stop,
                             args.count)
        if args.command == "validate":
            return run_validate(quick=args.quick, dt=args.dt, gamma=args.gamma)
        columns = [c for c in args.columns.split(",") if c]
        return run_plot(args.csv, columns, args.out)
    except StepUnstable as exc:
        print(f"numeric instability: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, UnknownColumn, FileNotFoundError, IsADirectoryError, ValueError) as exc:
        # str() of a KeyError quotes its message
        detail = exc.args[0] if isinstance(exc, UnknownColumn) else exc
        print(f"config error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
