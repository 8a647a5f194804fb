"""Command-line front end: evolve / sweep / validate / plot.

Scenario configs are flat ``key = value`` text files with ``#`` comments.
One table, `_KEYS`, gives every config key its type in flag order: the
file parser, the command-line flags (which override file values) and the
ScenarioConfig build all read it, and ScenarioConfig holds the defaults.
A second table, `_COMMANDS`, gives each subcommand its help line and its
flags (those of `evolve` and `sweep` taken from `_KEYS`); `main` parses
the command line and builds every help text from it, and a usage error
is a config error like a bad file value.
Outputs are deterministic: CSV with 17 significant digits and LF line
endings, SVG charts with fixed formatting. Exit codes: 0 ok, 1 validation
failure, 2 config error, 3 numeric instability.

`scenario_rows` owns the run layout of an `evolve` or `sweep` run: sweep
point x J0 = 0 reference x mixture sector. It returns the CSV header and a
generator of one block of rows per sweep point. A point's (point,
reference) entries are integrated in output order (one run, or the three
mixture sectors mixed as they come, one `evolve` call each) and measured
into that point's block, and each entry's states are dropped before the
next entry is integrated. `write_csv` writes each block as it comes to a
temporary file beside the output and then replaces the output with it. So
a run holds one point's rows at a time, fails where a point-by-point run
fails first, and never leaves a partial CSV. `evolve` draws its plot from
its one block in memory.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dynamics import EIG_CLAMP, IntegratorConfig, StepUnstable, evolve, record_from_state
from .measures import BasisRotation, NotPositive, evaluate_measures
from .model import ModelParams, initial_state
from .plotting import emit_plot, read_csv
from .validate import run_validate

# the fields of TimeSeriesRecord and of MeasureSet, in output order. MeasureSet owns
# l1_rotated: evaluate_measures takes it from the X components, within 1e-14 of the
# generic l1_coherence(rho, rotation) on the exactly X-form states evolve returns
CSV_COLUMNS = [
    "t", "rho11", "rho22", "rho33", "rho44", "abs_rho14", "abs_rho23",
    "concurrence", "c1_branch", "c2_branch", "l1_coherence", "l1_rotated",
    "lqfi", "trace_dev", "min_eig",
]

# write_csv formats and writes this many rows at a time: at 16 columns the
# temporaries of one chunk (48 bytes of text per value, its keep masks, the
# digits) peak at about 0.55 MB
_CSV_BLOCK = 256

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

# every subcommand: its help line and its flags, by key -> (type, required).
# A key's flag is --key with '-' for '_'; a bool flag takes no value and sets True
_COMMANDS = {
    "evolve": ("integrate one scenario and write a CSV",
               {"config": (str, True), **{key: (kind, False) for key, kind in _KEYS.items()}}),
    "sweep": ("run a linear grid over one parameter",
              {"config": (str, True), "param": (str, True), "from": (float, True),
               "to": (float, True), "count": (int, True),
               # a sweep writes no plot, so it has no --plot and ignores a plot key
               **{key: (kind, False) for key, kind in _KEYS.items() if key != "plot"}}),
    "validate": ("cross-check the computation routes",
                 {"quick": (bool, False), "dt": (float, False), "gamma": (float, False)}),
    "plot": ("render CSV columns (--columns a,b,...) as an SVG chart",
             {"csv": (str, True), "columns": (str, True), "out": (str, True)}),
}
_FORMS = "[--flag VALUE | --flag=VALUE | --bool-flag]..."
_HELP = {"-h", "--help"}


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


def _coerce(kind: type, key: str, raw: str, where: str):
    """`raw` as a value of `kind`, for the config key or flag `key` read at `where`."""
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
        entries[key] = _coerce(_KEYS[key], key, value, where)
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


def scenario_rows(cfg: ScenarioConfig, sweep: tuple[str, Sequence[float]] | None = None
                  ) -> tuple[list[str], Iterator[np.ndarray]]:
    """The CSV header of one scenario, and a generator of its (rows, columns) blocks.

    With compare_j0_zero the same scenario is re-run at J0 = 0 and every
    non-time column is appended again with a ``_ref`` suffix. `sweep` is
    (param, values): each value replaces the ModelParams field `param` of
    cfg.params (one the field refuses raises ConfigError at once), and the
    generator yields one block per point, in order, behind a leading
    ``sweep_value`` column; without `sweep` it yields one block.

    The generator computes a point only when the next block is asked for.
    The point's (point, reference) entries are taken in output order. Each
    entry's run, or each of its three mixture sectors added into the mix,
    is one `evolve` call, measured into the point's block before the next
    entry is integrated. So memory holds one point's rows, one sector's
    states and one mix, and the first failure raised is the one a
    point-by-point run meets first. RK4 does not keep positivity, so a
    coarse but stable dt can leave a recorded state with an eigenvalue
    below -EIG_CLAMP; that is an integration failure too. In a sweep, a
    StepUnstable message starts with the failing point's value.
    """
    param, values = sweep or ("", [None])
    points = []
    for value in values:
        try:
            points.append(replace(cfg.params, **{param: value}) if sweep else cfg.params)
        except ValueError as exc:
            raise ConfigError(f"sweep value {param}={value!r}: {exc}") from exc
    lead = 1 if sweep else 0
    refs = (False, True) if cfg.compare_j0_zero else (False,)
    header = (["sweep_value"] * lead + CSV_COLUMNS
              + [name + "_ref" for name in CSV_COLUMNS[1:] if cfg.compare_j0_zero])
    # sector average weighting mu = 1, 0, -1 as 1:2:1; the mu = 0 sector is doubly degenerate
    sectors = (((None, None),) if cfg.mode == "single-sector"
               else ((1, 0.25), (0, 0.5), (-1, 0.25)))
    icfg, rotation = cfg.integrator(), cfg.rotation()

    def blocks() -> Iterator[np.ndarray]:
        for value, p in zip(values, points):
            where = f"sweep point {param}={value:g}: " if sweep else ""
            block = None
            for is_ref in refs:
                entry = replace(p, J0=0.0) if is_ref else p
                rho = None
                try:
                    for mu, weight in sectors:
                        times, states = evolve(initial_state(entry.theta),
                                               entry if mu is None else replace(entry, mu=mu), icfg)
                        if block is None:
                            block = np.empty((len(times), len(header)))
                        if rho is None:
                            rho = states if weight is None else weight * states
                        else:
                            rho += weight * states
                        del states  # freed before the next sector is integrated
                    ms = evaluate_measures(rho, rotation)
                except StepUnstable as exc:
                    raise StepUnstable(f"{where}{exc}") from exc
                except NotPositive as exc:
                    raise StepUnstable(
                        f"{where}integrated state at t={times[exc.index]:.6g} has min_eig "
                        f"{exc.min_eig:.3e} below -{EIG_CLAMP:.0e} (dt={cfg.dt:g}): "
                        f"RK4 lost positivity; reduce dt") from exc
                columns = {**vars(record_from_state(times, rho)), **vars(ms)}
                del rho, ms  # freed before the next entry is integrated
                # a reference entry fills the _ref columns, which repeat all but t
                names = CSV_COLUMNS[1:] if is_ref else CSV_COLUMNS
                first = lead + len(CSV_COLUMNS) if is_ref else lead
                block[:, first:first + len(names)] = np.column_stack([columns[n] for n in names])
                del columns
            if sweep:
                block[:, 0] = value
            yield block
            del block  # the consumer holds it only until it asks for the next point

    return header, blocks()


def write_csv(path, header: list[str], blocks: Iterable) -> int:
    """Write (rows, columns) blocks under one header; return the number of rows.

    Each value is written as ``'%.17g' % value`` gives it and each row ends
    in LF, so the bytes are stable. Each block is formatted _CSV_BLOCK rows
    at a time by `csvtext.csv_text` and dropped before the next block is
    asked for, so neither the table nor its text is ever held whole. A
    block that is not 2-D with one column per header name raises
    ValueError. The rows go to a temporary file beside `path`, which
    replaces `path` only after the last block: an exception raised by
    `blocks` or by the write leaves no new file, and leaves an existing
    file at `path` untouched.
    """
    # imported here, so that a command that writes no CSV never builds its tables
    from .csvtext import csv_text

    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    count = 0
    try:
        with open(tmp, "wb") as fh:
            fh.write((",".join(header) + "\n").encode("ascii"))
            for block in blocks:
                block = np.asarray(block, dtype=float)
                if block.ndim != 2 or block.shape[1] != len(header):
                    raise ValueError(f"a block of shape {block.shape} does not fit "
                                     f"the {len(header)} columns of the header")
                for start in range(0, len(block), _CSV_BLOCK):
                    fh.write(csv_text(block[start:start + _CSV_BLOCK]))
                count += len(block)
                del block  # freed before the next block is computed
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename is None:
            raise
        # name the output, not the temporary file beside it
        raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
    finally:
        tmp.unlink(missing_ok=True)
    return count


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
    path = Path(cfg.out or "evolve.csv")
    if cfg.plot and path.with_suffix(".svg") == path:
        raise ConfigError(f"out {str(path)!r} is where --plot writes the SVG; "
                          "name the CSV with another suffix")
    header, blocks = scenario_rows(cfg)
    (rows,) = blocks
    write_csv(path, header, [rows])
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
    for flag, end in (("--from", start), ("--to", stop)):
        if not np.isfinite(end):
            raise ConfigError(f"{flag} must be finite, got {float(end)!r}")
    try:
        grid = np.linspace(start, stop, count)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"the {count} values of --count cannot be allocated: {exc}; "
                          "lower --count") from exc
    values = grid.tolist()
    if param == "mu":
        for v in values:
            if abs(v - round(v)) > 1e-12:
                raise ConfigError(f"mu sweep values must be integers, got {v!r}")
        values = [round(v) for v in values]

    header, blocks = scenario_rows(cfg, (param, values))
    path = Path(cfg.out or "sweep.csv")
    n_rows = write_csv(path, header, blocks)
    print(f"wrote {path} ({count} values of {param} x {n_rows // count} samples)")
    return 0


def run_plot(csv_path, columns: list[str], out_path) -> int:
    if Path(out_path).resolve() == Path(csv_path).resolve():
        raise ConfigError(f"out {str(out_path)!r} is the input CSV; name the SVG another file")
    emit_plot(*read_csv(csv_path), columns, out_path)
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _help(command: str | None = None) -> str:
    """The help of `command`, built from `_COMMANDS`; of every command when None."""
    if command is None:
        width = max(map(len, _COMMANDS))
        return "\n".join(
            [f"usage: spinchain {{{','.join(_COMMANDS)}}} {_FORMS}", "",
             "Dissipative XYZ dimer in an Ising sector: evolve, sweep, validate, plot.", "",
             "commands:"]
            + [f"  {name:<{width}}  {line}" for name, (line, _) in _COMMANDS.items()]
            + ["", "'spinchain COMMAND -h' lists the flags of COMMAND."])
    line, table = _COMMANDS[command]
    names = {key: _flag(key) + ("" if kind is bool else f" {kind.__name__.upper()}")
             for key, (kind, _) in table.items()}
    width = max(map(len, names.values()))
    return "\n".join(
        [f"usage: spinchain {command} {_FORMS}", "", line, "", "flags:"]
        + [f"  {names[key]:<{width}}  {'required' if required else ''}".rstrip()
           for key, (_, required) in table.items()]
        + [f"  {'-h, --help':<{width}}  show this help"])


def _parse(args: list[str]) -> tuple[str | None, dict | None]:
    """The command that `args` name and its flags by key, typed by `_COMMANDS`.

    A flag is written in full, as ``--flag VALUE`` or ``--flag=VALUE``, or
    as ``--flag`` alone when it is a bool; a later flag wins. The flags are
    None when `args` ask for help, and so is the command when they ask for
    the help of every command. Every usage error is a ConfigError.
    """
    names = ", ".join(_COMMANDS)
    if not args:
        raise ConfigError(f"no command given; choose one of {names}")
    command, *rest = args
    if command in _HELP:
        return None, None
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose one of {names}")
    if not _HELP.isdisjoint(rest):
        return command, None
    table = _COMMANDS[command][1]
    keys = {_flag(key): key for key in table}
    flags: dict = {}
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            raise ConfigError(f"{command}: unexpected argument {token!r}")
        flag, eq, raw = token.partition("=")
        if flag not in keys:
            raise ConfigError(f"{command}: unknown flag {flag!r}")
        key = keys[flag]
        kind = table[key][0]
        if kind is bool:
            if eq:
                raise ConfigError(f"{command}: {flag} takes no value")
            flags[key] = True
            continue
        if not eq:
            raw = next(tokens, None)
            if raw is None or raw.startswith("--"):
                raise ConfigError(f"{command}: {flag} needs a value")
        flags[key] = _coerce(kind, flag, raw, command)
    missing = [flag for flag, key in keys.items() if table[key][1] and key not in flags]
    if missing:
        raise ConfigError(f"{command} needs {', '.join(missing)}")
    return command, flags


def _scenario(flags: dict) -> ScenarioConfig:
    """The scenario of the config file, with the flags that name config keys overriding it."""
    entries = parse_config_file(flags["config"])
    entries.update((key, flags[key]) for key in _KEYS if key in flags)
    return scenario_from_entries(entries)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        command, flags = _parse(args)
        if flags is None:
            print(_help(command))
            return 0
        if command == "evolve":
            return run_evolve(_scenario(flags))
        if command == "sweep":
            return run_sweep(_scenario(flags), flags["param"], flags["from"], flags["to"],
                             flags["count"])
        if command == "validate":
            return run_validate(quick=flags.get("quick", False), dt=flags.get("dt"),
                                gamma=flags.get("gamma"))
        columns = [c for c in flags["columns"].split(",") if c]
        return run_plot(flags["csv"], columns, flags["out"])
    except StepUnstable as exc:
        print(f"numeric instability: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, FileNotFoundError, IsADirectoryError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
