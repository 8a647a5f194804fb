import errno
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spinchain
from spinchain import (
    BasisRotation,
    IntegratorConfig,
    MeasureSet,
    ModelParams,
    TimeSeriesRecord,
    evaluate_measures,
    evolve,
    initial_state,
    l1_coherence,
    record_from_state,
)
from spinchain import cli, csvtext
from spinchain.cli import (
    _CSV_BLOCK,
    _KEYS,
    CSV_COLUMNS,
    ConfigError,
    detect_events,
    main,
    parse_config_file,
    scenario_from_entries,
    scenario_rows,
    write_csv,
)
from spinchain.dynamics import magnitude, min_eigenvalue

BASE_CONF = """\
# reference scenario
J = 2.0
eta = 0.2      # anisotropy ratio
J0 = 1.0
B = 0.2
b = 2.0
gamma = 0.2
theta = 0.78539816339744828
t_max = 0.2
dt = 0.001
record_every = 50
"""


@pytest.fixture
def conf(tmp_path):
    path = tmp_path / "base.conf"
    path.write_text(BASE_CONF)
    return path


def format_csv_value(x) -> str:
    """The CSV text of one value: the per-value reference for `write_csv`'s bytes."""
    return format(float(x), ".17g")


# --- config parsing -----------------------------------------------------------

def test_parse_config_types_and_comments(conf, tmp_path):
    entries = parse_config_file(conf)
    assert entries["J"] == 2.0
    assert entries["eta"] == 0.2          # inline comment stripped
    assert entries["record_every"] == 50
    assert isinstance(entries["record_every"], int)
    assert "mu" not in entries
    # booleans in any case, spelled four ways each
    path = tmp_path / "flags.conf"
    for spelling, value in [("yes", True), ("on", True), ("1", True), ("TRUE", True),
                            ("No", False), ("off", False), ("0", False), ("false", False)]:
        path.write_text(f"compare_j0_zero = {spelling}\n")
        assert parse_config_file(path) == {"compare_j0_zero": value}


@pytest.mark.parametrize("line,fragment", [
    ("bogus = 1", "unknown key"),
    ("J = 2\nJ = 3", "duplicate"),
    ("mu = 1.5", "bad value"),
    ("gamma 0.2", "expected 'key = value'"),
    ("b =", "empty value"),
    ("plot = maybe", "bad value"),
])
def test_parse_config_rejects(tmp_path, line, fragment):
    path = tmp_path / "bad.conf"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(path)
    assert fragment in str(err.value)


def test_scenario_from_entries_defaults():
    cfg = scenario_from_entries({})
    assert cfg.params == ModelParams()
    assert cfg.mode == "single-sector"
    assert cfg.t_max == 20.0


@pytest.mark.parametrize("entries", [
    {"mode": "both"},
    {"mu": 3},
    {"dt": 0.0},
    {"gamma": -1.0},
    {"record_every": 0},
    {"phi": math.nan},
    {"varphi": math.inf},
])
def test_scenario_from_entries_rejects(entries):
    with pytest.raises(ConfigError):
        scenario_from_entries(entries)


def test_format_csv_value_round_trips(rng):
    for _ in range(200):
        x = float(rng.normal()) * 10.0 ** int(rng.integers(-12, 12))
        assert float(format_csv_value(x)) == x


# --- evolve -------------------------------------------------------------------

def test_evolve_writes_expected_csv(conf, tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["evolve", "--config", str(conf), "--out", str(out)]) == 0
    data = out.read_bytes()
    assert b"\r" not in data
    lines = data.decode("ascii").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 5  # t = 0 plus 4 recorded steps
    first = dict(zip(CSV_COLUMNS, map(float, lines[1].split(","))))
    assert first["t"] == 0.0
    assert first["rho22"] == pytest.approx(0.5)
    assert first["rho33"] == pytest.approx(0.5)
    assert first["concurrence"] == pytest.approx(1.0)
    assert first["c2_branch"] == pytest.approx(-0.5)
    assert first["l1_coherence"] == pytest.approx(1.0)
    assert first["lqfi"] == pytest.approx(1.0)
    assert f"wrote {out}" in capsys.readouterr().out


def test_evolve_output_is_byte_deterministic(conf, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["evolve", "--config", str(conf), "--out", str(a)]) == 0
    assert main(["evolve", "--config", str(conf), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# a file value and a different flag value for every config key; the file
# values differ from the defaults where a flag can set anything but True
_KEY_VALUES = {
    "out": ("file.csv", "flag.csv"), "plot": (False, True),
    "J": (2.5, 1.5), "Jz": (0.1, 0.3), "eta": (0.3, 0.4), "J0": (0.7, 0.5),
    "B": (0.3, 0.1), "b": (2.5, 1.5), "gamma": (0.25, 0.1), "theta": (0.5, 0.3),
    "t_max": (0.4, 0.3), "dt": (0.004, 0.002), "phi": (0.1, 0.2), "varphi": (0.3, 0.4),
    "mu": (0, -1), "record_every": (3, 5), "mode": ("sector-mixture", "single-sector"),
    "compare_j0_zero": (False, True),
}


def test_evolve_flag_overrides_config(conf, tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["evolve", "--config", str(conf), "--out", str(a)]) == 0
    assert main(["evolve", "--config", str(conf), "--out", str(b), "--b", "9.9"]) == 0
    assert a.read_bytes() != b.read_bytes()

    # every key of the table: the scenario holds the flag's value, not the file's
    assert _KEY_VALUES.keys() == _KEYS.keys()
    full = tmp_path / "full.conf"
    full.write_text("".join(f"{key} = {values[0]}\n" for key, values in _KEY_VALUES.items()))
    seen = []
    monkeypatch.setattr(cli, "run_evolve", lambda cfg: seen.append(cfg) or 0)
    param_keys = {f.name for f in fields(ModelParams)}

    def value(cfg, key):
        return getattr(cfg.params if key in param_keys else cfg, key)

    assert main(["evolve", "--config", str(full)]) == 0
    for key, (file_value, _) in _KEY_VALUES.items():
        assert value(seen[-1], key) == file_value, key
    for key, (file_value, flag_value) in _KEY_VALUES.items():
        flag = ["--" + key.replace("_", "-")]
        if not isinstance(flag_value, bool):
            flag.append(str(flag_value))
        assert main(["evolve", "--config", str(full)] + flag) == 0
        assert value(seen[-1], key) == flag_value != file_value, key


def test_evolve_reports_death_and_revival(conf, tmp_path, capsys):
    out = tmp_path / "ev.csv"
    code = main(["evolve", "--config", str(conf), "--out", str(out),
                 "--theta", "0", "--t-max", "3", "--record-every", "10"])
    assert code == 0
    text = capsys.readouterr().out
    assert "ESD at t = 2.7" in text
    assert "ESB at t = 2.7" in text


def test_evolve_rotated_coherence_column(conf, tmp_path):
    out = tmp_path / "rot.csv"
    assert main(["evolve", "--config", str(conf), "--out", str(out),
                 "--phi", str(math.pi / 8)]) == 0
    lines = out.read_text().splitlines()
    first = dict(zip(CSV_COLUMNS, map(float, lines[1].split(","))))
    # pi/8 local rotation turns the Bell pair into a four-component
    # superposition with uniform magnitudes, so the rotated reading is 3
    assert first["l1_coherence"] == pytest.approx(1.0)
    assert first["l1_rotated"] == pytest.approx(3.0)


def test_evolve_compare_reference_columns(conf, tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["evolve", "--config", str(conf), "--out", str(out),
                 "--compare-j0-zero", "--t-max", "1.0", "--record-every", "100"]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header == CSV_COLUMNS + [c + "_ref" for c in CSV_COLUMNS[1:]]
    i23 = header.index("abs_rho23")
    r23 = header.index("abs_rho23_ref")
    i14 = header.index("abs_rho14")
    r14 = header.index("abs_rho14_ref")
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    # the inner coherence channel ignores the neighborhood coupling
    assert max(abs(r[i23] - r[r23]) for r in rows) < 1e-9
    assert max(abs(r[i14] - r[r14]) for r in rows) > 1e-4


def test_sector_mixture_averages_sectors(conf):
    entries = parse_config_file(conf)
    entries.update({"mode": "sector-mixture", "t_max": 0.2, "record_every": 100})
    cfg = scenario_from_entries(entries)
    header, (rows,) = scenario_rows(cfg)
    icfg = IntegratorConfig(dt=cfg.dt, t_max=0.2, record_every=100)
    rho0 = initial_state(cfg.params.theta)
    by_mu = {mu: evolve(rho0, replace(cfg.params, mu=mu), icfg)[1] for mu in (1, 0, -1)}
    for k, row in enumerate(rows):
        blend = (0.25 * by_mu[1][k] + 0.5 * by_mu[0][k] + 0.25 * by_mu[-1][k])
        assert row[header.index("rho11")] == pytest.approx(blend[0, 0].real, abs=1e-14)
        assert row[header.index("abs_rho14")] == pytest.approx(abs(blend[0, 3]), abs=1e-14)



def test_sector_mixture_with_reference_is_one_batch_of_single_runs(conf):
    entries = parse_config_file(conf)
    entries.update({"mode": "sector-mixture", "compare_j0_zero": True,
                    "t_max": 0.2005, "record_every": 7})
    cfg = scenario_from_entries(entries)
    header, (table,) = scenario_rows(cfg)
    icfg = IntegratorConfig(dt=cfg.dt, t_max=cfg.t_max, record_every=cfg.record_every)
    rho0 = initial_state(cfg.params.theta)
    # the CLI table holds exactly the 1:2:1 blends of the single runs
    for suffix, p in (("", cfg.params), ("_ref", replace(cfg.params, J0=0.0))):
        (times, plus), (_, zero), (_, minus) = (evolve(rho0, replace(p, mu=mu), icfg)
                                                for mu in (1, 0, -1))
        assert np.array_equal(table[:, 0], times)
        blend = 0.25 * plus + 0.5 * zero + 0.25 * minus
        assert np.array_equal(table[:, header.index("rho11" + suffix)], blend[:, 0, 0].real)
        assert np.array_equal(table[:, header.index("abs_rho14" + suffix)],
                              magnitude(blend[:, 0, 3]))

def _per_state_rows(cfg):
    """CSV_COLUMNS of cfg's samples, one single-state call at a time."""
    icfg = IntegratorConfig(dt=cfg.dt, t_max=cfg.t_max, record_every=cfg.record_every)
    rho0 = initial_state(cfg.params.theta)
    if cfg.mode == "single-sector":
        samples = zip(*evolve(rho0, cfg.params, icfg))
    else:
        sectors = [(w, list(zip(*evolve(rho0, replace(cfg.params, mu=mu), icfg))))
                   for mu, w in ((1, 0.25), (0, 0.5), (-1, 0.25))]
        samples = [(t, sum(w * seq[k][1] for w, seq in sectors))
                   for k, (t, _) in enumerate(sectors[0][1])]
    rotation = None if cfg.phi is None else BasisRotation(cfg.phi, cfg.varphi or 0.0)
    rows = []
    for t, rho in samples:
        rec = record_from_state(t, rho)
        ms = evaluate_measures(rho)
        rows.append([
            rec.t, rec.rho11, rec.rho22, rec.rho33, rec.rho44, rec.abs_rho14, rec.abs_rho23,
            ms.concurrence, ms.c1_branch, ms.c2_branch, ms.l1_coherence,
            ms.l1_coherence if rotation is None else l1_coherence(rho, rotation),
            ms.lqfi, rec.trace_dev, ms.min_eig,
        ])
        # the X-block smallest eigenvalue against the generic eigvalsh one
        assert abs(ms.min_eig - min_eigenvalue(rho)) <= 1e-13
    return np.array(rows)


def test_record_and_measure_set_own_the_csv_columns_disjointly():
    # each column has one owner, and the two bundles own them all: MeasureSet owns l1_rotated
    record = [f.name for f in fields(TimeSeriesRecord)]
    measures = [f.name for f in fields(MeasureSet)]
    assert "l1_rotated" in measures
    assert set(record).isdisjoint(measures)
    assert len(set(CSV_COLUMNS)) == len(CSV_COLUMNS)
    assert set(record) | set(measures) == set(CSV_COLUMNS)


@pytest.mark.parametrize("extra", [
    {"phi": 0.7, "varphi": 1.1, "dt": 0.01, "record_every": 1},
    {"mode": "sector-mixture", "compare_j0_zero": True, "theta": 0.3, "record_every": 20},
])
def test_scenario_table_matches_per_state_evaluation(conf, extra):
    entries = parse_config_file(conf)
    entries.update({"t_max": 4.0, **extra})
    cfg = scenario_from_entries(entries)
    header, (table,) = scenario_rows(cfg)
    expected = _per_state_rows(cfg)
    if cfg.compare_j0_zero:
        reference = _per_state_rows(replace(cfg, params=replace(cfg.params, J0=0.0)))
        expected = np.hstack([expected, reference[:, 1:]])
    assert table.shape == expected.shape == (len(expected), len(header))
    assert np.abs(table - expected).max() <= 1e-13


def _csv_reference(header, rows) -> bytes:
    """The bytes `write_csv` must write: one `format_csv_value` per value."""
    lines = [",".join(header)] + [",".join(map(format_csv_value, row)) for row in rows.tolist()]
    return ("\n".join(lines) + "\n").encode("ascii")


def test_write_csv_bytes_match_format_csv_value(tmp_path, rng):
    header = ["a", "b", "c", "d"]
    rows = rng.normal(size=(50, 4)) * 10.0 ** rng.integers(-300, 300, size=(50, 4))
    rows[3] = [-0.0, 5e-324, 1e-300, 1e300]
    rows[7] = [0.0, -5e-324, -1e300, 1.0]
    # decimal exponents -30..16, most of them where write_csv's vectorized path runs
    fast = rng.normal(size=(5000, 4)) * 10.0 ** rng.integers(-29, 16, size=(5000, 4))
    path = tmp_path / "rows.csv"
    for table in (rows, fast):
        assert write_csv(path, header, [table]) == len(table)
        assert path.read_bytes() == _csv_reference(header, table)


def _neighbours(x: float, k: int = 4) -> list[float]:
    """x and the k doubles on each side of it."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(float(np.nextafter(below[-1], -math.inf)))
        above.append(float(np.nextafter(above[-1], math.inf)))
    return below[:0:-1] + above


def _exact_ties() -> list[float]:
    """Doubles whose 17-digit rounding is an exact tie: x = m / 2**(p + 1), m odd,
    so x * 10**p = m * 5**p / 2 with the integer part in [1e16, 1e17)."""
    ties = []
    for p in range(1, 46):
        low, high = -(-2 * 10**16 // 5**p), min((2 * 10**17 - 1) // 5**p, 2**53 - 1)
        for m in {low | 1, (low + high) // 2 | 1, (high - 1) | 1}:
            if m <= high:
                x = m / 2.0 ** (p + 1)
                assert (Fraction(x) * 10**p).denominator == 2
                ties.append(x)
    return ties


def test_write_csv_is_exact_at_the_edges_of_its_fast_path(tmp_path):
    ties = _exact_ties()
    # the fast path leaves every value within 1e-9 of a tie to '%.17g'
    assert not csvtext._decimal(np.array(ties))[2].any()
    values = [v for k in range(-35, 21) for v in _neighbours(float(f"1e{k}"))]
    values += _neighbours(1e16 - 2) + _neighbours(1e17 - 16) + ties
    values += [0.0, math.nan, math.inf, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308]
    values += [-v for v in values]
    header = ["a", "b", "c"]
    rows = np.resize(np.array(values), (-(-len(values) // 3), 3))
    # fallback values in the middle of a chunk, and in the last column
    middle = [[1.0, math.nan, 0.5], [0.25, 0.125, -1e300]]
    rows = np.vstack([rows[:_CSV_BLOCK // 2], middle, rows[_CSV_BLOCK // 2:],
                      [[1e-5, 1e-4, 1e-300]]])
    assert len(rows) > _CSV_BLOCK
    path = tmp_path / "rows.csv"
    assert write_csv(path, header, [rows]) == len(rows)
    assert path.read_bytes() == _csv_reference(header, rows)


@pytest.mark.parametrize("block", [np.zeros((2, 4)), np.zeros((2, 2)), np.zeros(3)])
def test_write_csv_rejects_a_block_that_does_not_fit_the_header(tmp_path, block):
    path = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match=re.escape(f"shape {block.shape}") + ".* the 3 columns"):
        write_csv(path, ["a", "b", "c"], [np.zeros((1, 3)), block])
    assert os.listdir(tmp_path) == []


def test_write_csv_streams_blocks_byte_identically(tmp_path, rng):
    header = ["a", "b", "c"]
    rows = rng.normal(size=(2 * _CSV_BLOCK + 3, 3)) * 10.0 ** rng.integers(-30, 30, size=(1, 3))
    # blocks that are empty, shorter than a chunk, a whole chunk, and across chunk bounds
    for cuts in ([], [0], [1], [_CSV_BLOCK], [len(rows)], [0, 1, 1, _CSV_BLOCK + 2, len(rows)]):
        path = tmp_path / "rows.csv"
        blocks = [rows[a:b] for a, b in zip([0] + cuts, cuts)]
        n_rows = cuts[-1] if cuts else 0
        assert write_csv(path, header, iter(blocks)) == n_rows
        assert path.read_bytes() == _csv_reference(header, rows[:n_rows])
    assert os.listdir(tmp_path) == ["rows.csv"]


def test_evolve_plot_flag_writes_svg(conf, tmp_path):
    out = tmp_path / "run.csv"
    assert main(["evolve", "--config", str(conf), "--out", str(out), "--plot"]) == 0
    svg = out.with_suffix(".svg")
    body = svg.read_text()
    assert body.startswith("<svg ")
    assert "polyline" in body
    assert "concurrence" in body
    # rendered from the table in memory: the same bytes as from the CSV it wrote
    replot = tmp_path / "replot.svg"
    assert main(["plot", "--csv", str(out), "--columns", "concurrence,l1_coherence,lqfi",
                 "--out", str(replot)]) == 0
    assert replot.read_bytes() == svg.read_bytes()


@pytest.mark.parametrize("where", ["flags", "config"])
def test_evolve_refuses_a_csv_path_that_the_plot_would_overwrite(conf, tmp_path, capsys, where):
    out = tmp_path / "run.svg"
    if where == "config":
        conf.write_text(BASE_CONF + f"out = {out}\nplot = true\n")
        argv = ["evolve", "--config", str(conf)]
    else:
        argv = ["evolve", "--config", str(conf), "--out", str(out), "--plot"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"config error: out {str(out)!r} is where --plot writes "
                                       "the SVG; name the CSV with another suffix\n")
    assert os.listdir(tmp_path) == ["base.conf"]
    # without --plot the same path is an ordinary CSV
    conf.write_text(BASE_CONF)
    assert main(["evolve", "--config", str(conf), "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"t,rho11,")


# --- sweep --------------------------------------------------------------------

def test_sweep_grid_and_layout(conf, tmp_path):
    out = tmp_path / "sw.csv"
    assert main(["sweep", "--config", str(conf), "--param", "b",
                 "--from", "0.5", "--to", "2.5", "--count", "3",
                 "--t-max", "0.1", "--record-every", "100", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[0] == "sweep_value"
    assert lines[0].split(",")[1:] == CSV_COLUMNS
    values = [float(line.split(",")[0]) for line in lines[1:]]
    assert values == [0.5, 0.5, 1.5, 1.5, 2.5, 2.5]  # 2 samples per point



@pytest.mark.parametrize("sweep", [
    ["--param", "b", "--from", "0.5", "--to", "2.5", "--count", "3",
     "--phi", "0.7", "--varphi", "1.1"],
    ["--param", "theta", "--from", "0", "--to", "1.5", "--count", "4",
     "--mode", "sector-mixture", "--compare-j0-zero"],
])
def test_sweep_blocks_are_the_bytes_of_single_runs(conf, tmp_path, sweep):
    window = ["--t-max", "0.2005", "--record-every", "7"]
    out = tmp_path / "sw.csv"
    assert main(["sweep", "--config", str(conf), "--out", str(out)] + sweep + window) == 0
    lines = out.read_bytes().split(b"\n")[:-1]
    values = np.linspace(float(sweep[3]), float(sweep[5]), int(sweep[7]))
    block = (len(lines) - 1) // len(values)
    flags = sweep[8:]
    for k, value in enumerate(values):
        single = tmp_path / f"point{k}.csv"
        assert main(["evolve", "--config", str(conf), "--out", str(single),
                     f"--{sweep[1]}", repr(float(value))] + flags + window) == 0
        expected = single.read_bytes().split(b"\n")[:-1]
        assert lines[0] == b"sweep_value," + expected[0]
        got = lines[1 + k * block:1 + (k + 1) * block]
        assert [line.split(b",", 1) for line in got] == [
            [format_csv_value(value).encode("ascii"), line] for line in expected[1:]]


def _sweep_peak(conf, path, count):
    """tracemalloc peak of writing a mixture + reference sweep of `count` points to
    `path`, and the bytes of one point's block of rows."""
    entries = parse_config_file(conf)
    entries.update({"mode": "sector-mixture", "compare_j0_zero": True,
                    "t_max": 2.0, "dt": 0.01, "record_every": 1})
    cfg = scenario_from_entries(entries)
    sweep = [(b, replace(cfg.params, b=b)) for b in np.linspace(1.0, 2.0, count)]
    tracemalloc.start()
    try:
        header, blocks = scenario_rows(cfg, sweep)
        write_csv(path, header, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    samples = (len(path.read_bytes().splitlines()) - 1) // count
    return peak, samples * len(header) * np.dtype(float).itemsize


def test_sweep_peak_memory_does_not_grow_with_its_point_count(conf, tmp_path):
    # each point's block is written and dropped before the next point is integrated
    path = tmp_path / "sw.csv"
    _sweep_peak(conf, path, 2)  # warm every first-call cache outside the measured runs
    small, _ = _sweep_peak(conf, path, 2)
    large, block = _sweep_peak(conf, path, 8)
    assert large - small <= block


@pytest.mark.parametrize("extra", [
    ["--param", "nope", "--from", "0", "--to", "1", "--count", "2"],
    ["--param", "b", "--from", "0", "--to", "1", "--count", "1"],
    ["--param", "mu", "--from", "0", "--to", "1", "--count", "3"],
    ["--param", "gamma", "--from", "-2", "--to", "-1", "--count", "2"],
])
def test_sweep_rejects_bad_grids(conf, extra):
    assert main(["sweep", "--config", str(conf)] + extra) == 2


def test_sweep_rejects_mu_in_sector_mixture(conf, tmp_path, capsys):
    # the mixture sets mu itself, so every point would be the same mixture
    grid = ["sweep", "--config", str(conf), "--param", "mu", "--from", "-1", "--to", "1",
            "--count", "3", "--out", str(tmp_path / "sw.csv")]
    assert main(grid + ["--mode", "sector-mixture"]) == 2
    assert "sweep mu in single-sector mode" in capsys.readouterr().err
    assert not (tmp_path / "sw.csv").exists()
    assert main(grid) == 0
    values = [line.split(",", 1)[0] for line in (tmp_path / "sw.csv").read_text().splitlines()[1:]]
    assert sorted(set(values)) == ["-1", "0", "1"]


# --- events -------------------------------------------------------------------

def test_detect_events_quiet_series():
    ts = list(range(10))
    assert detect_events(ts, [1.0] * 10) == []
    assert detect_events(ts, [0.0] * 10) == []


def test_detect_events_death_only():
    ts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    vs = [1.0, 0.5, 0.0, 0.0, 0.0, 0.0]
    events = detect_events(ts, vs)
    assert [e.kind for e in events] == ["ESD"]
    # crossing interpolated between the 0.5 and 0.0 samples
    assert events[0].t == pytest.approx(2.0, abs=1e-6)


def test_detect_events_death_and_revival():
    ts = [float(k) for k in range(8)]
    vs = [1.0, 0.0, 0.0, 0.0, 0.4, 0.8, 0.9, 1.0]
    events = detect_events(ts, vs)
    assert [e.kind for e in events] == ["ESD", "ESB"]
    assert 0.0 < events[0].t <= 1.0
    assert 3.0 <= events[1].t < 4.0


def test_detect_events_ignores_short_dips():
    ts = [float(k) for k in range(6)]
    vs = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert detect_events(ts, vs) == []


def test_detect_events_leading_dead_run_is_birth_only():
    ts = [float(k) for k in range(6)]
    vs = [0.0, 0.0, 0.0, 0.5, 0.8, 0.9]
    events = detect_events(ts, vs)
    assert [e.kind for e in events] == ["ESB"]


# --- plot ---------------------------------------------------------------------

def test_plot_subcommand(conf, tmp_path):
    csv = tmp_path / "run.csv"
    assert main(["evolve", "--config", str(conf), "--out", str(csv)]) == 0
    svg = tmp_path / "chart.svg"
    assert main(["plot", "--csv", str(csv), "--columns",
                 "concurrence,l1_coherence,lqfi", "--out", str(svg)]) == 0
    body = svg.read_text()
    assert body.count("<polyline") == 3
    for name in ("concurrence", "l1_coherence", "lqfi"):
        assert name in body


def test_plot_unknown_column(conf, tmp_path, capsys):
    csv = tmp_path / "run.csv"
    main(["evolve", "--config", str(conf), "--out", str(csv)])
    assert main(["plot", "--csv", str(csv), "--columns", "nope",
                 "--out", str(tmp_path / "x.svg")]) == 2
    assert "nope" in capsys.readouterr().err


def test_plot_empty_csv(tmp_path, capsys):
    csv = tmp_path / "empty.csv"
    csv.write_text("t,concurrence\n")
    assert main(["plot", "--csv", str(csv), "--columns", "concurrence",
                 "--out", str(tmp_path / "x.svg")]) == 2
    # no header either, and no column named at all
    csv.write_text("")
    assert main(["plot", "--csv", str(csv), "--columns", "concurrence",
                 "--out", str(tmp_path / "x.svg")]) == 2
    assert "no header" in capsys.readouterr().err
    csv.write_text("t,concurrence\n0,1\n")
    assert main(["plot", "--csv", str(csv), "--columns", ",", "--out", str(tmp_path / "x.svg")]) == 2
    assert "no columns requested" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("out", ["a.csv", "./a.csv", "{tmp}/a.csv"])
def test_plot_refuses_to_overwrite_its_input_csv(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    csv = tmp_path / "a.csv"
    csv.write_bytes(b"t,a\n0,1\n1,0.5\n")
    out = out.format(tmp=tmp_path)
    assert main(["plot", "--csv", "a.csv", "--columns", "a", "--out", out]) == 2
    assert capsys.readouterr() == ("", f"config error: out {out!r} is the input CSV; "
                                       "name the SVG another file\n")
    assert csv.read_bytes() == b"t,a\n0,1\n1,0.5\n"
    assert os.listdir(tmp_path) == ["a.csv"]


# --- exit codes and validate ----------------------------------------------------

def test_missing_config_exit_code(tmp_path):
    assert main(["evolve", "--config", str(tmp_path / "nope.conf")]) == 2


def test_unknown_config_key_exit_code(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("bogus = 1\n")
    assert main(["evolve", "--config", str(path)]) == 2


def test_unwritable_out_is_a_config_error_that_names_it(conf, tmp_path, capsys):
    # the rows go to a temporary file beside --out, but an error names --out itself
    (tmp_path / "d").mkdir()
    for out, code in ((tmp_path / "nodir" / "x.csv", errno.ENOENT), (tmp_path / "d", errno.EISDIR)):
        assert main(["evolve", "--config", str(conf), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: [Errno {code}] {os.strerror(code)}: '{out}'\n"
    assert sorted(os.listdir(tmp_path)) == ["base.conf", "d"]
    assert os.listdir(tmp_path / "d") == []


def test_unstable_integration_exit_code(conf, tmp_path, capsys):
    code = main(["evolve", "--config", str(conf), "--out", str(tmp_path / "x.csv"),
                 "--J", "40", "--b", "80", "--dt", "0.9", "--t-max", "40",
                 "--record-every", "1"])
    assert code == 3
    assert "reduce dt" in capsys.readouterr().err


def test_step_outside_stability_region_exit_code(conf, tmp_path, capsys):
    code = main(["evolve", "--config", str(conf), "--out", str(tmp_path / "x.csv"),
                 "--dt", "0.7", "--t-max", "10"])
    assert code == 3
    assert "reduce dt" in capsys.readouterr().err


@pytest.mark.parametrize("command, dt", [
    (["evolve", "--out", "x.csv"], "1e-15"),
    (["sweep", "--param", "b", "--from", "1", "--to", "2", "--count", "2", "--out", "x.csv"],
     "1e-15"),
    (["validate", "--quick"], "1e-16"),
])
def test_time_grid_too_large_to_allocate_is_a_config_error(conf, tmp_path, monkeypatch, capsys,
                                                           command, dt):
    # each grid holds 256 B of states per sample and every 10th step is a sample:
    # 2e15 samples at t_max = 20, dt = 1e-15, and 5e15 at validate's t_max = 5,
    # dt = 1e-16. Both exceed 2**57 B, the largest address space with 5-level
    # paging, so numpy refuses them before it touches any memory
    monkeypatch.chdir(tmp_path)
    window = [] if command[0] == "validate" else [
        "--config", str(conf), "--t-max", "20", "--record-every", "10"]
    assert main(command[:1] + window + command[1:] + ["--dt", dt]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the ")
    assert f"samples of dt={dt} over t=0.." in err
    assert "cannot be allocated: Unable to allocate" in err
    assert err.endswith("; raise dt or record_every\n")
    assert sorted(os.listdir(tmp_path)) == ["base.conf"]


def test_non_finite_rotation_is_a_config_error(conf, tmp_path, capsys):
    # the rotation is checked with the scenario, before dt = 0.7 fails the stability gate
    code = main(["evolve", "--config", str(conf), "--out", str(tmp_path / "x.csv"),
                 "--phi", "nan", "--dt", "0.7", "--t-max", "10"])
    assert code == 2
    assert capsys.readouterr().err == "config error: phi must be finite\n"


@pytest.mark.parametrize("b,fragments", [
    # the main run (Delta = J0 mu + B = 1.2) loses positivity at t = 0.03 and is
    # measured before the unstable J0 = 0 reference (Delta = -150) is reported
    ("3", ["integrated state at t=0.03", "min_eig -1.088e-09"]),
    ("2", ["RK4 amplification factor 1.50165"]),
])
def test_failure_order_inside_one_point(conf, tmp_path, capsys, b, fragments):
    code = main(["evolve", "--config", str(conf), "--out", str(tmp_path / "x.csv"),
                 "--b", b, "--J0", "151.2", "--B", "-150", "--dt", "0.01", "--t-max", "10",
                 "--record-every", "1", "--compare-j0-zero"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric instability: ")
    for fragment in fragments:
        assert fragment in err
    assert ("amplification factor" in err) == (b == "2")
    assert not (tmp_path / "x.csv").exists()


def test_positivity_lost_at_stable_dt_exit_code(conf, tmp_path, capsys):
    # dt = 0.01 is inside the RK4 stability region, but near the rank-1
    # initial state the b = 3 run dips below the -1e-9 clamp of the measures
    # at the sample t = 0.03
    code = main(["sweep", "--config", str(conf), "--param", "b",
                 "--from", "1", "--to", "3", "--count", "9",
                 "--dt", "0.01", "--t-max", "10", "--record-every", "1",
                 "--out", str(tmp_path / "sw.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "sweep point b=3" in err
    assert "t=0.03" in err
    assert "min_eig -1.088e-09" in err
    assert "dt=0.01" in err
    assert "reduce dt" in err
    assert not (tmp_path / "sw.csv").exists()



def test_unstable_later_sweep_point_exit_code(conf, tmp_path, capsys):
    # at dt = 0.01 the points b = 50 and 100 are stable and b = 150 and 200 are not
    code = main(["sweep", "--config", str(conf), "--param", "b",
                 "--from", "50", "--to", "200", "--count", "4",
                 "--dt", "0.01", "--t-max", "1", "--record-every", "1",
                 "--out", str(tmp_path / "sw.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numeric instability: sweep point b=150: RK4 amplification factor" in err
    assert "reduce dt" in err
    assert not (tmp_path / "sw.csv").exists()


def test_failing_sweep_leaves_an_existing_out_file_untouched(conf, tmp_path, capsys):
    # b = 150 fails after the points b = 50 and 100 were written to the temporary file
    argv = ["sweep", "--config", str(conf), "--param", "b",
            "--from", "50", "--to", "200", "--count", "4",
            "--dt", "0.01", "--t-max", "1", "--record-every", "1", "--out"]
    fresh, existing = tmp_path / "fresh", tmp_path / "existing"
    fresh.mkdir()
    existing.mkdir()
    assert main(argv + [str(fresh / "sw.csv")]) == 3
    err = capsys.readouterr().err
    assert "numeric instability: sweep point b=150: RK4 amplification factor" in err
    (existing / "sw.csv").write_bytes(b"t\n0\n")
    assert main(argv + [str(existing / "sw.csv")]) == 3
    assert capsys.readouterr().err == err
    assert (existing / "sw.csv").read_bytes() == b"t\n0\n"
    assert os.listdir(existing) == ["sw.csv"]
    assert os.listdir(fresh) == []


def test_unstable_later_sweep_point_in_sector_mixture_exit_code(conf, tmp_path, capsys):
    # three sector runs per point: the failing run's index must map back to b = 150
    code = main(["sweep", "--config", str(conf), "--param", "b",
                 "--from", "50", "--to", "200", "--count", "4",
                 "--dt", "0.01", "--t-max", "1", "--record-every", "1",
                 "--mode", "sector-mixture", "--out", str(tmp_path / "sw.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numeric instability: sweep point b=150: RK4 amplification factor" in err
    assert not (tmp_path / "sw.csv").exists()


def test_sweep_reports_earlier_positivity_loss_before_later_instability(conf, tmp_path, capsys):
    # point by point, b = 3 is measured (and loses positivity at t = 0.03)
    # before b = 203 is integrated, so its failure is the one reported
    code = main(["sweep", "--config", str(conf), "--param", "b",
                 "--from", "3", "--to", "203", "--count", "2",
                 "--dt", "0.01", "--t-max", "10", "--record-every", "1",
                 "--out", str(tmp_path / "sw.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "sweep point b=3: integrated state at t=0.03" in err
    assert not (tmp_path / "sw.csv").exists()

def test_validate_quick_passes(capsys):
    assert main(["validate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 6
    assert "FAIL" not in out
    assert "lqfi variant probe" in out
    assert "diagonal-dropped = 1.0" in out


def test_validate_skips_steady_state_without_damping(capsys):
    assert main(["validate", "--quick", "--gamma", "0"]) == 0
    out = capsys.readouterr().out
    assert "SKIP" in out
    assert "no unique stationary state" in out


def test_console_script_installed(tmp_path):
    """The declared ``spinchain`` script resolves to a working ``main``.

    The target is read from ``pyproject.toml`` and run the way the generated
    wrapper runs it, against the package this suite imports, so the result
    does not depend on which ``spinchain`` is first on PATH.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "spinchain" in scripts
    module, _, attr = scripts["spinchain"].partition(":")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(spinchain.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {attr}; sys.exit({attr}())", "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: spinchain ")
    assert "{evolve,sweep,validate,plot}" in proc.stdout.splitlines()[0]
