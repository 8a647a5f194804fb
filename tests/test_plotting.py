import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from spinchain.cli import main, write_csv
from spinchain.plotting import EmptyData, UnknownColumn, _points, _ticks, emit_plot, read_csv


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "t,alpha,beta\n"
        "0,1.0,2.0\n"
        "1,0.5,nan\n"
        "2,0.25,1.5\n"
    )
    return path


def test_read_csv(sample_csv):
    header, rows = read_csv(sample_csv)
    assert header == ["t", "alpha", "beta"]
    assert rows[0] == [0.0, 1.0, 2.0]
    assert len(rows) == 3


def test_read_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_emit_plot_structure(sample_csv, tmp_path):
    out = tmp_path / "chart.svg"
    emit_plot(*read_csv(sample_csv), ["alpha", "beta"], out)
    body = out.read_text()
    assert body.startswith("<svg ")
    assert body.rstrip().endswith("</svg>")
    assert body.count("<polyline") == 2
    assert ">alpha<" in body and ">beta<" in body
    assert ">t<" in body  # x-axis label from the first column


def test_plot_escapes_markup_in_column_names(tmp_path):
    csv = tmp_path / "marked.csv"
    csv.write_text("t<&>,a<b&c,d>e\n0,1.0,2.0\n1,0.5,1.5\n")
    out = tmp_path / "chart.svg"
    assert main(["plot", "--csv", str(csv), "--columns", "a<b&c,d>e", "--out", str(out)]) == 0
    texts = [el.text for el in ET.parse(out).getroot() if el.tag.endswith("text")]
    # the axis label follows the tick labels, then one legend entry per column
    assert texts[-3:] == ["t<&>", "a<b&c", "d>e"]


def test_emit_plot_refuses_a_non_ascii_name_before_writing(tmp_path):
    out = tmp_path / "chart.svg"
    with pytest.raises(UnicodeEncodeError):
        emit_plot(["t", "\u03c1"], [[0.0, 1.0], [1.0, 0.5]], ["\u03c1"], out)
    assert not out.exists()


def test_emit_plot_skips_non_finite_points(sample_csv, tmp_path):
    out = tmp_path / "chart.svg"
    emit_plot(*read_csv(sample_csv), ["beta"], out)
    body = out.read_text()
    polyline = next(line for line in body.splitlines() if "<polyline" in line)
    # three rows, one NaN sample: only two points survive
    assert polyline.count(",") == 2


def test_emit_plot_unknown_column_writes_nothing(sample_csv, tmp_path):
    out = tmp_path / "chart.svg"
    with pytest.raises(UnknownColumn):
        emit_plot(*read_csv(sample_csv), ["gamma"], out)
    assert not out.exists()


def test_emit_plot_empty_data(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t,x\n")
    with pytest.raises(EmptyData):
        emit_plot(*read_csv(path), ["x"], tmp_path / "chart.svg")
    # rows, but no finite value in the requested column
    with pytest.raises(EmptyData, match="no finite values"):
        emit_plot(["t", "x"], [[0.0, math.nan], [1.0, math.nan]], ["x"], tmp_path / "chart.svg")
    assert not (tmp_path / "chart.svg").exists()


def test_emit_plot_constant_series(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("t,x\n0,1\n1,1\n2,1\n")
    out = tmp_path / "flat.svg"
    emit_plot(*read_csv(path), ["x"], out)
    assert out.read_text().count("<polyline") == 1


def _per_point_reference(header, rows, columns):
    """The polylines and axis labels of a table, one Python step per point.

    A point needs a finite x and y, and the axis ranges span the finite
    points only. The array form of `emit_plot` must give the same bytes.
    """
    index = {name: i for i, name in enumerate(header)}
    rows = [row for row in rows if math.isfinite(row[0])]
    xs = [row[0] for row in rows]
    series = {name: [row[index[name]] for row in rows] for name in columns}
    x_lo, x_hi = min(xs), max(xs)
    y_values = [v for vals in series.values() for v in vals if math.isfinite(v)]
    y_lo, y_hi = min(y_values), max(y_values)
    pad = abs(y_hi) * 0.1 or 1.0 if y_hi == y_lo else 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def px(x):
        return 72 + (x - x_lo) / (x_hi - x_lo) * 764

    def py(y):
        return 24 + (y_hi - y) / (y_hi - y_lo) * 444

    polylines = [" ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, series[name])
                          if math.isfinite(y))
                 for name in columns]
    x_labels = [format(v, ".4g") for v in _ticks(x_lo, x_hi)] + [header[0]]
    return polylines, x_labels, [format(v, ".4g") for v in _ticks(y_lo, y_hi)]


_EDGE = [0.0, 0.125, 0.375, 1.005, 2.675, 763.995, 764.0]  # pixel offsets at the .2f rounding edge
_EDGE_TABLES = {
    "nan": [[x, math.sin(x), math.nan if k % 3 == 1 else x / 100] for k, x in enumerate(_EDGE)],
    "inf": [[x, math.inf if k == 2 else 0.5, -math.inf if k == 4 else x] for k, x in enumerate(_EDGE)],
    "one-sided inf": [[x, math.inf if k == 1 else x, 1.0 - x] for k, x in enumerate(_EDGE)],
    "x nan": [[math.nan if k in (0, 3) else x, x / 10, -x] for k, x in enumerate(_EDGE)],
    "x inf": [[math.inf if k == 6 else x, x / 10, 0.5] for k, x in enumerate(_EDGE)],
    "all-nan column": [[x, math.nan, x] for x in _EDGE],
    "constant": [[x, 0.25, 0.0] for x in _EDGE],
    "zero": [[x, 0.0, 0.0] for x in _EDGE],
    "single row": [[1.5, 0.125, -0.375]],
}


@pytest.mark.parametrize("case", sorted(_EDGE_TABLES))
def test_emit_plot_matches_the_per_point_generator(case, tmp_path):
    header, rows = ["t", "a", "b"], _EDGE_TABLES[case]
    out = tmp_path / "chart.svg"
    emit_plot(header, rows, ["a", "b"], out)
    body = out.read_text(encoding="ascii")
    polylines, x_labels, y_labels = _per_point_reference(header, rows, ["a", "b"])
    assert re.findall(r'<polyline points="([^"]*)"', body) == polylines
    assert re.findall(r'text-anchor="middle">([^<]*)</text>', body) == x_labels
    assert re.findall(r'text-anchor="end">([^<]*)</text>', body) == y_labels
    # the plot subcommand on the written CSV draws the same bytes
    csv = tmp_path / "table.csv"
    write_csv(csv, header, [rows])
    replot = tmp_path / "replot.svg"
    assert main(["plot", "--csv", str(csv), "--columns", "a,b", "--out", str(replot)]) == 0
    assert replot.read_bytes() == out.read_bytes()


def _points_reference(values) -> bytes:
    values = np.asarray(values, dtype=float).ravel().tolist()
    return ("%.2f,%.2f " * (len(values) // 2) % tuple(values))[:-1].encode()


_TIE_VALUES = (np.arange(100_000) + 0.5) / 100  # the x.xx5 nearest to each tie below 1000
_KERNEL_CASES = {
    "random": np.random.default_rng(7).random(20_000) * 1000,
    "eighths": np.arange(8000) / 8,  # k + j/8: exact ties at j = 1, 3, 5, 7
    "ties": _TIE_VALUES,
    "below ties": np.nextafter(_TIE_VALUES, 0),
    "above ties": np.nextafter(_TIE_VALUES, 2000),
    "two below ties": np.nextafter(np.nextafter(_TIE_VALUES, 0), 0),
    "specials": [0.0, -0.0, math.nan, math.inf, -math.inf, 999.995, 999.99499999999989, 1e-300],
    "large": [1000.0, 999.995, 1000.004, 1234.5678, 1e5, 1e300, 2.0**60, 1e16 + 2],
    "negative": [-1e-300, -0.004, -0.005, -0.125, -1.0, -999.995, -1e300, -5e-324],
    "mixed": [72.0, -0.0, 0.125, math.nan, 468.0, 1e300, 0.375, -math.inf, 763.995, 0.0],
    "empty": np.zeros(0),
}


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_points_kernel_writes_the_percent_format(case):
    values = np.asarray(_KERNEL_CASES[case], dtype=float)
    assert _points(values.reshape(-1, 2)) == _points_reference(values)
    # the same values as y, each after an x of its own
    swapped = values.reshape(-1, 2)[:, ::-1].copy()
    assert _points(swapped) == _points_reference(swapped)
