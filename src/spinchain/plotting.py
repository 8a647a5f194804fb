"""Static SVG line charts of the tables this package writes.

`emit_plot` renders a header and its rows held in memory: `evolve --plot`
passes the table it has just written, and `plot` reads a CSV file with
`read_csv` first. The CSV holds every value with 17 significant digits,
which round-trips exactly, so both give the same bytes. Hand-assembled
SVG: no plotting dependency, and the output is byte-deterministic for
identical input (fixed palette, fixed float formatting, no timestamps or
generated ids).

The polyline points are written by `_points`, a numpy kernel that gives
the bytes of ``'%.2f,%.2f ' % (x, y)`` per point. For a coordinate v in
[0, 1000) it takes n = rint(v * 100). The product is rounded to the
nearest double, and every tie k + 1/2 is a double, so the product lies on
the same side of each tie as v * 100 itself, or on the tie. Only in that
last case can rint round the other way from '%.2f'. So a value whose
product is a tie takes '%.2f', as do negative values (-0.0 included),
values that round to 1000 or more, NaN and infinities, one value at a
time. Every other value is laid out from digit tables in an 8-byte cell,
"ddd.dd" plus its separator with the unwritten leading digits as NUL
bytes, and the cells are joined by dropping the NUL bytes. The tables are
built on the first call, so importing this module builds nothing.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#e377c2",
]

_WIDTH, _HEIGHT = 860, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 24, 52


class UnknownColumn(KeyError):
    """Requested column name is not in the CSV header."""


class EmptyData(ValueError):
    """CSV has a header but no data rows."""


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """Read one of our CSV files: header names plus float rows."""
    text = Path(path).read_text(encoding="ascii")
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise EmptyData(f"{path}: no header")
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}: row with {len(parts)} fields, header has {len(header)}")
        rows.append([float(x) for x in parts])
    return header, rows


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _fmt(x: float) -> str:
    return format(x, ".4g")


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 8-byte cell words of each whole part "ddd." (its leading zeros NUL)
    and each fraction "dd", and the separators after an x and after a y."""
    q = np.arange(1000)
    whole = np.zeros((1000, 8), np.uint8)
    whole[:, :3] = np.stack([q // 100, q // 10 % 10, q % 10], axis=1) + ord("0")
    whole[:, 0] *= q >= 100
    whole[:, 1] *= q >= 10
    whole[:, 3] = ord(".")
    f = np.arange(100)
    frac = np.zeros((100, 8), np.uint8)
    frac[:, 4] = f // 10 + ord("0")
    frac[:, 5] = f % 10 + ord("0")
    sep = np.zeros((2, 8), np.uint8)
    sep[:, 6] = (ord(","), ord(" "))
    tables = whole.view(np.uint64)[:, 0], frac.view(np.uint64)[:, 0], sep.view(np.uint64)[:, 0]
    for table in tables:
        table.flags.writeable = False
    return tables


def _points(xy: np.ndarray) -> bytes:
    """The points of an (n, 2) array of x, y as ``("%.2f,%.2f " * n % values)[:-1]`` writes them."""
    v = xy.ravel()
    whole, frac, sep = _tables()
    # negatives, -0.0, NaN and infinities are off the fast path before the product
    fast = ~np.signbit(v) & (v < 1000.0)
    scaled = np.where(fast, v, 0.0) * 100.0
    n = np.rint(scaled)
    # a product on a tie k + 1/2 may stand for a value on either side of it
    fast &= (np.abs(scaled - n) < 0.5) & (n < 100000)
    q, r = np.divmod(n.astype(np.int64), 100)
    buffer = bytearray(8 * len(v))
    words = np.frombuffer(buffer, np.uint64)
    np.bitwise_or(np.take(whole, q, mode="clip"), frac[r], out=words)
    words *= fast
    words.reshape(-1, 2)[...] |= sep
    # each slow value's '%.2f' goes in front of its cell, which holds only its separator
    slow = np.flatnonzero(~fast)
    if len(slow):
        view, pieces, start = memoryview(buffer), [], 0
        for i, x in zip(slow.tolist(), v[slow].tolist()):
            pieces += (view[start:8 * i], b"%.2f" % x)
            start = 8 * i
        pieces.append(view[start:])
        buffer = b"".join(pieces)
    return buffer.translate(None, b"\0")[:-1]


def _text(name: str) -> str:
    """A column name as SVG character data: &, < and > escaped."""
    return name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_plot(header, rows, columns, out_path) -> None:
    """Render the named columns of a table as an SVG line chart.

    `header` names the columns of `rows`, a 2-D float table (a list of rows
    or an array, as `read_csv` or the CLI holds it). The first column is
    the x axis; each requested column becomes one polyline. A point whose
    x or y is NaN or infinite is left out, and both axis ranges span the
    finite values only. Raises UnknownColumn for a missing name and
    EmptyData for a table without rows or without a finite point, and
    UnicodeEncodeError for a column name that is not ASCII (no file is
    written in any of these cases).
    """
    if len(rows) == 0:
        raise EmptyData("no data rows")
    if not columns:
        raise UnknownColumn("no columns requested")
    index = {name: i for i, name in enumerate(header)}
    for name in columns:
        if name not in index:
            raise UnknownColumn(f"column {name!r} not in header {header}")

    table = np.asarray(rows, dtype=float)
    table = table[np.isfinite(table[:, 0])]
    xs = table[:, 0]
    ys = table[:, [index[name] for name in columns]]
    y_values = ys[np.isfinite(ys)]
    if not y_values.size:
        raise EmptyData("requested columns hold no finite values")

    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(y_values.min()), float(y_values.max())
    if y_hi == y_lo:
        pad = abs(y_hi) * 0.1 or 1.0
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # pixel coordinates of a value or an array of values, with the same rounding
    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">')
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>')

    for xv in _ticks(x_lo, x_hi):
        gx = px(xv)
        parts.append(
            f'<line x1="{gx:.2f}" y1="{_MARGIN_T + plot_h}" x2="{gx:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 6}" stroke="#333333" stroke-width="1"/>')
        parts.append(
            f'<text x="{gx:.2f}" y="{_MARGIN_T + plot_h + 20}" font-family="sans-serif" '
            f'font-size="12" fill="#333333" text-anchor="middle">{_fmt(xv)}</text>')
    for yv in _ticks(y_lo, y_hi):
        gy = py(yv)
        parts.append(
            f'<line x1="{_MARGIN_L - 6}" y1="{gy:.2f}" x2="{_MARGIN_L}" y2="{gy:.2f}" '
            f'stroke="#333333" stroke-width="1"/>')
        parts.append(
            f'<text x="{_MARGIN_L - 10}" y="{gy + 4:.2f}" font-family="sans-serif" '
            f'font-size="12" fill="#333333" text-anchor="end">{_fmt(yv)}</text>')
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 12}" font-family="sans-serif" '
        f'font-size="13" fill="#333333" text-anchor="middle">{_text(header[0])}</text>')

    for k, name in enumerate(columns):
        color = _PALETTE[k % len(_PALETTE)]
        finite = np.isfinite(ys[:, k])
        xy = np.column_stack([px(xs[finite]), py(ys[finite, k])])
        points = _points(xy).decode("ascii")
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 16 + 18 * k
        lx = _MARGIN_L + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" font-size="12" '
            f'fill="#333333">{_text(name)}</text>')

    parts.append("</svg>")
    # encoded before the file is opened, by str.encode's own ASCII path, not a text codec
    Path(out_path).write_bytes(("\n".join(parts) + "\n").encode("ascii"))
