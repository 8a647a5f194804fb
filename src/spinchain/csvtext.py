"""The CSV text of a float table: every value exactly as ``'%.17g' % value`` writes it.

`csv_text` writes a value with decimal exponent e in [_E_MIN, _E_MAX] from its
17 significant digits D = round(X), X = |x| * 10**(16 - e). X is formed in
float64 as ph + r with an error below about 5e-15, so D is exact unless X
lies within _TIE of a rounding tie. Those values and every value outside the
range are formatted by '%.17g' one at a time.

Each value is laid out in one 48-byte row of six 8-byte words:

    "-0.000d." "d.d.d.d." x 4 "e-XXs\\0\\0\\0"

with the sign, "0." and up to three zeros of 0.000ddd, the 17 digits each
followed by a point, the exponent and the separator s. A keep row chosen by
(e, significant digits, sign) zeroes the bytes the value's text omits, and
the zero bytes are then dropped.

`cli.write_csv` imports this module on its first call, so a command that
writes no CSV neither loads it nor builds its tables.
"""

from __future__ import annotations

import numpy as np

_E_MIN, _E_MAX = -29, 16
_TIE = 1e-9
_ROW = 48
_SEP = 44  # the separator's byte
_N_SIG = 17
_ZERO_KEEP = (_E_MAX - _E_MIN + 1) * _N_SIG * 2  # the keep rows of 0 and -0
_SPLIT = 2.0**27 + 1  # Veltkamp's constant: x = x_h + x_l with 26-bit halves


def _tables():
    p = range(_E_MAX - _E_MIN + 1)
    hi = np.array([float(10**k) for k in p])
    lo = np.array([float(10**k - int(h)) for k, h in zip(p, hi.tolist())])
    assert all(int(h) + int(l) == 10**k for k, h, l in zip(p, hi.tolist(), lo.tolist()))
    hi_h = _SPLIT * hi
    hi_h -= hi_h - hi
    lead = np.tile(np.frombuffer(b"-0.000\0.", np.uint8), (10, 1))
    lead[:, 6] = np.arange(10) + ord("0")
    group = np.arange(10**4, dtype=np.uint16)
    groups = np.full((10**4, 8), ord("."), np.uint8)
    for k, scale in enumerate((1000, 100, 10, 1)):
        groups[:, 2 * k] = (group // scale % 10).astype(np.uint8) + ord("0")
    zeros = sum((group % scale == 0).astype(np.uint8) for scale in (10, 100, 1000, 10**4))
    exponent = np.zeros((_E_MAX - _E_MIN + 1, 8), np.uint8)
    for e in range(_E_MIN, -4):
        exponent[e - _E_MIN, :4] = np.frombuffer(b"e-%02d" % -e, np.uint8)
    # the bytes that the text of (e, significant digits) keeps
    e = np.arange(_E_MIN, _E_MAX + 1)[:, None, None]
    sig = np.arange(1, _N_SIG + 1)[None, :, None]
    byte = np.arange(_ROW)
    in_digits = (byte >= 6) & (byte < 6 + 2 * _N_SIG)
    # fixed notation writes every digit before the point, zeros included
    written = np.where(e >= 0, np.maximum(sig, e + 1), sig)
    digits = in_digits & (byte % 2 == 0) & (byte < 6 + 2 * written)
    # the point follows digit e in fixed notation and digit 0 in exponent notation
    after = np.maximum(e, 0)
    point = in_digits & (byte == 7 + 2 * after) & (sig > after + 1) & ((e >= 0) | (e < -4))
    small = (byte >= 1) & (byte < 2 - e) & (e >= -4) & (e < 0)  # "0." and the zeros of 0.000ddd
    power = (byte >= 40) & (byte < _SEP) & (e < -4)
    keep = digits | point | small | power | (byte == _SEP)
    zero = (byte == 1) | (byte == _SEP)
    # keep[(e, significant digits - 1, sign)], then the rows of 0 and -0
    keep = np.stack([keep, keep | (byte == 0)], axis=2).reshape(-1, _ROW)
    keep = np.vstack([keep, zero, zero | (byte == 0)]).astype(np.uint8) * np.uint8(0xFF)
    tables = (hi, hi_h, hi - hi_h, lo, lead.view(np.uint64)[:, 0], groups.view(np.uint64)[:, 0],
              zeros, exponent.view(np.uint64)[:, 0], keep.view(np.uint64))
    for table in tables:
        table.flags.writeable = False
    return tables


# 10**p = _HI + _LO exactly for p = 0..45, and _HI = _HI_H + _HI_L with 26-bit
# halves; the words "-0.000d." of each leading digit, "d.d.d.d." of each
# 4-digit group and "e-XX" of each e < -4; the trailing zeros of each group
# (4 for 0000); and the keep rows, words of 0x00 (drop) and 0xFF (keep) bytes
_HI, _HI_H, _HI_L, _LO, _LEAD, _GROUPS, _ZEROS, _EXPONENT, _KEEP = _tables()


def csv_text(rows: np.ndarray) -> bytearray:
    """The CSV text of a (rows, columns) float array: '%.17g' values, ',' between, LF after."""
    x = rows.ravel()
    d, e, fast = _decimal(np.abs(x))
    neg = np.signbit(x)
    # the text is written into, and compacted from, one bytearray
    buffer = bytearray(len(x) * _ROW)
    words = np.frombuffer(buffer, np.uint64).reshape(len(x), _ROW // 8)
    # D's four 4-digit groups, last first, then its leading digit; the digits of
    # a value off the fast path are never kept, so they need only valid indices
    trailing = np.zeros(len(x), np.uint8)  # trailing zeros of D
    tail = np.ones(len(x), bool)  # every group so far is 0000
    for word in (4, 3, 2, 1):
        rest = d // 10**4
        group = d - rest * 10**4
        words[:, word] = _GROUPS[group]
        trailing += tail * _ZEROS[group]
        tail &= group == 0
        d = rest
    words[:, 0] = np.take(_LEAD, d, mode="clip")
    words[:, 5] = np.take(_EXPONENT, e - _E_MIN, mode="clip")
    index = np.where(fast, ((e - _E_MIN) * _N_SIG + _N_SIG - 1 - trailing) * 2 + neg,
                     _ZERO_KEEP + neg)
    words &= np.take(_KEEP, index, axis=0)
    text = words.view(np.uint8)
    cells = text.reshape(rows.shape + (_ROW,))
    cells[:, :-1, _SEP] = ord(",")
    cells[:, -1, _SEP] = ord("\n")
    slow = np.flatnonzero(~fast & (x != 0))
    if len(slow):
        text[slow, :_SEP] = np.frombuffer(
            b"".join((b"%.17g" % v).ljust(_SEP, b"\0") for v in x[slow].tolist()),
            np.uint8).reshape(-1, _SEP)
    return buffer.translate(None, b"\0")


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits D and decimal exponent e of each |x| in `a`, and
    whether the value is on the fast path (D and e are then exact)."""
    # every value outside [1e-30, 1e18), 0, NaN and inf included, is off the fast path
    near = (a >= 1e-30) & (a < 1e18)
    a = np.where(near, a, 1.0)
    e = np.clip(np.floor(np.log10(a)).astype(np.int64), _E_MIN, _E_MAX)
    ph, r = _scaled(a, e)
    # log10 can miss e by one near a power of ten: decide e on the unrounded X = ph + r
    low = (ph - 1e16) + r < 0
    high = (ph - 1e17) + r >= 0
    e += high.astype(np.int64) - low
    redo = np.flatnonzero((low | high) & (e >= _E_MIN) & (e <= _E_MAX))
    if len(redo):
        ph[redo], r[redo] = _scaled(a[redo], e[redo])
    # ph is an even integer here, so half-even rounding of r is half-even rounding of D
    d = ph.astype(np.int64) + np.rint(r).astype(np.int64)
    carry = d == 10**17
    d -= carry * (10**17 - 10**16)
    e += carry
    fast = near & (e >= _E_MIN) & (e <= _E_MAX) & (np.abs(r - np.floor(r) - 0.5) >= _TIE)
    return d, e, fast


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - e) as ph + r: Dekker's (1971) exact product of a and _HI, plus a * _LO."""
    p = _E_MAX - e
    hi_h, hi_l = _HI_H[p], _HI_L[p]
    ph = a * _HI[p]
    a_h = _SPLIT * a
    a_h -= a_h - a
    a_l = a - a_h
    r = ((a_h * hi_h - ph) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
    r += a * _LO[p]
    return ph, r
