"""``format(v, ".16e")`` and ``repr(v)`` of whole float64 arrays in numpy,
byte for byte.

Each value gets a slot of fixed width: its sign byte ("-" or NUL), then
its unsigned text with NULs at any place, so that a writer can place
slots in fixed-width rows and drop the NULs afterwards.  ``slots`` gives
``SLOT`` (24) bytes of ``%.16e``, ``repr_slots`` ``REPR_SLOT`` (29) bytes
of ``repr``.

For ``a = |v|`` in [1e-290, 1e290] the exponent ``k`` is
``floor(log10(a))``, moved by one where ``log10`` missed, and
``a * 10**(16 - k)`` is split into 17 digits ``d`` and a tail below one
(``_decimal``).  The product is Dekker's exact product of ``a`` with a
double-double ``10**(16 - k)`` from a table, accurate to within 2**-47,
far closer than the 2**-30 by which a tail must miss a rounding boundary
to be decided here.

``%.16e`` rounds ``d`` and its tail half to even.  ``repr`` keeps the
fewest leading digits of ``d`` whose nearer rounding (or, where only the
other one reads back, that one) lies within half the gap to the
neighbouring float: half that gap, in the units of ``d``, is
``2**(e - 54) * 10**(16 - k)`` for ``a`` in [2**(e - 1), 2**e), and
half of that again below a power of two.  ``repr`` writes ``k`` in
-4..15 in fixed notation (``0.0001``, ``123.0``) and otherwise in
scientific notation with an exponent of two digits or more (``1e-05``,
``1.5e+16``).

Zeros, nan and infinities are fixed words (nan never takes a sign, as in
Python), and Python formats the rest: near-ties, among them exact ties
such as 1000000000000000.25, and magnitudes outside that range.  The
tables are built on first use.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat

import numpy as np

SLOT = 24  # "-1.2345678901234567e+100" fills one
# sign, "0.000", 17 digits and their dot, "e-100": the widest repr parts
REPR_SLOT = 29
# Magnitudes the double-double product formats; outside, Python formats.
_FAST_MIN, _FAST_MAX = 1e-290, 1e290
_TIE = 2.0 ** -30  # a tail this close to a rounding boundary goes to Python
_P10_MIN, _P10_MAX = -276, 308  # powers of ten in the table
_EXP_MIN = -300  # first exponent in the exponent table
_U32 = np.dtype("<u4")
# Byte places of a repr's digits and dot, and the lead of a fixed repr
# below 1 (cut after "0." and -k - 1 zeros), one row each.
_AT = np.arange(18, dtype=np.int8)[:, None]
_ZEROS = np.frombuffer(b"0.000", np.uint8)[:, None]


def _slot(text: str, width: int) -> bytes:
    """The slot of ``text``: sign byte, unsigned text, NUL padding."""
    signed = text if text.startswith("-") else "\0" + text
    return signed.encode().ljust(width, b"\0")


def _words(width: int, zero: str) -> np.ndarray:
    """The slots of nan, inf and ``zero``."""
    words = b"".join(_slot(w, width) for w in ("nan", "inf", zero))
    return np.frombuffer(words, np.uint8).reshape(3, width)


@cache
def _tables():
    """Tables of both formatters, built on first use.

    For each m in [_P10_MIN, _P10_MAX], 10**m as the double-double
    ``hi + lo`` (each rounded to nearest, so the pair is exact to 2**-106),
    with ``hi`` split exactly into a head and a tail of 26 bits each; the
    bytes of 0000..9999 as one little-endian ``uint32`` each; the sign and
    digits of each exponent, NUL-padded to 4 bytes in the same way.
    """
    hi, lo = [], []
    for m in range(_P10_MIN, _P10_MAX + 1):
        if m >= 0:
            exact = 10 ** m
            hi.append(float(exact))
            lo.append(float(exact - int(hi[-1])))
        else:
            q = 10 ** -m
            hi.append(1 / q)  # int / int is correctly rounded
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * q) / (den * q))
    hi = np.array(hi)
    # Veltkamp's split of the mantissa, scaled back exactly.
    mant, exp = np.frexp(hi)
    c = mant * 134217729.0
    head = c - (c - mant)
    pairs = np.frombuffer(b"".join(b"%02d" % n for n in range(100)),
                          np.uint8).reshape(100, 2)
    digits = np.empty((100, 100, 4), np.uint8)
    digits[:, :, :2] = pairs[:, None]
    digits[:, :, 2:] = pairs
    exponents = b"".join((b"-" if k < 0 else b"+")
                         + (b"%02d" % abs(k)).rjust(3, b"\0")
                         for k in range(_EXP_MIN, -_EXP_MIN + 1))
    return (hi, np.ldexp(head, exp), np.ldexp(mant - head, exp),
            np.array(lo), digits.view(_U32).ravel(),
            np.frombuffer(exponents, _U32))


def _python_format(values: np.ndarray) -> list[str]:
    """``format(v, ".16e")`` of each value, one Python call each."""
    return list(map(float.__format__, values.tolist(), repeat(".16e")))


def _python_repr(values: np.ndarray) -> list[str]:
    """``repr(v)`` of each value, one Python call each."""
    return list(map(float.__repr__, values.tolist()))


def _scaled(a: np.ndarray, k: np.ndarray, tables):
    """Integer part and tail of ``a * 10**(16 - k)``, to within 2**-47.

    Dekker's product of ``a`` with ``hi`` is exact and its rounded part
    ``p`` an integer (it is at least 2**53 where it matters), so only the
    small ``err + a * lo`` carries rounding error.
    """
    m = 16 - _P10_MIN - k
    hi, hi_head, hi_tail, lo = (table.take(m) for table in tables[:4])
    p = a * hi
    c = a * 134217729.0
    a_head = c - (c - a)
    a_tail = a - a_head
    err = (((a_head * hi_head - p) + a_head * hi_tail + a_tail * hi_head)
           + a_tail * hi_tail)
    t = err + a * lo
    whole = np.floor(t)
    return p.astype(np.int64) + whole.astype(np.int64), t - whole


def _decimal(a: np.ndarray, tables):
    """``k``, ``d`` and ``tail`` with ``a * 10**(16 - k) = d + tail``,
    ``10**16 <= d < 10**17`` and ``0 <= tail < 1``."""
    k = np.floor(np.log10(a)).astype(np.intp)
    d, tail = _scaled(a, k, tables)
    off = ((d < 10 ** 16) | (d >= 10 ** 17)).nonzero()[0]
    if off.size:
        k[off] += np.where(d[off] < 10 ** 16, -1, 1)
        d[off], tail[off] = _scaled(a[off], k[off], tables)
    return k, d, tail


def _put_digits(d: np.ndarray, lead: np.ndarray, rest: np.ndarray,
                digits: np.ndarray) -> None:
    """Write the ASCII of the 17 digits of ``d``: the first to ``lead``,
    the other 16 to the ``uint8`` columns ``rest``."""
    first = d // 10 ** 16
    lead[...] = first + ord("0")
    groups = rest.view(_U32)
    d = d - first * 10 ** 16
    high = d // 10 ** 8
    for i, half in enumerate((high, d - high * 10 ** 8)):
        head = half // 10 ** 4
        groups[:, 2 * i] = digits.take(head)
        groups[:, 2 * i + 1] = digits.take(half - head * 10 ** 4)


def _format(values, width: int, zero: str, python_format, fast):
    """Slots of ``width`` bytes: ``fast(a, tables)`` gives the slots of
    the magnitudes ``a`` without their sign bytes, right where ``a`` is in
    range, and the indices of its near-ties; the words and
    ``python_format`` fill the rest."""
    tables = _tables()
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    slow = (~((a >= _FAST_MIN) & (a <= _FAST_MAX))).nonzero()[0]
    a[slow] = 1.0  # any value in range; its slot is overwritten
    out, python = fast(a, tables)
    out[:, 0] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    if slow.size:
        v = x[slow]
        nan = np.isnan(v)
        out[slow] = _words(width, zero)[np.where(
            nan, 0, np.where(np.isinf(v), 1, 2))]
        out[slow, 0] = (np.signbit(v) & ~nan) * ord("-")
        python = np.concatenate([python, slow[np.isfinite(v) & (v != 0)]])
    if python.size:
        out[python] = np.frombuffer(
            b"".join(_slot(t, width) for t in python_format(x[python])),
            np.uint8).reshape(-1, width)
    return out.reshape(np.shape(values) + (width,))


def _e16(a, tables):
    # sign, lead digit, ".", 16 digits, "e", exponent sign and digits
    k, d, tail = _decimal(a, tables)
    python = (np.abs(tail - 0.5) < _TIE).nonzero()[0]
    d += tail > 0.5
    up = (d == 10 ** 17).nonzero()[0]  # rounded up to the next decade
    if up.size:
        d[up] = 10 ** 16
        k[up] += 1
    out = np.empty((a.size, SLOT), np.uint8)
    _put_digits(d, out[:, 1], out[:, 3:19], tables[4])
    out[:, 2] = ord(".")
    out[:, 19] = ord("e")
    out[:, 20:].view(_U32)[:, 0] = tables[5].take(k - _EXP_MIN)
    return out, python


def slots(values: np.ndarray) -> np.ndarray:
    """The slot of ``format(v, ".16e")`` of each value, as ``uint8`` of
    shape ``values.shape + (SLOT,)``."""
    return _format(values, SLOT, "0.0000000000000000e+00", _python_format,
                   _e16)


def _rounding(d, tail, below, above, unit):
    """The rounding of ``d + tail`` to a multiple of ``unit`` that reads
    back (the nearer where both do), whether one does, and whether the
    answer is a near-tie.  ``below`` and ``above`` are the half-gaps to
    the neighbouring floats, in the units of ``d``."""
    q = d // unit
    r = d - q * unit
    low = r + tail  # distance to q * unit
    high = (unit - r) - tail  # distance to (q + 1) * unit
    down, up = low < below, high < above
    near = ((np.abs(low - below) < _TIE * below)
            | (np.abs(high - above) < _TIE * above)
            | (down & up & (np.abs(low - high) < _TIE * above)))
    up &= ~down | (high < low)
    return (q + up) * unit, down | up, near


def _repr(a, tables):
    k, d, tail = _decimal(a, tables)
    mant, exp = np.frexp(a)
    above = np.ldexp(tables[0].take(16 - _P10_MIN - k), exp - 54)
    below = np.where(mant == 0.5, above / 2, above)  # 2**e: half the gap
    # The nearer 17 digits always read back (both gaps exceed a half unit);
    # try 16, 15, ... digits while the last length did.
    n = np.full(a.size, 17)
    shortest = d + (tail > 0.5)
    near = np.abs(tail - 0.5) < _TIE
    live = np.arange(a.size)
    for p in range(16, 0, -1):
        rounded, ok, tie = _rounding(d, tail, below, above, 10 ** (17 - p))
        if tie.any():
            near[live[tie]] = True
        ok = ok.nonzero()[0]
        if not ok.size:
            break
        live, d, tail, below, above = (v.take(ok) for v in
                                       (live, d, tail, below, above))
        shortest[live] = rounded.take(ok)
        n[live] = p
    up = (shortest == 10 ** 17).nonzero()[0]  # rounded up to the next decade
    if up.size:
        shortest[up] = 10 ** 16
        k[up] += 1

    # The text after the sign, one row per byte and one column per value
    # (numpy is fastest along the long axis): "0." and zeros below 1, then
    # the digits with a dot after ``dot`` of them, cut at ``size`` bytes
    # (below 1, right before that dot).
    fixed = (k >= -4) & (k <= 15)
    small = fixed & (k < 0)
    dot = np.where(fixed, np.where(small, n - 1, k), 0).astype(np.int8)
    size = np.where(fixed, np.where(small, n, np.maximum(n, k + 2) + 1),
                    n + (n > 1)).astype(np.int8)
    digits = np.zeros((a.size, 21), np.uint8)  # NUL, 17 digits, NULs
    _put_digits(shortest, digits[:, 1], digits[:, 2:18], tables[4])
    digits = np.ascontiguousarray(digits.T)
    text = np.empty((23, a.size), np.uint8)
    np.multiply(_ZEROS, _AT[:5] <= np.where(small, -k, -1).astype(np.int8),
                out=text[:5])
    body = text[5:]
    # Each row is the digit at its place up to the dot, the dot, then the
    # digit one place back; uint8 arithmetic wraps, so each step is exact.
    np.multiply(digits[1:19] - digits[:18], _AT <= dot, out=body)
    body += digits[:18]
    body += (ord(".") - body) * (_AT == dot + 1)
    body *= _AT < size
    del digits
    out = np.empty((a.size, REPR_SLOT), np.uint8)
    out[:, 1:24] = text.T
    out[:, 24] = ~fixed * np.uint8(ord("e"))
    out[:, 25:].view(_U32)[:, 0] = tables[5].take(k - _EXP_MIN) * ~fixed
    return out, near.nonzero()[0]


def repr_slots(values: np.ndarray) -> np.ndarray:
    """The slot of ``repr(v)`` of each value, as ``uint8`` of shape
    ``values.shape + (REPR_SLOT,)``."""
    return _format(values, REPR_SLOT, "0.0", _python_repr, _repr)
