"""``format(v, ".16e")`` of whole float64 arrays in numpy, byte for byte.

Each value gets a slot of ``SLOT`` (24) bytes: its sign byte ("-" or
NUL), then its unsigned text, NUL-padded, so that a writer can place
slots in fixed-width rows and drop the NULs afterwards.

For ``a = |v|`` in [1e-290, 1e290] the exponent ``k`` is
``floor(log10(a))``, moved by one where ``log10`` missed, and the 17
digits are ``a * 10**(16 - k)`` rounded half to even.  The product is
Dekker's exact product of ``a`` with a double-double ``10**(16 - k)``
from a table, accurate to within 2**-47, far closer than the 2**-30 by
which a tail must miss one half to be rounded here.  Zeros, nan and
infinities are fixed words (nan never takes a sign, as in Python), and
Python formats the rest: near-ties, among them exact ties such as
1000000000000000.25, and magnitudes outside that range.  The tables are
built on first use.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat

import numpy as np

SLOT = 24  # "-1.2345678901234567e+100" fills one
# Magnitudes the double-double product formats; outside, Python formats.
_FAST_MIN, _FAST_MAX = 1e-290, 1e290
_TIE = 2.0 ** -30  # a tail this close to one half goes to Python too
_P10_MIN, _P10_MAX = -276, 308  # powers of ten in the table
_EXP_MIN = -300  # first exponent in the exponent table
_U32 = np.dtype("<u4")


def _slot(text: str) -> bytes:
    """The slot of ``text``: sign byte, unsigned text, NUL padding."""
    signed = text if text.startswith("-") else "\0" + text
    return signed.encode().ljust(SLOT, b"\0")


@cache
def _tables():
    """Tables of the %.16e formatter, built on first use.

    For each m in [_P10_MIN, _P10_MAX], 10**m as the double-double
    ``hi + lo`` (each rounded to nearest, so the pair is exact to 2**-106),
    with ``hi`` split exactly into a head and a tail of 26 bits each; the
    bytes of 0000..9999 as one little-endian ``uint32`` each; the sign and
    digits of each exponent, NUL-padded to 4 bytes in the same way; and
    the slots of nan, inf and 0.
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
    words = b"".join(map(_slot, ("nan", "inf", "0.0000000000000000e+00")))
    return (hi, np.ldexp(head, exp), np.ldexp(mant - head, exp),
            np.array(lo), digits.view(_U32).ravel(),
            np.frombuffer(exponents, _U32),
            np.frombuffer(words, np.uint8).reshape(3, SLOT))


def _python_format(values: np.ndarray) -> list[str]:
    """``format(v, ".16e")`` of each value, one Python call each."""
    return list(map(float.__format__, values.tolist(), repeat(".16e")))


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


def slots(values: np.ndarray) -> np.ndarray:
    """The slot of ``format(v, ".16e")`` of each value, as ``uint8`` of
    shape ``values.shape + (SLOT,)``."""
    tables = _tables()
    digits, exponents, words = tables[4:]
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    slow = (~((a >= _FAST_MIN) & (a <= _FAST_MAX))).nonzero()[0]
    a[slow] = 1.0  # any value in range; its slot is overwritten
    k = np.floor(np.log10(a)).astype(np.intp)
    d, tail = _scaled(a, k, tables)
    off = ((d < 10 ** 16) | (d >= 10 ** 17)).nonzero()[0]
    if off.size:
        k[off] += np.where(d[off] < 10 ** 16, -1, 1)
        d[off], tail[off] = _scaled(a[off], k[off], tables)
    d += tail > 0.5
    up = (d == 10 ** 17).nonzero()[0]  # rounded up to the next decade
    if up.size:
        d[up] = 10 ** 16
        k[up] += 1

    # sign, lead digit, ".", 16 digits, "e", exponent sign and digits
    out = np.empty((x.size, SLOT), np.uint8)
    out[:, 0] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    lead = d // 10 ** 16
    out[:, 1] = lead + ord("0")
    out[:, 2] = ord(".")
    groups = out[:, 3:19].view(_U32)
    rest = d - lead * 10 ** 16
    high = rest // 10 ** 8
    for i, half in enumerate((high, rest - high * 10 ** 8)):
        head = half // 10 ** 4
        groups[:, 2 * i] = digits.take(head)
        groups[:, 2 * i + 1] = digits.take(half - head * 10 ** 4)
    out[:, 19] = ord("e")
    out[:, 20:].view(_U32)[:, 0] = exponents.take(k - _EXP_MIN)

    python = (np.abs(tail - 0.5) < _TIE).nonzero()[0]
    if slow.size:
        v = x[slow]
        nan = np.isnan(v)
        out[slow] = words[np.where(nan, 0, np.where(np.isinf(v), 1, 2))]
        out[slow, 0] = (np.signbit(v) & ~nan) * ord("-")
        python = np.concatenate([python, slow[np.isfinite(v) & (v != 0)]])
    if python.size:
        out[python] = np.frombuffer(
            b"".join(map(_slot, _python_format(x[python]))),
            np.uint8).reshape(-1, SLOT)
    return out.reshape(np.shape(values) + (SLOT,))
