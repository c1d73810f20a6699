"""Deterministic output writers for sweep results.

CSV is the primary format: one row per grid point in row-major order,
floats printed as ``%.16e`` (17 significant digits, so a reread
reproduces them bitwise), non-finite values spelled nan / inf / -inf,
LF line endings.  Rerunning the same sweep yields byte-identical files.
JSON holds the same columns as an array of records, laid out as
``json.dumps(records, indent=1)`` would: finite floats as their shortest
round-trip ``repr``, non-finite values as the quoted strings "nan" /
"inf" / "-inf", since strict JSON has no tokens for them.

Both text formats are built in steps, the :func:`.row_blocks` (whole
first-axis rows of about 16k points) that :func:`.sweep` evaluates.
``write_csv`` and ``write_json`` write each step as it is made, holding
one step's text for any grid, and remove a partial file if a write
fails; ``csv_text`` and ``json_text`` join the steps.

Both are formatted in numpy, with no Python object per value.
:func:`.e16.slots` gives the ``%.16e`` bytes of a whole array and
:func:`.e16.repr_slots` the ``repr`` bytes: the digits come from one
double-double product with a power of ten, ``repr`` keeping the fewest
that read back, and Python formats only near-ties and magnitudes
outside 1e-290..1e290.  Each step is one ``uint8`` matrix of NUL-padded
records, made from the record template of its format (each axis value
formatted once, the four float columns in one call, directions and
codes from byte tables), and its bytes go to the file with the NULs
dropped.  In JSON, quote bytes around each float slot are set where the
value is not finite.

Two invariants keep both byte-identical to formatting each record on
its own:

* Python spells non-finite floats nan / inf / -inf under both ``%.16e``
  and ``repr``, and prints nan unsigned even with its sign bit set, so
  no value needs a special case before the JSON quoting.
* Either spelling of ``abs(x)`` is the spelling of ``x`` without its
  leading ``-``, for -0.0, nan and -inf too, so the ``I_abs_db`` slot is
  the ``I_signed_db`` slot with its sign byte cleared instead of being
  formatted again.

Directions (indexed per step by :func:`.direction_index`) and error
codes are plain ASCII words and are written verbatim (quoted in JSON).

The SVG writer is intentionally minimal: line plots for one axis or a
small family of rows, a downsampled rectangle heatmap otherwise.  No
timestamps, random ids or library version strings are embedded, for the
same determinism reason.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .model import DIRECTION_LABELS, direction_index
# Not used here; the JSON spelling of one float, kept importable from here.
from .model import jsonable  # noqa: F401
from .sweep import CODE_NAMES, FigurePreset, SweepResult, row_blocks

CSV_HEADER = ("axis1,axis2,T12,T21,R,I_signed_db,I_abs_db,"
              "direction,error_code")

# One record of each format; %s marks a value, in the order of the header.
_CSV_RECORD = "%s,%s,%s,%s,%s,%s,%s,%s,%s\n"
# As json.dumps(records, indent=1) lays it out, with the ",\n" after it.
_JSON_RECORD = (' {\n  "axis1": %s,\n  "axis2": %s,\n  "T12": %s,\n'
                '  "T21": %s,\n  "R": %s,\n  "I_signed_db": %s,\n'
                '  "I_abs_db": %s,\n  "direction": "%s",\n'
                '  "error_code": "%s"\n },\n')


def _byte_table(words) -> np.ndarray:
    """The ASCII of ``words`` as NUL-padded ``uint8`` rows."""
    width = max(map(len, words))
    return np.frombuffer(b"".join(w.encode().ljust(width, b"\0")
                                  for w in words),
                         np.uint8).reshape(len(words), width)


_DIRECTIONS = _byte_table(DIRECTION_LABELS)
_CODES = _byte_table(CODE_NAMES)  # indexed by SweepResult.codes


def _json_slots(values: np.ndarray) -> np.ndarray:
    """The JSON text of each value as NUL-padded ``uint8`` rows: a quote
    byte, the :func:`.e16.repr_slots` slot, a quote byte.  The quotes are
    set around nan, inf and -inf only."""
    from .e16 import REPR_SLOT, repr_slots

    out = np.empty(np.shape(values) + (REPR_SLOT + 2,), np.uint8)
    out[..., 1:-1] = repr_slots(values)
    out[..., 0] = out[..., -1] = ~np.isfinite(values) * np.uint8(ord('"'))
    return out


def _record_steps(result: SweepResult, record: str, slots, sign: int,
                  axis2: np.ndarray):
    """Yield each step's records as bytes, NULs dropped.

    A step is one ``uint8`` matrix of NUL-padded rows made from
    ``record``: each %s becomes a slot of ``slots`` (the axes, formatted
    once each, and the four float columns, formatted in one call), the
    ``I_abs_db`` slot is the ``I_signed_db`` slot with its sign byte (at
    ``sign``) cleared, and directions and codes come from byte tables.
    ``axis2`` holds the slot of each second-axis value, or what stands for
    it on one axis.
    """
    n2 = math.prod(result.shape[1:])
    axis1 = slots(result.axis_values[0])
    width = axis1.shape[1]
    widths = (width, axis2.shape[1], *[width] * 5, _DIRECTIONS.shape[1],
              _CODES.shape[1])
    pieces = record.split("%s")
    template, at = bytearray(pieces[0].encode()), []
    for size, piece in zip(widths, pieces[1:]):
        at.append(slice(len(template), len(template) + size))
        template += bytes(size) + piece.encode()
    a1, a2, t12, t21, ratio, signed_at, abs_at, direction, code = at
    buffer = None
    for sl in row_blocks(result.shape):
        shape = (sl.stop - sl.start, n2)
        if buffer is None:  # the first step is the longest
            buffer = np.empty(shape + (len(template),), np.uint8)
            buffer[...] = np.frombuffer(template, np.uint8)
            buffer[:, :, a2] = axis2
        # Each step writes every byte outside the template and axis2, so
        # the buffer is reused.
        rows = buffer[:shape[0]]
        rows[:, :, a1] = axis1[sl, None]
        signed = result.i_signed_db[sl].reshape(shape)
        floats = slots(np.stack([result.t12[sl].reshape(shape),
                                 result.t21[sl].reshape(shape),
                                 result.ratio[sl].reshape(shape), signed],
                                axis=2))
        for i, where in enumerate((t12, t21, ratio, signed_at, abs_at)):
            rows[:, :, where] = floats[:, :, min(i, 3)]
        rows[:, :, abs_at.start + sign] = 0  # |I|: no sign byte
        rows[:, :, direction] = _DIRECTIONS.take(direction_index(signed),
                                                 axis=0)
        rows[:, :, code] = _CODES.take(result.codes[sl].reshape(shape),
                                       axis=0)
        del floats  # before the next step formats its own
        yield rows.tobytes().translate(None, b"\0")


def _csv_pieces(result: SweepResult):
    """Yield the header, then each step's CSV rows as bytes, with floats
    as :func:`.e16.slots` (``%.16e``)."""
    # Imported here so that commands writing no CSV do not load it.
    from .e16 import slots

    yield CSV_HEADER.encode() + b"\n"
    axis2 = (slots(result.axis_values[1]) if len(result.axes) == 2
             else np.empty((1, 0), np.uint8))
    yield from _record_steps(result, _CSV_RECORD, slots, 0, axis2)


def _json_pieces(result: SweepResult):
    """Yield the JSON array as bytes: "[\n", each step's records with
    ",\n" between them, "\n]\n"."""
    axis2 = (_json_slots(result.axis_values[1]) if len(result.axes) == 2
             else _byte_table(["null"]))
    separator = b"[\n"
    for step in _record_steps(result, _JSON_RECORD, _json_slots, 1, axis2):
        yield separator
        yield memoryview(step)[:-2]  # the record's own ",\n"
        separator = b",\n"
    yield b"\n]\n"


def _write_pieces(pieces, path) -> None:
    """Write each piece of bytes to ``path`` as it is made, holding one
    piece at a time; a failure part way removes the file."""
    path = Path(path)
    file = path.open("wb")
    try:
        with file:
            file.writelines(pieces)
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def csv_text(result: SweepResult) -> str:
    return b"".join(_csv_pieces(result)).decode("ascii")


def write_csv(result: SweepResult, path) -> None:
    _write_pieces(_csv_pieces(result), path)


def json_text(result: SweepResult) -> str:
    return b"".join(_json_pieces(result)).decode("ascii")


def write_json(result: SweepResult, path) -> None:
    _write_pieces(_json_pieces(result), path)


# SVG rendering ---------------------------------------------------------

_WIDTH, _HEIGHT = 720, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 76, 20, 20, 48
_PALETTE = ("#c1121f", "#003049", "#588157", "#bc6c25", "#6a4c93",
            "#118ab2", "#9c6644", "#ef476f")
_HEAT_LOW = np.array([29, 53, 87])      # #1d3557
_HEAT_HIGH = np.array([230, 57, 70])    # #e63946
_HEX = tuple(f"{k:02x}" for k in range(256))
_HEAT_NAN = "#adb5bd"
_MAX_HEAT_CELLS = 120


def _finite_range(values) -> tuple[float, float]:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return 0.0, 1.0
    lo, hi = float(finite.min()), float(finite.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def _scaler(lo: float, hi: float, out_lo: float, out_hi: float):
    span = hi - lo

    def to_pixels(v: float) -> float:
        return out_lo + (v - lo) / span * (out_hi - out_lo)

    return to_pixels


def _polyline_chunks(xs, ys, to_x, to_y):
    """Split a series at non-finite points and emit pixel coordinates."""
    chunks, current = [], []
    for x, y in zip(xs, ys):
        if math.isfinite(x) and math.isfinite(y):
            current.append(f"{to_x(x):.2f},{to_y(y):.2f}")
        elif current:
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    return [" ".join(c) for c in chunks if len(c) >= 2]


def _axis_frame(to_x, to_y, x_range, y_range, x_label, y_label) -> list[str]:
    x0, x1 = _LEFT, _WIDTH - _RIGHT
    y0, y1 = _HEIGHT - _BOTTOM, _TOP
    parts = [f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
             'fill="none" stroke="#333333" stroke-width="1"/>']
    for i in range(5):
        vx = x_range[0] + (x_range[1] - x_range[0]) * i / 4
        px = to_x(vx)
        parts.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" '
                     f'y2="{y0 + 4}" stroke="#333333"/>')
        parts.append(f'<text x="{px:.2f}" y="{y0 + 18}" font-size="11" '
                     f'text-anchor="middle" fill="#333333">{vx:.6g}</text>')
        vy = y_range[0] + (y_range[1] - y_range[0]) * i / 4
        py = to_y(vy)
        parts.append(f'<line x1="{x0 - 4}" y1="{py:.2f}" x2="{x0}" '
                     f'y2="{py:.2f}" stroke="#333333"/>')
        parts.append(f'<text x="{x0 - 8}" y="{py + 4:.2f}" font-size="11" '
                     f'text-anchor="end" fill="#333333">{vy:.6g}</text>')
    parts.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{_HEIGHT - 10}" '
                 f'font-size="12" text-anchor="middle" '
                 f'fill="#333333">{x_label}</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) / 2:.2f}" font-size="12" '
                 f'text-anchor="middle" fill="#333333" '
                 f'transform="rotate(-90 16 {(y0 + y1) / 2:.2f})">'
                 f'{y_label}</text>')
    return parts


def _series_for(result: SweepResult, plot: str):
    if plot == "transmissions":
        return [("T12", result.t12), ("T21", result.t21)], "transmission"
    if plot == "i_signed":
        return [("I (dB)", result.i_signed_db)], "I (dB)"
    return [("|I| (dB)", result.i_abs_db)], "|I| (dB)"


def svg_text(result: SweepResult, plot: str = "i_abs") -> str:
    body: list[str] = []
    fields, y_label = _series_for(result, plot)
    if len(result.axes) == 1 or result.shape[0] <= 8:
        if len(result.axes) == 1:
            xs = result.axis_values[0]
            series = [(label, values) for label, values in fields]
            x_label = result.axes[0].label()
        else:
            # A thin first axis renders as one line per first-axis value.
            xs = result.axis_values[1]
            label_base = result.axes[0].label()
            values = fields[0][1]
            series = [(f"{label_base}={result.axis_values[0][i]:.6g}",
                       values[i]) for i in range(result.shape[0])]
            x_label = result.axes[1].label()
        x_range = (float(xs[0]), float(xs[-1]))
        y_values = np.concatenate([np.asarray(v, dtype=float).ravel()
                                   for _, v in series])
        lo, hi = _finite_range(y_values)
        pad = 0.05 * (hi - lo)
        y_range = (lo - pad, hi + pad)
        to_x = _scaler(*x_range, _LEFT, _WIDTH - _RIGHT)
        to_y = _scaler(*y_range, _HEIGHT - _BOTTOM, _TOP)
        body.extend(_axis_frame(to_x, to_y, x_range, y_range, x_label, y_label))
        for i, (label, values) in enumerate(series):
            color = _PALETTE[i % len(_PALETTE)]
            for points in _polyline_chunks(xs, np.asarray(values, dtype=float),
                                           to_x, to_y):
                body.append(f'<polyline points="{points}" fill="none" '
                            f'stroke="{color}" stroke-width="1.5"/>')
            ly = _TOP + 16 + 16 * i
            body.append(f'<line x1="{_WIDTH - 190}" y1="{ly - 4}" '
                        f'x2="{_WIDTH - 166}" y2="{ly - 4}" stroke="{color}" '
                        'stroke-width="1.5"/>')
            body.append(f'<text x="{_WIDTH - 160}" y="{ly}" font-size="11" '
                        f'fill="#333333">{label}</text>')
    else:
        values = np.asarray(fields[0][1], dtype=float)
        n1, n2 = result.shape
        stride1 = max(1, math.ceil(n1 / _MAX_HEAT_CELLS))
        stride2 = max(1, math.ceil(n2 / _MAX_HEAT_CELLS))
        sub = values[::stride1, ::stride2]
        x_vals = result.axis_values[0][::stride1]
        y_vals = result.axis_values[1][::stride2]
        lo, hi = _finite_range(sub)
        x_range = (float(result.axis_values[0][0]),
                   float(result.axis_values[0][-1]))
        y_range = (float(result.axis_values[1][0]),
                   float(result.axis_values[1][-1]))
        to_x = _scaler(*x_range, _LEFT, _WIDTH - _RIGHT)
        to_y = _scaler(*y_range, _HEIGHT - _BOTTOM, _TOP)
        body.extend(_axis_frame(to_x, to_y, x_range, y_range,
                                result.axes[0].label(),
                                result.axes[1].label()))
        cell_w = (_WIDTH - _LEFT - _RIGHT) / len(x_vals)
        cell_h = (_HEIGHT - _TOP - _BOTTOM) / len(y_vals)
        finite = np.isfinite(sub)
        level = np.clip((np.where(finite, sub, lo) - lo) / (hi - lo), 0.0, 1.0)
        # np.rint rounds half to even, as round() does.
        rgb = np.rint(_HEAT_LOW + level[..., None] * (_HEAT_HIGH - _HEAT_LOW))
        fills = [[f"#{_HEX[r]}{_HEX[g]}{_HEX[b]}" for r, g, b in row]
                 for row in rgb.astype(np.intp).tolist()]
        for i, j in zip(*np.nonzero(~finite)):
            fills[i][j] = _HEAT_NAN
        rows = [f'" y="{_HEIGHT - _BOTTOM - (j + 1) * cell_h:.2f}" '
                f'width="{cell_w:.2f}" height="{cell_h:.2f}" fill="'
                for j in range(len(y_vals))]
        for i, column in enumerate(fills):
            head = f'<rect x="{_LEFT + i * cell_w:.2f}'
            body.extend(f'{head}{row}{fill}"/>'
                        for row, fill in zip(rows, column))
        body.append(f'<text x="{_WIDTH - _RIGHT}" y="{_TOP - 6}" '
                    f'font-size="11" text-anchor="end" fill="#333333">'
                    f'{y_label}: {lo:.6g} (dark) to {hi:.6g} (red)</text>')
    header = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
              f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">')
    return "\n".join([header, '<rect width="100%" height="100%" '
                      'fill="#ffffff"/>'] + body + ["</svg>"]) + "\n"


def write_svg(result: SweepResult, path, plot: str = "i_abs") -> None:
    Path(path).write_text(svg_text(result, plot), encoding="utf-8",
                          newline="\n")


def write_preset_outputs(preset: FigurePreset, result: SweepResult,
                         out_dir) -> list[Path]:
    """Write {name}.csv and {name}.svg for a preset run; returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{preset.name}.csv"
    svg_path = out_dir / f"{preset.name}.svg"
    write_csv(result, csv_path)
    write_svg(result, svg_path, preset.plot)
    return [csv_path, svg_path]
