"""Deterministic output writers for sweep results.

CSV is the primary format: one row per grid point in row-major order,
floats printed as ``%.16e`` (17 significant digits, so a reread
reproduces them bitwise), non-finite values spelled nan / inf / -inf,
LF line endings.  Rerunning the same sweep yields byte-identical files
regardless of thread count.  JSON holds the same columns as an array of
records, laid out as ``json.dumps(records, indent=1)`` would: finite
floats as their shortest round-trip ``repr``, non-finite values as the
quoted strings "nan" / "inf" / "-inf", since strict JSON has no tokens
for them.

Both text formats are built column by column, in steps of whole
first-axis rows of about ``_STEP`` points: each float column is
formatted in one ``map`` over ``.tolist()``, each distinct axis value
once, and the rows are joined from the column texts.  Two invariants
keep this byte-identical to formatting each record on its own:

* Python spells non-finite floats nan / inf / -inf under both ``%.16e``
  and ``repr``, and prints nan unsigned even with its sign bit set, so
  no value needs a special case before the JSON quoting.
* Either spelling of ``abs(x)`` is the spelling of ``x`` without its
  leading ``-``, for -0.0, nan and -inf too, so ``I_abs_db`` is derived
  from the ``I_signed_db`` text instead of being formatted again.

Directions and error codes are plain ASCII words and are written
verbatim (quoted in JSON).

The SVG writer is intentionally minimal: line plots for one axis or a
small family of rows, a downsampled rectangle heatmap otherwise.  No
timestamps, random ids or library version strings are embedded, for the
same determinism reason.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .sweep import CODE_NAMES, FigurePreset, SweepResult

CSV_HEADER = ("axis1,axis2,T12,T21,R,I_signed_db,I_abs_db,"
              "direction,error_code")

# One record as json.dumps(records, indent=1) lays it out; %s marks a value.
_JSON_RECORD = (' {\n  "axis1": %s,\n  "axis2": %s,\n  "T12": %s,\n'
                '  "T21": %s,\n  "R": %s,\n  "I_signed_db": %s,\n'
                '  "I_abs_db": %s,\n  "direction": "%s",\n'
                '  "error_code": "%s"\n }')
_JSON_NONFINITE = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}
_CODE_TEXT = np.array(CODE_NAMES, dtype=object)  # indexed by SweepResult.codes
_STEP = 1 << 16  # points formatted per step


def jsonable(x: float):
    """A float if finite, else its nan/inf string (strict JSON has neither)."""
    return x if math.isfinite(x) else str(float(x))


def _float_text(values: np.ndarray, as_json: bool) -> list[str]:
    """``%.16e`` (CSV) or ``repr`` (JSON) text of each value, unquoted."""
    if as_json:
        return list(map(float.__repr__, values.tolist()))
    # float.__format__ skips str.format's parsing of a "{:.16e}" template.
    return list(map(float.__format__, values.tolist(), repeat(".16e")))


def _unsigned(text: list[str]) -> list[str]:
    """The text of ``abs(x)`` from the unquoted text of ``x``."""
    return list(map(str.lstrip, text, repeat("-")))


def _json_quoted(text: list[str], values: np.ndarray) -> list[str]:
    """Quote the nan/inf/-inf entries of ``text``, the text of ``values``."""
    if np.isfinite(values).all():
        return text
    return list(map(_JSON_NONFINITE.get, text, text))


def _text_columns(result: SweepResult, as_json: bool):
    """Yield the nine text columns of each step of whole first-axis rows."""
    def floats(values: np.ndarray) -> list[str]:
        text = _float_text(values, as_json)
        return _json_quoted(text, values) if as_json else text

    n1 = result.shape[0]
    n2 = result.shape[1] if len(result.axes) == 2 else 1
    axis1 = floats(result.axis_values[0])
    axis2 = (floats(result.axis_values[1]) if len(result.axes) == 2
             else ["null" if as_json else ""])
    directions = result.directions()
    rows = max(1, _STEP // n2)
    for i0 in range(0, n1, rows):
        i1 = min(i0 + rows, n1)
        signed = result.i_signed_db[i0:i1].ravel()
        signed_text = _float_text(signed, as_json)
        abs_text = _unsigned(signed_text)
        if as_json:
            signed_text = _json_quoted(signed_text, signed)
            abs_text = _json_quoted(abs_text, signed)
        yield (list(chain.from_iterable(map(repeat, axis1[i0:i1],
                                            repeat(n2)))),
               axis2 * (i1 - i0),
               floats(result.t12[i0:i1].ravel()),
               floats(result.t21[i0:i1].ravel()),
               floats(result.ratio[i0:i1].ravel()),
               signed_text, abs_text,
               directions[i0:i1].ravel().tolist(),
               _CODE_TEXT[result.codes[i0:i1].ravel()].tolist())


def csv_text(result: SweepResult) -> str:
    def pieces():
        yield CSV_HEADER + "\n"
        for columns in _text_columns(result, as_json=False):
            yield "\n".join(map(",".join, zip(*columns))) + "\n"

    return "".join(pieces())


def write_csv(result: SweepResult, path) -> None:
    Path(path).write_text(csv_text(result), encoding="utf-8", newline="\n")


def json_text(result: SweepResult) -> str:
    # Joining the template's pieces and values beats ``%`` per record.
    pieces_of = _JSON_RECORD.split("%s")

    def pieces():
        separator = "[\n"
        for columns in _text_columns(result, as_json=True):
            parts = [repeat(pieces_of[0])]
            for column, piece in zip(columns, pieces_of[1:]):
                parts += (column, repeat(piece))
            yield separator
            yield ",\n".join(map("".join, zip(*parts)))
            separator = ",\n"
        yield "\n]\n"

    return "".join(pieces())


def json_records(result: SweepResult) -> list[dict]:
    return json.loads(json_text(result))


def write_json(result: SweepResult, path) -> None:
    Path(path).write_text(json_text(result), encoding="utf-8", newline="\n")


# SVG rendering ---------------------------------------------------------

_WIDTH, _HEIGHT = 720, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 76, 20, 20, 48
_PALETTE = ("#c1121f", "#003049", "#588157", "#bc6c25", "#6a4c93",
            "#118ab2", "#9c6644", "#ef476f")
_HEAT_LOW = (29, 53, 87)      # #1d3557
_HEAT_HIGH = (230, 57, 70)    # #e63946
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


def _heat_color(v: float) -> str:
    v = min(max(v, 0.0), 1.0)
    rgb = tuple(round(lo + v * (hi - lo))
                for lo, hi in zip(_HEAT_LOW, _HEAT_HIGH))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


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
        for i, xv in enumerate(x_vals):
            px = _LEFT + i * cell_w
            for j, yv in enumerate(y_vals):
                v = sub[i, j]
                fill = (_heat_color((v - lo) / (hi - lo))
                        if math.isfinite(v) else _HEAT_NAN)
                py = _HEIGHT - _BOTTOM - (j + 1) * cell_h
                body.append(f'<rect x="{px:.2f}" y="{py:.2f}" '
                            f'width="{cell_w:.2f}" height="{cell_h:.2f}" '
                            f'fill="{fill}"/>')
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
