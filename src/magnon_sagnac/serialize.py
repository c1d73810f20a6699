"""Deterministic output writers for sweep results.

CSV is the primary format: one row per grid point in row-major order,
floats printed as ``%.16e`` (17 significant digits, so a reread
reproduces them bitwise), non-finite values spelled nan / inf / -inf,
LF line endings.  Rerunning the same sweep yields byte-identical files.
JSON holds the same columns as an array of records, laid out as
``json.dumps(records, indent=1)`` would: finite floats as their shortest
round-trip ``repr``, non-finite values as the quoted strings "nan" /
"inf" / "-inf", since strict JSON has no tokens for them.

Every writer works in steps, the :func:`.row_blocks` (whole first-axis
rows of about 16k points) that :func:`.sweep` evaluates.
``write_preset_outputs`` takes each step from the block loop,
:meth:`.BlockSweep.blocks`, as soon as it has filled its reused buffers;
the other writers take a whole result's slices of the same blocks, so
there is one record template per format and one SVG sampler.  The text
writers write each step as it is made, holding one step's text for any
grid, and remove a partial regular file if a write fails; ``csv_text``
and ``json_text`` join the steps.

A CSV of fewer than ``_CSV_RECORDS_BELOW`` points, where e16's fixed
cost outweighs its gain, fills its template with ``format(v, ".16e")``
per value; every other output, every preset among them, fills it in
numpy, with no Python object per value.
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
small family of rows, a downsampled rectangle heatmap otherwise.  Its
sampler copies from each step only the cells the plot draws, every point
of a line plot and at most 120 x 120 of a heatmap, so a preset holds one
block plus those cells.  No timestamps, random ids or library version
strings are embedded, for the same determinism reason.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
from itertools import groupby, product
from pathlib import Path

import numpy as np

from .model import DIRECTION_LABELS, direction_index
from .sweep import (CODE_NAMES, BlockSweep, FigurePreset, SweepResult,
                    row_blocks)

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


# CSV outputs of fewer points are formatted record by record.  Numpy
# against record route in us, min of 21 alternating runs on gamma_m sweeps,
# 2-core Xeon VM: 174/94 at 20 points, 202/199 at 44, 195/211 at 48,
# 212/291 at 64.
_CSV_RECORDS_BELOW = 45

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


def _record_steps(axis_values, steps, record: str, slots, sign: int,
                  axis2: np.ndarray):
    """Yield each step's records as bytes, NULs dropped.

    ``steps`` yields ``(sl, t12, t21, ratio, i_signed_db, codes)`` for the
    :func:`.row_blocks` of a grid over ``axis_values``, each array shaped
    as the block ``sl``.  A step is one ``uint8`` matrix of NUL-padded rows
    made from ``record``: each %s becomes a slot of ``slots`` (the axes,
    formatted once each, and the four float columns, formatted in one
    call), the ``I_abs_db`` slot is the ``I_signed_db`` slot with its sign
    byte (at ``sign``) cleared, and directions and codes come from byte
    tables.  ``axis2`` holds the slot of each second-axis value, or what
    stands for it on one axis.
    """
    n2 = math.prod(map(len, axis_values[1:]))
    axis1 = slots(axis_values[0])
    width = axis1.shape[1]
    widths = (width, axis2.shape[1], *[width] * 5, _DIRECTIONS.shape[1],
              _CODES.shape[1])
    pieces = record.split("%s")
    template, at = bytearray(pieces[0].encode()), []
    for size, piece in zip(widths, pieces[1:]):
        at.append(slice(len(template), len(template) + size))
        template += bytes(size) + piece.encode()
    a1, a2, t12_at, t21_at, ratio_at, signed_at, abs_at, direction, code = at
    buffer = None
    for sl, t12, t21, ratio, signed, codes in steps:
        shape = (sl.stop - sl.start, n2)
        if buffer is None:  # the first step is the longest
            buffer = np.empty(shape + (len(template),), np.uint8)
            buffer[...] = np.frombuffer(template, np.uint8)
            buffer[:, :, a2] = axis2
        # Each step writes every byte outside the template and axis2, so
        # the buffer is reused.
        rows = buffer[:shape[0]]
        rows[:, :, a1] = axis1[sl, None]
        signed = signed.reshape(shape)
        floats = slots(np.stack([t12.reshape(shape), t21.reshape(shape),
                                 ratio.reshape(shape), signed], axis=2))
        for i, where in enumerate((t12_at, t21_at, ratio_at, signed_at,
                                   abs_at)):
            rows[:, :, where] = floats[:, :, min(i, 3)]
        rows[:, :, abs_at.start + sign] = 0  # |I|: no sign byte
        rows[:, :, direction] = _DIRECTIONS.take(direction_index(signed),
                                                 axis=0)
        rows[:, :, code] = _CODES.take(codes.reshape(shape), axis=0)
        del floats  # before the next step formats its own
        yield rows.tobytes().translate(None, b"\0")


def _csv_text_steps(axis_values, steps):
    """Yield the CSV bytes of :func:`_record_steps`, each value formatted
    on its own."""
    text = "{:.16e}".format
    axis1, *axis2 = [[text(v) for v in values.tolist()]
                     for values in axis_values]
    axis2 = axis2[0] if axis2 else [""]
    for sl, t12, t21, ratio, signed, codes in steps:
        columns = [c.ravel().tolist() for c in (t12, t21, ratio, signed,
                                                direction_index(signed),
                                                codes)]
        yield "".join(
            _CSV_RECORD % (a1, a2, text(x12), text(x21), text(r), text(i),
                           text(abs(i)), DIRECTION_LABELS[d], CODE_NAMES[c])
            for (a1, a2), x12, x21, r, i, d, c
            in zip(product(axis1[sl], axis2), *columns)).encode()


def _result_steps(result: SweepResult):
    """The steps of a whole result: its columns sliced by row blocks."""
    for sl in row_blocks(result.shape):
        yield (sl, result.t12[sl], result.t21[sl], result.ratio[sl],
               result.i_signed_db[sl], result.codes[sl])


def _run_steps(run: BlockSweep):
    """The steps of ``run`` as its blocks are evaluated, in one block's
    buffers, reused for every block."""
    block = (row_blocks(run.shape)[0].stop, *run.shape[1:])  # the largest
    # t12, t21, ratio, i_signed_db and delta_f_mhz.
    columns = [np.empty(block) for _ in range(5)]
    codes = np.empty(block, np.uint8)

    def out(sl):
        n = sl.stop - sl.start
        codes[:n] = 0
        return [column[:n] for column in columns], codes[:n]

    return ((sl, *block_columns[:4], block_codes)
            for sl, block_columns, block_codes in run.blocks(out))


def _csv_pieces(axis_values, steps):
    """Yield the header, then each step's CSV rows as bytes, with floats
    as ``%.16e``."""
    yield CSV_HEADER.encode() + b"\n"
    if math.prod(map(len, axis_values)) < _CSV_RECORDS_BELOW:
        yield from _csv_text_steps(axis_values, steps)
        return
    # Imported here so that commands writing no CSV do not load it.
    from .e16 import slots

    axis2 = (slots(axis_values[1]) if len(axis_values) == 2
             else np.empty((1, 0), np.uint8))
    yield from _record_steps(axis_values, steps, _CSV_RECORD, slots, 0,
                             axis2)


def _json_pieces(axis_values, steps):
    """Yield the JSON array as bytes: "[\n", each step's records with
    ",\n" between them, "\n]\n"."""
    axis2 = (_json_slots(axis_values[1]) if len(axis_values) == 2
             else _byte_table(["null"]))
    separator = b"[\n"
    for step in _record_steps(axis_values, steps, _JSON_RECORD, _json_slots,
                              1, axis2):
        yield separator
        yield memoryview(step)[:-2]  # the record's own ",\n"
        separator = b",\n"
    yield b"\n]\n"


def _write_pieces(pieces, path) -> None:
    """Write each piece of bytes to ``path`` as it is made, holding one
    piece at a time; a failure part way removes the file if it is a
    regular one."""
    path = Path(path)
    file = path.open("wb")
    try:
        with file:
            file.writelines(pieces)
    except BaseException:
        # A symlink or a device such as /dev/stdout is not ours to remove.
        with contextlib.suppress(FileNotFoundError):
            if stat.S_ISREG(os.lstat(path).st_mode):
                path.unlink()
        raise


def csv_text(result: SweepResult) -> str:
    return b"".join(_csv_pieces(result.axis_values,
                                _result_steps(result))).decode("ascii")


def write_csv(result: SweepResult, path) -> None:
    _write_pieces(_csv_pieces(result.axis_values, _result_steps(result)),
                  path)


def json_text(result: SweepResult) -> str:
    return b"".join(_json_pieces(result.axis_values,
                                 _result_steps(result))).decode("ascii")


def write_json(result: SweepResult, path) -> None:
    _write_pieces(_json_pieces(result.axis_values, _result_steps(result)),
                  path)


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
    finite = np.isfinite(xs) & np.isfinite(ys)
    runs = (list(run) for keep, run in groupby(zip(xs, ys, finite),
                                               lambda point: point[2]) if keep)
    return [" ".join(f"{to_x(x):.2f},{to_y(y):.2f}" for x, y, _ in run)
            for run in runs if len(run) >= 2]


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


# Each plot's y label and its series, as (label, index of the column in a
# step); a family or a heatmap draws the first series only.
_PLOTS = {"transmissions": ("transmission", (("T12", 1), ("T21", 2))),
          "i_signed": ("I (dB)", (("I (dB)", 4),)),
          "i_abs": ("|I| (dB)", (("|I| (dB)", 4),))}


def _is_line_plot(shape) -> bool:
    """One axis, or a thin first axis drawn as one line per value."""
    return len(shape) == 1 or shape[0] <= 8


def _sampled(steps, shape, plot: str, samples: list):
    """Yield ``steps`` unchanged, appending to ``samples`` a copy of the
    cells of each step that the SVG of ``plot`` draws, one ``(rows,
    columns)`` array per series: every point of a line plot, every
    ``ceil(n / _MAX_HEAT_CELLS)``-th row and column of a heatmap.  A step's
    arrays may be buffers that the next step reuses, hence the copy."""
    n2 = math.prod(shape[1:])
    s1, s2 = ((1, 1) if _is_line_plot(shape) else
              (math.ceil(n / _MAX_HEAT_CELLS) for n in shape))
    for step in steps:
        sl = step[0]
        samples.append([step[k].reshape(sl.stop - sl.start, n2)
                        [-sl.start % s1::s1, ::s2].copy()
                        for _, k in _PLOTS[plot][1]])
        yield step


def svg_text(axes, axis_values, samples, plot: str = "i_abs") -> str:
    """The SVG of a grid over ``axes``, drawn from the ``samples`` that
    :func:`_sampled` took of its steps."""
    body: list[str] = []
    y_label, fields = _PLOTS[plot]
    columns = [np.concatenate(column) for column in zip(*samples)]
    if plot == "i_abs":
        columns = [np.abs(column) for column in columns]
    shape = tuple(map(len, axis_values))
    if _is_line_plot(shape):
        if len(axes) == 1:
            xs = axis_values[0]
            series = [(label, column[:, 0])
                      for (label, _), column in zip(fields, columns)]
            x_label = axes[0].label()
        else:
            # A thin first axis renders as one line per first-axis value.
            xs = axis_values[1]
            label_base = axes[0].label()
            series = [(f"{label_base}={axis_values[0][i]:.6g}", values)
                      for i, values in enumerate(columns[0])]
            x_label = axes[1].label()
        x_range = (float(xs[0]), float(xs[-1]))
        y_values = np.concatenate([v for _, v in series])
        lo, hi = _finite_range(y_values)
        pad = 0.05 * (hi - lo)
        y_range = (lo - pad, hi + pad)
        to_x = _scaler(*x_range, _LEFT, _WIDTH - _RIGHT)
        to_y = _scaler(*y_range, _HEIGHT - _BOTTOM, _TOP)
        body.extend(_axis_frame(to_x, to_y, x_range, y_range, x_label, y_label))
        for i, (label, values) in enumerate(series):
            color = _PALETTE[i % len(_PALETTE)]
            for points in _polyline_chunks(xs, values, to_x, to_y):
                body.append(f'<polyline points="{points}" fill="none" '
                            f'stroke="{color}" stroke-width="1.5"/>')
            ly = _TOP + 16 + 16 * i
            body.append(f'<line x1="{_WIDTH - 190}" y1="{ly - 4}" '
                        f'x2="{_WIDTH - 166}" y2="{ly - 4}" stroke="{color}" '
                        'stroke-width="1.5"/>')
            body.append(f'<text x="{_WIDTH - 160}" y="{ly}" font-size="11" '
                        f'fill="#333333">{label}</text>')
    else:
        sub = columns[0]
        lo, hi = _finite_range(sub)
        x_range = (float(axis_values[0][0]), float(axis_values[0][-1]))
        y_range = (float(axis_values[1][0]), float(axis_values[1][-1]))
        to_x = _scaler(*x_range, _LEFT, _WIDTH - _RIGHT)
        to_y = _scaler(*y_range, _HEIGHT - _BOTTOM, _TOP)
        body.extend(_axis_frame(to_x, to_y, x_range, y_range,
                                axes[0].label(), axes[1].label()))
        cell_w = (_WIDTH - _LEFT - _RIGHT) / sub.shape[0]
        cell_h = (_HEIGHT - _TOP - _BOTTOM) / sub.shape[1]
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
                for j in range(sub.shape[1])]
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
    samples: list = []
    for _ in _sampled(_result_steps(result), result.shape, plot, samples):
        pass
    Path(path).write_text(svg_text(result.axes, result.axis_values, samples,
                                   plot), encoding="utf-8", newline="\n")


def write_preset_outputs(preset: FigurePreset, out_dir) -> list[Path]:
    """Run a preset and write {name}.csv and {name}.svg; returns the paths.

    The CSV is written block by block as the grid is evaluated, and the
    cells the SVG draws are copied from each block on the way.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{preset.name}.csv"
    svg_path = out_dir / f"{preset.name}.svg"
    run = BlockSweep(preset.base, preset.axes, preset.delta_f_policy,
                     preset.delta_f_band)
    samples: list = []
    _write_pieces(_csv_pieces(run.display, _sampled(
        _run_steps(run), run.shape, preset.plot, samples)), csv_path)
    svg_path.write_text(svg_text(run.axes, run.display, samples, preset.plot),
                        encoding="utf-8", newline="\n")
    return [csv_path, svg_path]
