"""Tests for CSV, JSON and SVG output of sweep results."""

import errno
import hashlib
import importlib
import json
import math
import os
import re
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magnon_sagnac import (
    PRESET_NAMES,
    Axis,
    DeltaFPolicy,
    FigurePreset,
    SweepError,
    SweepParameter,
    SystemParams,
    figure_preset,
    run_preset,
    sweep,
    with_delta_f,
)
from magnon_sagnac import cli, e16, serialize
from magnon_sagnac.model import jsonable
from magnon_sagnac.serialize import (
    CSV_HEADER,
    _json_slots,
    csv_text,
    json_text,
    svg_text,
    write_csv,
    write_json,
    write_preset_outputs,
    write_svg,
)

sweep_module = importlib.import_module("magnon_sagnac.sweep")


@pytest.fixture
def small_result(base_params):
    axes = [Axis(SweepParameter.DELTA_F, -30.0, 30.0, 4),
            Axis(SweepParameter.GAMMA_M, 2.0, 8.0, 3)]
    return sweep(base_params, axes)


@pytest.fixture
def masked_result(base_params):
    # first gamma_m value is negative, so column 0 is masked everywhere
    axes = [Axis(SweepParameter.DELTA_F, -30.0, 30.0, 4),
            Axis(SweepParameter.GAMMA_M, -2.0, 8.0, 3)]
    return sweep(base_params, axes)


# Row-by-row oracle: the writer the column-wise formatter replaced.  It
# formats every point on its own, so it fixes the bytes the fast path
# has to reproduce.

def _oracle_fmt(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.16e}"


def _oracle_jsonable(x: float):
    return x if math.isfinite(x) else _oracle_fmt(x)


def _oracle_rows(result):
    directions = result.directions()
    i_abs = result.i_abs_db
    two_axes = len(result.axes) == 2
    for flat, idx in enumerate(np.ndindex(result.shape)):
        yield {
            "axis1": float(result.axis_values[0][idx[0]]),
            "axis2": (float(result.axis_values[1][idx[1]])
                      if two_axes else None),
            "T12": float(result.t12[idx]),
            "T21": float(result.t21[idx]),
            "R": float(result.ratio[idx]),
            "I_signed_db": float(result.i_signed_db[idx]),
            "I_abs_db": float(i_abs[idx]),
            "direction": str(directions[idx]),
            "error_code": result.error_codes.get(flat, ""),
        }


def _oracle_csv(result) -> str:
    lines = [CSV_HEADER]
    for row in _oracle_rows(result):
        lines.append(",".join(
            "" if value is None
            else _oracle_fmt(value) if isinstance(value, float) else value
            for value in row.values()))
    return "\n".join(lines) + "\n"


def _oracle_json(result) -> str:
    records = [{key: _oracle_jsonable(value) if isinstance(value, float)
                else value for key, value in row.items()}
               for row in _oracle_rows(result)]
    return json.dumps(records, indent=1) + "\n"


def _reciprocal_with_negative_zero(base):
    # The kernel gives +0.0 on the reciprocal row; -0.0 and a nan with its
    # sign bit set must still print as the oracle prints them.
    res = sweep(base, [Axis(SweepParameter.DELTA_F, -10.0, 10.0, 3),
                       Axis(SweepParameter.GAMMA_M, 1.0, 8.0, 4)])
    assert np.all(res.i_signed_db[1] == 0.0)
    res.i_signed_db[1, :2] = -0.0
    res.i_signed_db[1, 3] = np.copysign(np.nan, -1.0)
    return res


def _byte_identity_grids(base):
    p = SweepParameter
    yield "masked 2-D", sweep(base, [Axis(p.DELTA_F, -30.0, 30.0, 9),
                                     Axis(p.GAMMA_M, -2.0, 8.0, 7)])
    yield "1-D", sweep(base, [Axis(p.DELTA_F, -30.0, 30.0, 41)])
    yield "INF_ISOLATION +inf", sweep(
        with_delta_f(base, 10.0),
        [Axis(p.COUPLING_RATIO, 0.0, 2.0, 5), Axis(p.GAMMA_M, 1.0, 8.0, 4)])
    yield "-inf isolation", sweep(
        replace(with_delta_f(base, 10.0), g0_1_mhz=0.0),
        [Axis(p.DELTA_F, -10.0, 10.0, 3), Axis(p.DELTA, -10.0, 10.0, 3)])
    yield "OVERFLOW", sweep(base, [Axis(p.DELTA_F, -1e160, 1e160, 21),
                                   Axis(p.GAMMA_M, 1.0, 8.0, 5)])
    silent = replace(with_delta_f(base, 10.0),
                     magnon=replace(base.magnon, eta3=0.0))
    yield "NO_TRANSMISSION", sweep(
        silent,
        [Axis(p.COUPLING_RATIO, 0.0, 2.0, 5), Axis(p.GAMMA_M, 1.0, 8.0, 4)])
    yield "reciprocal -0.0", _reciprocal_with_negative_zero(base)
    # Every field of every step at one width: no NUL to drop.
    uniform = [Axis(p.DELTA_F, 0.5, 4.0, 9), Axis(p.KAPPA, 1.0, 9.0, 7)]
    yield "uniform", sweep(base, uniform)
    # One step whose axis 1 crosses 0 and whose I and direction reverse
    # along axis 2, with masked nan points, INF_ISOLATION and
    # COUPLING_NEGATIVE.
    yield "mixed step", sweep(
        replace(with_delta_f(base, 10.0), delta_mhz=20.0),
        [Axis(p.DELTA_F, -4.0, 4.0, 9), Axis(p.COUPLING_RATIO, -0.5, 2.0, 11)])
    yield "exponent widths", _with_exponent_widths(sweep(base, uniform))


# T12 values with two- and three-digit exponents in one column.  No float
# rounds up across e+99 -> e+100 under %.16e, so the neighbours of 1e100
# stand for that edge, and 1e129, which lies below 10**129 and rounds up to
# it, for a rounding up to the next decade at three digits.
_EXPONENT_WIDTHS = (1e100, float(np.nextafter(1e100, 0)), 1e129, 1e-100,
                    -9.999999999999999e-100, 1e-243)


def _with_exponent_widths(res):
    res.t12[0, :len(_EXPONENT_WIDTHS)] = _EXPONENT_WIDTHS
    return res


# As shipped, before the route fixture patches it.
_CSV_RECORDS_BELOW = serialize._CSV_RECORDS_BELOW


def _crossover_grids(base):
    """Grids of N - 1, N and N + 1 points for the CSV route constant N,
    1-D and 2-D, the second axis reaching 1e120 (three exponent digits)."""
    p = SweepParameter
    for n in (_CSV_RECORDS_BELOW - 1, _CSV_RECORDS_BELOW,
              _CSV_RECORDS_BELOW + 1):
        yield f"1-D {n}", sweep(base, [Axis(p.DELTA_F, -30.0, 1e120, n)])
        rows = next(k for k in range(2, n) if n % k == 0)
        yield f"2-D {n}", sweep(base, [Axis(p.DELTA_F, -30.0, 30.0, rows),
                                       Axis(p.GAMMA_M, 1.0, 1e120,
                                            n // rows)])


@pytest.fixture(params=["numpy", "records"])
def route(request, monkeypatch):
    """Every CSV on the numpy route, or every one on the record route."""
    below = 0 if request.param == "numpy" else 1 << 40
    monkeypatch.setattr(serialize, "_CSV_RECORDS_BELOW", below)


class TestByteIdentity:
    """csv_text / json_text against the row-by-row oracle, byte for byte."""

    def test_grids(self, base_params):
        for name, res in _byte_identity_grids(base_params):
            assert csv_text(res) == _oracle_csv(res), name
            assert json_text(res) == _oracle_json(res), name

    def test_grids_at_the_route_crossovers(self, base_params):
        for name, res in _crossover_grids(base_params):
            assert csv_text(res) == _oracle_csv(res), name
            assert json_text(res) == _oracle_json(res), name

    @pytest.mark.parametrize("step", [5, 16, 64])
    def test_grids_in_steps(self, base_params, monkeypatch, step):
        monkeypatch.setattr(sweep_module, "_BLOCK", step)
        for name, res in _byte_identity_grids(base_params):
            assert csv_text(res) == _oracle_csv(res), name

    def test_grid_kinds_are_covered(self, base_params):
        grids = dict(_byte_identity_grids(base_params))
        codes = {name: set(res.error_codes.values())
                 for name, res in grids.items()}
        assert "RATE_POSITIVE" in codes["masked 2-D"]
        assert "INF_ISOLATION" in codes["INF_ISOLATION +inf"]
        assert "OVERFLOW" in codes["OVERFLOW"]
        assert "NO_TRANSMISSION" in codes["NO_TRANSMISSION"]
        assert "INF_ISOLATION" in codes["-inf isolation"]
        assert np.isneginf(grids["-inf isolation"].i_signed_db).any()
        negative_zero_row = grids["reciprocal -0.0"].i_signed_db[1]
        assert np.signbit(negative_zero_row).tolist() == [True, True, False,
                                                          True]
        uniform = grids["uniform"]
        assert set(uniform.directions().ravel()) == {"forward"}
        assert not uniform.error_codes
        mixed = grids["mixed step"]
        assert {"COUPLING_NEGATIVE", "INF_ISOLATION"} <= set(
            mixed.error_codes.values())
        assert np.isnan(mixed.t12).any()
        assert mixed.axis_values[0].min() < 0 < mixed.axis_values[0].max()
        assert {"forward", "backward"} <= set(mixed.directions()[0])
        t12 = [format(v, ".16e") for v in grids["exponent widths"].t12[0]]
        assert t12[:3] == ["1.0000000000000000e+100",
                           "9.9999999999999982e+99",
                           "1.0000000000000000e+129"]
        assert Fraction(1e129) < Fraction(10) ** 129

    @pytest.mark.parametrize("step", [64, 5])
    def test_several_steps(self, base_params, monkeypatch, step):
        # 7 second-axis points do not divide either step; at step 5 each
        # step is a single first-axis row longer than the step itself.
        monkeypatch.setattr(sweep_module, "_BLOCK", step)
        axes = [Axis(SweepParameter.DELTA_F, -30.0, 30.0, 40),
                Axis(SweepParameter.GAMMA_M, -2.0, 8.0, 7)]
        res = sweep(base_params, axes)
        assert csv_text(res) == _oracle_csv(res)
        assert json_text(res) == _oracle_json(res)

    def test_several_steps_one_axis(self, base_params, monkeypatch):
        monkeypatch.setattr(sweep_module, "_BLOCK", 16)
        res = sweep(base_params, [Axis(SweepParameter.GAMMA_M, -2.0, 8.0, 50)])
        assert csv_text(res) == _oracle_csv(res)
        assert json_text(res) == _oracle_json(res)


@pytest.mark.usefixtures("route")
class TestByteIdentityOnEachRoute(TestByteIdentity):
    """TestByteIdentity with every output on one route."""


def _dropped(monkeypatch, pieces, axis_values, steps) -> tuple[int, list]:
    """How many steps ``pieces`` writes, and the indices of the steps whose
    NULs it drops."""
    made, dropped = [], []
    drop = serialize._drop_nuls

    def recording(raw):
        dropped.append(len(made) - 1)
        return drop(raw)

    def counted():
        for step in steps:
            made.append(step[0])
            yield step

    monkeypatch.setattr(serialize, "_drop_nuls", recording)
    for _ in pieces(axis_values, counted()):
        pass
    return len(made), dropped


class TestCroppedSteps:
    """A CSV step in which each field has one width is laid out at the
    widths its values use and has no NUL to drop; any other step, and
    every JSON step, keeps whole slots and drops its NULs."""

    @pytest.mark.parametrize("name, dropped", [
        ("uniform", []), ("mixed step", [0]), ("exponent widths", [0])])
    def test_grids(self, base_params, monkeypatch, name, dropped):
        monkeypatch.setattr(serialize, "_CSV_RECORDS_BELOW", 0)
        res = dict(_byte_identity_grids(base_params))[name]
        assert _dropped(monkeypatch, serialize._csv_pieces, res.axis_values,
                        serialize._result_steps(res)) == (1, dropped)
        # JSON scans no span: its float slots vary in width with each value.
        monkeypatch.setattr(serialize, "_spans", None)
        assert _dropped(monkeypatch, serialize._json_pieces, res.axis_values,
                        serialize._result_steps(res)) == (1, [0])

    @pytest.mark.parametrize("name, steps, dropped", [
        ("fig4a", 80, [39]), ("fig3a", 26, [12])])
    def test_presets(self, monkeypatch, name, steps, dropped):
        # Only the middle step, where axis 1 crosses 0, drops NULs.
        preset = figure_preset(name)
        run = sweep_module.BlockSweep(preset.base, preset.axes,
                                      preset.delta_f_policy,
                                      preset.delta_f_band)
        assert _dropped(monkeypatch, serialize._csv_pieces, run.display,
                        serialize._run_steps(run)) == (steps, dropped)


def _old_directions(result):
    # SweepResult.directions() as it was before it shared its labels with
    # the streamed writers.
    tol_db = 1e-9
    out = np.full(result.shape, "", dtype="<U10")
    i = result.i_signed_db
    finite = ~np.isnan(i)
    out[finite & (np.abs(i) <= tol_db)] = "reciprocal"
    out[finite & (i > tol_db)] = "forward"
    out[finite & (i < -tol_db)] = "backward"
    return out


class TestStreamedWriters:
    """write_csv / write_json stream one step at a time."""

    @pytest.mark.parametrize("step", [5, 16, 64, sweep_module._BLOCK])
    def test_files_match_the_text(self, base_params, monkeypatch, tmp_path,
                                  step):
        monkeypatch.setattr(sweep_module, "_BLOCK", step)
        path = tmp_path / "out"
        for name, res in _byte_identity_grids(base_params):
            write_csv(res, path)
            assert path.read_bytes() == csv_text(res).encode("utf-8"), name
            write_json(res, path)
            assert path.read_bytes() == json_text(res).encode("utf-8"), name

    def test_directions_keep_their_labels(self, base_params):
        labels = set()
        for name, res in _byte_identity_grids(base_params):
            old = _old_directions(res)
            new = res.directions()
            assert new.dtype == old.dtype and new.shape == old.shape
            assert new.tolist() == old.tolist(), name
            labels.update(new.ravel().tolist())
        assert labels == {"", "reciprocal", "forward", "backward"}

    @pytest.mark.parametrize("writer", [write_csv, write_json])
    def test_failure_leaves_no_file(self, small_result, monkeypatch,
                                    tmp_path, writer):
        steps = serialize.row_blocks
        made = []

        def fail_after_first_step(shape):
            for step in steps(shape):
                if made:
                    raise OSError("disk full")
                made.append(step)
                yield step

        monkeypatch.setattr(sweep_module, "_BLOCK", 3)
        monkeypatch.setattr(serialize, "row_blocks", fail_after_first_step)
        path = tmp_path / "out"
        with pytest.raises(OSError, match="disk full"):
            writer(small_result, path)
        assert made == [slice(0, 1)]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full")
    def test_failure_removes_only_a_regular_file(self, small_result,
                                                 tmp_path):
        link = tmp_path / "link"
        link.symlink_to("/dev/full")
        with pytest.raises(OSError) as failed:
            write_csv(small_result, link)
        assert failed.value.errno == errno.ENOSPC
        assert link.is_symlink()

        def pieces():
            yield b"partial"
            raise OSError("disk full")

        path = tmp_path / "out.csv"
        with pytest.raises(OSError, match="disk full"):
            serialize._write_pieces(pieces(), path)
        assert sorted(tmp_path.iterdir()) == [link]

    def test_peak_memory_is_one_step(self, base_params, tmp_path):
        # Two FIXED grids of 2.5e4 and 1e5 points, over 2 and 7 steps.
        peaks = []
        for n1 in (250, 1000):
            res = sweep(base_params, [Axis(SweepParameter.DELTA_F, -40.0,
                                           40.0, n1),
                                      Axis(SweepParameter.GAMMA_M, 1.0, 9.0,
                                           100)])
            tracemalloc.start()
            try:
                write_csv(res, tmp_path / "out.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]
        assert peaks[1] < 40e6


@pytest.mark.usefixtures("route")
class TestStreamedWritersOnEachRoute(TestStreamedWriters):
    """TestStreamedWriters with every output on one route."""


def _slot_text(slots) -> list[str]:
    return [bytes(slot).replace(b"\0", b"").decode() for slot in slots]


def _assert_formats_like_python(values):
    x = np.array(values, dtype=float)
    assert _slot_text(e16.slots(x)) == [format(v, ".16e") for v in
                                         x.tolist()]


class TestE16:
    """The numpy %.16e formatter against ``format(v, ".16e")``."""

    @given(st.lists(st.floats(), max_size=50))
    def test_any_float(self, values):
        _assert_formats_like_python(values)

    @given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=50))
    def test_any_bit_pattern(self, bits):
        _assert_formats_like_python(np.array(bits, np.uint64).view(float))

    def test_powers_of_ten_and_their_neighbours(self):
        # float(10**m) and its neighbours lie closest to a decade: here
        # log10 misses by one and the digits round up to the next decade.
        powers = np.array([float(Fraction(10) ** m)
                           for m in range(-320, 309)])
        values = np.concatenate([powers, np.nextafter(powers, 0),
                                 np.nextafter(powers, np.inf)])
        _assert_formats_like_python(np.concatenate([values, -values]))

    def test_edges(self):
        tiny = np.finfo(float).tiny
        _assert_formats_like_python([
            9.999999999999999e99, 1e100, 1e-99, 1e-100, -1e100,
            9.999999999999999e-100, 1e290, 1e-290, 1.0000000000000002e290,
            tiny, -tiny, 5e-324, -5e-324, 2.5e-320, np.nextafter(tiny, 0),
            np.finfo(float).max, -np.finfo(float).max, 0.0, -0.0, math.nan,
            -math.nan, np.copysign(np.nan, -1.0), math.inf, -math.inf,
            1000000000000000.25, 1000000000000000.75, 0.5, 1.0,
            99999999999999999.0, 1e-243, -1e-176])
        # The decade round-up: 1e-243 lies below 10**-243.
        assert Fraction(1e-243) < Fraction(10) ** -243
        assert format(1e-243, ".16e") == "1.0000000000000000e-243"

    def test_fallback_branches_run(self, monkeypatch):
        # An exact tie in the 17th digit, and magnitudes outside the range
        # of the double-double product, go to Python; nothing else does.
        python = e16._python_format
        seen = []

        def recording(values):
            seen.extend(values.tolist())
            return python(values)

        monkeypatch.setattr(e16, "_python_format", recording)
        ties = [1000000000000000.25, -1000000000000000.75]
        outside = [1e300, -1e-300, 5e-324, np.finfo(float).max]
        inside = [1.0, -2.5, 0.0, -0.0, math.nan, -math.inf, 1e-243, 1e290]
        values = [*ties, *outside, *inside]
        assert _slot_text(e16.slots(np.array(values))) == [
            format(v, ".16e") for v in values]
        assert [format(v, ".16e") for v in ties] == [
            "1.0000000000000002e+15", "-1.0000000000000008e+15"]
        assert sorted(seen) == sorted([*ties, *outside])


def _assert_reprs_like_python(values):
    x = np.array(values, dtype=float)
    assert _slot_text(e16.repr_slots(x)) == list(map(repr, x.tolist()))


class TestRepr:
    """The numpy shortest-repr formatter against ``float.__repr__``."""

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    max_size=50))
    def test_any_finite_float(self, values):
        _assert_reprs_like_python(values)

    @given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=50))
    def test_any_bit_pattern(self, bits):
        _assert_reprs_like_python(np.array(bits, np.uint64).view(float))

    @given(st.lists(st.decimals(-1e9, 1e9, places=6), max_size=50))
    def test_short_decimals(self, values):
        # The values axes and configs hold, with few digits.
        _assert_reprs_like_python([float(v) for v in values])

    def test_powers_of_two(self):
        # Below 2**e the gap to the next float is half the gap above it.
        powers = np.ldexp(1.0, np.arange(-1000, 1001))
        _assert_reprs_like_python(np.concatenate([powers, -powers]))

    def test_layout_switches(self):
        # Fixed notation for exponents -4..15, scientific outside, and the
        # round-up to the next decade; integers up to 2**53.
        edges = [1e-5, 1e-4, 1e15, 1e16, 9.999999999999999e-05,
                 9.999999999999999e15, 0.0001, 0.00012345, 1.5e16,
                 123456789012345.67, 1234567890123456.7, 1e300]
        values = np.array(edges + [float(Fraction(10) ** m)
                                   for m in range(-20, 25)])
        neighbours = np.concatenate([values, np.nextafter(values, 0),
                                     np.nextafter(values, np.inf)])
        integers = [float(2 ** m + j) for m in range(0, 54, 3)
                    for j in (-1, 0, 1)]
        _assert_reprs_like_python(np.concatenate([neighbours, -neighbours,
                                                  integers]))

    def test_edges(self):
        tiny = np.finfo(float).tiny
        _assert_reprs_like_python([
            0.0, -0.0, 5e-324, -5e-324, 2.5e-320, tiny, -tiny,
            np.nextafter(tiny, 0), np.finfo(float).max,
            -np.finfo(float).max, 1e290, 1e-290, 0.5, 9.5, -9.5, 0.1, 0.3,
            1 / 3, 2 / 3, 1.0, 100.0, 123.0, 1e22, 1e23, 5e-5, 1e-243,
            math.nan, np.copysign(np.nan, -1.0), math.inf, -math.inf])

    def test_fallback_branches_run(self, monkeypatch):
        # Each near-tie test, and magnitudes outside the range of the
        # double-double product, send their value to Python; nothing else
        # goes there.
        python = e16._python_repr
        seen = []

        def recording(values):
            seen.extend(values.tolist())
            return python(values)

        monkeypatch.setattr(e16, "_python_repr", recording)
        ties = [1000000000000000.25,  # the 17th digit: a tail of one half
                7e22,  # its 16 digits lie half a gap below
                1e23,  # its 16 digits lie half a gap above
                970004173447651.25]  # two 16-digit roundings equally near
        outside = [1e300, -1e-300, 5e-324, 1.7976931348623157e308]
        inside = [1.0, -2.5, 0.0, -0.0, math.nan, -math.inf, 1e-243, 1e290,
                  2.0 ** 100, 0.1]
        values = [*ties, *outside, *inside]
        assert _slot_text(e16.repr_slots(np.array(values))) == list(
            map(repr, values))
        assert list(map(repr, ties)) == ["1000000000000000.2", "7e+22",
                                         "1e+23", "970004173447651.2"]
        assert sorted(seen) == sorted([*ties, *outside])


_SPECIAL_FLOATS = (0.0, -0.0, math.nan, -math.nan,
                   float(np.copysign(np.nan, -1.0)), math.inf, -math.inf,
                   5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310)


@given(st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)),
                min_size=1, max_size=30))
def test_abs_text_is_signed_text_without_its_minus(values):
    x = np.array(values, dtype=float)
    slots = e16.slots(x)
    assert _slot_text(slots) == [_oracle_fmt(v) for v in values]
    slots[:, 0] = 0  # the sign byte, as the CSV writer clears it for I_abs
    assert _slot_text(slots) == [_oracle_fmt(abs(v)) for v in values]
    assert _slot_text(slots) == _slot_text(e16.slots(np.abs(x)))
    json_slots = _json_slots(x)
    assert _slot_text(json_slots) == [json.dumps(_oracle_jsonable(v))
                                      for v in values]
    json_slots[:, 1] = 0  # the sign byte, as the JSON writer clears it
    assert _slot_text(json_slots) == [json.dumps(_oracle_jsonable(abs(v)))
                                      for v in values]


# Float64 bit patterns drawn field by field, so that every binary exponent
# is as likely, 0 (zeros and subnormals) and 2047 (infinities and nan)
# among them.
_BITS = st.builds(lambda sign, exponent, mantissa:
                  sign << 63 | exponent << 52 | mantissa,
                  st.integers(0, 1), st.integers(0, 2047),
                  st.integers(0, 2 ** 52 - 1))
# Ties in the 17th digit (Python formats them) and decade round-ups.
_TIES = (1000000000000000.25, -1000000000000000.75, 1e129, -1e-243)


@given(st.lists(_BITS, max_size=40),
       st.lists(st.sampled_from(_SPECIAL_FLOATS + _TIES), max_size=10))
def test_slots_are_sign_then_text_then_nul_padding(bits, specials):
    """Every %.16e slot is a sign byte ("-" or NUL), then text without a
    NUL, then NULs only, which the CSV writer's cropped layout needs."""
    x = np.concatenate([np.array(bits, np.uint64).view(float), specials])
    for value, slot in zip(x.tolist(), e16.slots(x).tolist()):
        text = bytes(slot[1:]).rstrip(b"\0")
        assert slot[0] in (0, ord("-")), value
        assert text and b"\0" not in text, value


def _streamed(base, axes, policy, band, pieces, plot="i_abs"):
    """The sha256 of the bytes ``pieces`` makes of the sweep as the preset
    writers stream it, each block formatted from reused buffers as soon as
    it is evaluated; that run's meta; and the sha256 of the SVG of
    ``plot`` drawn from the cells sampled on the way."""
    run = sweep_module.BlockSweep(base, axes, policy, band)
    samples = []
    digest = _sha256(pieces(run.display, serialize._sampled(
        serialize._run_steps(run), run.shape, plot, samples)))
    svg = svg_text(run.axes, run.display, samples, plot)
    return digest, run.meta, _sha256([svg.encode()])


def _sha256(pieces) -> str:
    """The sha256 of the bytes ``pieces`` yields, never held at once."""
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    return digest.hexdigest()


_STREAM_BLOCKS = (1, 7, 64, 1 << 30)


class TestStreamedFromTheBlockLoop:
    """The block loop the preset writers stream from gives the bytes of
    csv_text / json_text of sweep(), and its meta, at any block size."""

    @pytest.mark.parametrize("block", _STREAM_BLOCKS)
    def test_grids(self, base_params, monkeypatch, block):
        monkeypatch.setattr(sweep_module, "_BLOCK", block)
        for name, res in _byte_identity_grids(base_params):
            # Evaluated again: "reciprocal -0.0" edits its result.
            args = (res.base, res.axes, res.meta["delta_f_policy"],
                    res.meta["delta_f_band"])
            res = sweep(res.base, res.axes, delta_f_policy=args[2],
                        delta_f_band=args[3])
            for pieces, text in ((serialize._csv_pieces, csv_text),
                                 (serialize._json_pieces, json_text)):
                digest, meta, _ = _streamed(*args, pieces)
                assert digest == _sha256([text(res).encode()]), (name, text)
                assert meta == res.meta, name

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, monkeypatch, name):
        preset, res = run_preset(name)
        # The pieces csv_text joins, hashed as they come.
        digest = _sha256(serialize._csv_pieces(res.axis_values,
                                               serialize._result_steps(res)))
        assert digest == _PRESET_DIGESTS[f"{name}.csv"]
        done = []
        for block in _STREAM_BLOCKS:
            monkeypatch.setattr(sweep_module, "_BLOCK", block)
            blocks = sweep_module.row_blocks(res.shape)
            # Block sizes under one row of fig3 and fig4 give the same
            # blocks; one block of those grids (0.4e6-1.3e6 points) would
            # take about 1 GB, so test_preset_files_are_byte_identical's
            # default blocks stand in for it.
            if blocks in done or (len(blocks) == 1 and res.n_points > 1e5):
                continue
            done.append(blocks)
            streamed, meta, svg = _streamed(
                preset.base, preset.axes, preset.delta_f_policy,
                preset.delta_f_band, serialize._csv_pieces, preset.plot)
            assert streamed == digest, block
            assert meta == res.meta, block
            assert svg == _PRESET_DIGESTS[f"{name}.svg"], block
        assert done

    @pytest.mark.parametrize("block", _STREAM_BLOCKS)
    def test_svg_matches_the_whole_result(self, base_params, monkeypatch,
                                          tmp_path, block):
        """The SVG sampled from the block loop, and write_svg's of sweep(),
        are the SVG of sweep() in the default blocks at any block size,
        also on heatmaps whose row strides (3 and 9) cross the blocks."""
        p = SweepParameter
        grids = [*_byte_identity_grids(base_params),
                 ("strided", sweep(base_params, [Axis(p.DELTA_F, -30, 30, 250),
                                                 Axis(p.GAMMA_M, -2, 8, 130)])),
                 ("tall", sweep(base_params, [Axis(p.DELTA_F, -30, 30, 1001),
                                              Axis(p.GAMMA_M, -2, 8, 3)]))]
        plots = ("i_abs", "i_signed", "transmissions")
        expected = {}
        for name, res in grids:
            # Evaluated again: "reciprocal -0.0" edits its result.
            res = sweep(res.base, res.axes,
                        delta_f_policy=res.meta["delta_f_policy"],
                        delta_f_band=res.meta["delta_f_band"])
            for plot in plots:
                write_svg(res, tmp_path / "whole.svg", plot)
                expected[name, plot] = (tmp_path / "whole.svg").read_bytes()
        monkeypatch.setattr(sweep_module, "_BLOCK", block)
        for name, res in grids:
            policy, band = res.meta["delta_f_policy"], res.meta["delta_f_band"]
            res = sweep(res.base, res.axes, delta_f_policy=policy,
                        delta_f_band=band)
            for plot in plots:
                preset = FigurePreset("streamed", name, res.base, res.axes,
                                      policy, band, plot)
                write_preset_outputs(preset, tmp_path)
                write_svg(res, tmp_path / "whole.svg", plot)
                for path in ("streamed.svg", "whole.svg"):
                    assert ((tmp_path / path).read_bytes()
                            == expected[name, plot]), (name, plot, path)

    @pytest.mark.parametrize("block", _STREAM_BLOCKS)
    def test_grid_without_a_valid_point_leaves_no_file(self, base_params,
                                                       monkeypatch, tmp_path,
                                                       block):
        monkeypatch.setattr(sweep_module, "_BLOCK", block)
        preset = FigurePreset(
            "dead", "every magnon linewidth is negative", base_params,
            (Axis(SweepParameter.DELTA_F, -10.0, 10.0, 9),
             Axis(SweepParameter.GAMMA_M, -9.0, -1.0, 5)))
        with pytest.raises(SweepError, match="every grid point failed"):
            write_preset_outputs(preset, tmp_path)
        assert list(tmp_path.iterdir()) == []


# sha256 of the preset files, as the row-by-row writer wrote them.
_PRESET_DIGESTS = {
    "fig2a.csv": "412110adc3766047cd607c9826a70ca9ae3d8d295da2ee39752f71f0397cbff8",
    "fig2a.svg": "363c3b243f60161a4e73e4ea476470862aaa48c61e646fa86ed064eec08bb816",
    "fig2b.csv": "412110adc3766047cd607c9826a70ca9ae3d8d295da2ee39752f71f0397cbff8",
    "fig2b.svg": "016ca0d1331d3410374e5602feffc2f34ec45c521dfffcd6c137d727240ec8bf",
    "fig3a.csv": "e7a362359429e1a69106b687e0433df1102d5bc230a00928c46b1b6f48538d03",
    "fig3a.svg": "62fbe028a9faa13e3d89c88b53a964104b2407d44090c3c417fb7fbdd6dfd5c4",
    "fig3b.csv": "8dc41d55ede59b0a4294e08dc2d60631c27c54647062ffc9940b575484949a06",
    "fig3b.svg": "c7835977fc3fb3c1692cd414263cc5bfca1366b1f83cb6bc43101e53537c3db1",
    "fig4a.csv": "a030e23167fa8d97e53f1ece5857da175dcf1c4e14432ab32e91199f16406a94",
    "fig4a.svg": "bdf918e568cb3d803da9ae3f647c4e5626db51ad1a040e269e8b27f8f2192154",
    "fig4b.csv": "655be981f0e9d82a63c22357228e450e16c99ea0b7b4813b45ccb8587e94fd43",
    "fig4b.svg": "1b5b780b6f62fccba66758cb2a7da230005e6a7a07a06e1ee1a283b865849fb5",
    "fig5a.csv": "c613b8be5bf4c35f3fac962e9d0c03b90c76082eae4c02765615ed783ccdaa35",
    "fig5a.svg": "fe898044ae0361393afd8e5616e22611346d3a87c4b09abd0cf4bfdaa9b12d4b",
    "fig5b.csv": "db2d3f5c4b76cb89453f666ab2b746f3609ff4da63836d894d3952751f2451d0",
    "fig5b.svg": "06f0a4d5d6daf1d23bd593060a5a6568ef906e6a1cbde8ee06a30ea1efbcb992",
    "fig6.csv": "280c3ab97d0ca0cdc01ee5cc611611b256347f2184f2ba711835caf37777c30a",
    "fig6.svg": "c4ace70473e64fa4dcf6d52ddb522d00338eaf85263234c76d98fa7fbe847753",
    "fig7a.csv": "9e5e22535cf2179a3a7f6859e22ffc0b2f67ea5bd64f811965c4f0b87d11ae91",
    "fig7a.svg": "ba95d3783f2d9f5c6506d36f14232f8fb09f80acb5c19a35743cdc87590cb6ac",
    "fig7b.csv": "bcf47443abf3d5b09d5ac9b9138d1cbb38b030b56bb87e3ef6dc17ef151b975a",
    "fig7b.svg": "ff7e9d20a7dcccca9ec2f169e4e164a36be16e8ea38c076957aa9056ef002eeb",
}


@pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig3a", "fig3b",
                                  "fig4a", "fig4b", "fig5a", "fig5b", "fig6",
                                  "fig7a", "fig7b"])
def test_preset_files_are_byte_identical(name, tmp_path):
    for path in write_preset_outputs(figure_preset(name), tmp_path):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == _PRESET_DIGESTS[path.name], path.name


def test_jsonable_formats():
    assert jsonable(1.5) == 1.5
    assert jsonable(math.nan) == "nan"
    assert jsonable(math.inf) == "inf"
    assert jsonable(-math.inf) == "-inf"


class TestCsv:
    def test_header(self, small_result):
        text = csv_text(small_result)
        assert text.splitlines()[0] == CSV_HEADER
        assert CSV_HEADER == ("axis1,axis2,T12,T21,R,I_signed_db,I_abs_db,"
                              "direction,error_code")

    def test_row_major_order_and_exact_round_trip(self, small_result):
        lines = csv_text(small_result).splitlines()
        assert len(lines) == 1 + small_result.n_points
        for flat, line in enumerate(lines[1:]):
            i, j = divmod(flat, 3)
            cells = line.split(",")
            assert float(cells[0]) == small_result.axis_values[0][i]
            assert float(cells[1]) == small_result.axis_values[1][j]
            # .16e keeps all 17 significant digits, so parsing is lossless
            assert float(cells[2]) == small_result.t12[i, j]
            assert float(cells[5]) == small_result.i_signed_db[i, j]
            assert cells[7] in ("forward", "backward", "reciprocal")
            assert cells[8] == ""

    def test_masked_points_serialize_as_nan(self, masked_result):
        lines = csv_text(masked_result).splitlines()[1:]
        masked = [line for line in lines if line.endswith("RATE_POSITIVE")]
        assert len(masked) == 4
        for line in masked:
            cells = line.split(",")
            assert cells[2] == "nan" and cells[7] == ""
            assert math.isnan(float(cells[2]))

    def test_single_axis_leaves_axis2_empty(self, base_params):
        res = sweep(base_params, [Axis(SweepParameter.DELTA_F, -5, 5, 3)])
        for line in csv_text(res).splitlines()[1:]:
            assert line.split(",")[1] == ""

    def test_deterministic_bytes(self, base_params, tmp_path):
        axes = [Axis(SweepParameter.DELTA_F, -30.0, 30.0, 8),
                Axis(SweepParameter.GAMMA_M, 1.0, 9.0, 5)]
        text = csv_text(sweep(base_params, axes))
        assert csv_text(sweep(base_params, axes)) == text
        path = tmp_path / "out.csv"
        write_csv(sweep(base_params, axes), path)
        assert path.read_text(encoding="utf-8") == text
        assert text.endswith("\n")


class TestJson:
    def test_records_mirror_csv(self, small_result):
        records = json.loads(json_text(small_result))
        lines = csv_text(small_result).splitlines()[1:]
        assert len(records) == len(lines)
        for record, line in zip(records, lines):
            cells = line.split(",")
            assert record["T12"] == float(cells[2])
            assert record["direction"] == cells[7]

    def test_non_finite_become_strings(self, masked_result):
        text = json_text(masked_result)
        records = json.loads(text)  # would fail on bare nan tokens
        masked = [r for r in records if r["error_code"] == "RATE_POSITIVE"]
        assert masked and all(r["T12"] == "nan" for r in masked)

    def test_single_axis_has_null_axis2(self, base_params, tmp_path):
        res = sweep(base_params, [Axis(SweepParameter.DELTA_F, -5, 5, 3)])
        path = tmp_path / "out.json"
        write_json(res, path)
        records = json.loads(path.read_text(encoding="utf-8"))
        assert all(r["axis2"] is None for r in records)


def _svg(res, plot: str = "i_abs") -> str:
    """svg_text of the cells sampled from a whole result, as write_svg
    draws it."""
    samples = []
    for _ in serialize._sampled(serialize._result_steps(res), res.shape,
                                plot, samples):
        pass
    return svg_text(res.axes, res.axis_values, samples, plot)


def _oracle_heat_cells(res, plot: str) -> list[str]:
    """Heatmap cells as the renderer once wrote them, one cell at a time."""
    values = {"i_abs": res.i_abs_db, "i_signed": res.i_signed_db,
              "transmissions": res.t12}[plot]
    n1, n2 = res.shape
    sub = np.asarray(values, dtype=float)[
        ::max(1, math.ceil(n1 / 120)), ::max(1, math.ceil(n2 / 120))]
    lo, hi = serialize._finite_range(sub)
    cell_w = (720 - 76 - 20) / sub.shape[0]
    cell_h = (480 - 20 - 48) / sub.shape[1]
    cells = []
    for i in range(sub.shape[0]):
        px = 76 + i * cell_w
        for j in range(sub.shape[1]):
            v = sub[i, j]
            fill = "#adb5bd"
            if math.isfinite(v):
                v = min(max((v - lo) / (hi - lo), 0.0), 1.0)
                fill = "#{:02x}{:02x}{:02x}".format(*(
                    round(a + v * (b - a))
                    for a, b in zip((29, 53, 87), (230, 57, 70))))
            py = 480 - 48 - (j + 1) * cell_h
            cells.append(f'<rect x="{px:.2f}" y="{py:.2f}" '
                         f'width="{cell_w:.2f}" height="{cell_h:.2f}" '
                         f'fill="{fill}"/>')
    return cells


class TestSvg:
    def test_line_plot_for_one_axis(self, base_params):
        res = sweep(base_params, [Axis(SweepParameter.DELTA_F, -30, 30, 41)])
        text = _svg(res, plot="i_abs")
        ET.fromstring(text)  # must be well-formed XML
        assert "<polyline" in text

    def test_family_plot_for_few_rows(self, small_result):
        text = _svg(small_result, plot="i_signed")
        ET.fromstring(text)
        # one labeled series per first-axis value
        assert text.count("<polyline") >= small_result.shape[0]
        assert "gamma_m=" not in text  # labels name the first axis
        assert "delta_f=" in text

    def test_heatmap_for_dense_grids(self, base_params):
        axes = [Axis(SweepParameter.DELTA_F, -30.0, 30.0, 12),
                Axis(SweepParameter.GAMMA_M, 1.0, 9.0, 30)]
        text = _svg(sweep(base_params, axes), plot="i_abs")
        ET.fromstring(text)
        assert "<rect" in text and "<polyline" not in text

    @pytest.mark.parametrize("plot", ["i_abs", "i_signed", "transmissions"])
    def test_heatmap_cells_match_the_per_cell_renderer(self, base_params,
                                                       plot):
        grids = dict(_byte_identity_grids(base_params))
        grids["strided"] = sweep(base_params, [
            Axis(SweepParameter.DELTA_F, -30.0, 30.0, 250),
            Axis(SweepParameter.GAMMA_M, -2.0, 8.0, 130)])
        for name in ("masked 2-D", "OVERFLOW", "strided"):
            text = _svg(grids[name], plot)
            cells = _oracle_heat_cells(grids[name], plot)
            assert "\n" + "\n".join(cells) + "\n" in text, name
            assert text.count("<rect") == len(cells) + 2, name
            assert 'fill="#adb5bd"' in text, name  # a cell that is not finite

    def test_masked_points_break_the_line(self, base_params):
        res = sweep(base_params, [Axis(SweepParameter.GAMMA_M, -2.0, 8.0, 21)])
        text = _svg(res, plot="transmissions")
        ET.fromstring(text)
        assert "nan" not in text  # masked coordinates never reach the markup

    @pytest.mark.parametrize("g0_2,masked,chunks,y_ticks", [
        # g_2 = 0: nothing reaches port 2, so |I| is inf at every point
        # and the y axis falls back to 0..1.
        (0.0, [], [], (-0.05, 1.05)),
        (41.0, [4, 5], [4, 3], None),
    ], ids=["all_inf", "broken_line"])
    def test_points_without_a_finite_value(self, base_params, g0_2, masked,
                                           chunks, y_ticks):
        res = sweep(replace(base_params, g0_2_mhz=g0_2),
                    [Axis(SweepParameter.DELTA_F, -40.0, 40.0, 9)])
        res.i_signed_db[masked] = math.nan  # as sweep() blanks masked points
        text = _svg(res, plot="i_abs")
        ET.fromstring(text)
        lines = re.findall(r'<polyline points="([^"]*)"', text)
        assert [len(points.split()) for points in lines] == chunks
        if y_ticks is not None:
            for tick in y_ticks:
                assert f'text-anchor="end" fill="#333333">{tick:.6g}<' in text

    def test_deterministic(self, small_result, tmp_path):
        assert _svg(small_result) == _svg(small_result)
        path = tmp_path / "plot.svg"
        write_svg(small_result, path)
        assert path.read_text(encoding="utf-8") == _svg(small_result)


def _path_failing_after(size: int):
    """A Path whose ``write_text`` writes ``size`` characters of its text,
    then fails as a full disk does."""

    class FailingPath(type(Path())):
        def write_text(self, data, *args, **kwargs):
            with open(self, "w", encoding="utf-8") as file:
                file.write(data[:size])
            raise OSError(errno.ENOSPC, "No space left on device")

    return FailingPath


class TestSvgWriteFailure:
    """A failed SVG write removes the partial file, as the CSV writers do,
    and only if it is a regular file."""

    def test_leaves_no_partial_svg(self, small_result, monkeypatch,
                                   tmp_path):
        monkeypatch.setattr(serialize, "Path", _path_failing_after(1000))
        with pytest.raises(OSError, match="No space"):
            write_preset_outputs(figure_preset("fig5a"), tmp_path)
        assert [path.name for path in tmp_path.iterdir()] == ["fig5a.csv"]
        digest = hashlib.sha256((tmp_path / "fig5a.csv").read_bytes())
        assert digest.hexdigest() == _PRESET_DIGESTS["fig5a.csv"]
        with pytest.raises(OSError, match="No space"):
            write_svg(small_result, tmp_path / "out.svg")
        assert not (tmp_path / "out.svg").exists()

    def test_reproduce_exits_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(serialize, "Path", _path_failing_after(1000))
        assert cli.run(["reproduce", "fig5a", "--out", str(tmp_path)]) == 2
        assert "io error" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["fig5a.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full")
    def test_keeps_a_symlink_and_its_target(self, small_result, tmp_path):
        for name in ("link.svg", "fig5a.svg"):
            (tmp_path / name).symlink_to("/dev/full")
        for write in (lambda: write_svg(small_result, tmp_path / "link.svg"),
                      lambda: write_preset_outputs(figure_preset("fig5a"),
                                                   tmp_path)):
            with pytest.raises(OSError) as failed:
                write()
            assert failed.value.errno == errno.ENOSPC
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "fig5a.csv", "fig5a.svg", "link.svg"]
        assert all(path.is_symlink() for path in tmp_path.glob("*.svg"))
        assert os.path.exists("/dev/full")

    def test_keeps_a_file_it_could_not_open(self, small_result, monkeypatch,
                                            tmp_path):
        # As open() reports a file it may not write: an OSError naming it.
        def refused(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied",
                                  str(self))

        path = tmp_path / "fig5a.svg"
        path.write_text("kept")
        monkeypatch.setattr(type(Path()), "write_text", refused)
        with pytest.raises(PermissionError):
            write_svg(small_result, path)
        with pytest.raises(PermissionError):
            write_preset_outputs(figure_preset("fig5a"), tmp_path)
        assert path.read_bytes() == b"kept"
        assert (tmp_path / "fig5a.csv").is_file()


def test_write_preset_outputs(base_params, tmp_path):
    preset = FigurePreset(
        name="tiny",
        description="small scan used by the serializer test",
        base=base_params,
        axes=(Axis(SweepParameter.DELTA_F, -10.0, 10.0, 5),),
        delta_f_policy=DeltaFPolicy.FIXED,
        delta_f_band=None,
        plot="i_abs")
    res = sweep(preset.base, preset.axes)
    written = write_preset_outputs(preset, tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["tiny.csv", "tiny.svg"]
    assert (tmp_path / "tiny.csv").read_text(encoding="utf-8") == csv_text(res)
