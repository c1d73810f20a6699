"""Tests for CSV, JSON and SVG output of sweep results."""

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magnon_sagnac import (
    Axis,
    DeltaFPolicy,
    FigurePreset,
    SweepParameter,
    SystemParams,
    run_preset,
    sweep,
    with_delta_f,
)
from magnon_sagnac import serialize
from magnon_sagnac.serialize import (
    CSV_HEADER,
    _float_text,
    _json_quoted,
    _unsigned,
    csv_text,
    json_records,
    json_text,
    jsonable,
    svg_text,
    write_csv,
    write_json,
    write_preset_outputs,
    write_svg,
)


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


class TestByteIdentity:
    """csv_text / json_text against the row-by-row oracle, byte for byte."""

    def test_grids(self, base_params):
        for name, res in _byte_identity_grids(base_params):
            assert csv_text(res) == _oracle_csv(res), name
            assert json_text(res) == _oracle_json(res), name

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

    @pytest.mark.parametrize("step", [64, 5])
    def test_several_steps(self, base_params, monkeypatch, step):
        # 7 second-axis points do not divide either step; at step 5 each
        # step is a single first-axis row longer than the step itself.
        monkeypatch.setattr(serialize, "_STEP", step)
        axes = [Axis(SweepParameter.DELTA_F, -30.0, 30.0, 40),
                Axis(SweepParameter.GAMMA_M, -2.0, 8.0, 7)]
        res = sweep(base_params, axes)
        assert csv_text(res) == _oracle_csv(res)
        assert json_text(res) == _oracle_json(res)

    def test_several_steps_one_axis(self, base_params, monkeypatch):
        monkeypatch.setattr(serialize, "_STEP", 16)
        res = sweep(base_params, [Axis(SweepParameter.GAMMA_M, -2.0, 8.0, 50)])
        assert csv_text(res) == _oracle_csv(res)
        assert json_text(res) == _oracle_json(res)


_SPECIAL_FLOATS = (0.0, -0.0, math.nan, -math.nan,
                   float(np.copysign(np.nan, -1.0)), math.inf, -math.inf,
                   5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310)


@given(st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)),
                min_size=1, max_size=30))
def test_abs_text_is_signed_text_without_its_minus(values):
    x = np.array(values, dtype=float)
    for as_json in (False, True):
        derived = _unsigned(_float_text(x, as_json))
        assert derived == _float_text(np.abs(x), as_json)
    assert _unsigned(_float_text(x, False)) == [
        _oracle_fmt(abs(v)) for v in values]
    assert _json_quoted(_unsigned(_float_text(x, True)), x) == [
        json.dumps(_oracle_jsonable(abs(v))) for v in values]


# sha256 of the preset files, as the row-by-row writer wrote them.  The
# slow fig3/fig4 presets are left to the benchmark's correctness gate.
_PRESET_DIGESTS = {
    "fig2a.csv": "412110adc3766047cd607c9826a70ca9ae3d8d295da2ee39752f71f0397cbff8",
    "fig2a.svg": "363c3b243f60161a4e73e4ea476470862aaa48c61e646fa86ed064eec08bb816",
    "fig2b.csv": "412110adc3766047cd607c9826a70ca9ae3d8d295da2ee39752f71f0397cbff8",
    "fig2b.svg": "016ca0d1331d3410374e5602feffc2f34ec45c521dfffcd6c137d727240ec8bf",
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


@pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig5a", "fig5b", "fig6",
                                  "fig7a", "fig7b"])
def test_preset_files_are_byte_identical(name, tmp_path):
    preset, res = run_preset(name)
    for path in write_preset_outputs(preset, res, tmp_path):
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
        text_single = csv_text(sweep(base_params, axes, threads=1))
        text_threaded = csv_text(sweep(base_params, axes, threads=3))
        assert text_single == text_threaded
        path = tmp_path / "out.csv"
        write_csv(sweep(base_params, axes, threads=2), path)
        assert path.read_text(encoding="utf-8") == text_single
        assert text_single.endswith("\n")


class TestJson:
    def test_records_mirror_csv(self, small_result):
        records = json_records(small_result)
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


class TestSvg:
    def test_line_plot_for_one_axis(self, base_params):
        res = sweep(base_params, [Axis(SweepParameter.DELTA_F, -30, 30, 41)])
        text = svg_text(res, plot="i_abs")
        ET.fromstring(text)  # must be well-formed XML
        assert "<polyline" in text

    def test_family_plot_for_few_rows(self, small_result):
        text = svg_text(small_result, plot="i_signed")
        ET.fromstring(text)
        # one labeled series per first-axis value
        assert text.count("<polyline") >= small_result.shape[0]
        assert "gamma_m=" not in text  # labels name the first axis
        assert "delta_f=" in text

    def test_heatmap_for_dense_grids(self, base_params):
        axes = [Axis(SweepParameter.DELTA_F, -30.0, 30.0, 12),
                Axis(SweepParameter.GAMMA_M, 1.0, 9.0, 30)]
        text = svg_text(sweep(base_params, axes), plot="i_abs")
        ET.fromstring(text)
        assert "<rect" in text and "<polyline" not in text

    def test_masked_points_break_the_line(self, base_params):
        res = sweep(base_params, [Axis(SweepParameter.GAMMA_M, -2.0, 8.0, 21)])
        text = svg_text(res, plot="transmissions")
        ET.fromstring(text)
        assert "nan" not in text  # masked coordinates never reach the markup

    def test_deterministic(self, small_result, tmp_path):
        assert svg_text(small_result) == svg_text(small_result)
        path = tmp_path / "plot.svg"
        write_svg(small_result, path)
        assert path.read_text(encoding="utf-8") == svg_text(small_result)


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
    written = write_preset_outputs(preset, res, tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["tiny.csv", "tiny.svg"]
    assert (tmp_path / "tiny.csv").read_text(encoding="utf-8") == csv_text(res)
