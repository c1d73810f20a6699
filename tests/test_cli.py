"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import resource
import signal
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnon_sagnac import (Axis, SweepParameter, cli, default_document,
                           parse_config, resolved_document)
from magnon_sagnac.cli import UsageError, parse_axis_spec, run
from magnon_sagnac.serialize import CSV_HEADER
from test_tooling import _python, _src_env


def _captured_run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


class TestParseAxisSpec:
    def test_plain(self):
        ax = parse_axis_spec("delta_f=-16:16:6401")
        assert ax == Axis(SweepParameter.DELTA_F, -16.0, 16.0, 6401)

    def test_normalized(self):
        ax = parse_axis_spec("delta_f/gamma_m=-16:16:11")
        assert ax.normalization is SweepParameter.GAMMA_M

    def test_alias(self):
        """G, the config key, is the one spelling of the squeeze axis."""
        assert parse_axis_spec("G=0:1:5").parameter is SweepParameter.SQUEEZE
        with pytest.raises(UsageError,
                           match="unknown sweep parameter 'g_squeeze'"):
            parse_axis_spec("g_squeeze=0:1:5")

    def test_malformed(self):
        for spec in ("delta_f=1:2", "delta_f", "nope=1:2:3",
                     "delta_f=a:b:c", "delta_f=1:2:many"):
            with pytest.raises(UsageError):
                parse_axis_spec(spec)


def _single_valued_options() -> list[tuple[str, str]]:
    """(command, option) for each option of each command that takes one
    value, as the parser defines them."""
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return [(name, action.option_strings[0])
            for name, command in commands.items()
            for action in command._actions
            if action.option_strings and action.nargs is None
            and not isinstance(action, argparse._AppendAction)]


# A value of each single-valued option, and the options each command
# needs besides the one under test.
_VALUES = {"--config": "cfg.json", "--format": "json", "--side": "right",
           "--method": "generic", "--band": "-40:40",
           "--axis": "gamma_m=1:12:10", "--axis2": "kappa=1:2:10",
           "--out": "out", "--optimal-df": "positive"}
_NEEDS = {"sweep": ["--axis", "--optimal-df"], "reproduce": ["--out"]}


class TestExitCodes:
    @pytest.mark.parametrize("command,option", _single_valued_options())
    def test_single_valued_options_are_taken_once(self, capsys, monkeypatch,
                                                  tmp_path, command, option):
        """argparse alone keeps the last of repeated values: an option
        that takes one value is refused when given twice, not half
        dropped."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text("{}", encoding="utf-8")
        argv = [command] + (["fig2a"] if command == "reproduce" else [])
        for need in _NEEDS.get(command, []):
            if need != option:
                argv += [need, _VALUES[need]]
        argv += [option, _VALUES[option]]
        assert run(argv + [option, _VALUES[option]]) == 3
        hint = "; the second axis is --axis2" if option == "--axis" else ""
        assert capsys.readouterr() == (
            "", f"usage error: argument {option}: given twice{hint}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
        assert run(argv) == 0, capsys.readouterr().err  # once is taken
        capsys.readouterr()

    def test_set_is_repeatable(self, capsys):
        """Each --set applies in turn, so the last of one key wins."""
        both = run_json(capsys, ["isolate", "--set", "delta_f_mhz=3",
                                 "--set", "gamma_m_mhz=2",
                                 "--set", "delta_f_mhz=4"])
        assert both == run_json(capsys, ["isolate", "--set", "gamma_m_mhz=2",
                                         "--set", "delta_f_mhz=4"])
        assert both != run_json(capsys, ["isolate", "--set", "delta_f_mhz=4"])

    def test_no_arguments(self, capsys):
        assert run([]) == 3
        assert "usage error" in capsys.readouterr().err

    def test_help(self, capsys):
        assert run(["--help"]) == 0
        assert run(["sweep", "--help"]) == 0
        capsys.readouterr()

    def test_unknown_config_key(self, capsys):
        assert run(["isolate", "--set", "kappa=1"]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_invalid_physics(self, capsys):
        assert run(["isolate", "--set", "gamma_m_mhz=-1"]) == 1
        assert "RATE_POSITIVE" in capsys.readouterr().err

    def test_io_error(self, capsys, tmp_path):
        missing_dir = tmp_path / "does" / "not" / "exist" / "out.csv"
        code = run(["sweep", "--axis", "delta_f=-1:1:3",
                    "--out", str(missing_dir)])
        assert code == 2
        assert "io error" in capsys.readouterr().err

    def test_oversized_grid(self, capsys):
        assert run(["sweep", "--axis", "delta_f=-1:1:1000000",
                    "--axis2", "gamma_m=1:2:1000000"]) == 1
        assert "1000000000000 points" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["validate"], ["isolate"], ["steady"], ["optimize"],
        ["optimize", "--analytic"], ["sweep", "--axis", "delta_f=-1:1:3"]],
        ids=["validate", "isolate", "steady", "optimize", "analytic",
             "sweep"])
    def test_effective_coupling_out_of_float_range(self, capsys, command):
        # cosh(2G) overflows at G = 400.
        assert run(command + ["--set", "G=400"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "NONFINITE: squeeze" in line

    @pytest.mark.parametrize("spelling", ["set", "config"])
    def test_null_is_not_a_default(self, capsys, tmp_path, spelling):
        """null is an error for every key, not the default value."""
        if spelling == "set":
            argv = ["isolate", "--set", "G=null"]
        else:
            path = tmp_path / "cfg.json"
            path.write_text('{"G": null}', encoding="utf-8")
            argv = ["isolate", "--config", str(path)]
        assert run(argv) == 1
        assert capsys.readouterr() == (
            "", "error: G must be a number, got None\n")

    @pytest.mark.parametrize("argv,err", [
        (["optimize", "--band=1:2:3"], "band '1:2:3' must be lo:hi"),
        (["optimize", "--band=a:b"], "band 'a:b' has non-numeric bounds"),
        (["optimize", "--band=2:1"], "band must satisfy lo < hi"),
        # An empty band is no band at all, not the config's band_mhz.
        (["optimize", "--band="], "band '' must be lo:hi"),
        (["sweep", "--axis", "gamma_m=1:2:3", "--optimal-df", "positive",
          "--band="], "band '' must be lo:hi"),
        (["sweep", "--axis", "gamma_m=nan:2:5"],
         "axis spec 'gamma_m=nan:2:5': axis bounds must be finite"),
        # Both bounds are finite, but stop - start is not.
        (["sweep", "--axis", "delta_f=-1e308:1e308:3"],
         "axis spec 'delta_f=-1e308:1e308:3': axis span must be finite"),
        # The bounds are numbers; only the count is wrong.
        (["sweep", "--axis", "delta_f=0:1:1e3"],
         "axis spec 'delta_f=0:1:1e3' has a count '1e3' that is not a "
         "whole number"),
        (["sweep", "--axis", "delta_f=0:1:2.5"],
         "axis spec 'delta_f=0:1:2.5' has a count '2.5' that is not a "
         "whole number"),
    ], ids=["three_parts", "not_numbers", "reversed", "empty",
            "sweep_empty", "axis_not_finite", "axis_span_not_finite",
            "axis_count_exponent", "axis_count_fraction"])
    def test_malformed_band_or_axis(self, capsys, argv, err):
        assert run(argv) == 3
        assert capsys.readouterr() == ("", f"usage error: {err}\n")

    def test_csv_format_outside_sweep(self, capsys, monkeypatch):
        """No command takes --format csv (sweep's text output is CSV);
        refused while parsing, before any config is loaded."""
        monkeypatch.setattr(cli, "_COMMANDS", {})
        for argv in (["isolate"], ["sweep", "--axis", "delta_f=-1:1:3"]):
            assert run(argv + ["--format", "csv"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith(
                "usage error: argument --format: invalid choice: ")

    @pytest.mark.parametrize("assignment", [
        "omega_m_mhz=1", "bias_field_t=0.5", "rotation.lambda_m=1e-6"])
    def test_keys_that_nothing_reads_are_unknown(self, capsys, assignment):
        assert run(["validate", "--set", assignment]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: unknown ")

    @pytest.mark.parametrize("argv", [
        ["validate", "--format", "json"],
        ["sweep", "--axis", "gamma_m=1:2:3", "--threads", "2"],
        ["reproduce", "fig2a", "--out", "unused", "--threads", "2"],
    ], ids=["validate_format", "sweep_threads", "reproduce_threads"])
    def test_options_that_change_nothing_are_not_taken(self, capsys, argv):
        assert run(argv) == 3
        assert capsys.readouterr() == (
            "", "usage error: unrecognized arguments: "
            + " ".join(argv[-2:]) + "\n")

    def test_unknown_preset(self, capsys, tmp_path):
        assert run(["reproduce", "fig9", "--out", str(tmp_path)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("option", [
        ["--set", "G=0.1"], ["--config", "cfg.json"], ["--format", "json"]],
        ids=["set", "config", "format"])
    def test_reproduce_refuses_config_options(self, capsys, tmp_path, option):
        """A preset fixes every parameter, so these options are not taken
        rather than silently ignored."""
        assert run(["reproduce", "fig2a", "--out", str(tmp_path)]
                   + option) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: unrecognized arguments")
        assert list(tmp_path.iterdir()) == []

    def test_sweep_refuses_a_silent_optical_drive(self, capsys):
        assert run(["sweep", "--axis", "gamma_m=1:2:3",
                    "--set", "drive.eps=[0,1,1]"]) == 1
        assert capsys.readouterr() == (
            "", "error: optical drive amplitudes must be positive\n")


class TestFizeau:
    def test_text_output(self, capsys):
        assert run(["fizeau"]) == 0
        assert "delta_f_mhz = 51.2579978681" in capsys.readouterr().out

    def test_first_term_only(self, capsys):
        assert run(["fizeau", "--first-term-only"]) == 0
        assert "64.6064348129" in capsys.readouterr().out

    def test_direction_flip(self, capsys):
        cw = run_json(capsys, ["fizeau"])
        ccw = run_json(capsys, ["fizeau", "--set",
                                "rotation.direction=ccw"])
        assert ccw["delta_f_mhz"] == pytest.approx(-cw["delta_f_mhz"])

    def test_rejects_unphysical_rotation(self, capsys):
        assert run(["fizeau", "--set", "rotation.n=0.9"]) == 1
        assert "ROTATION_RANGE" in capsys.readouterr().err

    def test_wavelength_follows_the_carrier(self, capsys):
        """The dispersion term takes lambda = c / omega0; without
        dispersion the shift stays 0 even where that lambda overflows."""
        assert run(["fizeau", "--set", "rotation.omega0_thz=300",
                    "--set", "rotation.dn_dlambda=-1e4"]) == 0
        assert capsys.readouterr() == ("delta_f_mhz = 80.1318036078\n", "")
        assert run(["fizeau", "--set", "rotation.omega0_thz=5e-324"]) == 0
        assert capsys.readouterr() == ("delta_f_mhz = 0\n", "")

    @pytest.mark.parametrize("omega0_thz,dn_dlambda,shift", [
        ("5e-324", "1", "-4.56159253301e-05"),
        ("1e-320", "1", "-4.56159253301e-05"),
        # lambda is finite here, but lambda/n * dn/dlambda overflows.
        ("1e-300", "1e20", "-4.56159253301e+15"),
    ], ids=["least_subnormal", "subnormal", "term_overflows"])
    def test_dispersion_at_a_vanishing_carrier(self, capsys, omega0_thz,
                                               dn_dlambda, shift):
        """As omega0 -> 0 lambda = c / omega0 overflows, but the dispersion
        part of the shift tends to -2 pi Omega r dn/dlambda * 1e-6."""
        assert run(["fizeau", "--set", f"rotation.omega0_thz={omega0_thz}",
                    "--set", f"rotation.dn_dlambda={dn_dlambda}"]) == 0
        assert capsys.readouterr() == (f"delta_f_mhz = {shift}\n", "")

    @pytest.mark.parametrize("setting", ["rotation.n=1e300",
                                         "rotation.omega_rot_hz=1e303"])
    def test_overflow_is_an_error(self, capsys, setting):
        # 2 pi Omega n r omega0 overflows before the division by c.
        assert run(["fizeau", "--set", setting]) == 1
        assert capsys.readouterr() == (
            "", "error: OVERFLOW: delta_f_mhz left the float range\n")


class TestSteadyAndIsolate:
    def test_isolate_reference_point(self, capsys):
        payload = run_json(capsys, [
            "isolate", "--set", "delta_f_mhz=33.18168932631133"])
        assert payload["t12"] == pytest.approx(0.6666132342, abs=1e-9)
        assert payload["t21"] == pytest.approx(0.0055250723, abs=1e-9)
        assert payload["i_signed_db"] == pytest.approx(41.6307193185,
                                                       abs=1e-6)
        assert payload["direction"] == "forward"

    def test_isolate_outside_the_float_range(self, capsys):
        # T12/T21 is about 4e199, so R overflows.
        payload = run_json(capsys, ["isolate",
                                    "--set", "g0_mhz=[41.0,4.1e-199]",
                                    "--set", "delta_f_mhz=10"])
        assert (payload["ratio"], payload["i_signed_db"]) == ("inf", "inf")
        assert payload["direction"] == "forward"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command,names", [
        (["isolate"], "t12, t21"),
        (["steady"], "a1, a2, m, a1_out, a2_out"),
        (["steady", "--side", "right"], "a1, a2, m, a1_out, a2_out")])
    def test_overflow_is_an_error(self, capsys, command, names, fmt):
        # At a shift of 1e200 MHz the closed form leaves the float range; a
        # sweep codes such a point OVERFLOW.
        argv = command + ["--set", "delta_f_mhz=1e200", "--format", fmt]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: OVERFLOW: {names} left the float "
                                "range\n")

    def test_generic_steady_state_far_off_resonance(self, capsys):
        # Where the closed form's determinant overflows, the 3x3 solve
        # still answers, as a scaled-pivoting elimination does.
        payload = run_json(capsys, ["steady", "--method", "generic",
                                    "--set", "delta_f_mhz=1e200"])
        assert payload["abs_a1"] == pytest.approx(4.47421807602e-199,
                                                  rel=1e-12)

    def test_steady_solvers_agree(self, capsys):
        argv = ["steady", "--set", "delta_f_mhz=10", "--side", "left"]
        closed = run_json(capsys, argv + ["--method", "closed"])
        generic = run_json(capsys, argv + ["--method", "generic"])
        for key in ("a1_re", "a1_im", "a2_re", "a2_im", "m_re", "m_im"):
            assert closed[key] == pytest.approx(generic[key], rel=1e-10,
                                                abs=1e-12)
        assert closed["residual_max"] < 1e-10

    def test_config_file(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"delta_f_mhz": 33.18168932631133}',
                        encoding="utf-8")
        from_file = run_json(capsys, ["isolate", "--config", str(path)])
        from_flag = run_json(capsys, ["isolate", "--set",
                                      "delta_f_mhz=33.18168932631133"])
        assert from_file == from_flag


class TestOptimize:
    def test_brute_matches_analytic(self, capsys):
        brute = run_json(capsys, ["optimize", "--brute", "--band", "0:65"])
        analytic = run_json(capsys, ["optimize", "--analytic",
                                     "--band", "0:65"])
        assert brute["delta_f_mhz"] == pytest.approx(
            analytic["delta_f_mhz"], abs=1e-5)
        assert brute["isolation_db"] == pytest.approx(
            analytic["isolation_db"], abs=1e-9)
        assert analytic["in_band_plus"] is True

    def test_analytic_reports_both_branches(self, capsys):
        payload = run_json(capsys, ["optimize", "--analytic"])
        assert payload["delta_f_minus_mhz"] == pytest.approx(
            -payload["delta_f_plus_mhz"], rel=1e-12)


    def test_analytic_takes_any_ports(self, capsys):
        sets = ["--set", "g0_mhz=[41.0,61.5]", "--set", "kappa_mhz=[1.1,2.0]",
                "--set", "eta=[0.5,0.3]", "--set", "eta3=0.4",
                "--set", "drive.eps=[1.0,1.2,0.8]"]
        analytic = run_json(capsys, ["optimize", "--analytic"] + sets)
        band = (f"--band={analytic['delta_f_minus_mhz'] - 20.0!r}:"
                f"{analytic['delta_f_plus_mhz'] + 20.0!r}")
        brute = run_json(capsys, ["optimize", "--brute", band] + sets)
        assert brute["isolation_db"] == pytest.approx(
            analytic["isolation_db"], abs=0.01)


    # Mirror shifts that tie but for rounding; see tests/test_analysis.py.
    MIRROR_TIE = ["--set", "g0_mhz=21.0", "--set", "G=0.43",
                  "--set", "kappa_mhz=2.85", "--set", "gamma_m_mhz=3.7",
                  "--set", "delta_mhz=-11.3"]

    @pytest.mark.parametrize("argv,text,json_text", [
        (["--band", "0:65"],
         "delta_f_mhz = 33.1816893263\nisolation_db = 41.6307193185\n",
         '{\n "delta_f_mhz": 33.18168932631133,\n'
         ' "isolation_db": 41.630719318499786\n}\n'),
        (["--band=-65:65"] + MIRROR_TIE,
         "delta_f_mhz = -37.0043302463\nisolation_db = 34.3061316266\n",
         '{\n "delta_f_mhz": -37.004330246310424,\n'
         ' "isolation_db": 34.30613162658666\n}\n'),
    ], ids=["demo", "mirror_tie"])
    def test_brute_stdout_is_pinned(self, capsys, argv, text, json_text):
        for fmt, expected in (("text", text), ("json", json_text)):
            assert run(["optimize", "--brute", "--format", fmt] + argv) == 0
            assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("argv,code,out,err", [
        (["--band=-inf:0"], 3, "",
         "usage error: band '-inf:0' must have finite bounds\n"),
        (["--set", "band_mhz=[0,1e400]"], 1, "",
         "error: band_mhz must be finite, got [0, inf]\n"),
        # Finite bounds whose width hi - lo overflows are accepted: the
        # optimum scores candidate shifts only, never the width.
        (["--band=-1e308:1e308"], 0,
         "delta_f_mhz = -33.1816893263\nisolation_db = 41.6307193185\n", ""),
    ], ids=["inf_bound", "config_inf_bound", "width_overflows"])
    def test_brute_refuses_bands_that_are_not_finite(self, capsys, argv,
                                                     code, out, err):
        assert run(["optimize", "--brute"] + argv) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)

    def test_brute_never_reports_a_nan_optimum(self, capsys):
        # Every shift beyond about 1e155 MHz overflows: on the first band
        # only the edges do, so the stationary shifts win (the negative
        # one on a tie); on the second band every shift does.
        assert run(["optimize", "--brute", "--band=-1e200:1e200"]) == 0
        assert capsys.readouterr().out == (
            "delta_f_mhz = -33.1816893263\nisolation_db = 41.6307193185\n")
        assert run(["optimize", "--brute", "--band=1e160:2e160"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: OVERFLOW: isolation_db left the "
                                "float range at the band's best shift, "
                                "delta_f_mhz = 1e+160\n")

    def test_brute_skips_a_shift_without_transmission(self, capsys):
        # Both outputs vanish at the upper edge alone (its determinant
        # overflows); the lower edge and both stationary shifts answer.
        assert run(["optimize", "--band=-65:1.2e154"]) == 0
        assert capsys.readouterr() == (
            "delta_f_mhz = -33.1816893263\nisolation_db = 41.6307193185\n",
            "")

    def test_brute_solves_only_the_winning_shift(self, capsys):
        # The system determinant vanishes at the shift 0, which loses;
        # the winning lower edge answers, as `isolate` there does.
        sets = ["--set", "kappa_mhz=8.908091349732443e-165",
                "--set", "g0_mhz=1.7840341208145443e-206"]
        assert run(["optimize", "--band=-65:65"] + sets) == 0
        assert capsys.readouterr() == (
            "delta_f_mhz = -65\nisolation_db = 0\n", "")
        assert run(["isolate", "--set", "delta_f_mhz=0"] + sets) == 1
        assert capsys.readouterr() == (
            "", "error: vanishing system determinant\n")

    def test_brute_names_the_shift_whose_isolation_overflows(self, capsys):
        # The stationary shift wins on the quadratic score, but its scalar
        # isolation is nan; the shift 0, which is not solved, answers.
        sets = ["--set", "gamma_m_mhz=2.2745080777901403e+252",
                "--set", "g0_mhz=5.309498428542212e+159",
                "--set", "kappa_mhz=1.9297612011152968e-69"]
        assert run(["optimize"] + sets) == 1
        assert capsys.readouterr() == (
            "", "error: OVERFLOW: isolation_db left the float range at the "
            "band's best shift, delta_f_mhz = -0.238835384329\n")
        assert run(["isolate", "--set", "delta_f_mhz=0"] + sets) == 0
        assert "i_abs_db = 0\n" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,err", [
        (["--band=1.1e154:1.3e154"], "both output amplitudes vanish"),
        (["--set", "g0_mhz=[41,0]", "--set", "eta3=0"],
         "both output amplitudes vanish"),
        (["--set", "drive.eps=[0,1,1]"], "both optical drive amplitudes "
         "must be positive to define T12 and T21"),
    ], ids=["band_without_transmission", "nothing_reaches_port_1",
            "silent_optical_drive"])
    def test_brute_without_any_transmission_is_an_error(self, capsys, argv,
                                                        err):
        assert run(["optimize"] + argv) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_analytic_refuses_a_silent_optical_drive(self, capsys):
        assert run(["optimize", "--analytic",
                    "--set", "drive.eps=[0,1,1]"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: both optical drive amplitudes must be positive to "
                "define T12 and T21\n")

    def test_analytic_overflow_is_an_error(self, capsys):
        # g_1 is about 2e153, so R is nan at both stationary shifts.
        assert run(["optimize", "--analytic", "--set", "G=175",
                    "--set", "kappa_mhz=0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: OVERFLOW: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("band", ["-40:40", "-.5:1", "-1e1:-2.5"])
    def test_negative_band_takes_either_spelling(self, capsys, band):
        for argv in (["optimize"],
                     ["sweep", "--axis", "gamma_m=1:12:6",
                      "--optimal-df", "positive"]):
            assert run(argv + [f"--band={band}"]) == 0
            joined = capsys.readouterr().out
            assert run(argv + ["--band", band]) == 0
            assert capsys.readouterr().out == joined


class TestSweepCommand:
    def test_csv_to_stdout(self, capsys):
        assert run(["sweep", "--axis", "delta_f=-5:5:5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6

    def test_json_format(self, capsys):
        records = run_json(capsys, ["sweep", "--axis", "delta_f=-5:5:5"])
        assert len(records) == 5
        assert records[0]["axis2"] is None

    def test_output_file_deterministic(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--axis", "delta_f=-20:20:24",
                "--axis2", "gamma_m=1:9:5"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_extremal_policy_flags(self, capsys):
        records = run_json(capsys, [
            "sweep", "--axis", "gamma_m=1:12:6", "--optimal-df", "positive",
            "--set", "G=1"])
        clamped = [r["I_signed_db"] for r in records]
        free = run_json(capsys, [
            "sweep", "--axis", "gamma_m=1:12:6", "--optimal-df", "positive",
            "--no-clamp", "--set", "G=1"])
        assert all(f["I_signed_db"] >= c
                   for f, c in zip(free, clamped))

    def test_json_file_is_pinned(self, capsys, tmp_path):
        # A 150 x 150 grid as the benchmark's JSON jobs sweep it; the digest
        # is that of the file the per-value repr writer wrote.
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--axis",
                    "delta_f=-42.74411714657389:53.02265760983766:150",
                    "--axis2",
                    "gamma_m=1.7886498687330021:14.190640271835173:150",
                    "--format", "json", "--out", str(out),
                    "--set", "g0_mhz=20.25159423342757",
                    "--set", "delta_mhz=5.891124362793143"]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "32b4f2fbce0c7c001035d47dd236b83ec7a8448d99c95d47005d012247faba32")

    def test_failed_write_leaves_no_file(self, tmp_path):
        """A write that the file size limit cuts short is an io error, and
        the partial file is removed."""
        out = tmp_path / "sweep.csv"

        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (
                4096, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

        done = subprocess.run(
            [sys.executable, "-m", "magnon_sagnac.cli", "sweep", "--axis",
             "delta_f=-30:30:10", "--axis2", "gamma_m=1:12:10",
             "--out", str(out)], capture_output=True, text=True,
            timeout=120, env=_src_env(), preexec_fn=limit_file_size)
        assert done.returncode == 2, done.stderr
        assert "File too large" in done.stderr
        assert not out.exists()

    def test_bad_axis_spec(self, capsys):
        assert run(["sweep", "--axis", "delta_f=1:2"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("option,err", [
        (["--band", "0:10"], "--band and --no-clamp need --optimal-df "
         "positive or negative"),
        (["--no-clamp"], "--band and --no-clamp need --optimal-df "
         "positive or negative"),
        (["--optimal-df", "positive", "--band", "0:10", "--no-clamp"],
         "argument --no-clamp: not allowed with argument --band"),
    ], ids=["band_without_policy", "no_clamp_without_policy",
            "band_and_no_clamp"])
    def test_clamp_options_are_not_ignored(self, capsys, option, err):
        """The clamp options act only under an extremal --optimal-df and
        only one at a time; otherwise they are refused, not ignored."""
        assert run(["sweep", "--axis", "gamma_m=1:2:3"] + option) == 3
        assert capsys.readouterr() == ("", f"usage error: {err}\n")


class TestReproduce:
    def test_single_preset(self, capsys, tmp_path):
        assert run(["reproduce", "fig5a", "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fig5a.csv", "fig5a.svg"]
        assert len(printed) == 2

    def test_group_expansion(self, capsys, tmp_path):
        assert run(["reproduce", "fig7", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["fig7a.csv", "fig7a.svg", "fig7b.csv", "fig7b.svg"]

    def test_several_names_run_once_each_in_catalog_order(self, capsys,
                                                          tmp_path):
        assert run(["reproduce", "fig5", "fig5a", "fig2a",
                    "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [str(tmp_path / f"{name}.{ext}")
                           for name in ("fig2a", "fig5a", "fig5b")
                           for ext in ("csv", "svg")]


class TestValidate:
    def test_ok(self, capsys):
        assert run(["validate"]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_invalid_lists_codes(self, capsys):
        assert run(["validate", "--set", "eta=1.5"]) == 1
        assert "KAPPA_DECOMP" in capsys.readouterr().err

    def test_print_resolved_round_trips(self, capsys):
        assert run(["validate", "--print-resolved",
                    "--set", "delta_mhz=22"]) == 0
        doc = json.loads(capsys.readouterr().out)
        from magnon_sagnac import parse_config, resolved_document
        assert resolved_document(parse_config(doc)) == doc


class TestSharedParser:
    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        per_call = []
        for argv in (["fizeau"], ["isolate", "--format", "json"],
                     ["validate"]):
            before = len(built)
            assert run(argv) == 0
            per_call.append(len(built) - before)
        capsys.readouterr()
        assert per_call[1:] == [0, 0]

    def test_a_call_does_not_depend_on_earlier_calls(self, tmp_path):
        """Each argv answers the same whichever calls ran before it, and
        no --set leaks into the shared parser's default."""
        argv_list = [
            ["fizeau"],
            ["steady", "--side", "right"],
            ["isolate", "--set", "G=0.3"],
            ["isolate"],
            ["optimize", "--format", "json"],
            ["optimize"],
            ["optimize", "--band=-40:40"],
            ["sweep", "--axis", "delta_f=-40:40:5"],
            ["reproduce", "fig7a", "--out", str(tmp_path)],
            ["validate", "--set", "delta_mhz=22"],
            ["isolate", "--bogus"],
            ["isolate", "--set", "gamma_m_mhz=0"],
            ["isolate", "--help"],
        ]
        forward = [_captured_run(argv) for argv in argv_list]
        backward = [_captured_run(argv) for argv in argv_list[::-1]][::-1]
        assert forward == backward
        assert [code for code, _, _ in forward] == [0] * 10 + [3, 1, 0]
        for index in (2, 4):
            done = _python("-m", "magnon_sagnac.cli", *argv_list[index])
            assert forward[index] == (0, done.stdout, done.stderr)
        default = json.dumps(resolved_document(parse_config({})), indent=1)
        assert _captured_run(["validate", "--print-resolved"]) == (
            0, default + "\n", "")


class TestAllocatorThresholds:
    def test_main_sets_them_first_and_run_does_not(self, monkeypatch,
                                                   capsys):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_memory",
                            lambda: calls.append("keep"))
        assert run(["validate"]) == 0
        assert calls == []
        monkeypatch.setattr(cli, "run", lambda: calls.append("run") or 0)
        environ = {}  # main's OpenBLAS default stays out of this process
        monkeypatch.setattr(cli.os, "environ", environ)
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        assert exit_info.value.code == 0
        assert calls == ["keep", "run"]
        assert environ == {"OPENBLAS_NUM_THREADS": "1"}
        environ["OPENBLAS_NUM_THREADS"] = "2"
        with pytest.raises(SystemExit):
            cli.main()
        assert environ == {"OPENBLAS_NUM_THREADS": "2"}

    @pytest.fixture
    def libc(self, monkeypatch):
        """A stand-in C library; tests give it a mallopt or none."""
        lib = types.SimpleNamespace()
        monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: lib)
        return lib

    def test_sets_both_thresholds(self, libc):
        calls = []
        libc.mallopt = lambda param, value: calls.append((param, value)) or 1
        assert cli._keep_freed_memory() is True
        assert calls == [(-3, 32 << 20), (-1, 256 << 20)]

    def test_missing_mallopt_does_nothing(self, libc):
        assert cli._keep_freed_memory() is False

    def test_refused_mmap_threshold_leaves_the_trim_threshold(self, libc):
        calls = []
        libc.mallopt = lambda param, value: calls.append((param, value)) or 0
        assert cli._keep_freed_memory() is False
        assert calls == [(-3, 32 << 20)]

    @pytest.mark.parametrize("confstr", [None, "musl", ValueError])
    def test_other_c_libraries_are_left_alone(self, monkeypatch, confstr):
        def fake_confstr(name):
            if confstr is ValueError:
                raise ValueError("unrecognized configuration name")
            return confstr

        def no_cdll(name):
            raise AssertionError("looked up the C library")

        monkeypatch.setattr(cli.os, "confstr", fake_confstr)
        monkeypatch.setattr(cli.ctypes, "CDLL", no_cdll)
        assert cli._keep_freed_memory() is False


# Config keys and how the property draws their values: 0.0, -0.0 or
# log-uniform magnitudes over 1e-300..1e300 of either sign, except where a
# key has a natural range.
_MAGNITUDE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
              st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0)))
_FRACTION = st.floats(0.0, 1.0)
_SET_VALUES = {
    "G": st.floats(-400.0, 400.0),
    "eta": _FRACTION,
    "eta3": _FRACTION,
    "band_mhz": st.lists(_MAGNITUDE, min_size=2, max_size=2).map(sorted),
    **{key: _MAGNITUDE for key in (
        "g0_mhz", "kappa_mhz", "gamma_m_mhz", "delta_mhz", "delta_f_mhz",
        "omega_s_mhz", "rotation.omega_rot_hz", "rotation.n", "rotation.r_m",
        "rotation.dn_dlambda", "rotation.omega0_thz")},
}
_COMMANDS = {
    "isolate": ["isolate"],
    "steady_closed": ["steady", "--method", "closed"],
    "steady_generic": ["steady", "--method", "generic", "--side", "right"],
    "optimize_brute": ["optimize", "--brute"],
    "optimize_analytic": ["optimize", "--analytic"],
    "validate": ["validate"],
    "fizeau": ["fizeau"],
    "sweep_fixed": ["sweep", "--axis", "delta_f=-40:40:5"],
    "sweep_optimal": ["sweep", "--axis", "gamma_m=1:12:4",
                      "--optimal-df", "positive"],
}


@st.composite
def _overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_SET_VALUES)), min_size=1,
                         max_size=3, unique=True))
    return [f"{key}={json.dumps(draw(_SET_VALUES[key]))}" for key in keys]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(sorted(_COMMANDS)),
       fmt=st.sampled_from(["text", "json"]), overrides=_overrides())
def test_every_command_answers_or_names_its_error(command, fmt, overrides):
    """Any command, with any 1-3 extreme but finite ``--set`` values,
    returns 0 with finite numbers or exits 1 or 3 with one error line
    (``validate`` may list several); it never raises."""
    argv = list(_COMMANDS[command])
    if command != "validate":
        argv += ["--format", fmt]
    for assignment in overrides:
        argv += ["--set", assignment]
    code, out, err = _captured_run(argv)
    lines = err.splitlines()
    if code == 0:
        assert lines == [], argv
        assert command.startswith("sweep") or "nan" not in out, argv
        assert command != "fizeau" or "inf" not in out, argv
    else:
        assert code in (1, 3), argv
        assert lines and all(line.startswith(("error:", "usage error:"))
                             for line in lines), argv
        assert command == "validate" or len(lines) == 1, argv


# Another valid value of each config key.  Every key must change the output
# of some command, or it is an input that nothing reads.
_ANOTHER_VALUE = {
    "g0_mhz": 30.0, "G": 0.3, "kappa_mhz": 2.0, "eta": 0.3,
    "gamma_m_mhz": 3.0, "eta3": 0.3, "delta_mhz": 5.0, "delta_f_mhz": 10.0,
    "omega_s_mhz": 5.0, "drive.eps": [1.0, 2.0, 1.0],
    "rotation.omega_rot_hz": 5000.0, "rotation.direction": "ccw",
    "rotation.n": 1.5, "rotation.r_m": 2e-3, "rotation.dn_dlambda": -1e4,
    "rotation.omega0_thz": 300.0, "band_mhz": [-10.0, 10.0],
    "drive.power_w": [0.2, 0.2, 0.3], "drive.omega_p_mhz": 2e8,
}
_POWER_KEYS = ("drive.power_w", "drive.omega_p_mhz")
_READERS = (("isolate",), ("steady", "--side", "left"),
            ("steady", "--side", "right"), ("optimize",),
            ("optimize", "--analytic"), ("fizeau",),
            ("sweep", "--axis", "gamma_m=1:12:3", "--optimal-df", "positive"))


def _leaf_keys(doc: dict, prefix: str = "") -> list[str]:
    return [leaf for key, value in doc.items()
            for leaf in (_leaf_keys(value, f"{prefix}{key}.")
                         if isinstance(value, dict) else [prefix + key])]


@functools.cache
def _json_stdout(argv: tuple, assignments: tuple) -> str:
    code, out, _ = _captured_run(
        [*argv, "--format", "json",
         *(arg for a in assignments for arg in ("--set", a))])
    return f"{code}\n{out}"


@pytest.mark.parametrize("key",
                         _leaf_keys(default_document()) + list(_POWER_KEYS))
def test_every_config_key_changes_some_output(key):
    """Another valid value of any key (of a power-form document for the
    power-form drive keys) changes the JSON output of some command."""
    base = (('drive={"power_w": [0.1, 0.2, 0.3]}',) if key in _POWER_KEYS
            else ())
    changed = base + (f"{key}={json.dumps(_ANOTHER_VALUE[key])}",)
    assert all(_json_stdout(argv, base).startswith("0\n")
               for argv in _READERS)
    assert any(_json_stdout(argv, changed) != _json_stdout(argv, base)
               for argv in _READERS), key
