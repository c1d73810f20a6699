"""End-to-end tests of the command-line interface."""

import json

import pytest

from magnon_sagnac import Axis, SweepParameter
from magnon_sagnac.cli import UsageError, parse_axis_spec, run
from magnon_sagnac.serialize import CSV_HEADER


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
        assert parse_axis_spec("g_squeeze=0:1:5").parameter is \
            SweepParameter.SQUEEZE
        assert parse_axis_spec("G=0:1:5").parameter is SweepParameter.SQUEEZE

    def test_malformed(self):
        for spec in ("delta_f=1:2", "delta_f", "nope=1:2:3",
                     "delta_f=a:b:c", "delta_f=1:2:many"):
            with pytest.raises(UsageError):
                parse_axis_spec(spec)


class TestExitCodes:
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

    def test_csv_format_outside_sweep(self, capsys):
        assert run(["isolate", "--format", "csv"]) == 3
        capsys.readouterr()

    def test_unknown_preset(self, capsys, tmp_path):
        assert run(["reproduce", "fig9", "--out", str(tmp_path)]) == 3
        capsys.readouterr()


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
        assert run(argv + ["--out", str(out1), "--threads", "1"]) == 0
        assert run(argv + ["--out", str(out2), "--threads", "3"]) == 0
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

    def test_bad_axis_spec(self, capsys):
        assert run(["sweep", "--axis", "delta_f=1:2"]) == 3
        capsys.readouterr()


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
