"""Unit tests for parameter containers, Fizeau shift and validation."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnon_sagnac import (
    CONSTANTS,
    CavityMode,
    DriveAmplitudes,
    MagnonMode,
    PhysicalConstants,
    RotationDirection,
    RotationSpec,
    SqueezeSpec,
    SqueezingInstabilityError,
    SystemParams,
    drive_amplitude,
    fizeau_shift,
    parse_config,
    squeeze_exponent,
    validate,
    validate_rotation,
    with_delta_f,
)


def codes(violations):
    return {v.code for v in violations}


class TestConstants:
    def test_values(self):
        assert CONSTANTS.c_m_per_s == 2.99792458e8
        assert CONSTANTS.hbar_j_s == 1.054571817e-34

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            CONSTANTS.c_m_per_s = 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PhysicalConstants(c_m_per_s=0.0)


class TestFizeauShift:
    def test_reference_rotation(self):
        rot = RotationSpec()
        assert fizeau_shift(rot, first_term_only=True) == pytest.approx(
            64.6064348129, rel=1e-9)
        assert fizeau_shift(rot) == pytest.approx(51.2579978681, rel=1e-9)

    def test_direction_mirror_is_exact(self):
        cw = RotationSpec(direction=RotationDirection.CW)
        ccw = dataclasses.replace(cw, direction=RotationDirection.CCW)
        assert fizeau_shift(ccw) == -fizeau_shift(cw)
        assert fizeau_shift(cw) > 0.0

    def test_no_rotation(self):
        still = RotationSpec(direction=RotationDirection.NONE)
        assert fizeau_shift(still) == 0.0
        assert fizeau_shift(RotationSpec(omega_rot_hz=0.0)) == 0.0

    @given(omega=st.floats(1.0, 1e6), factor=st.floats(0.01, 100.0))
    @settings(deadline=None)
    def test_linear_in_spin_rate(self, omega, factor):
        base = fizeau_shift(RotationSpec(omega_rot_hz=omega))
        scaled = fizeau_shift(RotationSpec(omega_rot_hz=factor * omega))
        assert scaled == pytest.approx(factor * base, rel=1e-12)

    def test_dispersion_term_can_cancel_the_shift(self):
        rot = RotationSpec()
        n = rot.refractive_index
        lam = CONSTANTS.c_m_per_s / (rot.omega0_mhz * 1e6)
        cancel = (1.0 - 1.0 / n ** 2) * n / lam
        tuned = dataclasses.replace(rot, dn_dwavelength_per_m=cancel)
        assert abs(fizeau_shift(tuned)) < 1e-9
        # normal dispersion reduces the drag term below its first-order value
        assert fizeau_shift(rot) < fizeau_shift(rot, first_term_only=True)

    def test_huge_refractive_index_leaves_the_bracket_at_one(self):
        # n ** 2 overflows at 1e200; at both, 1/n^2 is far below the
        # rounding of the bracket.
        for n in (1e154, 1e200):
            rot = RotationSpec(refractive_index=n)
            assert fizeau_shift(rot) == fizeau_shift(rot, first_term_only=True)

    def test_validate_rotation(self):
        assert validate_rotation(RotationSpec()) == []
        bad = RotationSpec(refractive_index=1.0)
        assert codes(validate_rotation(bad)) == {"ROTATION_RANGE"}
        assert codes(validate_rotation(RotationSpec(radius_m=-1.0))) == {
            "ROTATION_RANGE"}
        assert codes(validate_rotation(
            RotationSpec(omega_rot_hz=math.nan))) == {"NONFINITE"}


class TestCavityMode:
    def test_decomposition(self):
        mode = CavityMode.from_eta(kappa_mhz=1.1, eta=0.5)
        assert mode.kappa_ext_mhz == pytest.approx(0.55)
        assert mode.eta == pytest.approx(0.5)

    @given(kappa=st.floats(1e-3, 1e3), eta=st.floats(0.0, 1.0))
    @settings(deadline=None)
    def test_eta_round_trip(self, kappa, eta):
        assert CavityMode.from_eta(kappa, eta).eta == pytest.approx(
            eta, abs=1e-12)


class TestDrive:
    def test_amplitude_reference_value(self):
        # 100 mW at a 193 THz pump
        assert drive_amplitude(0.1, 193e6) == pytest.approx(
            884287184.1929564, rel=1e-12)

    def test_amplitude_scales_as_sqrt_power(self):
        assert drive_amplitude(0.4, 193e6) == pytest.approx(
            2.0 * drive_amplitude(0.1, 193e6), rel=1e-12)

    def test_amplitude_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            drive_amplitude(-1e-3, 193e6)
        with pytest.raises(ValueError):
            drive_amplitude(0.1, 0.0)

    def test_from_powers_applies_squeeze_factor(self):
        factor = math.exp(-0.5)
        d = DriveAmplitudes.from_powers(0.1, 0.1, 0.1, 193e6,
                                        eps3_factor=factor)
        assert d.eps_1 == d.eps_2
        assert d.eps_3_eff == pytest.approx(factor * d.eps_1, rel=1e-12)


class TestSqueezing:
    @given(delta_m=st.floats(1e-3, 1e4), g=st.floats(0.0, 2.0))
    @settings(deadline=None)
    def test_pump_exponent_round_trip(self, delta_m, g):
        e_pump = delta_m * math.tanh(2.0 * g)
        assert squeeze_exponent(delta_m, e_pump) == pytest.approx(g, abs=1e-9)

    def test_instability_raises(self):
        with pytest.raises(SqueezingInstabilityError):
            squeeze_exponent(1.0, 1.0)
        with pytest.raises(SqueezingInstabilityError):
            squeeze_exponent(10.0, -10.5)

    def test_direct_effective_coupling(self):
        params = SystemParams.symmetric()  # G = 0.5 by default
        eff = params.effective()
        assert eff.g_eff_1_mhz == pytest.approx(41.0 * math.cosh(1.0),
                                                rel=1e-12)
        assert eff.g_eff_1_mhz == pytest.approx(63.26630602742499, rel=1e-12)
        assert eff.g_eff_2_mhz == eff.g_eff_1_mhz
        assert params.squeeze.omega_s_mhz == 0.0

    def test_from_pump_effective(self):
        delta_m, g = 10.0, 0.5
        e_pump = delta_m * math.tanh(2.0 * g)
        params = dataclasses.replace(
            SystemParams.symmetric(),
            squeeze=SqueezeSpec.from_pump(delta_m, e_pump))
        eff = params.effective()
        assert eff.g_eff_1_mhz == pytest.approx(41.0 * math.cosh(1.0),
                                                rel=1e-9)
        assert params.squeeze.omega_s_mhz == pytest.approx(delta_m / math.cosh(1.0),
                                                rel=1e-9)

    def test_omega_s_override_wins(self):
        params = SystemParams.symmetric(omega_s_mhz=123.0)
        assert params.squeeze.omega_s_mhz == 123.0

    def test_from_pump_refuses_the_threshold(self):
        with pytest.raises(SqueezingInstabilityError):
            SqueezeSpec.from_pump(1.0, 2.0)

    def test_from_pump_square_beyond_the_float_range(self, base_params):
        """delta_m ** 2 overflows: omega_s is stored as inf, which validate
        names; a given omega_s is kept without the square."""
        spec = SqueezeSpec.from_pump(1e200, 1e199)
        assert spec.omega_s_mhz == math.inf
        p = dataclasses.replace(base_params, squeeze=spec)
        assert [(v.code, v.message) for v in validate(p)] == [
            ("NONFINITE", "squeeze: non-finite omega_s override")]
        assert SqueezeSpec.from_pump(1e200, 1e199, 5.0) == SqueezeSpec(
            spec.g_squeeze, 5.0)


class TestSystemParams:
    def test_demonstration_defaults(self, base_params):
        p = base_params
        assert p.g0_1_mhz == p.g0_2_mhz == 41.0
        assert p.mode_1.kappa_mhz == 1.1
        assert p.mode_1.eta == pytest.approx(0.5)
        assert p.magnon.gamma_m_mhz == 4.0
        assert p.delta_mhz == 0.0 and p.delta_f_mhz == 0.0
        assert p.squeeze.g_squeeze == 0.5
        assert p.drive == DriveAmplitudes(1.0, 1.0, 1.0)
        assert validate(p) == []

    def test_detuning_split(self):
        p = with_delta_f(SystemParams.symmetric(delta_mhz=22.0), 5.0)
        assert p.delta_1_mhz == pytest.approx(27.0)
        assert p.delta_2_mhz == pytest.approx(17.0)

    def test_with_delta_f_only_touches_the_shift(self, base_params):
        p = with_delta_f(base_params, -3.25)
        assert p.delta_f_mhz == -3.25
        assert dataclasses.replace(p, delta_f_mhz=0.0) == dataclasses.replace(
            base_params, delta_f_mhz=0.0)


class TestPredicates:
    def test_symmetric_default(self, base_params):
        from magnon_sagnac import has_uniform_ports, is_symmetric
        assert is_symmetric(base_params)
        assert has_uniform_ports(base_params)

    def test_unequal_couplings_keep_uniform_ports(self, base_params):
        from magnon_sagnac import has_uniform_ports, is_symmetric
        p = dataclasses.replace(base_params, g0_2_mhz=61.5)
        assert has_uniform_ports(p)
        assert not is_symmetric(p)

    def test_unequal_ports(self, base_params):
        from magnon_sagnac import has_uniform_ports
        p = dataclasses.replace(base_params,
                                mode_2=CavityMode.from_eta(2.2, 0.5))
        assert not has_uniform_ports(p)


class TestValidate:
    def test_rate_positive(self, base_params):
        p = dataclasses.replace(base_params,
                                mode_1=CavityMode(-1.0, 0.5))
        assert "RATE_POSITIVE" in codes(validate(p))
        p = dataclasses.replace(
            base_params,
            magnon=MagnonMode(0.0, 0.5))
        assert "RATE_POSITIVE" in codes(validate(p))

    def test_kappa_decomposition(self, base_params):
        p = dataclasses.replace(base_params, mode_2=CavityMode(1.1, 1.2))
        assert "KAPPA_DECOMP" in codes(validate(p))

    def test_eta_range(self, base_params):
        p = dataclasses.replace(base_params, mode_1=CavityMode(1.1, -0.1))
        assert "ETA_RANGE" in codes(validate(p))
        p = dataclasses.replace(base_params,
                                magnon=MagnonMode(4.0, 1.5))
        assert "ETA_RANGE" in codes(validate(p))

    def test_coupling_negative(self, base_params):
        p = dataclasses.replace(base_params, g0_1_mhz=-1.0)
        assert "COUPLING_NEGATIVE" in codes(validate(p))

    def test_drive_negative(self, base_params):
        p = dataclasses.replace(base_params,
                                drive=DriveAmplitudes(1.0, -1.0, 1.0))
        assert "DRIVE_NEGATIVE" in codes(validate(p))

    def test_nonfinite(self, base_params):
        p = dataclasses.replace(base_params, delta_mhz=math.nan)
        assert "NONFINITE" in codes(validate(p))

    @pytest.mark.parametrize("g0,g_squeeze", [(41.0, 400.0), (41.0, -400.0),
                                              (1e300, 10.0)])
    def test_effective_coupling_out_of_float_range(self, g0, g_squeeze):
        """cosh(2G) or g0 cosh(2G) overflows; effective() would raise
        or give inf."""
        p = SystemParams.symmetric(g0_mhz=g0, g_squeeze=g_squeeze)
        assert [v.code for v in validate(p)] == ["NONFINITE"]
        assert validate(SystemParams.symmetric(g_squeeze=100.0)) == []

    @pytest.mark.parametrize("overrides,found", [
        ({"kappa_mhz": math.nan},
         [("NONFINITE", "mode_1: non-finite linewidth"),
          ("NONFINITE", "mode_2: non-finite linewidth")]),
        ({"gamma_m_mhz": math.inf}, [("NONFINITE",
                                      "magnon: non-finite parameter")]),
        ({"g0_mhz": math.nan}, [("NONFINITE", "g0_1: non-finite coupling"),
                                ("NONFINITE", "g0_2: non-finite coupling")]),
        ({"G": math.nan}, [("NONFINITE", "squeeze: non-finite exponent")]),
        ({"omega_s_mhz": math.nan}, [("NONFINITE", "squeeze: non-finite "
                                      "omega_s override")]),
        ({"drive": {"eps": [math.nan, 1.0, 1.0]}},
         [("NONFINITE", "drive: non-finite amplitude")]),
        # Pump-built squeezing has no config spelling: built in Python.
        (None, [("NONFINITE", "squeeze: non-finite exponent"),
                ("NONFINITE", "squeeze: non-finite omega_s override")]),
        ({"rotation": {"omega_rot_hz": -1.0}},
         [("ROTATION_RANGE", "rotation: spin rate must be >= 0 (use "
           "direction to flip the sign)")]),
        ({"rotation": {"omega0_thz": 0.0}},
         [("ROTATION_RANGE", "rotation: optical frequency must be positive")]),
        # Each bound itself, on whichever side the check puts it.
        ({"kappa_mhz": {"total": 1.1, "external": 0.0}}, []),
        ({"kappa_mhz": {"total": 1.1, "external": 1.1}}, []),
        ({"eta3": 1.0}, []),
        ({"rotation": {"omega_rot_hz": 0.0}}, []),
        ({"rotation": {"r_m": 0.0}},
         [("ROTATION_RANGE", "rotation: radius must be positive")]),
    ], ids=["kappa_nan", "gamma_m_inf", "g0_nan", "G_nan", "omega_s_nan",
            "eps_nan", "pump_nan", "spin_rate_negative",
            "optical_frequency_zero", "kappa_ext_zero", "kappa_ext_total",
            "eta3_one", "spin_rate_zero", "radius_zero"])
    def test_rejections_are_named(self, overrides, found):
        """Each rejection branch of validate and validate_rotation names
        its code and what it refused, and each bound is on the side its
        check puts it, for configs spelled as --set values."""
        cfg = parse_config(overrides or {})
        params = cfg.params
        if overrides is None:
            params = dataclasses.replace(
                params, squeeze=SqueezeSpec.from_pump(math.nan, 1.0))
        problems = validate(params) + validate_rotation(cfg.rotation)
        assert [(v.code, v.message) for v in problems] == found

    def test_collects_multiple(self, base_params):
        p = dataclasses.replace(base_params, g0_1_mhz=-1.0,
                                drive=DriveAmplitudes(-1.0, 1.0, 1.0))
        assert {"COUPLING_NEGATIVE", "DRIVE_NEGATIVE"} <= codes(validate(p))
