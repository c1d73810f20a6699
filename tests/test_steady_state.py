"""Tests for the steady-state solvers and transmission reports."""

import dataclasses
import math

import numpy as np
import pytest

from magnon_sagnac import (
    CavityMode,
    DegenerateSystemError,
    DriveAmplitudes,
    DriveSide,
    NoTransmissionError,
    SystemParams,
    output_fields,
    residuals,
    solve_closed_form,
    solve_generic,
    transmission_grid,
    transmissions,
    with_delta_f,
)
from magnon_sagnac.steady_state import _coefficients

from conftest import random_general, random_symmetric

# The demonstration system at its extremal shift; values fixed up front
# from an independent evaluation of the closed-form amplitudes.
REF_DELTA_F = 33.18168932631133
REF_T12 = 0.6666132341955061
REF_T21 = 0.0055250723
REF_ISOLATION_DB = 41.63071931849793


def test_reference_point(base_params):
    report = transmissions(with_delta_f(base_params, REF_DELTA_F))
    assert report.t12 == pytest.approx(REF_T12, abs=1e-9)
    assert report.t21 == pytest.approx(REF_T21, abs=1e-9)
    assert report.i_signed_db == pytest.approx(REF_ISOLATION_DB, abs=1e-6)
    assert report.i_abs_db == abs(report.i_signed_db)
    assert report.ratio == pytest.approx((report.t12 / report.t21) ** 2,
                                         rel=1e-12)


def test_decoupled_amplitudes_match_single_mode_theory():
    """With g0 = 0 each mode is a driven damped oscillator on its own."""
    p = SystemParams.symmetric(g0_mhz=0.0)
    state = solve_closed_form(p, DriveSide.LEFT)
    # |a1| = sqrt(eta kappa) eps / |kappa/2 + i delta_1| at delta_1 = 0
    expected = math.sqrt(0.55) / 0.55
    assert abs(state.a1) == pytest.approx(expected, rel=1e-12)
    assert abs(state.a1) == pytest.approx(1.3483997249264842, rel=1e-12)
    assert state.a2 == 0.0
    # magnon: |m| = sqrt(eta3 gamma_m) eps3 / (gamma_m / 2)
    assert abs(state.m) == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)


def test_solvers_agree_on_demo_system(base_params):
    for delta_f in (-40.0, -5.0, 0.0, 11.0, 33.18):
        p = with_delta_f(base_params, delta_f)
        for side in DriveSide:
            closed = solve_closed_form(p, side)
            generic = solve_generic(p, side)
            assert closed.a1 == pytest.approx(generic.a1, rel=1e-12)
            assert closed.a2 == pytest.approx(generic.a2, rel=1e-12)
            assert closed.m == pytest.approx(generic.m, rel=1e-12)


def test_solvers_agree_on_random_systems():
    rng = np.random.default_rng(20260815)
    for _ in range(300):
        p = random_general(rng)
        for side in DriveSide:
            closed = solve_closed_form(p, side)
            generic = solve_generic(p, side)
            for name in ("a1", "a2", "m"):
                c, g = getattr(closed, name), getattr(generic, name)
                assert c == pytest.approx(g, rel=1e-12, abs=1e-15)


def test_residuals_vanish():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = random_symmetric(rng)
        for side in DriveSide:
            state = solve_closed_form(p, side)
            scale = max(1.0, abs(state.a1), abs(state.a2), abs(state.m))
            assert max(residuals(state, p, side)) <= 1e-9 * scale


def test_output_field_scaling(base_params):
    state = solve_closed_form(base_params, DriveSide.LEFT)
    out = output_fields(state, base_params)
    root = math.sqrt(0.5 * 1.1)
    assert out.a1_out == root * state.a1
    assert out.a2_out == root * state.a2


def test_off_side_drive_is_removed(base_params):
    """LEFT drive must not inject anything at port 2 and vice versa."""
    no_magnon_drive = dataclasses.replace(
        base_params, drive=DriveAmplitudes(1.0, 1.0, 0.0))
    left = solve_closed_form(no_magnon_drive, DriveSide.LEFT)
    right = solve_closed_form(no_magnon_drive, DriveSide.RIGHT)
    # with only the port-1 drive present, a2 exists only through the magnon
    p_uncoupled = dataclasses.replace(no_magnon_drive, g0_1_mhz=0.0,
                                      g0_2_mhz=0.0)
    l0 = solve_closed_form(p_uncoupled, DriveSide.LEFT)
    r0 = solve_closed_form(p_uncoupled, DriveSide.RIGHT)
    assert l0.a2 == 0.0 and r0.a1 == 0.0
    assert abs(left.a2) > 0.0 and abs(right.a1) > 0.0


class TestMirrorIdentities:
    def test_swapping_sides_mirrors_the_shift(self, base_params):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_symmetric(rng)
            forward = transmissions(p)
            mirrored = transmissions(with_delta_f(p, -p.delta_f_mhz))
            assert forward.t12 == pytest.approx(mirrored.t21, rel=1e-10)
            assert forward.t21 == pytest.approx(mirrored.t12, rel=1e-10)

    def test_isolation_is_odd_in_the_shift(self, base_params):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = random_symmetric(rng)
            plus = transmissions(p)
            minus = transmissions(with_delta_f(p, -p.delta_f_mhz))
            assert plus.ratio * minus.ratio == pytest.approx(1.0, rel=1e-9)
            assert plus.i_signed_db == pytest.approx(-minus.i_signed_db,
                                                     abs=1e-9)

    def test_no_rotation_means_reciprocal(self, base_params):
        report = transmissions(with_delta_f(base_params, 0.0))
        assert report.i_signed_db == pytest.approx(0.0, abs=1e-10)
        assert report.t12 == pytest.approx(report.t21, rel=1e-12)


class TestSentinels:
    def test_forward_blocked(self, base_params):
        p = dataclasses.replace(with_delta_f(base_params, 10.0), g0_1_mhz=0.0)
        report = transmissions(p)
        assert report.t12 == 0.0 and report.t21 > 0.0
        assert report.ratio == 0.0
        assert report.i_signed_db == -math.inf
        assert report.i_abs_db == math.inf

    def test_backward_blocked(self, base_params):
        p = dataclasses.replace(with_delta_f(base_params, 10.0), g0_2_mhz=0.0)
        report = transmissions(p)
        assert report.t21 == 0.0 and report.t12 > 0.0
        assert report.ratio == math.inf
        assert report.i_signed_db == math.inf

    def test_fully_decoupled_raises(self, base_params):
        p = dataclasses.replace(base_params, g0_1_mhz=0.0, g0_2_mhz=0.0)
        with pytest.raises(NoTransmissionError):
            transmissions(p)

    def test_zero_drive_raises(self, base_params):
        p = dataclasses.replace(base_params,
                                drive=DriveAmplitudes(0.0, 1.0, 1.0))
        with pytest.raises(NoTransmissionError):
            transmissions(p)

    def test_only_the_read_amplitudes_are_solved(self, base_params):
        """kappa_1 = 5e-324 at delta_1 = 0 rounds d1 = kappa_1/2 + i delta_1
        to 0, and kappa_1's external part to 0.  The drive-left a1, which
        neither T12 nor T21 reads, would divide by d1, so the full solve
        names the degenerate system; the two amplitudes read are finite,
        and port 1 passes no light."""
        p = dataclasses.replace(base_params, delta_mhz=0.0, delta_f_mhz=0.0,
                                mode_1=CavityMode.from_eta(5e-324, 0.5))
        with pytest.raises(DegenerateSystemError, match="driven mode"):
            solve_closed_form(p, DriveSide.LEFT)
        with pytest.raises(NoTransmissionError):
            transmissions(p)

    @pytest.mark.parametrize("side", list(DriveSide))
    def test_a_vanishing_driven_mode_is_degenerate(self, base_params, side):
        """kappa/2 + i delta of the driven mode rounds to 0, though the
        determinant does not: the amplitude that divides by it is not
        solved."""
        tiny = CavityMode.from_eta(5e-324, 0.5)
        p = dataclasses.replace(
            base_params, delta_mhz=0.0, delta_f_mhz=0.0,
            **{"mode_1" if side is DriveSide.LEFT else "mode_2": tiny})
        with pytest.raises(DegenerateSystemError, match="driven mode"):
            solve_closed_form(p, side)

    @pytest.mark.parametrize("eps_1,eps_2,t12,t21,ratio", [
        (1e300, 1.0, 1.5e-200, 0.0, math.inf),
        (1.0, 1e300, 0.0, 1.5e-200, 0.0),
    ])
    def test_a_transmission_that_underflows_is_zero(
            self, base_params, eps_1, eps_2, t12, t21, ratio):
        """Both outputs are about 1.5e-200; divided by a drive of 1e300 a
        transmission underflows to 0, and is classified as on a grid: one
        such is an infinite isolation, two are no transmission."""
        p = dataclasses.replace(base_params,
                                drive=DriveAmplitudes(eps_1, eps_2, 1.0),
                                g0_1_mhz=1e-200, g0_2_mhz=1e-200)
        report = transmissions(p)
        assert (report.t12, report.t21) == pytest.approx((t12, t21),
                                                         rel=0.05)
        assert (report.ratio, report.i_signed_db) == (
            ratio, math.copysign(math.inf, t12 - t21))
        with pytest.raises(NoTransmissionError):
            transmissions(dataclasses.replace(
                p, drive=DriveAmplitudes(1e300, 1e300, 1.0)))

    def test_unknown_method(self, base_params):
        with pytest.raises(ValueError):
            transmissions(base_params, method="magic")


def test_grid_matches_scalar_path(base_params):
    delta_f = np.linspace(-50.0, 50.0, 11)
    eff = base_params.effective()
    t12, t21, ratio, i_signed = transmission_grid(
        delta=base_params.delta_mhz, delta_f=delta_f,
        kappa_1=1.1, kappa_2=1.1, gamma_m=4.0, omega_s=0.0,
        g_1=eff.g_eff_1_mhz, g_2=eff.g_eff_2_mhz,
        eta_1=0.5, eta_2=0.5, eta_3=0.5,
        eps_1=1.0, eps_2=1.0, eps_3=1.0)
    for k, df in enumerate(delta_f):
        report = transmissions(with_delta_f(base_params, float(df)))
        assert t12[k] == pytest.approx(report.t12, rel=1e-12)
        assert t21[k] == pytest.approx(report.t21, rel=1e-12)
        assert ratio[k] == pytest.approx(report.ratio, rel=1e-12)
        assert i_signed[k] == pytest.approx(report.i_signed_db, abs=1e-10)


def test_grid_handles_blocked_direction():
    t12, t21, ratio, i_signed = transmission_grid(
        delta=0.0, delta_f=np.array([10.0]),
        kappa_1=1.1, kappa_2=1.1, gamma_m=4.0, omega_s=0.0,
        g_1=63.0, g_2=0.0, eta_1=0.5, eta_2=0.5, eta_3=0.5,
        eps_1=1.0, eps_2=1.0, eps_3=1.0)
    assert t21[0] == 0.0
    assert np.isinf(ratio[0]) and np.isinf(i_signed[0])


class TestLinearSolver:
    def test_singular_matrix_raises(self):
        # Without couplings or magnon damping the magnon row is zero: the
        # only singular system that the parameters can express.
        p = SystemParams.symmetric(g0_mhz=0.0, gamma_m_mhz=0.0)
        for side in DriveSide:
            for solver in (solve_closed_form, solve_generic):
                with pytest.raises(DegenerateSystemError):
                    solver(p, side)

    def test_recovers_known_solution(self):
        # Uncoupled, each mode is a driven damped oscillator on its own.
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = dataclasses.replace(random_general(rng), g0_1_mhz=0.0,
                                    g0_2_mhz=0.0)
            for side in DriveSide:
                d1, d2, dm, _, _, f1, f2, f3 = _coefficients(p, side)
                state = solve_generic(p, side)
                for got, want in ((state.a1, f1 / d1), (state.a2, f2 / d2),
                                  (state.m, f3 / dm)):
                    assert got == pytest.approx(want, rel=1e-14, abs=0.0)
