"""Headline acceptance checks.

Each test pins one externally quoted number or invariant of the library
at its stated tolerance, so `pytest -v tests/test_acceptance.py` reads as
a checklist.  Numeric targets were frozen from independent evaluations
before the implementation existed; see the module docstrings for the
closed forms they exercise.
"""

import dataclasses
import math

import numpy as np
import pytest

from magnon_sagnac import (
    CavityMode,
    DriveSide,
    MagnonMode,
    RotationSpec,
    SqueezeSpec,
    SystemParams,
    brute_force_optimum,
    extremal_fizeau_general,
    fizeau_shift,
    run_preset,
    solve_closed_form,
    solve_generic,
    transmissions,
    with_delta_f,
)

from conftest import random_general, random_symmetric

BAND = (0.0, 65.0)


@pytest.fixture(scope="module")
def demo():
    return SystemParams.symmetric()


@pytest.fixture(scope="module")
def optimum(demo):
    return brute_force_optimum(demo, band=BAND)


@pytest.fixture(scope="module")
def linewidth_maps():
    """The four dense isolation maps; computed once for this module."""
    return {name: run_preset(name)[1]
            for name in ("fig3a", "fig3b", "fig4a", "fig4b")}


def test_c1_optimal_shift_by_brute_force(demo, optimum):
    """Scanning |I| over feasible shifts finds delta_f/gamma_m = 8.295
    +/- 0.005 with 41.63 +/- 0.01 dB, matching the closed form to 1e-6 MHz
    and 1e-9 dB."""
    gamma_m = demo.magnon.gamma_m_mhz
    assert optimum.delta_f_mhz / gamma_m == pytest.approx(8.295, abs=0.005)
    assert optimum.isolation_db == pytest.approx(41.63, abs=0.01)
    analytic = extremal_fizeau_general(demo)
    assert abs(optimum.delta_f_mhz - analytic.delta_f_plus_mhz) <= 1e-6
    assert abs(optimum.isolation_db - analytic.isolation_plus_db) <= 1e-9


def test_c2_transmissions_at_the_optimum(demo, optimum):
    """At the optimal shift the demo system passes T12 = 0.67 +/- 0.01
    forward while blocking the backward direction to T21 <= 0.01."""
    report = transmissions(with_delta_f(demo, optimum.delta_f_mhz))
    assert report.t12 == pytest.approx(0.67, abs=0.01)
    assert report.t21 <= 0.01


def test_c3_peak_isolation_across_linewidth_maps(linewidth_maps):
    """Peak isolation of the four linewidth maps, via the closed-form
    extremum at the map's limiting linewidth and via the dense grids."""
    cases = (
        ("fig3a", dict(kappa_mhz=1.1, gamma_m_mhz=1.5, delta_mhz=0.0),
         45.890, 0.02),
        ("fig3b", dict(kappa_mhz=1.1, gamma_m_mhz=1.503, delta_mhz=22.0),
         41.352, 0.02),
        ("fig4a", dict(kappa_mhz=0.114, gamma_m_mhz=4.0, delta_mhz=0.0),
         51.437, 0.06),
        ("fig4b", dict(kappa_mhz=0.112, gamma_m_mhz=4.0, delta_mhz=20.0),
         50.542, 0.05),
    )
    for name, kwargs, target_db, tol_db in cases:
        analytic = extremal_fizeau_general(SystemParams.symmetric(**kwargs))
        assert analytic.isolation_plus_db == pytest.approx(
            target_db, abs=tol_db), f"{name}: closed-form peak"
        grid_peak = float(linewidth_maps[name].i_abs_db.max())
        assert grid_peak == pytest.approx(target_db, abs=tol_db), \
            f"{name}: grid peak"


def test_c4_transmission_pairs_off_the_sweet_spot():
    """Transmission pairs at the positive extremal shift for three
    detuned operating points."""
    cases = (
        (22.0, 12.0, 0.0004, 0.0001, 0.0038, 0.0002),
        (11.0, 2.0, 0.0382, 0.0005, 0.0003, 0.0001),
        (22.0, 4.0, 0.0084, 0.0003, 0.0002, 0.0001),
    )
    for delta, gamma_m, t12, tol12, t21, tol21 in cases:
        p = SystemParams.symmetric(delta_mhz=delta, gamma_m_mhz=gamma_m)
        df = extremal_fizeau_general(p).delta_f_plus_mhz
        report = transmissions(with_delta_f(p, df))
        label = f"delta={delta}, gamma_m={gamma_m}"
        assert report.t12 == pytest.approx(t12, abs=tol12), label
        assert report.t21 == pytest.approx(t21, abs=tol21), label


def test_c5_unequal_couplings_backward_peaks(demo):
    """With g2/g1 = 1.5 and 2.0 the backward-favoring extremum moves to
    -49.77 and -66.36 MHz with T21 = 0.033 and 0.017 +/- 0.002; the
    second lies outside the feasible band."""
    p15 = dataclasses.replace(demo, g0_2_mhz=1.5 * demo.g0_1_mhz)
    ex15 = extremal_fizeau_general(p15)
    assert ex15.delta_f_minus_mhz == pytest.approx(-49.769, abs=0.01)
    back15 = transmissions(with_delta_f(p15, ex15.delta_f_minus_mhz))
    assert back15.t21 == pytest.approx(0.033, abs=0.002)
    assert ex15.in_band_minus

    p20 = dataclasses.replace(demo, g0_2_mhz=2.0 * demo.g0_1_mhz)
    ex20 = extremal_fizeau_general(p20)
    assert ex20.delta_f_minus_mhz == pytest.approx(-66.357, abs=0.01)
    back20 = transmissions(with_delta_f(p20, ex20.delta_f_minus_mhz))
    assert back20.t21 == pytest.approx(0.017, abs=0.002)
    assert not ex20.in_band_minus


def test_c6_fizeau_shift_of_the_reference_resonator():
    """A 6.6 kHz spin of the reference resonator produces a 64.61 MHz
    first-order shift, reduced to 51.26 MHz by the drag corrections."""
    rot = RotationSpec()
    assert fizeau_shift(rot, first_term_only=True) == pytest.approx(
        64.61, abs=0.05)
    assert fizeau_shift(rot) == pytest.approx(51.26, abs=0.05)


def test_c7a_solvers_agree_everywhere():
    """Closed form and pivoted elimination agree to 1e-12 relative on
    1000 random parameter sets, both drive sides."""
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        p = random_general(rng)
        for side in DriveSide:
            closed = solve_closed_form(p, side)
            generic = solve_generic(p, side)
            for name in ("a1", "a2", "m"):
                c, g = getattr(closed, name), getattr(generic, name)
                assert abs(c - g) <= 1e-12 * max(1e-3, abs(c), abs(g))


def test_c7b_mirror_antisymmetry():
    """Reversing the spin swaps the two transmissions, so R(+df) R(-df) = 1
    and I is odd in the shift, to 1e-10."""
    rng = np.random.default_rng(20260815)
    for _ in range(200):
        p = random_symmetric(rng)
        plus = transmissions(p)
        minus = transmissions(with_delta_f(p, -p.delta_f_mhz))
        assert abs(plus.ratio * minus.ratio - 1.0) <= 1e-10
        assert abs(plus.i_signed_db + minus.i_signed_db) <= 1e-10
        assert plus.t12 == pytest.approx(minus.t21, rel=1e-10)


def test_c7c_impedance_matched_point_is_reciprocal(demo):
    """At delta = g sqrt(kappa/gamma_m) the response stays reciprocal for
    every shift: |I| <= 1e-9 dB across the band."""
    w = demo.effective().g_eff_1_mhz * math.sqrt(1.1 / 4.0)
    matched = SystemParams.symmetric(delta_mhz=w)
    for df in np.linspace(-65.0, 65.0, 101):
        report = transmissions(with_delta_f(matched, float(df)))
        assert abs(report.i_signed_db) <= 1e-9


def test_c7d_isolation_ignores_squeezed_frame_frequency(demo):
    """The isolation is independent of the squeezed-mode frequency to
    1e-10 dB even though the individual transmissions are not."""
    reports = [
        transmissions(with_delta_f(
            SystemParams.symmetric(delta_mhz=22.0, omega_s_mhz=omega_s),
            11.19))
        for omega_s in (0.0, 1.0, 100.0, 1e4)]
    reference = reports[0]
    for report in reports[1:]:
        assert abs(report.i_signed_db - reference.i_signed_db) <= 1e-10
    assert abs(reports[-1].t12 - reference.t12) > 1e-3


def test_c7e_transmissions_invariant_under_rate_scaling():
    """Scaling every rate and detuning by a common factor leaves T12, T21
    and I unchanged to 1e-10."""

    def scaled(p, factor):
        return dataclasses.replace(
            p,
            mode_1=CavityMode(factor * p.mode_1.kappa_mhz,
                              factor * p.mode_1.kappa_ext_mhz),
            mode_2=CavityMode(factor * p.mode_2.kappa_mhz,
                              factor * p.mode_2.kappa_ext_mhz),
            magnon=MagnonMode(factor * p.magnon.gamma_m_mhz,
                              p.magnon.eta3),
            squeeze=SqueezeSpec(p.squeeze.g_squeeze,
                                factor * p.squeeze.omega_s_mhz),
            g0_1_mhz=factor * p.g0_1_mhz,
            g0_2_mhz=factor * p.g0_2_mhz,
            delta_mhz=factor * p.delta_mhz,
            delta_f_mhz=factor * p.delta_f_mhz)

    rng = np.random.default_rng(5)
    cases = [random_symmetric(rng) for _ in range(5)]
    cases.append(with_delta_f(SystemParams.symmetric(delta_mhz=22.0), 11.19))
    for p in cases:
        base = transmissions(p)
        for factor in (0.01, 10.0, 1000.0):
            report = transmissions(scaled(p, factor))
            assert report.t12 == pytest.approx(base.t12, rel=1e-10)
            assert report.t21 == pytest.approx(base.t21, rel=1e-10)
            assert abs(report.i_signed_db - base.i_signed_db) <= 1e-10


def test_c7f_isolation_monotonic_in_the_knobs():
    """Extremal isolation grows with squeezing and falls with either
    damping rate."""
    by_squeeze = [extremal_fizeau_general(
        SystemParams.symmetric(g_squeeze=g)).isolation_plus_db
        for g in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b > a for a, b in zip(by_squeeze, by_squeeze[1:]))

    by_gamma = [extremal_fizeau_general(
        SystemParams.symmetric(gamma_m_mhz=gm)).isolation_plus_db
        for gm in range(1, 13)]
    assert all(b < a for a, b in zip(by_gamma, by_gamma[1:]))

    by_kappa = [extremal_fizeau_general(
        SystemParams.symmetric(kappa_mhz=k)).isolation_plus_db
        for k in (0.2, 0.5, 1.1, 2.0)]
    assert all(b < a for a, b in zip(by_kappa, by_kappa[1:]))


def test_c7g_reciprocal_lines_cross_the_maps(linewidth_maps):
    """The maps contain a near-reciprocal line at gamma_0 (respectively
    kappa_0) where the isolation collapses and changes sign."""
    cases = (("fig3b", 9.096876087172253, 0.5),
             ("fig4b", 0.3997376243797988, 13.0))
    for name, line, col_bound_db in cases:
        res = linewidth_maps[name]
        cols = res.axis_values[1]
        j = int(np.argmin(np.abs(cols - line)))
        col_max = float(np.abs(res.i_signed_db[:, j]).max())
        map_max = float(res.i_abs_db.max())
        assert col_max <= col_bound_db, name
        assert col_max <= map_max / 4.0, name
        row = res.shape[0] * 3 // 4  # a fixed positive shift
        flanking = (res.i_signed_db[row, max(j - 10, 0)],
                    res.i_signed_db[row, min(j + 10, len(cols) - 1)])
        assert flanking[0] * flanking[1] < 0.0, name


def test_c8_strong_squeezing_leaves_the_feasible_band():
    """At G = 1 the extremum sits at 80.89 MHz, beyond feasible spin
    rates, with 49.4 +/- 0.1 dB; clamping to the band gives less."""
    strong = SystemParams.symmetric(g_squeeze=1.0)
    ex = extremal_fizeau_general(strong)
    assert ex.delta_f_plus_mhz == pytest.approx(80.891, abs=0.01)
    assert not ex.in_band_plus
    assert ex.isolation_plus_db == pytest.approx(49.4, abs=0.1)
    clamped = transmissions(with_delta_f(strong, 65.0))
    assert clamped.i_abs_db < ex.isolation_plus_db
