"""Tests for extremal-shift analysis, reciprocal points and the optimizer."""

import dataclasses
import math

import numpy as np
import pytest

from magnon_sagnac import (
    Direction,
    DriveAmplitudes,
    SymmetryRequiredError,
    SystemParams,
    brute_force_optimum,
    classify_direction,
    extremal_fizeau_general,
    extremal_fizeau_symmetric,
    reciprocal_points,
    transmissions,
    with_delta_f,
)
from magnon_sagnac.analysis import _golden_section_max

from conftest import random_general, random_symmetric

# Closed-form extremum of the demonstration system, frozen from an
# independent evaluation.
REF_DF_PLUS = 33.18168932631133
REF_ISOLATION_DB = 41.63071931849793


class TestSymmetricExtrema:
    def test_reference_values(self, base_params):
        ex = extremal_fizeau_symmetric(base_params)
        assert ex.delta_f_plus_mhz == pytest.approx(REF_DF_PLUS, rel=1e-12)
        assert ex.delta_f_minus_mhz == -ex.delta_f_plus_mhz
        assert ex.isolation_db == pytest.approx(REF_ISOLATION_DB, abs=1e-9)
        assert ex.in_band_plus and ex.in_band_minus

    def test_branch_ratios_are_reciprocal(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = random_symmetric(rng)
            ex = extremal_fizeau_symmetric(p)
            assert ex.ratio_plus * ex.ratio_minus == pytest.approx(1.0,
                                                                   rel=1e-9)

    def test_matches_direct_transmissions(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            p = random_symmetric(rng)
            ex = extremal_fizeau_symmetric(p)
            report = transmissions(with_delta_f(p, ex.delta_f_plus_mhz))
            assert report.ratio == pytest.approx(ex.ratio_plus, rel=1e-9)
            assert report.i_abs_db == pytest.approx(ex.isolation_db, abs=1e-8)

    def test_extrema_are_stationary(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = random_symmetric(rng)
            ex = extremal_fizeau_symmetric(p)
            for df in (ex.delta_f_plus_mhz, ex.delta_f_minus_mhz):
                here = transmissions(with_delta_f(p, df)).ratio
                left = transmissions(with_delta_f(p, df - 1e-4)).ratio
                right = transmissions(with_delta_f(p, df + 1e-4)).ratio
                if here >= 1.0:
                    assert here >= max(left, right) * (1.0 - 1e-9)
                else:
                    assert here <= min(left, right) * (1.0 + 1e-9)

    def test_out_of_band_flag(self):
        # strong squeezing pushes the extremum beyond feasible spin rates
        p = SystemParams.symmetric(g_squeeze=1.0)
        ex = extremal_fizeau_symmetric(p)
        assert ex.delta_f_plus_mhz == pytest.approx(80.89126446739945,
                                                    rel=1e-10)
        assert ex.isolation_db == pytest.approx(49.37127821944106, abs=1e-8)
        assert not ex.in_band_plus and not ex.in_band_minus

    def test_requires_symmetry(self, base_params):
        p = dataclasses.replace(base_params, g0_2_mhz=61.5)
        with pytest.raises(SymmetryRequiredError):
            extremal_fizeau_symmetric(p)


class TestGeneralExtrema:
    def test_reduces_to_symmetric(self, base_params):
        sym = extremal_fizeau_symmetric(base_params)
        gen = extremal_fizeau_general(base_params)
        assert gen.delta_f_plus_mhz == pytest.approx(sym.delta_f_plus_mhz,
                                                     rel=1e-12)
        assert gen.delta_f_minus_mhz == pytest.approx(sym.delta_f_minus_mhz,
                                                      rel=1e-12)
        assert gen.ratio_plus == pytest.approx(sym.ratio_plus, rel=1e-9)
        assert gen.isolation_plus_db == pytest.approx(sym.isolation_db,
                                                      abs=1e-8)

    def test_reference_unequal_couplings(self, base_params):
        p = dataclasses.replace(base_params, g0_2_mhz=1.5 * 41.0)
        ex = extremal_fizeau_general(p)
        assert ex.u1_mhz == pytest.approx(-16.588565, abs=1e-4)
        assert ex.u2_mhz2 == pytest.approx(6605.542, abs=1e-2)
        assert ex.delta_f_plus_mhz == pytest.approx(33.18078, abs=1e-4)
        assert ex.delta_f_minus_mhz == pytest.approx(-49.76934, abs=1e-4)
        back = transmissions(with_delta_f(p, ex.delta_f_minus_mhz))
        assert back.t21 == pytest.approx(0.033116, abs=1e-5)
        assert ex.in_band_plus and ex.in_band_minus

    def test_reference_double_coupling(self, base_params):
        p = dataclasses.replace(base_params, g0_2_mhz=2.0 * 41.0)
        ex = extremal_fizeau_general(p)
        assert ex.delta_f_minus_mhz == pytest.approx(-66.35730, abs=1e-4)
        assert not ex.in_band_minus
        back = transmissions(with_delta_f(p, ex.delta_f_minus_mhz))
        assert back.t21 == pytest.approx(0.016573, abs=1e-5)

    def test_extrema_match_direct_ratio(self, base_params):
        rng = np.random.default_rng(29)
        for _ in range(50):
            factor = rng.uniform(0.3, 3.0)
            p = random_symmetric(rng)
            p = dataclasses.replace(p, g0_2_mhz=factor * p.g0_1_mhz)
            ex = extremal_fizeau_general(p)
            for df, expect in ((ex.delta_f_plus_mhz, ex.ratio_plus),
                               (ex.delta_f_minus_mhz, ex.ratio_minus)):
                report = transmissions(with_delta_f(p, df))
                assert report.ratio == pytest.approx(expect, rel=1e-8)

    def test_extrema_always_real(self):
        """The discriminant is a sum of squares, so valid parameters
        always admit both extremal shifts."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            factor = rng.uniform(0.05, 20.0)
            p = random_symmetric(rng)
            p = dataclasses.replace(p, g0_2_mhz=factor * p.g0_1_mhz)
            ex = extremal_fizeau_general(p)
            assert math.isfinite(ex.delta_f_plus_mhz)
            assert math.isfinite(ex.delta_f_minus_mhz)
            assert ex.delta_f_minus_mhz < ex.delta_f_plus_mhz

    def test_any_ports_match_brute_force(self):
        """Independent ports, couplings and drives: the better stationary
        shift gives the largest |I| a numeric search finds around both."""
        rng = np.random.default_rng(37)
        for _ in range(12):
            p = random_general(rng)
            ex = extremal_fizeau_general(p)
            best = max(ex.isolation_plus_db, ex.isolation_minus_db)
            band = (ex.delta_f_minus_mhz - 20.0, ex.delta_f_plus_mhz + 20.0)
            opt = brute_force_optimum(p, band=band)
            assert opt.isolation_db == pytest.approx(best, abs=0.01)
            assert opt.isolation_db <= best + 1e-9
            for df, expect in ((ex.delta_f_plus_mhz, ex.ratio_plus),
                               (ex.delta_f_minus_mhz, ex.ratio_minus)):
                report = transmissions(with_delta_f(p, df))
                assert report.ratio == pytest.approx(expect, rel=1e-8)

    def test_real_for_huge_coupling_ratios(self):
        """With g2/g1 = 1e3..1e9 and delta = (w1 + w2)/2 the discriminant
        is kappa^2 behind a cancellation of (w2 - w1)^2 terms."""
        rng = np.random.default_rng(41)
        for _ in range(300):
            p = random_symmetric(rng)
            p = dataclasses.replace(p, g0_2_mhz=10.0 ** rng.uniform(3.0, 9.0)
                                    * p.g0_1_mhz)
            eff = p.effective()
            rt = math.sqrt(p.mode_1.kappa_mhz / p.magnon.gamma_m_mhz)
            p = dataclasses.replace(p, delta_mhz=0.5 * rt * (
                eff.g_eff_1_mhz + eff.g_eff_2_mhz))
            ex = extremal_fizeau_general(p)
            assert math.isfinite(ex.delta_f_plus_mhz)
            assert math.isfinite(ex.delta_f_minus_mhz)
            assert ex.delta_f_minus_mhz < ex.delta_f_plus_mhz

    def test_requires_positive_couplings(self, base_params):
        p = dataclasses.replace(base_params, g0_1_mhz=0.0, g0_2_mhz=0.0)
        with pytest.raises(ValueError):
            extremal_fizeau_general(p)
        silent = dataclasses.replace(base_params,
                                     drive=DriveAmplitudes(1.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            extremal_fizeau_general(silent)


class TestReciprocalPoints:
    def test_reference_gamma(self):
        p = SystemParams.symmetric(delta_mhz=22.0)
        pts = reciprocal_points(p)
        assert pts.gamma_0_mhz == pytest.approx(9.096876087172253, rel=1e-12)
        assert not pts.matched

    def test_reference_kappa(self):
        p = SystemParams.symmetric(delta_mhz=20.0)
        pts = reciprocal_points(p)
        assert pts.kappa_0_mhz == pytest.approx(0.3997376243797988, rel=1e-12)

    def test_zero_detuning_never_reciprocal(self, base_params):
        pts = reciprocal_points(base_params)
        assert math.isinf(pts.gamma_0_mhz)
        assert pts.kappa_0_mhz == 0.0

    def test_matched_flag(self):
        probe = SystemParams.symmetric()
        eff = probe.effective()
        w = eff.g_eff_1_mhz * math.sqrt(1.1 / 4.0)
        assert reciprocal_points(
            SystemParams.symmetric(delta_mhz=w)).matched

    def test_crossing_gamma_0_reverses_direction(self):
        # gamma_0 = 9.0969 MHz at delta = 22 MHz; straddle it
        below = SystemParams.symmetric(delta_mhz=22.0, gamma_m_mhz=8.0)
        above = SystemParams.symmetric(delta_mhz=22.0, gamma_m_mhz=12.0)
        df = 10.0
        d_below = classify_direction(transmissions(with_delta_f(below, df)))
        d_above = classify_direction(transmissions(with_delta_f(above, df)))
        assert d_below is Direction.FORWARD
        assert d_above is Direction.BACKWARD

    def test_requires_symmetry(self, base_params):
        p = dataclasses.replace(base_params, g0_2_mhz=50.0)
        with pytest.raises(SymmetryRequiredError):
            reciprocal_points(p)


class TestClassifyDirection:
    def test_all_three_outcomes(self, base_params):
        fwd = transmissions(with_delta_f(base_params, 33.0))
        rec = transmissions(with_delta_f(base_params, 0.0))
        back = transmissions(with_delta_f(base_params, -33.0))
        assert classify_direction(fwd) is Direction.FORWARD
        assert classify_direction(rec) is Direction.RECIPROCAL
        assert classify_direction(back) is Direction.BACKWARD

    def test_tolerance_widens_reciprocal(self, base_params):
        nearly = transmissions(with_delta_f(base_params, 1e-8))
        assert classify_direction(nearly) is not Direction.RECIPROCAL or \
            abs(nearly.i_signed_db) <= 1e-9
        assert classify_direction(nearly, tol_db=1.0) is Direction.RECIPROCAL


class TestBruteForce:
    def test_matches_analytic_extremum(self, base_params):
        opt = brute_force_optimum(base_params, band=(0.0, 65.0))
        assert opt.delta_f_mhz == pytest.approx(REF_DF_PLUS, abs=1e-5)
        assert opt.isolation_db == pytest.approx(REF_ISOLATION_DB, abs=1e-9)

    def test_matched_system_ties_break_to_zero_shift(self):
        probe = SystemParams.symmetric()
        w = probe.effective().g_eff_1_mhz * math.sqrt(1.1 / 4.0)
        matched = SystemParams.symmetric(delta_mhz=w)
        opt = brute_force_optimum(matched, grid_points=101)
        assert abs(opt.delta_f_mhz) <= 1.0
        assert opt.isolation_db <= 1e-8

    def test_band_is_respected(self, base_params):
        opt = brute_force_optimum(base_params, band=(0.0, 20.0))
        assert opt.delta_f_mhz <= 20.0 + 1e-9
        assert opt.delta_f_mhz == pytest.approx(20.0, abs=0.05)
        assert opt.isolation_db < REF_ISOLATION_DB

    def test_input_validation(self, base_params):
        with pytest.raises(ValueError):
            brute_force_optimum(base_params, band=(5.0, 5.0))
        with pytest.raises(ValueError):
            brute_force_optimum(base_params, grid_points=5)


def test_golden_section_finds_simple_maxima():
    x, v = _golden_section_max(lambda x: -(x - 2.0) ** 2, 0.0, 5.0, 1e-9)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert v == pytest.approx(0.0, abs=1e-12)
    x, _ = _golden_section_max(math.sin, 0.0, math.pi, 1e-9)
    assert x == pytest.approx(math.pi / 2.0, abs=1e-6)
