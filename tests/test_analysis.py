"""Tests for extremal-shift analysis, reciprocal points and the optimizer."""

import dataclasses
import math

import numpy as np
import pytest

from magnon_sagnac import (
    Direction,
    DriveAmplitudes,
    PhysicsError,
    RECIPROCAL_TOL_DB,
    SymmetryRequiredError,
    SystemParams,
    TransmissionReport,
    brute_force_optimum,
    classify_direction,
    extremal_fizeau_general,
    reciprocal_points,
    transmissions,
    with_delta_f,
)
from magnon_sagnac import analysis
from magnon_sagnac.analysis import OptimumResult
from magnon_sagnac.model import FEASIBLE_FIZEAU_BAND
from magnon_sagnac.sweep import direction_index

from conftest import random_general, random_symmetric

# Closed-form extremum of the demonstration system, frozen from an
# independent evaluation.
REF_DF_PLUS = 33.18168932631133
REF_ISOLATION_DB = 41.63071931849793


class TestSymmetricExtrema:
    def test_reference_values(self, base_params):
        ex = extremal_fizeau_general(base_params)
        assert ex.delta_f_plus_mhz == pytest.approx(REF_DF_PLUS, rel=1e-12)
        assert ex.delta_f_minus_mhz == -ex.delta_f_plus_mhz
        assert ex.isolation_plus_db == pytest.approx(REF_ISOLATION_DB,
                                                     abs=1e-9)
        assert ex.in_band_plus and ex.in_band_minus

    def test_branch_ratios_are_reciprocal(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = random_symmetric(rng)
            ex = extremal_fizeau_general(p)
            assert ex.ratio_plus * ex.ratio_minus == pytest.approx(1.0,
                                                                   rel=1e-9)

    def test_matches_direct_transmissions(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            p = random_symmetric(rng)
            ex = extremal_fizeau_general(p)
            report = transmissions(with_delta_f(p, ex.delta_f_plus_mhz))
            assert report.ratio == pytest.approx(ex.ratio_plus, rel=1e-9)
            assert report.i_abs_db == pytest.approx(ex.isolation_plus_db,
                                                    abs=1e-8)

    def test_extrema_are_stationary(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = random_symmetric(rng)
            ex = extremal_fizeau_general(p)
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
        ex = extremal_fizeau_general(p)
        assert ex.delta_f_plus_mhz == pytest.approx(80.89126446739945,
                                                    rel=1e-10)
        assert ex.isolation_plus_db == pytest.approx(49.37127821944106,
                                                     abs=1e-8)
        assert not ex.in_band_plus and not ex.in_band_minus


class TestGeneralExtrema:
    def test_reduces_to_symmetric(self):
        # Equal ports and couplings: x = +/- sqrt(kappa^2/4 + u^2) with
        # u = delta - g sqrt(kappa / gamma_m).
        rng = np.random.default_rng(37)
        for _ in range(50):
            p = random_symmetric(rng)
            g = p.effective().g_eff_1_mhz
            kappa, gamma_m = p.mode_1.kappa_mhz, p.magnon.gamma_m_mhz
            u = p.delta_mhz - g * math.sqrt(kappa / gamma_m)
            ex = extremal_fizeau_general(p)
            root = math.sqrt(0.25 * kappa * kappa + u * u)
            assert ex.delta_f_plus_mhz == pytest.approx(root, rel=1e-9)
            assert ex.delta_f_minus_mhz == pytest.approx(-root, rel=1e-9)
            assert ex.isolation_minus_db == pytest.approx(
                ex.isolation_plus_db, rel=1e-9)

    def test_reference_unequal_couplings(self, base_params):
        p = dataclasses.replace(base_params, g0_2_mhz=1.5 * 41.0)
        ex = extremal_fizeau_general(p)
        plus, minus = ex.delta_f_plus_mhz, ex.delta_f_minus_mhz
        assert plus + minus == pytest.approx(-16.588565, abs=1e-4)
        assert -4.0 * plus * minus == pytest.approx(6605.542, abs=1e-2)
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

    def test_ratio_outside_the_float_range_is_an_overflow(self):
        # g_1 is about 2e153 here, so R is nan at both shifts of 7.3e152.
        p = SystemParams.symmetric(g_squeeze=175.0, kappa_mhz=0.5)
        with pytest.raises(PhysicsError, match="^OVERFLOW: "):
            extremal_fizeau_general(p)


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

    def test_nan_has_no_direction(self):
        report = TransmissionReport(math.nan, math.nan, math.nan, math.nan,
                                    math.nan)
        with pytest.raises(ValueError, match="nan"):
            classify_direction(report)

    def test_tolerance_widens_reciprocal(self):
        """RECIPROCAL_TOL_DB is the inclusive edge of the reciprocal
        band, on both sides of 0."""
        def report(i_db):
            return TransmissionReport(1.0, 1.0, 1.0, i_db, abs(i_db))
        tol = RECIPROCAL_TOL_DB
        assert tol == 1e-9
        above = math.nextafter(tol, math.inf)
        for sign, outside in ((1.0, Direction.FORWARD),
                              (-1.0, Direction.BACKWARD)):
            assert classify_direction(report(sign * tol)) is \
                Direction.RECIPROCAL
            assert classify_direction(report(sign * above)) is outside
        i = np.array([-above, -tol, 0.0, tol, above, math.nan])
        assert direction_index(i).tolist() == [3, 1, 1, 1, 2, 0]

    def test_float_and_array_agree(self):
        """direction_index gives a float the index it gives that float in
        an array, and classify_direction the label of that index."""
        def report(i_db):
            return TransmissionReport(1.0, 1.0, 1.0, i_db, abs(i_db))
        values = [math.nan]
        # The neighbours of inf include the largest finite float.
        for x in (0.0, RECIPROCAL_TOL_DB, 1e300, math.inf):
            for y in (x, math.nextafter(x, -math.inf),
                      math.nextafter(x, math.inf)):
                values += [y, -y]
        for x in values:
            index = direction_index(x)
            assert index == direction_index(np.array([x]))[0], x
            if math.isnan(x):
                assert index == 0
                with pytest.raises(ValueError, match="nan"):
                    classify_direction(report(x))
            else:
                assert classify_direction(report(x)).value == \
                    ("", "reciprocal", "forward", "backward")[index], x


def _golden_section_max(f, a: float, b: float, tol: float):
    """Golden-section maximization on [a, b] for a unimodal objective."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def scalar_scan_optimum(params, band=FEASIBLE_FIZEAU_BAND, grid_points=2001,
                        refine_tol_mhz=1e-6):
    """A numeric search to hold brute_force_optimum against: one scalar
    solve per scan point (ties to the smallest |delta_f|), then
    golden-section refinement around the best, whose nan never wins."""
    lo, hi = band

    def objective(delta_f):
        return transmissions(with_delta_f(params, delta_f)).i_abs_db

    step = (hi - lo) / (grid_points - 1)
    best_value, best_x, best_index = -math.inf, lo, 0
    for i in range(grid_points):
        x = lo + i * step
        v = objective(x)
        if v > best_value or (v == best_value and abs(x) < abs(best_x)):
            best_value, best_x, best_index = v, x, i
    a = lo + max(best_index - 1, 0) * step
    b = lo + min(best_index + 1, grid_points - 1) * step
    x_star, i_star = _golden_section_max(objective, a, b, refine_tol_mhz)
    if not i_star >= best_value:
        x_star, i_star = best_x, best_value
    return OptimumResult(x_star, i_star)


def _outcome(search, *args):
    """A search's result, or the type and text of its error."""
    try:
        return search(*args)
    except Exception as e:  # the error itself is compared
        return type(e), str(e)


PARITY_BANDS = [(-65.0, 65.0), (0.0, 65.0), (-20.0, 3.0)]
PARITY_SIZES = [11, 101, 2001]

# Its two mirror shifts tie but for rounding: on the -65:65 scan the
# kernel ranks the positive one higher by 7e-15 dB, the scalar path the
# negative one.
MIRROR_TIE = SystemParams.symmetric(g0_mhz=21.0, g_squeeze=0.43,
                                    kappa_mhz=2.85, gamma_m_mhz=3.7,
                                    delta_mhz=-11.3)

SPECIAL_CASES = {
    "demo": SystemParams.symmetric(),
    "flat_eta3_0": SystemParams.symmetric(eta3=0.0),
    "mirror_tie": MIRROR_TIE,
    "g0_0": SystemParams.symmetric(g0_mhz=0.0),
    "zero_drive": dataclasses.replace(SystemParams.symmetric(),
                                      drive=DriveAmplitudes(0.0, 1.0, 1.0)),
}


def assert_never_worse_than_the_scan(params, bands=PARITY_BANDS,
                                     sizes=PARITY_SIZES):
    """The exact optimum lies in the band and is at least the scalar
    scan's best, to rounding, or both raise the same error."""
    for band in bands:
        got = _outcome(brute_force_optimum, params, band)
        for n in sizes:
            want = _outcome(scalar_scan_optimum, params, band, n)
            if not isinstance(want, OptimumResult):
                assert got == want, (band, n)
                continue
            assert isinstance(got, OptimumResult), (band, n, got)
            assert band[0] <= got.delta_f_mhz <= band[1]
            assert got.isolation_db >= want.isolation_db - 1e-9, (band, n)


class TestBruteForce:
    def test_matches_analytic_extremum(self, base_params):
        opt = brute_force_optimum(base_params, band=(0.0, 65.0))
        assert opt.delta_f_mhz == pytest.approx(REF_DF_PLUS, abs=1e-5)
        assert opt.isolation_db == pytest.approx(REF_ISOLATION_DB, abs=1e-9)

    def test_matched_system_ties_break_to_zero_shift(self):
        probe = SystemParams.symmetric()
        w = probe.effective().g_eff_1_mhz * math.sqrt(1.1 / 4.0)
        matched = SystemParams.symmetric(delta_mhz=w)
        opt = brute_force_optimum(matched)
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
            brute_force_optimum(base_params, band=(5.0, -5.0))

    def test_overflowing_candidates_never_win(self, base_params):
        # Beyond about 1e155 MHz every response overflows to nan: on the
        # first band only the edges do, on the second every candidate.
        opt = brute_force_optimum(base_params, band=(-1e200, 1e200))
        assert opt == OptimumResult(-REF_DF_PLUS, 41.630719318499786)
        opt = brute_force_optimum(base_params, band=(1e160, 2e160))
        assert opt.isolation_db == -math.inf

    def test_finds_the_peak_the_scan_misses(self):
        """The narrow optimum falls between the 2001 scan points; the
        exact value agrees with perfbench's quadratic-ratio oracle
        (gate.best_abs_isolation_db, 16.362697042179786) to 3e-11 dB."""
        p = random_general(np.random.default_rng(848))
        scan = scalar_scan_optimum(p, (-65.0, 65.0))
        assert scan.delta_f_mhz == pytest.approx(8.9377, abs=1e-4)
        assert scan.isolation_db == pytest.approx(16.2977, abs=1e-4)
        opt = brute_force_optimum(p, (-65.0, 65.0))
        assert opt.delta_f_mhz == pytest.approx(11.3183, abs=1e-4)
        assert opt.isolation_db == pytest.approx(16.362697042179786,
                                                 abs=1e-9)

    @pytest.mark.parametrize("draw", [random_symmetric, random_general])
    def test_scan_matches_the_scalar_oracle(self, draw):
        """The scan is the oracle now: it never beats the exact optimum."""
        rng = np.random.default_rng(43)
        for _ in range(3):
            assert_never_worse_than_the_scan(draw(rng))

    @pytest.mark.parametrize("name", sorted(SPECIAL_CASES))
    def test_special_cases_match_the_scalar_oracle(self, name):
        assert_never_worse_than_the_scan(SPECIAL_CASES[name])

    def test_mirror_tie_keeps_the_negative_shift(self):
        opt = brute_force_optimum(MIRROR_TIE, (-65.0, 65.0))
        assert opt == OptimumResult(-37.004330246310424, 34.30613162658666)

    def test_mirror_ties_break_negative(self):
        """A symmetric system's two mirror shifts score alike, and the
        negative one is tried first, so no optimum on a symmetric band is
        positive."""
        rng = np.random.default_rng(43)
        positive = [opt.delta_f_mhz for opt in
                    (brute_force_optimum(random_symmetric(rng), (-65.0, 65.0))
                     for _ in range(200)) if opt.delta_f_mhz > 0.0]
        assert positive == []

    def test_few_scalar_solves(self, base_params, monkeypatch):
        """One scalar solve per optimum, at the winning shift; a response
        that does not depend on the shift (eta3 = 0) or is infinite
        everywhere (g0_2 = 0) keeps the zero shift."""
        calls = []

        def counted(params):
            calls.append(params.delta_f_mhz)
            return transmissions(params)

        monkeypatch.setattr(analysis, "transmissions", counted)
        flat = SystemParams.symmetric(eta3=0.0)
        infinite = dataclasses.replace(base_params, g0_2_mhz=0.0)
        for params, value in ((flat, 0.0), (infinite, math.inf)):
            for band in ((0.0, 65.0), (-65.0, 65.0)):
                calls.clear()
                opt = brute_force_optimum(params, band)
                assert opt == OptimumResult(0.0, value)
                assert calls == [0.0]
        calls.clear()
        opt = brute_force_optimum(base_params, (-65.0, 65.0))
        assert calls == [opt.delta_f_mhz]


def test_golden_section_finds_simple_maxima():
    x, v = _golden_section_max(lambda x: -(x - 2.0) ** 2, 0.0, 5.0, 1e-9)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert v == pytest.approx(0.0, abs=1e-12)
    x, _ = _golden_section_max(math.sin, 0.0, math.pi, 1e-9)
    assert x == pytest.approx(math.pi / 2.0, abs=1e-6)
