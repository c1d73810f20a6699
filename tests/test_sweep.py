"""Tests for grid sweeps, shift policies, error masking and presets."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from magnon_sagnac import (
    Axis,
    DeltaFPolicy,
    DriveAmplitudes,
    PRESET_NAMES,
    SqueezeSpec,
    SweepError,
    SweepParameter,
    SystemParams,
    apply_parameter,
    brute_force_optimum,
    extremal_fizeau_symmetric,
    figure_preset,
    parameter_value,
    run_preset,
    sweep,
    transmissions,
    with_delta_f,
)
from magnon_sagnac.sweep import CODE_NAMES, THREADS_ENV_VAR, _resolve_threads

from conftest import random_general

# A range per parameter on which the demonstration set stays valid.
_VALID_RANGES = {
    SweepParameter.DELTA_F: (-40.0, 40.0),
    SweepParameter.GAMMA_M: (2.0, 8.0),
    SweepParameter.KAPPA: (0.5, 3.0),
    SweepParameter.DELTA: (-10.0, 10.0),
    SweepParameter.SQUEEZE: (0.0, 1.0),
    SweepParameter.COUPLING_RATIO: (0.5, 2.0),
    SweepParameter.OMEGA_S: (-20.0, 20.0),
}


class TestAxis:
    def test_values_are_inclusive_linspace(self):
        ax = Axis(SweepParameter.GAMMA_M, 1.0, 12.0, 12)
        np.testing.assert_allclose(ax.values(), np.arange(1.0, 13.0))

    def test_rejects_bad_counts_and_ranges(self):
        with pytest.raises(ValueError):
            Axis(SweepParameter.GAMMA_M, 1.0, 12.0, 1)
        with pytest.raises(ValueError):
            Axis(SweepParameter.GAMMA_M, 5.0, 5.0, 11)
        with pytest.raises(ValueError):
            Axis(SweepParameter.GAMMA_M, 9.0, 5.0, 11)

    def test_normalization(self, base_params):
        ax = Axis(SweepParameter.DELTA_F, -16.0, 16.0, 5,
                  normalization=SweepParameter.GAMMA_M)
        assert ax.scale(base_params) == 4.0
        assert ax.label() == "delta_f/gamma_m"
        plain = Axis(SweepParameter.KAPPA, 0.1, 2.0, 5)
        assert plain.scale(base_params) == 1.0
        assert plain.label() == "kappa"

    def test_rejects_unsupported_normalization(self):
        with pytest.raises(ValueError):
            Axis(SweepParameter.DELTA_F, -1.0, 1.0, 3,
                 normalization=SweepParameter.DELTA)


class TestApplyParameter:
    @pytest.mark.parametrize("parameter,value", [
        (SweepParameter.DELTA_F, 12.5),
        (SweepParameter.GAMMA_M, 2.75),
        (SweepParameter.KAPPA, 0.7),
        (SweepParameter.DELTA, -9.0),
        (SweepParameter.SQUEEZE, 0.85),
        (SweepParameter.COUPLING_RATIO, 1.6),
        (SweepParameter.OMEGA_S, 55.0),
    ])
    def test_round_trip(self, base_params, parameter, value):
        updated = apply_parameter(base_params, parameter, value)
        assert parameter_value(updated, parameter) == pytest.approx(
            value, rel=1e-12)

    def test_kappa_rewrite_preserves_eta(self, base_params):
        updated = apply_parameter(base_params, SweepParameter.KAPPA, 0.3)
        for mode in (updated.mode_1, updated.mode_2):
            assert mode.kappa_mhz == 0.3
            assert mode.eta == pytest.approx(0.5, rel=1e-12)

    def test_squeeze_requires_direct_mode(self, base_params):
        pumped = dataclasses.replace(base_params,
                                     squeeze=SqueezeSpec.from_pump(10.0, 5.0))
        with pytest.raises(SweepError):
            apply_parameter(pumped, SweepParameter.SQUEEZE, 0.3)
        with pytest.raises(SweepError):
            parameter_value(pumped, SweepParameter.SQUEEZE)
        with pytest.raises(SweepError):
            sweep(pumped, [Axis(SweepParameter.SQUEEZE, 0.0, 1.0, 3)])


class TestResolveThreads:
    def test_explicit_wins(self):
        assert _resolve_threads(4) == 4
        assert _resolve_threads(1) == 1
        assert _resolve_threads(0) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "6")
        assert _resolve_threads(None) == 6
        monkeypatch.delenv(THREADS_ENV_VAR)
        assert _resolve_threads(None) == 1

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "many")
        with pytest.raises(ValueError):
            _resolve_threads(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            _resolve_threads(-2)


class TestSweepGrid:
    def test_one_axis_matches_scalar_path(self, base_params):
        ax = Axis(SweepParameter.DELTA_F, -50.0, 50.0, 21)
        res = sweep(base_params, [ax])
        assert res.shape == (21,)
        assert not res.error_codes
        for k, df in enumerate(ax.values()):
            report = transmissions(with_delta_f(base_params, float(df)))
            assert res.t12[k] == pytest.approx(report.t12, rel=1e-12)
            assert res.t21[k] == pytest.approx(report.t21, rel=1e-12)
            assert res.i_signed_db[k] == pytest.approx(report.i_signed_db,
                                                       abs=1e-10)

    # Every ordered pair, so the kernel substitution (applied in table
    # order) is checked against the setters (applied in axis order).
    @pytest.mark.parametrize("first,second", itertools.permutations(
        SweepParameter, 2), ids=lambda p: p.value)
    def test_two_axes_indexing_and_params_at(self, base_params, first,
                                             second):
        axes = [Axis(first, *_VALID_RANGES[first], 5),
                Axis(second, *_VALID_RANGES[second], 4)]
        res = sweep(with_delta_f(base_params, 12.0), axes)
        assert res.shape == (5, 4)
        assert not res.error_codes
        for idx in ((0, 0), (2, 3), (4, 1), (3, 2)):
            report = transmissions(res.params_at(*idx))
            assert res.t12[idx] == pytest.approx(report.t12, rel=1e-12)
            assert res.t21[idx] == pytest.approx(report.t21, rel=1e-12)
            assert res.report_at(*idx).i_abs_db == pytest.approx(
                report.i_abs_db, abs=1e-10)

    def test_normalized_axis_scales_physical_values(self, base_params):
        ax = Axis(SweepParameter.DELTA_F, -4.0, 4.0, 9,
                  normalization=SweepParameter.GAMMA_M)
        res = sweep(base_params, [ax])
        np.testing.assert_allclose(res.axis_values[0], ax.values())
        np.testing.assert_allclose(res.delta_f_mhz, 4.0 * ax.values())
        assert list(res.meta["axis_labels"]) == ["delta_f/gamma_m"]

    def test_squeeze_axis_matches_manual_substitution(self, base_params):
        ax = Axis(SweepParameter.SQUEEZE, 0.0, 1.0, 5)
        res = sweep(with_delta_f(base_params, 20.0), [ax])
        for k, g in enumerate(ax.values()):
            manual = dataclasses.replace(
                with_delta_f(base_params, 20.0),
                squeeze=SqueezeSpec.direct(float(g), 0.0))
            report = transmissions(manual)
            assert res.t12[k] == pytest.approx(report.t12, rel=1e-12)
            assert res.i_signed_db[k] == pytest.approx(report.i_signed_db,
                                                       abs=1e-10)

    def test_rejects_bad_axes(self, base_params):
        with pytest.raises(SweepError):
            sweep(base_params, [])
        with pytest.raises(SweepError):
            sweep(base_params, [Axis(SweepParameter.DELTA_F, 0, 1, 3)] * 3)
        with pytest.raises(SweepError):
            sweep(base_params, [Axis(SweepParameter.GAMMA_M, 1, 2, 3),
                                Axis(SweepParameter.GAMMA_M, 3, 4, 3)])

    def test_rejects_invalid_base(self, base_params):
        bad = dataclasses.replace(base_params, g0_1_mhz=-5.0)
        with pytest.raises(SweepError):
            sweep(bad, [Axis(SweepParameter.DELTA_F, -1.0, 1.0, 3)])


class TestErrorMasking:
    def test_nonpositive_rates_are_masked(self, base_params):
        ax = Axis(SweepParameter.GAMMA_M, -2.0, 6.0, 5)  # -2, 0, 2, 4, 6
        res = sweep(base_params, [ax])
        assert res.error_code_at(0) == "RATE_POSITIVE"
        assert res.error_code_at(1) == "RATE_POSITIVE"
        assert res.error_code_at(2) is None
        assert np.isnan(res.t12[:2]).all()
        assert np.isfinite(res.t12[2:]).all()
        assert list(res.directions()[:2]) == ["", ""]

    def test_all_points_failing_raises(self, base_params):
        ax = Axis(SweepParameter.GAMMA_M, -5.0, -1.0, 3)
        with pytest.raises(SweepError):
            sweep(base_params, [ax])

    @pytest.mark.parametrize("output", ["backward", "forward"])
    def test_vanishing_backward_is_informational(self, base_params, output):
        p = SweepParameter
        if output == "backward":  # g_2 = 0 at the first point
            res = sweep(with_delta_f(base_params, 10.0),
                        [Axis(p.COUPLING_RATIO, 0.0, 1.0, 3)])
            assert res.error_code_at(1) is None
            vanished = np.array([True, False, False])
        else:  # g_1 = 0: every point is INF_ISOLATION, and sweep() returns
            res = sweep(dataclasses.replace(with_delta_f(base_params, 10.0),
                                            g0_1_mhz=0.0),
                        [Axis(p.DELTA_F, -10.0, 10.0, 3),
                         Axis(p.DELTA, -10.0, 10.0, 3)])
            vanished = np.ones((3, 3), dtype=bool)
        infinite = {"backward": np.inf, "forward": -np.inf}[output]
        assert np.all(res.i_signed_db[vanished] == infinite)
        assert np.all(res.ratio[vanished]
                      == {"backward": np.inf, "forward": 0.0}[output])
        assert [res.error_code_at(*idx) for idx in np.argwhere(vanished)] \
            == ["INF_ISOLATION"] * int(vanished.sum())
        # Both values are kept, and the point does not count as failed.
        assert np.isfinite(res.t12).all() and np.isfinite(res.t21).all()
        assert res.n_failed == 0

    def test_first_code_wins(self, base_params):
        # g_2 = -1e308 * g_1 overflows to -inf: the point is
        # COUPLING_NEGATIVE before it is NONFINITE, and rows with
        # gamma_m <= 0 are RATE_POSITIVE before either.
        ratio = Axis(SweepParameter.COUPLING_RATIO, -1e308, 1.0, 3)
        gamma = Axis(SweepParameter.GAMMA_M, -1.0, 3.0, 5)  # -1, 0, 1, 2, 3
        res = sweep(with_delta_f(base_params, 10.0), [ratio, gamma])
        assert [[res.error_code_at(i, j) or "" for j in range(5)]
                for i in range(3)] == [
            ["RATE_POSITIVE"] * 2 + ["COUPLING_NEGATIVE"] * 3,
            ["RATE_POSITIVE"] * 2 + ["COUPLING_NEGATIVE"] * 3,
            ["RATE_POSITIVE"] * 2 + [""] * 3,
        ]

    def test_error_codes_is_a_read_only_view_of_the_code_array(
            self, base_params):
        res = sweep(base_params, [Axis(SweepParameter.DELTA_F, -30, 30, 9),
                                  Axis(SweepParameter.GAMMA_M, -2, 8, 7)])
        assert res.codes.dtype == np.uint8 and res.codes.shape == res.shape
        assert res.error_codes == {
            flat: CODE_NAMES[code]
            for flat, code in enumerate(res.codes.ravel().tolist()) if code}
        assert set(res.error_codes.values()) == {"RATE_POSITIVE"}
        assert res.n_failed == len(res.error_codes) == 18
        with pytest.raises(TypeError):
            res.error_codes[0] = "NONFINITE"

    @pytest.mark.parametrize("axes,codes", [
        # The kernel's g^2 terms overflow from G ~ 176 (G = 200, 300);
        # cosh(2G) itself overflows from G ~ 355 (G = 400).
        ([Axis(SweepParameter.SQUEEZE, 0.0, 400.0, 5)],
         [None, None, "OVERFLOW", "OVERFLOW", "NONFINITE"]),
        # g_2 = 1e308 * g_1 overflows in the substitution.
        ([Axis(SweepParameter.COUPLING_RATIO, 0.0, 1e308, 3)],
         ["INF_ISOLATION", "NONFINITE", "NONFINITE"]),
        # d1 * d2 * dm overflows in the kernel at |delta_f| = 1e160.
        ([Axis(SweepParameter.DELTA_F, -1e160, 1e160, 3)],
         ["OVERFLOW", None, "OVERFLOW"]),
        # At |delta_f| = 1.2e154 only the real part of d1 * d2 * dm
        # overflows; den = inf + finite j would divide both outputs to 0.
        ([Axis(SweepParameter.DELTA_F, -1.2e154, 1.2e154, 3)],
         ["OVERFLOW", None, "OVERFLOW"]),
        # Both outputs are finite and non-zero, but (T12/T21)^2 overflows.
        ([Axis(SweepParameter.COUPLING_RATIO, 0.0, 2e-200, 3)],
         ["INF_ISOLATION", "OVERFLOW", "OVERFLOW"]),
    ], ids=["squeeze", "coupling-ratio", "shift", "shift-den-real",
            "ratio-range"])
    def test_overflow_is_named_without_warnings(self, base_params, axes,
                                                codes):
        # Leaked RuntimeWarnings fail the suite (pyproject filterwarnings).
        res = sweep(with_delta_f(base_params, 10.0), axes)
        assert [res.error_code_at(k) for k in range(len(codes))] == codes
        # An OVERFLOW point is not blanked, but it counts as failed.
        overflowed = res.codes == CODE_NAMES.index("OVERFLOW")
        assert np.isfinite(res.delta_f_mhz[overflowed]).all()
        assert res.n_failed == sum(c not in (None, "INF_ISOLATION")
                                   for c in codes)

    def test_overflow_points_re_evaluate_on_the_scalar_path(self,
                                                            base_params):
        # R = (T12/T21)^2 overflows at g2_over_g1 = 1e-200 and 2e-200.
        res = sweep(with_delta_f(base_params, 10.0),
                    [Axis(SweepParameter.COUPLING_RATIO, 0.0, 2e-200, 3)])
        for k in (1, 2):
            assert res.error_code_at(k) == "OVERFLOW"
            scalar, grid = transmissions(res.params_at(k)), res.report_at(k)
            assert (scalar.ratio, scalar.i_signed_db, scalar.i_abs_db) == \
                (grid.ratio, grid.i_signed_db, grid.i_abs_db) == \
                (math.inf, math.inf, math.inf)
            assert scalar.t12 == pytest.approx(grid.t12, rel=1e-12)
            assert scalar.t21 == pytest.approx(grid.t21, rel=1e-12)
        # R underflows to 0 the other way round.
        report = transmissions(dataclasses.replace(
            with_delta_f(base_params, 10.0), g0_1_mhz=4.1e-199))
        assert (report.ratio, report.i_signed_db) == (0.0, -math.inf)

    def test_overflow_everywhere_raises(self, base_params):
        with pytest.raises(SweepError):
            sweep(base_params, [Axis(SweepParameter.DELTA_F, 1e160, 2e160, 3)])

    def test_no_transmission_keeps_its_code(self, base_params):
        # eta3 = 0 and g_2 = 0: both outputs are exactly zero.
        silent = dataclasses.replace(
            with_delta_f(base_params, 10.0),
            magnon=dataclasses.replace(base_params.magnon, eta3=0.0))
        res = sweep(silent, [Axis(SweepParameter.COUPLING_RATIO, 0.0, 1.0, 3)])
        assert res.error_code_at(0) == "NO_TRANSMISSION"
        assert res.t12[0] == 0.0 and res.t21[0] == 0.0
        assert res.error_code_at(1) is None and res.n_failed == 1


class TestDeltaFPolicies:
    def test_extremal_positive_matches_closed_form(self, base_params):
        ax = Axis(SweepParameter.GAMMA_M, 1.0, 12.0, 12)
        res = sweep(base_params, [ax],
                    delta_f_policy=DeltaFPolicy.EXTREMAL_POSITIVE)
        for k, gm in enumerate(ax.values()):
            point = apply_parameter(base_params, SweepParameter.GAMMA_M,
                                    float(gm))
            ex = extremal_fizeau_symmetric(point)
            assert res.delta_f_mhz[k] == pytest.approx(ex.delta_f_plus_mhz,
                                                       rel=1e-9)
            assert res.i_signed_db[k] == pytest.approx(ex.isolation_db,
                                                       abs=1e-8)

    def test_extremal_negative_is_the_mirror(self, base_params):
        ax = Axis(SweepParameter.GAMMA_M, 2.0, 8.0, 4)
        plus = sweep(base_params, [ax],
                     delta_f_policy=DeltaFPolicy.EXTREMAL_POSITIVE)
        minus = sweep(base_params, [ax],
                      delta_f_policy=DeltaFPolicy.EXTREMAL_NEGATIVE)
        np.testing.assert_allclose(minus.delta_f_mhz, -plus.delta_f_mhz,
                                   rtol=1e-12)
        np.testing.assert_allclose(minus.i_signed_db, -plus.i_signed_db,
                                   atol=1e-9)

    def test_band_clamps_the_shift(self):
        strong = SystemParams.symmetric(g_squeeze=1.0)  # extremum at 80.9
        ax = Axis(SweepParameter.GAMMA_M, 3.9, 4.1, 3)
        clamped = sweep(strong, [ax],
                        delta_f_policy=DeltaFPolicy.EXTREMAL_POSITIVE,
                        delta_f_band=(-65.0, 65.0))
        free = sweep(strong, [ax],
                     delta_f_policy=DeltaFPolicy.EXTREMAL_POSITIVE)
        assert np.all(clamped.delta_f_mhz == 65.0)
        assert free.delta_f_mhz[1] == pytest.approx(80.89126446739945,
                                                    rel=1e-10)
        assert np.all(free.i_signed_db > clamped.i_signed_db)

    def test_policy_conflicts_with_shift_axis(self, base_params):
        ax = Axis(SweepParameter.DELTA_F, -10.0, 10.0, 5)
        with pytest.raises(SweepError):
            sweep(base_params, [ax],
                  delta_f_policy=DeltaFPolicy.EXTREMAL_POSITIVE)

    def test_fallback_for_nonuniform_ports(self, base_params):
        lopsided = dataclasses.replace(base_params,
                                       drive=DriveAmplitudes(1.0, 1.0, 0.5))
        ax = Axis(SweepParameter.GAMMA_M, 3.0, 5.0, 3)
        res = sweep(lopsided, [ax],
                    delta_f_policy=DeltaFPolicy.EXTREMAL_POSITIVE,
                    delta_f_band=(-65.0, 65.0))
        for k, gm in enumerate(ax.values()):
            point = apply_parameter(lopsided, SweepParameter.GAMMA_M,
                                    float(gm))
            opt = brute_force_optimum(point, band=(0.0, 65.0),
                                      grid_points=301)
            assert res.delta_f_mhz[k] == pytest.approx(opt.delta_f_mhz,
                                                       abs=1e-5)
            assert abs(res.i_signed_db[k]) == pytest.approx(opt.isolation_db,
                                                            abs=1e-8)

    @pytest.mark.parametrize("policy", ["extremal_positive",
                                        "extremal_negative"])
    def test_nonuniform_ports_take_the_best_half_band_shift(self, policy):
        """Independent ports: |I| at the chosen shift is the largest a
        numeric search finds on the policy's half of the band."""
        rng = np.random.default_rng(43)
        half = (0.0, 65.0) if policy == "extremal_positive" else (-65.0, 0.0)
        for _ in range(3):
            res = sweep(random_general(rng),
                        [Axis(SweepParameter.GAMMA_M, 1.0, 10.0, 3)],
                        delta_f_policy=policy, delta_f_band=(-65.0, 65.0))
            assert res.n_failed == 0
            for k in range(3):
                opt = brute_force_optimum(res.params_at(k), band=half)
                assert half[0] <= res.delta_f_mhz[k] <= half[1]
                assert abs(res.i_signed_db[k]) == pytest.approx(
                    opt.isolation_db, abs=0.01)

    @pytest.mark.parametrize("silent", ["eps_3", "eta_3"])
    def test_no_magnon_drive_keeps_the_zero_shift(self, base_params, silent):
        """Without a magnon drive R = 1 for every shift, so the half-band
        rule keeps its first candidate, 0.  With g_2 = 0 as well both
        outputs vanish."""
        p = dataclasses.replace(with_delta_f(base_params, 10.0),
                                g0_1_mhz=30.0)
        if silent == "eps_3":
            p = dataclasses.replace(p, drive=DriveAmplitudes(1.0, 1.0, 0.0))
        else:
            p = dataclasses.replace(p, magnon=dataclasses.replace(
                p.magnon, eta3=0.0))
        res = sweep(p, [Axis(SweepParameter.COUPLING_RATIO, 0.0, 1.5, 4)],
                    delta_f_policy=DeltaFPolicy.EXTREMAL_POSITIVE,
                    delta_f_band=(-65.0, 65.0))
        assert np.all(res.delta_f_mhz == 0.0)
        assert res.error_codes == {0: "NO_TRANSMISSION"}
        np.testing.assert_allclose(res.i_signed_db[1:], 0.0, atol=1e-12)

    def test_real_shift_behind_cancellation(self):
        """g2/g1 = 5e6 and delta = (w1 + w2)/2 at gamma_m = 4: the
        discriminant is kappa^2 behind a cancellation of (w2 - w1)^2."""
        p = SystemParams.symmetric()
        p = dataclasses.replace(p, g0_2_mhz=5e6 * p.g0_1_mhz)
        eff, rt = p.effective(), math.sqrt(1.1 / 4.0)
        p = dataclasses.replace(p, delta_mhz=0.5 * (eff.g_eff_1_mhz * rt
                                                    + eff.g_eff_2_mhz * rt))
        for policy in ("extremal_positive", "extremal_negative"):
            res = sweep(p, [Axis(SweepParameter.GAMMA_M, 3.5, 4.5, 3)],
                        delta_f_policy=policy)
            assert not res.error_codes
            assert np.isfinite(res.delta_f_mhz).all()


class TestThreading:
    def test_results_do_not_depend_on_thread_count(self, base_params):
        axes = [Axis(SweepParameter.DELTA_F, -30.0, 30.0, 16),
                Axis(SweepParameter.GAMMA_M, 1.0, 9.0, 5)]
        single = sweep(base_params, axes, threads=1)
        threaded = sweep(base_params, axes, threads=3)
        for name in ("t12", "t21", "ratio", "i_signed_db", "delta_f_mhz"):
            assert getattr(single, name).tobytes() == \
                getattr(threaded, name).tobytes()
        assert single.error_codes == threaded.error_codes

    def test_env_variable_is_honored(self, base_params, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        ax = Axis(SweepParameter.DELTA_F, -5.0, 5.0, 8)
        res = sweep(base_params, [ax])
        assert res.meta["threads"] == 2


class TestPresets:
    def test_catalog(self):
        assert PRESET_NAMES == ("fig2a", "fig2b", "fig3a", "fig3b", "fig4a",
                                "fig4b", "fig5a", "fig5b", "fig6", "fig7a",
                                "fig7b")
        with pytest.raises(ValueError):
            figure_preset("fig99")

    def test_shift_scan_preset(self):
        preset, res = run_preset("fig2b")
        assert res.shape == (6401,)
        assert not res.error_codes
        k = int(np.argmax(res.i_abs_db))
        assert res.axis_values[0][k] == pytest.approx(-8.295, abs=1e-9)
        assert res.i_abs_db[k] == pytest.approx(41.63067835034355, rel=1e-9)
        assert preset.plot == "i_abs"

    def test_detuning_rows_cross_the_reciprocal_point(self):
        _, res = run_preset("fig5a")
        assert res.shape == (3, 551)
        rows = {float(v): k for k, v in enumerate(res.axis_values[0])}
        assert set(rows) == {0.0, 11.0, 22.0}
        assert np.all(res.i_signed_db[rows[0.0]] > 0.0)
        row22 = res.i_signed_db[rows[22.0]]
        assert row22.max() > 0.0 and row22.min() < 0.0

    def test_squeeze_preset_is_monotone_in_g(self):
        _, res = run_preset("fig6")
        assert res.shape == (5, 551)
        assert np.all(np.diff(res.i_abs_db, axis=0) > 0.0)

    def test_coupling_ratio_branches_have_fixed_sign(self):
        _, plus = run_preset("fig7a")
        _, minus = run_preset("fig7b")
        assert np.all(plus.i_signed_db > 0.0)
        assert np.all(minus.i_signed_db < 0.0)
