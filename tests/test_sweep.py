"""Tests for grid sweeps, shift policies, error masking and presets."""

import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from magnon_sagnac import (
    Axis,
    ConfigError,
    DeltaFPolicy,
    DriveAmplitudes,
    PRESET_NAMES,
    SqueezeSpec,
    SweepError,
    SweepParameter,
    SystemParams,
    apply_overrides,
    apply_parameter,
    brute_force_optimum,
    extremal_fizeau_general,
    figure_preset,
    parse_config,
    run_preset,
    sweep,
    transmission_grid,
    transmissions,
    validate,
    with_delta_f,
)
from magnon_sagnac.analysis import stationary_shifts
from magnon_sagnac.serialize import csv_text
from magnon_sagnac.steady_state import kernel_args
from magnon_sagnac.sweep import CODE_NAMES, _INPUT_CHECKS

from conftest import random_general, random_symmetric
from test_cli import _MAGNITUDE, _SET_VALUES

# The package exports the function sweep under its submodule's name.
sweep_module = importlib.import_module("magnon_sagnac.sweep")
_COLUMNS = ("t12", "t21", "ratio", "i_signed_db", "delta_f_mhz", "codes")

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
        for start, stop, count in [(1.0, 12.0, 1), (5.0, 5.0, 11),
                                   (9.0, 5.0, 11), (1.0, 2.0, 2.5),
                                   (1.0, 2.0, 3.0)]:
            with pytest.raises(ValueError):
                Axis(SweepParameter.GAMMA_M, start, stop, count)
        assert Axis(SweepParameter.GAMMA_M, 1.0, 2.0, np.int64(3)).count == 3

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
        assert sweep_module._QUANTITIES[parameter].get(updated) == \
            pytest.approx(value, rel=1e-12)

    def test_kappa_rewrite_preserves_eta(self, base_params):
        updated = apply_parameter(base_params, SweepParameter.KAPPA, 0.3)
        for mode in (updated.mode_1, updated.mode_2):
            assert mode.kappa_mhz == 0.3
            assert mode.eta == pytest.approx(0.5, rel=1e-12)

    def test_squeeze_axis_sweeps_a_pump_built_base(self, base_params):
        """A pump-built squeeze stores G as a number, so a G axis replaces
        it as in a direct one and keeps the pump's omega_s."""
        spec = SqueezeSpec.from_pump(10.0, 5.0)
        pumped = dataclasses.replace(base_params, squeeze=spec)
        assert sweep_module._QUANTITIES[SweepParameter.SQUEEZE].get(pumped) \
            == spec.g_squeeze
        assert apply_parameter(pumped, SweepParameter.SQUEEZE, 0.3).squeeze \
            == SqueezeSpec(0.3, spec.omega_s_mhz)
        res = sweep(with_delta_f(pumped, 20.0),
                    [Axis(SweepParameter.SQUEEZE, 0.0, 1.0, 5)])
        assert res.n_failed == 0
        for k in range(5):
            report = transmissions(res.params_at(k))
            assert res.t12[k] == pytest.approx(report.t12, rel=1e-12)
            assert res.t21[k] == pytest.approx(report.t21, rel=1e-12)


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
                squeeze=SqueezeSpec(float(g), 0.0))
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

    @pytest.mark.parametrize("band", [(1.0, 0.0), (0.0, 0.0)])
    def test_rejects_an_empty_delta_f_band(self, base_params, band):
        with pytest.raises(SweepError, match="delta_f_band must satisfy"):
            sweep(base_params, [Axis(SweepParameter.GAMMA_M, 1.0, 2.0, 3)],
                  delta_f_policy="extremal_positive", delta_f_band=band)

    def test_grid_size_is_bounded_before_allocation(self, base_params):
        huge = [Axis(SweepParameter.DELTA_F, -1.0, 1.0, 10**6),
                Axis(SweepParameter.GAMMA_M, 1.0, 2.0, 10**6)]
        tracemalloc.start()
        try:
            with pytest.raises(SweepError, match=(
                    f"{10**12} points, more than the limit of "
                    f"{sweep_module._MAX_POINTS}")):
                sweep(base_params, huge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rejects_invalid_base(self, base_params):
        bad = dataclasses.replace(base_params, g0_1_mhz=-5.0)
        with pytest.raises(SweepError):
            sweep(bad, [Axis(SweepParameter.DELTA_F, -1.0, 1.0, 3)])

    def test_rejects_a_silent_optical_drive(self, base_params):
        dark = dataclasses.replace(base_params,
                                   drive=DriveAmplitudes(0.0, 1.0, 1.0))
        with pytest.raises(SweepError) as caught:
            sweep(dark, [Axis(SweepParameter.GAMMA_M, 1.0, 2.0, 3)])
        assert str(caught.value) == "optical drive amplitudes must be positive"


# Extreme configs as the CLI property draws them, or 0, and a pump-built
# squeeze for about half of them.
@st.composite
def _extreme_bases(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_SET_VALUES)), min_size=1,
                         max_size=3, unique=True))
    try:
        params = parse_config(apply_overrides(
            {}, [f"{key}={json.dumps(draw(_SET_VALUES[key] | st.just(0)))}"
                 for key in keys])).params
    except ConfigError:
        reject()
    if draw(st.booleans()):
        e_pump, delta_m = sorted((draw(_MAGNITUDE), draw(_MAGNITUDE)), key=abs)
        assume(abs(e_pump) < abs(delta_m))
        params = dataclasses.replace(
            params, squeeze=SqueezeSpec.from_pump(delta_m, e_pump))
    return params


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(base=_extreme_bases())
def test_valid_bases_pass_every_scalar_input_check(base):
    """sweep() tests only the kernel arguments its axes replace: those it
    keeps from a base that validate() passed must pass every input check."""
    if validate(base):
        return
    args = kernel_args(base)
    for name, keys, test in _INPUT_CHECKS:
        for key in keys:
            assert not test(args[key]), (name, key, args[key])


class TestErrorMasking:
    def test_nonpositive_rates_are_masked(self, base_params):
        ax = Axis(SweepParameter.GAMMA_M, -2.0, 6.0, 5)  # -2, 0, 2, 4, 6
        res = sweep(base_params, [ax])
        assert [CODE_NAMES[c] for c in res.codes[:3]] == \
            ["RATE_POSITIVE", "RATE_POSITIVE", ""]
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
            assert CODE_NAMES[res.codes[1]] == ""
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
        assert [CODE_NAMES[c] for c in res.codes[vanished]] \
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
        assert [[CODE_NAMES[c] for c in row] for row in res.codes] == [
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
         ["", "", "OVERFLOW", "OVERFLOW", "NONFINITE"]),
        # g_2 = 1e308 * g_1 overflows in the substitution.
        ([Axis(SweepParameter.COUPLING_RATIO, 0.0, 1e308, 3)],
         ["INF_ISOLATION", "NONFINITE", "NONFINITE"]),
        # d1 * d2 * dm overflows in the kernel at |delta_f| = 1e160.
        ([Axis(SweepParameter.DELTA_F, -1e160, 1e160, 3)],
         ["OVERFLOW", "", "OVERFLOW"]),
        # At |delta_f| = 1.2e154 only the real part of d1 * d2 * dm
        # overflows; den = inf + finite j would divide both outputs to 0.
        ([Axis(SweepParameter.DELTA_F, -1.2e154, 1.2e154, 3)],
         ["OVERFLOW", "", "OVERFLOW"]),
        # Both outputs are finite and non-zero, but (T12/T21)^2 overflows.
        ([Axis(SweepParameter.COUPLING_RATIO, 0.0, 2e-200, 3)],
         ["INF_ISOLATION", "OVERFLOW", "OVERFLOW"]),
        # 7.5e307 and 1.5e308 linewidths overflow in the axis scaling.
        ([Axis(SweepParameter.DELTA_F, 0.0, 1.5e308, 3,
               normalization=SweepParameter.GAMMA_M)],
         ["", "NONFINITE", "NONFINITE"]),
    ], ids=["squeeze", "coupling-ratio", "shift", "shift-den-real",
            "ratio-range", "normalized-shift"])
    def test_overflow_is_named_without_warnings(self, base_params, axes,
                                                codes):
        # Leaked RuntimeWarnings fail the suite (pyproject filterwarnings).
        res = sweep(with_delta_f(base_params, 10.0), axes)
        assert [CODE_NAMES[c] for c in res.codes] == codes
        # An OVERFLOW point is not blanked, but it counts as failed.
        overflowed = res.codes == CODE_NAMES.index("OVERFLOW")
        assert np.isfinite(res.delta_f_mhz[overflowed]).all()
        assert res.n_failed == sum(c not in ("", "INF_ISOLATION")
                                   for c in codes)

    def test_overflow_points_re_evaluate_on_the_scalar_path(self,
                                                            base_params):
        # R = (T12/T21)^2 overflows at g2_over_g1 = 1e-200 and 2e-200.
        res = sweep(with_delta_f(base_params, 10.0),
                    [Axis(SweepParameter.COUPLING_RATIO, 0.0, 2e-200, 3)])
        for k in (1, 2):
            assert CODE_NAMES[res.codes[k]] == "OVERFLOW"
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
        assert CODE_NAMES[res.codes[0]] == "NO_TRANSMISSION"
        assert res.t12[0] == 0.0 and res.t21[0] == 0.0
        assert CODE_NAMES[res.codes[1]] == "" and res.n_failed == 1


class TestDeltaFPolicies:
    def test_extremal_positive_matches_closed_form(self, base_params):
        ax = Axis(SweepParameter.GAMMA_M, 1.0, 12.0, 12)
        res = sweep(base_params, [ax],
                    delta_f_policy=DeltaFPolicy.EXTREMAL_POSITIVE)
        for k, gm in enumerate(ax.values()):
            point = apply_parameter(base_params, SweepParameter.GAMMA_M,
                                    float(gm))
            ex = extremal_fizeau_general(point)
            assert res.delta_f_mhz[k] == pytest.approx(ex.delta_f_plus_mhz,
                                                       rel=1e-9)
            assert res.i_signed_db[k] == pytest.approx(ex.isolation_plus_db,
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

    def test_unclamped_shift_leaves_the_feasible_band_for_any_ports(self):
        """Without a band the shift is not held to FEASIBLE_FIZEAU_BAND on
        non-uniform ports either: a magnon drive 0.1% below the optical
        ones moves the shift by under 0.1 MHz."""
        strong = SystemParams.symmetric(g_squeeze=1.0)
        lopsided = dataclasses.replace(strong,
                                       drive=DriveAmplitudes(1.0, 1.0, 0.999))
        ax = Axis(SweepParameter.GAMMA_M, 3.9, 4.1, 3)
        twin, res = (sweep(p, [ax], delta_f_policy="extremal_positive")
                     for p in (strong, lopsided))
        np.testing.assert_allclose(res.delta_f_mhz, [82.00, 80.97, 79.98],
                                   atol=0.01)
        np.testing.assert_allclose(res.delta_f_mhz, twin.delta_f_mhz,
                                   atol=0.1)

    def test_no_policy_gives_a_shift_of_the_wrong_sign(self):
        """Each extremal policy keeps its shift on its own side of 0, on
        uniform and non-uniform bases, clamped or not.  The larger
        (smaller) stationary root has the other sign at thousands of points
        of this grid when g1 != g2."""
        axes = [Axis(SweepParameter.COUPLING_RATIO, 0.2, 5.0, 300),
                Axis(SweepParameter.DELTA, -40.0, 40.0, 300)]
        bases = {"uniform": SystemParams.symmetric(),
                 "general": random_general(np.random.default_rng(12))}
        wrong = {}
        for (name, base), band in itertools.product(bases.items(),
                                                    (None, (-65.0, 65.0))):
            for policy, sign in (("extremal_positive", 1.0),
                                 ("extremal_negative", -1.0)):
                res = sweep(base, axes, delta_f_policy=policy,
                            delta_f_band=band)
                wrong[name, policy, band] = int(np.count_nonzero(
                    sign * res.delta_f_mhz < 0.0))
        assert wrong == dict.fromkeys(wrong, 0)

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
            opt = brute_force_optimum(point, band=(0.0, 65.0))
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


def _blocking_cases():
    p = SweepParameter
    base = SystemParams.symmetric()
    shifted = with_delta_f(base, 10.0)
    strong = SystemParams.symmetric(g_squeeze=1.0)  # extremum beyond 65
    general = random_general(np.random.default_rng(7))
    silent = dataclasses.replace(shifted, magnon=dataclasses.replace(
        base.magnon, eta3=0.0))
    band = (-65.0, 65.0)
    rows13 = Axis(p.DELTA_F, -30.0, 30.0, 13)
    return {
        # Rows 0-5 of 11 are RATE_POSITIVE, across the 4-row block edge.
        "fixed-2d-rate": (base, [Axis(p.GAMMA_M, -5.0, 5.0, 11), rows13],
                          "fixed", None),
        "fixed-1d-rate": (shifted, [Axis(p.GAMMA_M, -10.0, 6.0, 17)],
                          "fixed", None),
        # G >= 200 overflows in the kernel, G >= 375 (rows 15-16) in cosh.
        "fixed-2d-nonfinite": (shifted, [Axis(p.SQUEEZE, 0.0, 400.0, 17),
                                         Axis(p.DELTA, -10.0, 10.0, 13)],
                               "fixed", None),
        "fixed-1d-nonfinite": (shifted,
                               [Axis(p.COUPLING_RATIO, 0.0, 1e308, 17)],
                               "fixed", None),
        "overflow": (shifted, [Axis(p.DELTA_F, -1.2e154, 1.2e154, 3)],
                     "fixed", None),
        "no-transmission": (silent, [Axis(p.COUPLING_RATIO, 0.0, 1.0, 3)],
                            "fixed", None),
        "inf-isolation": (dataclasses.replace(shifted, g0_1_mhz=0.0),
                          [Axis(p.DELTA_F, -10.0, 10.0, 3),
                           Axis(p.DELTA, -10.0, 10.0, 3)], "fixed", None),
        "positive-clamped": (strong, [Axis(p.GAMMA_M, 2.0, 6.0, 9),
                                      Axis(p.DELTA, -10.0, 10.0, 13)],
                             "extremal_positive", band),
        "negative-clamped-1d": (strong, [Axis(p.GAMMA_M, 1.0, 12.0, 17)],
                                "extremal_negative", band),
        "negative-unclamped": (base, [Axis(p.DELTA, -20.0, 20.0, 10),
                                      Axis(p.GAMMA_M, 1.0, 12.0, 13)],
                               "extremal_negative", None),
        "masked-clamped": (strong, [Axis(p.COUPLING_RATIO, -1.0, 2.0, 7),
                                    Axis(p.GAMMA_M, 2.0, 6.0, 13)],
                           "extremal_positive", band),
        "nonuniform-positive": (general, [Axis(p.GAMMA_M, 1.0, 10.0, 9),
                                          Axis(p.DELTA, -10.0, 10.0, 13)],
                                "extremal_positive", band),
        "nonuniform-negative": (general, [Axis(p.GAMMA_M, 1.0, 10.0, 9),
                                          Axis(p.DELTA, -10.0, 10.0, 13)],
                                "extremal_negative", None),
    }


_BLOCKING_CASES = _blocking_cases()


class TestBlocks:
    @pytest.mark.parametrize("case", list(_BLOCKING_CASES))
    def test_blocking_changes_no_bit(self, monkeypatch, case):
        base, axes, policy, band = _BLOCKING_CASES[case]

        def run(block):
            monkeypatch.setattr(sweep_module, "_BLOCK", block)
            return sweep(base, axes, delta_f_policy=policy,
                         delta_f_band=band)

        whole = run(1 << 30)
        for block in (1, 7, 64):
            blocked = run(block)
            for name in _COLUMNS:
                assert getattr(blocked, name).tobytes() == \
                    getattr(whole, name).tobytes(), (name, block)
            for key in ("code_counts", "n_clamped"):
                assert blocked.meta[key] == whole.meta[key]

    def test_threads_keyword_is_ignored(self):
        """perfbench still passes threads=2 (ROADMAP item 1); the keyword
        binds and changes no bit."""
        base, axes, policy, band = _BLOCKING_CASES["masked-clamped"]
        plain = sweep(base, axes, delta_f_policy=policy, delta_f_band=band)
        threaded = sweep(base, axes, delta_f_policy=policy,
                         delta_f_band=band, threads=2)
        for name in _COLUMNS:
            assert getattr(threaded, name).tobytes() == \
                getattr(plain, name).tobytes(), name
        for key in ("code_counts", "n_clamped"):
            assert threaded.meta[key] == plain.meta[key]
        assert "threads" not in threaded.meta

    def test_broadcast_root_changes_no_bit(self):
        # Over an omega_s axis the extremal shift is one value, which
        # sweep() hands to the kernel as a broadcast (stride-0) array.  It
        # gives the same bits as a full copy.
        rng = np.random.default_rng(3)
        for base in [SystemParams.symmetric(),
                     *(random_symmetric(rng) for _ in range(5))]:
            args = dict(kernel_args(base),
                        omega_s=np.linspace(-50.0, 50.0, 1001))
            for root in stationary_shifts(**args):
                shift = np.broadcast_to(root, (1001,))
                strided = transmission_grid(**dict(args, delta_f=shift))
                full = transmission_grid(**dict(args, delta_f=shift.copy()))
                assert [a.tobytes() for a in strided] == \
                    [a.tobytes() for a in full]

    @pytest.mark.parametrize("policy,axes", [
        ("fixed", [Axis(SweepParameter.DELTA_F, -40.0, 40.0, 1000),
                   Axis(SweepParameter.GAMMA_M, 1.0, 9.0, 1000)]),
        ("extremal_positive", [Axis(SweepParameter.DELTA, -10.0, 10.0, 1000),
                               Axis(SweepParameter.GAMMA_M, 1.0, 9.0, 1000)]),
    ], ids=["fixed", "extremal"])
    def test_peak_memory_stays_near_the_results(self, base_params, policy,
                                                axes):
        tracemalloc.start()
        try:
            res = sweep(base_params, axes, delta_f_policy=policy,
                        delta_f_band=(-65.0, 65.0)
                        if policy != "fixed" else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sum(getattr(res, name).nbytes
                                for name in _COLUMNS)


# The first 128 bits of the sha256 of csv_text for small sweeps, recorded
# while sweep() still substituted full meshgrid views: substituting each
# axis as a broadcastable slice changes no byte.  FIXED 7x5 sweeps over
# every ordered pair of parameters, and an extremal sweep whose shift is
# one value per block (handed to the kernel as a 0-d array, it changes
# the last bits of some points).
_PINNED_CSV = {
    "delta_f-gamma_m": "c41a712774ab2702fc7703b0371c60e0",
    "delta_f-kappa": "3f2ebe7a8ffa0dca0382637838f74c40",
    "delta_f-delta": "da03d1e0b173f9c33ebb46261849c117",
    "delta_f-G": "f90557616b30c5b8cd9036554166af9e",
    "delta_f-g2_over_g1": "9e3f713143ced4a8dfe8b9208f05ac0c",
    "delta_f-omega_s": "11015fb7cacbfa7fdd1fe3a18955ec79",
    "gamma_m-delta_f": "a70dcda86414924e19d49d873fc81817",
    "gamma_m-kappa": "309216555d9eb2d05d2c08683ebe3123",
    "gamma_m-delta": "f5aa6343b84d43c6589ca6d02b1ab0ef",
    "gamma_m-G": "e59c8983259be852e882f4912dfb95b1",
    "gamma_m-g2_over_g1": "a2a5a24b9a079494c6b8b47bbade9ea9",
    "gamma_m-omega_s": "d507ceb28ded847f15972d9fb9ece565",
    "kappa-delta_f": "840c4defe7550d5ef3dca876f1926b30",
    "kappa-gamma_m": "061c922b90cab8c39067d4e68bdcf5c7",
    "kappa-delta": "faded4f74fdab2f0d85e4af7151730ec",
    "kappa-G": "8cc2d27f288f64a27e011f8d0a35f45f",
    "kappa-g2_over_g1": "92707edbb518910a5acfae72b8d65245",
    "kappa-omega_s": "33807391ba13b9f5c08988583f3f9963",
    "delta-delta_f": "d5d2cde9ad627929fa234ba1e4490159",
    "delta-gamma_m": "fc83bc04c1c15e3770dd954eddea864f",
    "delta-kappa": "e5fc5be5a68e779a65d941f73f3b8e52",
    "delta-G": "b7848f747ddc7435eefb0fc47fa379bf",
    "delta-g2_over_g1": "cd6d5b3987c387c6cf4020db771a97fd",
    "delta-omega_s": "d104d9debd355bd2de86ae48b856700d",
    "G-delta_f": "26ade7b4f4a48fa9e896834e82af8c4e",
    "G-gamma_m": "99e84deee17b2a1f54863291f5a369ca",
    "G-kappa": "c82c8ecbb36d2baf4fa10c4558e682cb",
    "G-delta": "ecbb9413b29511aa9a332add11f7e76f",
    "G-g2_over_g1": "0b3cbaaa47ed0ca43853ab176f5e9b89",
    "G-omega_s": "f968aa92942bd020c91fc75c9ad18f35",
    "g2_over_g1-delta_f": "d194ac356aef04b28b5fe4b9eeefd6a5",
    "g2_over_g1-gamma_m": "ac98a4494a148ed89540840399ded748",
    "g2_over_g1-kappa": "414e1ca3d3eeb12c77b3aa474200db75",
    "g2_over_g1-delta": "3036252151d6395a68bab2335e1d08e4",
    "g2_over_g1-G": "e138edc6d688877daebe25db55dc91f3",
    "g2_over_g1-omega_s": "c49cd6d8a13c74e37a7f6d1c70ee9899",
    "omega_s-delta_f": "56772835736056c47285dedb48a33d8b",
    "omega_s-gamma_m": "f8a2a8999a9016cfefcdbfacf545b06f",
    "omega_s-kappa": "e325b32c7bc7c16cec0861c4b45d1b9e",
    "omega_s-delta": "2f5e83fc6bd91b339ba5c680bef0ad7b",
    "omega_s-G": "c6f05ee5003bd26398025a46c3f71e27",
    "omega_s-g2_over_g1": "c822aa184d6a9ac4defeec38bcea710f",
    "extremal-omega_s": "5cb71ada2a1e5b3211e20241bee224d3",
}


@pytest.mark.parametrize("case", list(_PINNED_CSV))
def test_csv_bytes_are_pinned(base_params, case):
    if case == "extremal-omega_s":
        lopsided = dataclasses.replace(base_params,
                                       drive=DriveAmplitudes(1.0, 1.0, 0.5))
        res = sweep(lopsided, [Axis(SweepParameter.OMEGA_S, -40.0, 50.0, 40)],
                    delta_f_policy="extremal_positive",
                    delta_f_band=(-65.0, 65.0))
    else:
        first, second = map(SweepParameter, case.split("-"))
        res = sweep(with_delta_f(base_params, 12.0),
                    [Axis(first, *_VALID_RANGES[first], 7),
                     Axis(second, *_VALID_RANGES[second], 5)])
    digest = hashlib.sha256(csv_text(res).encode("ascii")).hexdigest()
    assert digest[:32] == _PINNED_CSV[case]


class TestRunRecord:
    def test_clamped_preset(self):
        preset, res = run_preset("fig5a")
        free = sweep(preset.base, preset.axes,
                     delta_f_policy=preset.delta_f_policy)
        lo, hi = preset.delta_f_band
        outside = (free.delta_f_mhz < lo) | (free.delta_f_mhz > hi)
        assert res.meta["n_clamped"] == np.count_nonzero(outside) > 0
        assert res.meta["code_counts"] == {}

    def test_masked_grids(self, base_params):
        fixed = sweep(base_params, [Axis(SweepParameter.DELTA_F, -30, 30, 9),
                                    Axis(SweepParameter.GAMMA_M, -2, 8, 7)])
        assert fixed.meta["code_counts"] == {"RATE_POSITIVE": 18}
        assert fixed.meta["n_clamped"] == 0
        # Negative couplings are blanked, and their out-of-band shifts are
        # not counted as clamped.  At g2_over_g1 = 0 |I| is infinite at
        # every shift, so those 13 points keep the shift 0: the band edge
        # is chosen only on the 4 rows g2_over_g1 = 0.5 .. 2.
        base, axes, policy, band = _BLOCKING_CASES["masked-clamped"]
        res = sweep(base, axes, delta_f_policy=policy, delta_f_band=band)
        free = sweep(base, axes, delta_f_policy=policy)
        assert res.meta["code_counts"] == {"COUPLING_NEGATIVE": 26,
                                           "INF_ISOLATION": 13}
        assert res.meta["n_clamped"] == np.count_nonzero(
            free.delta_f_mhz > band[1]) == 4 * 13
        assert np.all(res.delta_f_mhz[2] == 0.0)


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
