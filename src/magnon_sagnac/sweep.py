"""Parameter sweeps over the steady-state transmissions.

Grids are evaluated through the vectorized closed-form kernel in
:mod:`.steady_state`, one or two axes at a time, from one table of what
each :class:`SweepParameter` means.  Points that fail validation
(non-positive damping rate, unstable squeezing input, overflow,
vanishing transmission) get a code in a ``uint8`` array over the grid;
only a sweep in which every point fails raises.

The Fizeau shift can either be held at the base value (or swept as an
axis) or re-optimized per grid point through ``delta_f_policy``, from
the closed-form stationary shifts of :func:`.stationary_shifts`: with
uniform ports the root of the chosen sign, otherwise the shift of
largest |I| on that sign's half of the band.  A clamp band, when given,
bounds the shift.

Results are deterministic: rerunning a sweep with any thread count gives
bitwise identical arrays.  ``MAGNON_SAGNAC_THREADS`` (or the ``threads``
argument) chunks the leading axis across a thread pool, which only pays
off for large two-dimensional grids.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .model import (FEASIBLE_FIZEAU_BAND, CavityMode, SqueezeMode,
                    SystemParams, has_uniform_ports, validate, with_delta_f)
from .steady_state import TransmissionReport, kernel_args, transmission_grid
from .analysis import isolation_ratio, stationary_shifts
# Not called here; perfbench/spans.py wraps this name for --trace 1.
from .analysis import brute_force_optimum  # noqa: F401

THREADS_ENV_VAR = "MAGNON_SAGNAC_THREADS"

# Per-point codes in precedence order: a point keeps the first that applies.
# The codes up to NONFINITE, found before the kernel runs, set the point's
# columns to nan.  All but INF_ISOLATION count as failed.
CODE_NAMES = ("", "RATE_POSITIVE", "COUPLING_NEGATIVE", "NONFINITE",
              "OVERFLOW", "NO_TRANSMISSION", "INF_ISOLATION")
_INF_ISOLATION = CODE_NAMES.index("INF_ISOLATION")


class SweepError(Exception):
    """Sweep configuration is unusable or every grid point failed."""


class SweepParameter(Enum):
    DELTA_F = "delta_f"
    GAMMA_M = "gamma_m"
    KAPPA = "kappa"
    DELTA = "delta"
    SQUEEZE = "G"
    COUPLING_RATIO = "g2_over_g1"
    OMEGA_S = "omega_s"


class DeltaFPolicy(Enum):
    FIXED = "fixed"
    EXTREMAL_POSITIVE = "extremal_positive"
    EXTREMAL_NEGATIVE = "extremal_negative"


@dataclass(frozen=True)
class _Quantity:
    """How one sweepable quantity is read, written and fed to the kernel."""

    get: Callable[[SystemParams], float]
    set: Callable[[SystemParams, float], SystemParams]
    kernel: Callable[[dict, SystemParams, np.ndarray], dict]  # args to replace
    direct_only: bool = False  # defined with DIRECT squeezing only


def _squeezed_couplings(args: dict, base: SystemParams, grid) -> dict:
    # The squeezed-frame drive eps_3_eff is part of the base and is
    # deliberately not rescaled along a squeeze axis.
    ch = np.cosh(2.0 * grid)
    return {"g_1": base.g0_1_mhz * ch, "g_2": base.g0_2_mhz * ch}


# Table order is substitution order: a squeeze axis is substituted before
# a coupling-ratio axis so the ratio acts on the squeeze-enhanced value.
_QUANTITIES = {
    SweepParameter.DELTA_F: _Quantity(
        lambda p: p.delta_f_mhz, lambda p, v: replace(p, delta_f_mhz=v),
        lambda args, base, grid: {"delta_f": grid}),
    SweepParameter.GAMMA_M: _Quantity(
        lambda p: p.magnon.gamma_m_mhz,
        lambda p, v: replace(p, magnon=replace(p.magnon, gamma_m_mhz=v)),
        lambda args, base, grid: {"gamma_m": grid}),
    SweepParameter.KAPPA: _Quantity(
        lambda p: p.mode_1.kappa_mhz,
        lambda p, v: replace(p, mode_1=CavityMode.from_eta(v, p.mode_1.eta),
                             mode_2=CavityMode.from_eta(v, p.mode_2.eta)),
        lambda args, base, grid: {"kappa_1": grid, "kappa_2": grid}),
    SweepParameter.DELTA: _Quantity(
        lambda p: p.delta_mhz, lambda p, v: replace(p, delta_mhz=v),
        lambda args, base, grid: {"delta": grid}),
    SweepParameter.SQUEEZE: _Quantity(
        lambda p: p.squeeze.g_squeeze,
        lambda p, v: replace(p, squeeze=replace(p.squeeze, g_squeeze=v)),
        _squeezed_couplings, direct_only=True),
    SweepParameter.COUPLING_RATIO: _Quantity(
        lambda p: p.g0_2_mhz / p.g0_1_mhz,
        lambda p, v: replace(p, g0_2_mhz=v * p.g0_1_mhz),
        lambda args, base, grid: {"g_2": grid * np.asarray(args["g_1"])}),
    SweepParameter.OMEGA_S: _Quantity(
        lambda p: p.effective().omega_s_mhz,
        lambda p, v: replace(p, squeeze=replace(p.squeeze,
                                                omega_s_override_mhz=v)),
        lambda args, base, grid: {"omega_s": grid}),
}


def _quantity(params: SystemParams, parameter: SweepParameter) -> _Quantity:
    quantity = _QUANTITIES[parameter]
    if quantity.direct_only and params.squeeze.mode is not SqueezeMode.DIRECT:
        raise SweepError("the squeeze exponent requires DIRECT squeezing")
    return quantity


@dataclass(frozen=True)
class Axis:
    """One sweep axis: ``count`` uniform steps from ``start`` to ``stop``.

    With ``normalization`` set, axis values are dimensionless multiples of
    the *base* magnon or optical linewidth (the base one even when that
    same linewidth is swept on the other axis); the CSV columns report the
    normalized values while the physics uses values * divisor.
    """

    parameter: SweepParameter
    start: float
    stop: float
    count: int
    normalization: SweepParameter | None = None

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError("axis needs at least 2 points")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("axis bounds must be finite")
        if not self.start < self.stop:
            raise ValueError("axis start must lie below stop")
        if self.normalization not in (None, SweepParameter.GAMMA_M,
                                      SweepParameter.KAPPA):
            raise ValueError("normalization divisor must be gamma_m or kappa")

    def values(self) -> np.ndarray:
        """Axis values as written to output files (normalized units)."""
        return np.linspace(self.start, self.stop, self.count)

    def scale(self, base: SystemParams) -> float:
        return (1.0 if self.normalization is None
                else parameter_value(base, self.normalization))

    def label(self) -> str:
        return (self.parameter.value if self.normalization is None
                else f"{self.parameter.value}/{self.normalization.value}")


def apply_parameter(params: SystemParams, parameter: SweepParameter,
                    value: float) -> SystemParams:
    """Copy of ``params`` with one physical quantity replaced."""
    return _quantity(params, parameter).set(params, value)


def parameter_value(params: SystemParams, parameter: SweepParameter) -> float:
    """Current value of a sweepable quantity, mirror of apply_parameter."""
    return _quantity(params, parameter).get(params)


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        raw = os.environ.get(THREADS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer, "
                             f"got {raw!r}") from None
    if threads < 0:
        raise ValueError("thread count must be >= 0 (0 means single pass)")
    return threads if threads > 1 else 1


def _evaluate_grid(kernel_args: dict, shape: tuple[int, ...], n_threads: int):
    if n_threads <= 1 or shape[0] < 2 * n_threads:
        out = transmission_grid(**kernel_args)
    else:
        full = {k: np.broadcast_to(np.asarray(v), shape)
                for k, v in kernel_args.items()}
        bounds = np.linspace(0, shape[0], n_threads + 1, dtype=int)
        chunks = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]

        def work(sl):
            return transmission_grid(**{k: v[sl] for k, v in full.items()})

        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(work, chunks))
        # Reassembled in chunk order, so the result is independent of the
        # thread count (each element is computed by the same expression).
        out = tuple(np.concatenate([p[i] for p in parts], axis=0)
                    for i in range(4))
    return tuple(np.ascontiguousarray(np.broadcast_to(np.asarray(o, dtype=float),
                                                      shape)).copy()
                 for o in out)


_base_kernel_args = kernel_args  # the name perfbench/record.py looks up


@dataclass
class SweepResult:
    """Dense grid of transmissions plus a dense per-point error code array.

    Arrays are indexed ``[i]`` for one axis and ``[i, j]`` for two, with
    axis 0 the first axis given to :func:`sweep`.  ``axis_values`` holds
    the file-facing (possibly normalized) coordinates; ``delta_f_mhz`` the
    shift actually used at each point, which differs from the base value
    under an extremal policy.  ``codes`` holds each point's index into
    ``CODE_NAMES``: 0 if clean, else its failure or the informational
    INF_ISOLATION (one output vanishes exactly).  ``error_codes`` is a
    read-only ``{flat row-major index: code name}`` view of the marked points.
    """

    base: SystemParams
    axes: tuple[Axis, ...]
    axis_values: tuple[np.ndarray, ...]
    delta_f_mhz: np.ndarray
    t12: np.ndarray
    t21: np.ndarray
    ratio: np.ndarray
    i_signed_db: np.ndarray
    codes: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.t12.shape

    @property
    def n_points(self) -> int:
        return self.t12.size

    @property
    def n_failed(self) -> int:
        """Points with a code other than the informational INF_ISOLATION."""
        return int(np.count_nonzero((self.codes != 0)
                                    & (self.codes != _INF_ISOLATION)))

    @property
    def i_abs_db(self) -> np.ndarray:
        return np.abs(self.i_signed_db)

    @cached_property
    def error_codes(self) -> Mapping[int, str]:
        flat = np.flatnonzero(self.codes)
        names = map(CODE_NAMES.__getitem__, self.codes.ravel()[flat].tolist())
        return MappingProxyType(dict(zip(flat.tolist(), names)))

    def error_code_at(self, *idx: int) -> str | None:
        return CODE_NAMES[self.codes[idx]] or None

    def directions(self, tol_db: float = 1e-9) -> np.ndarray:
        """Per-point direction labels; failed points come back empty."""
        out = np.full(self.shape, "", dtype="<U10")
        i = self.i_signed_db
        finite = ~np.isnan(i)
        out[finite & (np.abs(i) <= tol_db)] = "reciprocal"
        out[finite & (i > tol_db)] = "forward"
        out[finite & (i < -tol_db)] = "backward"
        return out

    def params_at(self, *idx: int) -> SystemParams:
        """Reconstruct the full parameter set behind one grid point."""
        p = self.base
        for ax, values, k in zip(self.axes, self.axis_values, idx):
            p = apply_parameter(p, ax.parameter,
                                float(values[k]) * ax.scale(self.base))
        return with_delta_f(p, float(self.delta_f_mhz[idx]))

    def report_at(self, *idx: int) -> TransmissionReport:
        i_signed = float(self.i_signed_db[idx])
        return TransmissionReport(float(self.t12[idx]), float(self.t21[idx]),
                                  float(self.ratio[idx]), i_signed,
                                  abs(i_signed))


def sweep(base: SystemParams, axes, *,
          delta_f_policy: DeltaFPolicy | str = DeltaFPolicy.FIXED,
          delta_f_band: tuple[float, float] | None = None,
          threads: int | None = None) -> SweepResult:
    """Evaluate transmissions over one or two parameter axes.

    ``delta_f_policy`` FIXED uses the base (or swept) Fizeau shift; the
    EXTREMAL policies re-derive the shift at every grid point from the
    closed-form stationary shifts and clamp it to ``delta_f_band`` when
    given.  With uniform ports they take the root of their sign.
    Otherwise they take the shift of largest |I| on their half of the
    band ([0, hi] or [lo, 0] of ``delta_f_band``, or of
    FEASIBLE_FIZEAU_BAND when unclamped): 0, then the stationary shifts
    inside it, then its outer edge, each replacing the choice only at a
    strictly larger |I|.  Extremal policies exclude a DELTA_F axis.
    """
    axes = tuple(axes)
    if not 1 <= len(axes) <= 2:
        raise SweepError("sweep takes one or two axes")
    if len(axes) == 2 and axes[0].parameter is axes[1].parameter:
        raise SweepError("the two axes must sweep different parameters")
    policy = DeltaFPolicy(delta_f_policy)
    if delta_f_band is not None and not delta_f_band[0] < delta_f_band[1]:
        raise SweepError("delta_f_band must satisfy lo < hi")
    problems = validate(base)
    if problems:
        raise SweepError("base parameters invalid: "
                         + "; ".join(v.message for v in problems))
    if base.drive.eps_1 <= 0.0 or base.drive.eps_2 <= 0.0:
        raise SweepError("optical drive amplitudes must be positive")
    n_threads = _resolve_threads(threads)

    display = tuple(ax.values() for ax in axes)
    physical = tuple(vals * ax.scale(base) for ax, vals in zip(axes, display))
    grids = np.meshgrid(*physical, indexing="ij", copy=False)
    shape = tuple(ax.count for ax in axes)

    args = kernel_args(base)  # raises on unstable FROM_PUMP input
    order = list(_QUANTITIES)
    with np.errstate(over="ignore"):  # overflowed values are marked below
        for ax, grid in sorted(zip(axes, grids),
                               key=lambda pair: order.index(pair[0].parameter)):
            args.update(_quantity(base, ax.parameter).kernel(args, base, grid))

    codes = np.zeros(shape, dtype=np.uint8)

    def mark(mask, code: str) -> None:
        if np.any(mask):
            codes[(codes == 0) & mask] = CODE_NAMES.index(code)

    for key in ("kappa_1", "kappa_2", "gamma_m"):
        mark(np.asarray(args[key]) <= 0.0, "RATE_POSITIVE")
    for key in ("g_1", "g_2"):
        mark(np.asarray(args[key]) < 0.0, "COUPLING_NEGATIVE")
    for key in ("delta", "delta_f", "kappa_1", "kappa_2", "gamma_m",
                "g_1", "g_2", "omega_s"):
        mark(~np.isfinite(np.asarray(args[key], dtype=float)), "NONFINITE")

    if policy is not DeltaFPolicy.FIXED:
        if any(ax.parameter is SweepParameter.DELTA_F for ax in axes):
            raise SweepError("a delta_f axis cannot be combined with an "
                             "extremal delta_f policy")
        positive = policy is DeltaFPolicy.EXTREMAL_POSITIVE
        plus, minus = stationary_shifts(**args)
        if has_uniform_ports(base):
            # A full array: numpy's loops for a broadcast (stride 0) operand
            # can round the kernel's complex products differently.
            shift = np.broadcast_to(plus if positive else minus, shape).copy()
        else:
            shift = _half_band_shift(args, plus, minus, positive, shape,
                                     delta_f_band or FEASIBLE_FIZEAU_BAND)
        if delta_f_band is not None:
            shift = np.clip(shift, delta_f_band[0], delta_f_band[1])
        args["delta_f"] = shift

    blank = codes != 0  # the codes found before the kernel runs
    t12, t21, ratio, i_signed = _evaluate_grid(args, shape, n_threads)
    if not np.isfinite(i_signed).all():  # I is not finite at these codes
        # Unless an output is exactly 0, an output or R left the float range.
        zero = ((t12 == 0.0) | (t21 == 0.0)) & np.isfinite(t12) & np.isfinite(t21)
        mark(~np.isfinite(i_signed) & ~zero, "OVERFLOW")
        mark(np.isnan(ratio), "NO_TRANSMISSION")
        mark(np.isinf(i_signed), "INF_ISOLATION")

    delta_f_full = np.broadcast_to(np.asarray(args["delta_f"], dtype=float),
                                   shape).copy()
    if blank.any():
        for arr in (t12, t21, ratio, i_signed, delta_f_full):
            arr[blank] = math.nan

    meta = {"delta_f_policy": policy.value,
            "delta_f_band": delta_f_band,
            "threads": n_threads,
            "axis_labels": tuple(ax.label() for ax in axes)}
    result = SweepResult(base, axes, display, delta_f_full, t12, t21, ratio,
                         i_signed, codes, meta)
    if result.n_failed == result.n_points:
        raise SweepError("every grid point failed validation")
    return result


def _half_band_shift(args: dict, plus, minus, positive: bool, shape,
                     band: tuple[float, float]) -> np.ndarray:
    """Shift of largest |I| on the positive or negative half of ``band``."""
    lo, hi = (0.0, band[1]) if positive else (band[0], 0.0)
    shift, best = np.zeros(shape), np.full(shape, -np.inf)
    for x in (0.0, plus, minus, hi if positive else lo):
        x = np.broadcast_to(x, shape)
        with np.errstate(divide="ignore"):  # R = 0 where an output vanishes
            value = np.abs(np.log(isolation_ratio(**dict(args, delta_f=x))))
        better = (lo <= x) & (x <= hi) & (value > best)
        shift[better], best[better] = x[better], value[better]
    return shift


@dataclass(frozen=True)
class FigurePreset:
    """A bundled demonstration dataset: base parameters plus axes."""

    name: str
    description: str
    base: SystemParams
    axes: tuple[Axis, ...]
    delta_f_policy: DeltaFPolicy = DeltaFPolicy.FIXED
    delta_f_band: tuple[float, float] | None = None
    plot: str = "i_abs"  # rendering hint: transmissions | i_abs | i_signed


def _presets() -> dict[str, FigurePreset]:
    sym = SystemParams.symmetric
    spectrum = Axis(SweepParameter.DELTA_F, -16.0, 16.0, 6401,
                    SweepParameter.GAMMA_M)
    wide = Axis(SweepParameter.DELTA_F, -65.0 / 1.1, 65.0 / 1.1, 2001,
                SweepParameter.KAPPA)
    narrow = Axis(SweepParameter.DELTA_F, -4.0, 4.0, 6401,
                  SweepParameter.GAMMA_M)
    gamma_fine = Axis(SweepParameter.GAMMA_M, 1.0, 12.0, 551)
    out = [
        FigurePreset(
            "fig2a", "both transmissions against the normalized Fizeau shift",
            sym(), (spectrum,), plot="transmissions"),
        FigurePreset(
            "fig2b", "isolation against the normalized Fizeau shift",
            sym(), (spectrum,)),
        FigurePreset(
            "fig3a", "isolation over Fizeau shift and magnon linewidth, "
            "resonant pump",
            sym(), (wide, Axis(SweepParameter.GAMMA_M, 1.5, 12.0, 211))),
        FigurePreset(
            "fig3b", "isolation over Fizeau shift and magnon linewidth, "
            "detuned pump (direction reverses across gamma_0)",
            sym(delta_mhz=22.0),
            (wide, Axis(SweepParameter.GAMMA_M, 1.5, 12.0, 211))),
        FigurePreset(
            "fig4a", "isolation over Fizeau shift and optical linewidth, "
            "resonant pump",
            sym(), (narrow, Axis(SweepParameter.KAPPA, 0.114, 10.0, 201))),
        FigurePreset(
            "fig4b", "isolation over Fizeau shift and optical linewidth, "
            "detuned pump (direction reverses across kappa_0)",
            sym(delta_mhz=20.0),
            (narrow, Axis(SweepParameter.KAPPA, 0.112, 10.0, 201))),
        FigurePreset(
            "fig5a", "signed extremal isolation against magnon linewidth for "
            "three pump detunings, shift clamped to the feasible band",
            sym(), (Axis(SweepParameter.DELTA, 0.0, 22.0, 3), gamma_fine),
            DeltaFPolicy.EXTREMAL_POSITIVE, FEASIBLE_FIZEAU_BAND,
            plot="i_signed"),
        FigurePreset(
            "fig5b", "signed extremal isolation against optical linewidth for "
            "two pump detunings, shift clamped to the feasible band",
            sym(), (Axis(SweepParameter.DELTA, 0.0, 20.0, 2),
                    Axis(SweepParameter.KAPPA, 0.1, 2.0, 551)),
            DeltaFPolicy.EXTREMAL_POSITIVE, FEASIBLE_FIZEAU_BAND,
            plot="i_signed"),
        FigurePreset(
            "fig6", "extremal isolation against magnon linewidth for several "
            "squeeze exponents, shift left unclamped",
            sym(), (Axis(SweepParameter.SQUEEZE, 0.0, 1.0, 5), gamma_fine),
            DeltaFPolicy.EXTREMAL_POSITIVE),
        FigurePreset(
            "fig7a", "extremal isolation (positive shift branch) against "
            "magnon linewidth for three coupling ratios",
            sym(), (Axis(SweepParameter.COUPLING_RATIO, 1.0, 2.0, 3),
                    gamma_fine),
            DeltaFPolicy.EXTREMAL_POSITIVE, FEASIBLE_FIZEAU_BAND),
        FigurePreset(
            "fig7b", "extremal isolation (negative shift branch) against "
            "magnon linewidth for three coupling ratios",
            sym(), (Axis(SweepParameter.COUPLING_RATIO, 1.0, 2.0, 3),
                    gamma_fine),
            DeltaFPolicy.EXTREMAL_NEGATIVE, FEASIBLE_FIZEAU_BAND),
    ]
    return {p.name: p for p in out}


_PRESET_TABLE = _presets()
PRESET_NAMES = tuple(_PRESET_TABLE)


def figure_preset(name: str) -> FigurePreset:
    try:
        return _PRESET_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: "
                         + ", ".join(PRESET_NAMES)) from None


def run_preset(name: str, threads: int | None = None) -> tuple[FigurePreset,
                                                               SweepResult]:
    preset = figure_preset(name)
    result = sweep(preset.base, preset.axes,
                   delta_f_policy=preset.delta_f_policy,
                   delta_f_band=preset.delta_f_band, threads=threads)
    return preset, result
