"""Parameter sweeps over the steady-state transmissions.

Grids are evaluated through the vectorized closed-form kernel in
:mod:`.steady_state`, one or two axes at a time, from one table of what
each :class:`SweepParameter` means.  Points that fail validation
(non-positive damping rate, negative coupling, overflow,
vanishing transmission) get a code in a ``uint8`` array over the grid;
only a sweep in which every point fails raises.

The Fizeau shift can either be held at the base value (or swept as an
axis) or re-optimized per grid point through ``delta_f_policy``.  For
every port set an extremal policy takes :func:`.half_band_shift`, the
shift of largest |I| on its sign's half of the clamp band; without a
band that half is unbounded on its outer side.  Its candidates, in
order, are the point nearest 0, the smaller and the larger stationary
shift and the outer edge; a later one wins only at a strictly larger
|I|, so a mirror tie keeps the negative shift.  ``optimize`` runs the
same rule on the whole band.

A grid is evaluated in the blocks of :func:`row_blocks`, whole first-axis
rows of about ``_BLOCK`` (16k) points that the writers share.  One block
loop, :meth:`BlockSweep.blocks`, feeds both :func:`sweep` and the preset
writers of :mod:`.serialize`.  Each block substitutes its axis values,
marks its input codes, computes its extremal shift, runs the kernel and
marks its output codes, writing into destinations its caller supplies:
:func:`sweep` passes views of result arrays allocated once, and a preset
writer one block's buffers, reused for every block and formatted as soon
as they are filled.  No temporary spans the whole grid and a block's
temporaries stay in the processor caches.  The shift and the kernel run
only over the span of rows from the first to the last one that holds a
point without an input code; the rows outside it are blanked whole, and
a block without such a row runs neither.  Axis values enter a block as
broadcastable slices, the block's rows of axis 0 as shape (rows, 1) and
all of axis 1 as (1, m), so a term that depends on one axis only is
computed once per value of that axis, not at every point.  A grid of
more than ``_MAX_POINTS`` (2**25) points raises :class:`SweepError`
before anything is allocated.

The blocks run one after another in one thread.  Results are
deterministic: the block size changes no bit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from numbers import Integral
from types import MappingProxyType

from ._lazy import lazy_import
from .model import (DIRECTION_LABELS, FEASIBLE_FIZEAU_BAND, CavityMode,
                    SqueezeSpec, SystemParams, direction_index, validate,
                    with_delta_f)
from .steady_state import TransmissionReport, kernel_args, transmission_grid
from .analysis import half_band_shift
# Not called here; perfbench/spans.py wraps this name for --trace 1.
from .analysis import brute_force_optimum  # noqa: F401

np = lazy_import("numpy")

# Per-point codes in precedence order: a point keeps the first that applies.
# The codes up to NONFINITE, found before the kernel runs, set the point's
# columns to nan.  All but INF_ISOLATION count as failed.
CODE_NAMES = ("", "RATE_POSITIVE", "COUPLING_NEGATIVE", "NONFINITE",
              "OVERFLOW", "NO_TRANSMISSION", "INF_ISOLATION")
_INF_ISOLATION = CODE_NAMES.index("INF_ISOLATION")

# The codes found before the kernel runs, in precedence order, with the
# kernel arguments each one tests.
_INPUT_CHECKS = (
    ("RATE_POSITIVE", ("kappa_1", "kappa_2", "gamma_m"), lambda v: v <= 0.0),
    ("COUPLING_NEGATIVE", ("g_1", "g_2"), lambda v: v < 0.0),
    ("NONFINITE", ("delta", "delta_f", "kappa_1", "kappa_2", "gamma_m",
                   "g_1", "g_2", "omega_s"), lambda v: ~np.isfinite(v)),
)
# Points per block of whole first-axis rows: a block's kernel temporaries
# stay in the processor caches instead of streaming through memory.
_BLOCK = 1 << 14
# The largest grid sweep() evaluates, about 1.4 GB of result arrays.
_MAX_POINTS = 1 << 25


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
        lambda p, v: replace(p, squeeze=SqueezeSpec(v, p.squeeze.omega_s_mhz)),
        _squeezed_couplings),
    SweepParameter.COUPLING_RATIO: _Quantity(
        lambda p: p.g0_2_mhz / p.g0_1_mhz,
        lambda p, v: replace(p, g0_2_mhz=v * p.g0_1_mhz),
        lambda args, base, grid: {"g_2": grid * np.asarray(args["g_1"])}),
    SweepParameter.OMEGA_S: _Quantity(
        lambda p: p.squeeze.omega_s_mhz,
        lambda p, v: replace(p, squeeze=replace(p.squeeze, omega_s_mhz=v)),
        lambda args, base, grid: {"omega_s": grid}),
}


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
        if not isinstance(self.count, Integral) or self.count < 2:
            raise ValueError("axis needs an integer count of at least 2")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("axis bounds must be finite")
        if not math.isfinite(self.stop - self.start):
            raise ValueError("axis span must be finite")
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
                else _QUANTITIES[self.normalization].get(base))

    def label(self) -> str:
        return (self.parameter.value if self.normalization is None
                else f"{self.parameter.value}/{self.normalization.value}")


def apply_parameter(params: SystemParams, parameter: SweepParameter,
                    value: float) -> SystemParams:
    """Copy of ``params`` with one physical quantity replaced."""
    return _QUANTITIES[parameter].set(params, value)


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
    ``meta`` is the run record, never written to output files: policy,
    band, axis labels, ``code_counts`` (``{code name:
    points}`` for every code present) and ``n_clamped`` (points not
    blanked whose extremal shift is an edge of ``delta_f_band``; 0 under
    FIXED or without a band).
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

    def directions(self) -> np.ndarray:
        """Per-point direction labels; failed points come back empty."""
        return np.array(DIRECTION_LABELS)[direction_index(self.i_signed_db)]

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
    EXTREMAL policies re-derive the shift at every grid point, for every
    port set, as the shift of largest |I| on their half of
    ``delta_f_band``, [0, hi] (EXTREMAL_POSITIVE) or [lo, 0]
    (EXTREMAL_NEGATIVE), with 0 moved to the nearer edge of a band that
    excludes it.  Without a band the half is [0, inf) or (-inf, 0].  The
    candidates are 0, the smaller and then the larger closed-form
    stationary shift inside the half, and its finite outer edge, each
    replacing the choice only at a strictly larger |I|, so a mirror tie
    keeps the negative shift (:func:`.half_band_shift`).  Extremal
    policies exclude a DELTA_F axis.
    A grid of more than ``_MAX_POINTS`` points raises before anything is
    allocated.  First-axis rows whose every point is blanked before the
    kernel runs are neither scored nor solved, unless they lie between two
    rows that hold a live point; their columns are nan either way.

    ``threads`` is ignored: the blocks always run serially.  The keyword
    stays only because perfbench's ``thread_speedup`` metric passes
    ``threads=2``; ROADMAP item 1 removes the keyword together with that
    metric.
    """
    run = BlockSweep(base, axes, delta_f_policy, delta_f_band)
    # t12, t21, ratio, i_signed_db and delta_f_mhz, filled block by block.
    columns = tuple(np.empty(run.shape) for _ in range(5))
    codes = np.zeros(run.shape, dtype=np.uint8)
    for _ in run.blocks(lambda sl: ([column[sl] for column in columns],
                                    codes[sl])):
        pass
    t12, t21, ratio, i_signed, delta_f = columns
    return SweepResult(run.base, run.axes, run.display, delta_f, t12, t21,
                       ratio, i_signed, codes, run.meta)


class BlockSweep:
    """One sweep, checked and ready to be evaluated block by block.

    Construction takes :func:`sweep`'s arguments and raises its
    :class:`SweepError`\\ s before anything is allocated.  :meth:`blocks`
    is the block loop behind both :func:`sweep` and the streamed preset
    writers; after it ends, ``meta`` is the run record of
    :attr:`SweepResult.meta`.
    """

    def __init__(self, base: SystemParams, axes,
                 delta_f_policy: DeltaFPolicy | str = DeltaFPolicy.FIXED,
                 delta_f_band: tuple[float, float] | None = None) -> None:
        axes = tuple(axes)
        if not 1 <= len(axes) <= 2:
            raise SweepError("sweep takes one or two axes")
        if len(axes) == 2 and axes[0].parameter is axes[1].parameter:
            raise SweepError("the two axes must sweep different parameters")
        policy = DeltaFPolicy(delta_f_policy)
        if delta_f_band is not None and not delta_f_band[0] < delta_f_band[1]:
            raise SweepError("delta_f_band must satisfy lo < hi")
        if (policy is not DeltaFPolicy.FIXED
                and any(ax.parameter is SweepParameter.DELTA_F
                        for ax in axes)):
            raise SweepError("a delta_f axis cannot be combined with an "
                             "extremal delta_f policy")
        problems = validate(base)
        if problems:
            raise SweepError("base parameters invalid: "
                             + "; ".join(v.message for v in problems))
        if base.drive.eps_1 <= 0.0 or base.drive.eps_2 <= 0.0:
            raise SweepError("optical drive amplitudes must be positive")
        self.shape = tuple(ax.count for ax in axes)
        n_points = math.prod(self.shape)
        if n_points > _MAX_POINTS:
            raise SweepError(f"the grid has {n_points} points, more than "
                             f"the limit of {_MAX_POINTS}")

        self.base, self.axes, self.policy = base, axes, policy
        self.band = delta_f_band
        self.display = tuple(ax.values() for ax in axes)
        self.meta: dict = {}
        with np.errstate(over="ignore"):  # NONFINITE marks such points
            # Shapes (n, 1) and (1, m) with two axes: a block takes the rows
            # of axis 0 it spans and all of axis 1, and the rest broadcasts.
            grids = np.ix_(*(vals * ax.scale(base)
                             for ax, vals in zip(axes, self.display)))
        # Table order is substitution order; only axis 0 is sliced by rows.
        self._substitutions = [
            (q.kernel, grid, k == 0) for p, q in _QUANTITIES.items()
            for k, (ax, grid) in enumerate(zip(axes, grids))
            if ax.parameter is p]
        self._base_args = kernel_args(base)
        lo, hi = delta_f_band or (-math.inf, math.inf)
        zero = min(max(lo, 0.0), hi)  # the point of the band nearest 0
        positive = policy is DeltaFPolicy.EXTREMAL_POSITIVE
        self._half = (zero, hi) if positive else (lo, zero)  # policy's half

    def blocks(self, out):
        """Evaluate the grid one :func:`row_blocks` block at a time.

        ``out(sl)`` gives the destinations of block ``sl``: a list of its
        t12, t21, ratio, i_signed_db and delta_f_mhz columns and its codes,
        each shaped as the block, the codes all 0.  They may be views of
        whole-grid arrays or buffers reused for every block.  Each block
        is yielded as ``(sl, columns, codes)`` once they are filled.  After
        the last block ``meta`` is set, and :class:`SweepError` raised if
        every point failed.
        """
        counts = [0] * len(CODE_NAMES)  # points given each code
        n_clamped = 0
        for sl in row_blocks(self.shape):
            columns, codes = out(sl)
            code = codes  # narrowed with the live rows below
            args = dict(self._base_args)
            with np.errstate(over="ignore"):  # overflowed values are marked
                for kernel, grid, by_row in self._substitutions:
                    args.update(kernel(args, self.base,
                                       grid[sl] if by_row else grid))
            # Arguments no axis replaced are scalars that validate(base)
            # passed.
            for name, keys, test in _INPUT_CHECKS:
                for key in keys:
                    if isinstance(args[key], np.ndarray):
                        _mark(code, test(args[key]), name, counts)
            blank = code != 0  # the codes found before the kernel runs
            blanked = blank.any()
            live_columns = columns
            if blanked:  # solve only the rows from the first to the last live
                live = np.flatnonzero(
                    ~blank.reshape(len(code), -1).all(axis=1))
                span = (slice(live[0], live[-1] + 1) if live.size
                        else slice(0, 0))
                for column in columns:
                    column[:span.start] = column[span.stop:] = math.nan
                if not live.size:
                    yield sl, columns, codes
                    continue
                # Row slices of the same operands, whose numpy loops round
                # as the whole block's do; axis 1's (1, m) values stay whole.
                args = {key: value[span]
                        if np.shape(value)[:1] == code.shape[:1] else value
                        for key, value in args.items()}
                live_columns = [column[span] for column in columns]
                code, blank = code[span], blank[span]

            if self.policy is not DeltaFPolicy.FIXED:
                shift = half_band_shift(*self._half, **args)
                if self.band is not None:
                    lo, hi = self.band
                    edge = (shift == lo) | (shift == hi)
                    n_clamped += int(np.count_nonzero(edge & ~blank))
                # A 0-d shift would take numpy's scalar arithmetic in the
                # kernel, which rounds some products differently.
                args["delta_f"] = np.broadcast_to(shift, code.shape)

            t12, t21, ratio, i_signed = transmission_grid(**args)
            if not np.isfinite(i_signed).all():  # I is not finite at codes
                # Unless an output is exactly 0, an output or R left the
                # float range.
                zero = (((t12 == 0.0) | (t21 == 0.0))
                        & np.isfinite(t12) & np.isfinite(t21))
                _mark(code, ~np.isfinite(i_signed) & ~zero, "OVERFLOW",
                      counts)
                _mark(code, np.isnan(ratio), "NO_TRANSMISSION", counts)
                _mark(code, np.isinf(i_signed), "INF_ISOLATION", counts)

            for column, values in zip(live_columns, (t12, t21, ratio,
                                                     i_signed,
                                                     args["delta_f"])):
                column[...] = values
                if blanked:
                    column[blank] = math.nan
            yield sl, columns, codes
        self.meta = {"delta_f_policy": self.policy.value,
                     "delta_f_band": self.band,
                     "axis_labels": tuple(ax.label() for ax in self.axes),
                     "code_counts": {CODE_NAMES[k]: n
                                     for k, n in enumerate(counts) if n},
                     "n_clamped": n_clamped}
        if sum(counts) - counts[_INF_ISOLATION] == math.prod(self.shape):
            raise SweepError("every grid point failed validation")


def row_blocks(shape: tuple[int, ...]) -> list[slice]:
    """The blocks of whole first-axis rows, about ``_BLOCK`` points each,
    that :func:`sweep` evaluates and the writers format a grid in."""
    rows = max(1, _BLOCK // math.prod(shape[1:]))
    return [slice(i0, min(i0 + rows, shape[0]))
            for i0 in range(0, shape[0], rows)]


def _mark(codes: np.ndarray, mask: np.ndarray, name: str,
          tally: list[int]) -> None:
    """Give the points of ``mask`` that have no code yet the code ``name``,
    and add their number to its ``tally``."""
    if mask.any():
        new = (codes == 0) & mask
        k = CODE_NAMES.index(name)
        codes[new] = k
        tally[k] += int(np.count_nonzero(new))


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


def run_preset(name: str) -> tuple[FigurePreset, SweepResult]:
    preset = figure_preset(name)
    result = sweep(preset.base, preset.axes,
                   delta_f_policy=preset.delta_f_policy,
                   delta_f_band=preset.delta_f_band)
    return preset, result
