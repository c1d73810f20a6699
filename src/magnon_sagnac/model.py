"""Parameter records and elementary physics for a spinning optical
microcavity coupled to a squeezed magnon mode.

Unit convention: every frequency-like quantity (detunings, linewidths,
couplings, Fizeau shifts) is a *linear* frequency in MHz, i.e. the angular
rate divided by 2*pi.  The steady-state expressions are homogeneous in
frequency, so transmissions and isolation ratios come out identical in
linear and angular units.  Planck's constant enters only through
:func:`drive_amplitude`, and the mechanical spin rate is kept in plain Hz
because it lives three orders of magnitude below everything optical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum


class PhysicsError(Exception):
    """Base class for physics-level failures (as opposed to bad input)."""


class SqueezingInstabilityError(PhysicsError):
    """Two-magnon pump at or beyond the parametric threshold |E| >= |delta_m|."""


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA values used across the model."""

    c_m_per_s: float = 2.99792458e8
    hbar_j_s: float = 1.054571817e-34

    def __post_init__(self) -> None:
        if min(self.c_m_per_s, self.hbar_j_s) <= 0:
            raise ValueError("physical constants must be positive")


CONSTANTS = PhysicalConstants()

# Fizeau shifts reachable with few-kHz spin rates on a mm-scale resonator.
# Used as the default search window for extremal analysis; advisory only.
FEASIBLE_FIZEAU_BAND = (-65.0, 65.0)

# An isolation within this many dB of 0 counts as reciprocal.
RECIPROCAL_TOL_DB = 1e-9
DIRECTION_LABELS = ("", "reciprocal", "forward", "backward")


def direction_index(i_signed_db):
    """Index into :data:`DIRECTION_LABELS` of the direction of an isolation
    (a float or an array): "" where nan, "reciprocal" within
    ``RECIPROCAL_TOL_DB`` of 0, else "forward" or "backward"."""
    i, tol = i_signed_db, RECIPROCAL_TOL_DB
    return (i > tol) * 2 + (i < -tol) * 3 + (abs(i) <= tol)


def jsonable(x: float):
    """A float if finite, else its nan/inf string (strict JSON has neither)."""
    return x if math.isfinite(x) else str(float(x))


class RotationDirection(Enum):
    CW = "cw"
    CCW = "ccw"
    NONE = "none"


@dataclass(frozen=True)
class RotationSpec:
    """Geometry and spin state of the resonator, input to the Fizeau shift.

    ``omega_rot_hz`` is the mechanical rotation rate as a linear frequency
    in Hz.  Defaults describe a millimetre silica-like sphere pumped near
    193 THz; the vacuum wavelength of the dispersion term is that of the
    carrier ``omega0_mhz``.
    """

    omega_rot_hz: float = 6.6e3
    direction: RotationDirection = RotationDirection.CW
    refractive_index: float = 2.2
    radius_m: float = 1.1e-3
    dn_dwavelength_per_m: float = 0.0
    omega0_mhz: float = 1.93e8


def fizeau_shift(rotation: RotationSpec,
                 first_term_only: bool = False) -> float:
    """Fizeau drag shift of cavity mode 1, in MHz.

    A resonator spinning at Omega drags the counter-propagating resonances
    apart by

        delta_f = +/- Omega * n * r * omega0 / c
                  * (1 - 1/n**2 - (lambda/n) * dn/dlambda)

    Mode 1 picks up +delta_f under clockwise spin and -delta_f under
    counter-clockwise spin; mode 2 always takes the opposite sign.  The
    wavelength is the carrier's, lambda = c / omega0, so the dispersion
    part multiplies out to -/+ Omega * r * dn/dlambda * 1e-6 (omega0 *
    lambda / c is 1e-6 with omega0 in MHz) and is computed in that form,
    which stays finite where lambda overflows.  With ``first_term_only``
    the dispersion bracket is replaced by 1, which isolates the purely
    geometric part of the drag.

    The single factor of 2*pi below is what remains of the angular-rate
    product once both input rates and the output are written as linear
    frequencies.
    """
    sign = {RotationDirection.CW: 1.0,
            RotationDirection.CCW: -1.0,
            RotationDirection.NONE: 0.0}[rotation.direction]
    if sign == 0.0:
        return 0.0
    spin = sign * 2.0 * math.pi * rotation.omega_rot_hz
    n = rotation.refractive_index
    bracket = 1.0
    if not first_term_only:
        # n ** 2 overflows above n = 1.3e154; from 1e154 on, 1/n^2 is too
        # small to change the bracket.
        bracket = 1.0 - (1.0 / n ** 2 if n < 1e154 else 0.0)
    shift = (spin * n * rotation.radius_m * rotation.omega0_mhz
             / CONSTANTS.c_m_per_s * bracket)
    # Skipped without dispersion, so that a -0.0 shift keeps its sign;
    # dn * 1e-6 comes first because spin * r * dn can overflow alone.
    dn = rotation.dn_dwavelength_per_m
    if not first_term_only and dn:
        shift -= spin * rotation.radius_m * (dn * 1e-6)
    return shift


@dataclass(frozen=True)
class CavityMode:
    """Damping budget of one whispering-gallery mode."""

    kappa_mhz: float
    kappa_ext_mhz: float

    @property
    def eta(self) -> float:
        """External coupling fraction kappa_ext / kappa."""
        return self.kappa_ext_mhz / self.kappa_mhz

    @classmethod
    def from_eta(cls, kappa_mhz: float, eta: float) -> "CavityMode":
        return cls(kappa_mhz, eta * kappa_mhz)


@dataclass(frozen=True)
class MagnonMode:
    """Magnon linewidth and the external coupling fraction of its drive
    port.  The Kittel frequency itself never enters: the steady state is
    written in the frame of the squeezed magnon (see SqueezeSpec)."""

    gamma_m_mhz: float = 4.0
    eta3: float = 0.5


@dataclass(frozen=True)
class SqueezeSpec:
    """Magnon squeezing: the exponent G and the squeezed-mode frequency.

    omega_s defaults to zero, the rotating frame used throughout the
    bundled demonstration datasets.  Isolation is independent of omega_s,
    the individual transmissions are not.
    """

    g_squeeze: float = 0.0
    omega_s_mhz: float = 0.0

    @classmethod
    def from_pump(cls, delta_m_mhz: float, e_pump_mhz: float,
                  omega_s_mhz: float | None = None) -> "SqueezeSpec":
        """Squeezing set by a two-magnon pump of detuning delta_m and
        strength e_pump: G = (1/4) ln((delta_m + e_pump)/(delta_m - e_pump))
        and omega_s = sqrt(delta_m^2 - e_pump^2) unless given, inf where a
        square leaves the float range.  Raises SqueezingInstabilityError at
        or beyond the threshold |e_pump| >= |delta_m|.
        """
        g = squeeze_exponent(delta_m_mhz, e_pump_mhz)
        if omega_s_mhz is None:
            try:
                omega_s_mhz = math.sqrt(delta_m_mhz ** 2 - e_pump_mhz ** 2)
            except OverflowError:
                omega_s_mhz = math.inf
        return cls(g, omega_s_mhz)


@dataclass(frozen=True)
class EffectiveParams:
    """Bogoliubov-transformed couplings g0_j * cosh(2G)."""

    g_eff_1_mhz: float
    g_eff_2_mhz: float


def squeeze_exponent(delta_m_mhz: float, e_pump_mhz: float) -> float:
    """Squeezing exponent G of a two-magnon pump below threshold."""
    if abs(e_pump_mhz) >= abs(delta_m_mhz):
        raise SqueezingInstabilityError(
            f"two-magnon pump unstable: |e_pump| = {abs(e_pump_mhz)} MHz >= "
            f"|delta_m| = {abs(delta_m_mhz)} MHz")
    return 0.25 * math.log((delta_m_mhz + e_pump_mhz) / (delta_m_mhz - e_pump_mhz))


def drive_amplitude(power_w: float, omega_p_mhz: float) -> float:
    """Input-field amplitude sqrt(P / (hbar * omega_p)), in s^-1/2.

    ``omega_p_mhz`` is the pump's linear frequency.  Only ratios of drive
    amplitudes enter transmissions, so the absolute scale rarely matters.
    """
    if power_w < 0.0:
        raise ValueError("pump power must be non-negative")
    if omega_p_mhz <= 0.0:
        raise ValueError("pump frequency must be positive")
    return math.sqrt(power_w / (CONSTANTS.hbar_j_s * 2.0 * math.pi
                                * omega_p_mhz * 1e6))


@dataclass(frozen=True)
class DriveAmplitudes:
    """Drive amplitudes in s^-1/2.

    ``eps_3_eff`` is the magnon drive already expressed in the squeezed
    frame, i.e. multiplied by e^{-G} when built from a bare drive.
    """

    eps_1: float = 1.0
    eps_2: float = 1.0
    eps_3_eff: float = 1.0

    @classmethod
    def from_powers(cls, p1_w: float, p2_w: float, p3_w: float,
                    omega_p_mhz: float,
                    eps3_factor: float = 1.0) -> "DriveAmplitudes":
        """Powers in W at a common pump frequency; ``eps3_factor`` is e^{-G}."""
        return cls(drive_amplitude(p1_w, omega_p_mhz),
                   drive_amplitude(p2_w, omega_p_mhz),
                   eps3_factor * drive_amplitude(p3_w, omega_p_mhz))


@dataclass(frozen=True)
class SystemParams:
    """Complete parameter set of the two optical modes plus the magnon.

    ``delta_mhz`` is the common pump-cavity detuning and ``delta_f_mhz``
    the signed Fizeau shift as seen by mode 1, so the per-mode detunings
    are delta_1 = delta + delta_f and delta_2 = delta - delta_f.
    """

    mode_1: CavityMode
    mode_2: CavityMode
    magnon: MagnonMode
    squeeze: SqueezeSpec
    drive: DriveAmplitudes
    g0_1_mhz: float
    g0_2_mhz: float
    delta_mhz: float = 0.0
    delta_f_mhz: float = 0.0

    @property
    def delta_1_mhz(self) -> float:
        return self.delta_mhz + self.delta_f_mhz

    @property
    def delta_2_mhz(self) -> float:
        return self.delta_mhz - self.delta_f_mhz

    def effective(self) -> EffectiveParams:
        """Resolve squeezing into effective couplings g0_j * cosh(2G)."""
        ch = math.cosh(2.0 * self.squeeze.g_squeeze)
        return EffectiveParams(self.g0_1_mhz * ch, self.g0_2_mhz * ch)

    @classmethod
    def symmetric(cls, *, g0_mhz: float = 41.0, g_squeeze: float = 0.5,
                  kappa_mhz: float = 1.1, eta: float = 0.5,
                  gamma_m_mhz: float = 4.0, eta3: float | None = None,
                  delta_mhz: float = 0.0,
                  delta_f_mhz: float = 0.0, eps: float = 1.0,
                  omega_s_mhz: float = 0.0) -> "SystemParams":
        """Equal-port preset: both optical modes share kappa and eta, both
        couplings share g0, and all three drives are set to the same
        amplitude (the magnon one directly in the squeezed frame).
        Defaults give the standard demonstration parameter set.
        """
        if eta3 is None:
            eta3 = eta
        mode = CavityMode.from_eta(kappa_mhz, eta)
        return cls(mode_1=mode, mode_2=mode,
                   magnon=MagnonMode(gamma_m_mhz, eta3),
                   squeeze=SqueezeSpec(g_squeeze, omega_s_mhz),
                   drive=DriveAmplitudes(eps, eps, eps),
                   g0_1_mhz=g0_mhz, g0_2_mhz=g0_mhz,
                   delta_mhz=delta_mhz, delta_f_mhz=delta_f_mhz)


def with_delta_f(params: SystemParams, delta_f_mhz: float) -> SystemParams:
    return replace(params, delta_f_mhz=delta_f_mhz)


def _close(a: float, b: float) -> bool:
    """Equal to 1e-9, relative above magnitude 1 and absolute below."""
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def has_uniform_ports(params: SystemParams) -> bool:
    """Equal optical linewidths, equal coupling fractions on all three
    ports, and equal drive amplitudes.  The two couplings may differ."""
    d = params.drive
    return (_close(params.mode_1.kappa_mhz, params.mode_2.kappa_mhz)
            and _close(params.mode_1.eta, params.mode_2.eta)
            and _close(params.mode_1.eta, params.magnon.eta3)
            and _close(d.eps_1, d.eps_2)
            and _close(d.eps_1, d.eps_3_eff))


def is_symmetric(params: SystemParams) -> bool:
    """Uniform ports and equal bare couplings."""
    return (has_uniform_ports(params)
            and _close(params.g0_1_mhz, params.g0_2_mhz))


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def validate(params: SystemParams) -> list[Violation]:
    """Collect every constraint violation; an empty list means valid.

    Violations are returned as data rather than raised so that parameter
    sweeps can mark individual grid points and carry on.
    """
    out: list[Violation] = []
    for label, mode in (("mode_1", params.mode_1), ("mode_2", params.mode_2)):
        if not _finite(mode.kappa_mhz, mode.kappa_ext_mhz):
            out.append(Violation("NONFINITE", f"{label}: non-finite linewidth"))
            continue
        if mode.kappa_mhz <= 0.0:
            out.append(Violation("RATE_POSITIVE",
                                 f"{label}: total linewidth must be positive"))
            continue
        if mode.kappa_ext_mhz < 0.0:
            out.append(Violation("ETA_RANGE",
                                 f"{label}: external linewidth must be >= 0"))
        elif mode.kappa_ext_mhz > mode.kappa_mhz:
            out.append(Violation("KAPPA_DECOMP",
                                 f"{label}: external linewidth exceeds total, "
                                 "intrinsic part would be negative"))
    mag = params.magnon
    if not _finite(mag.gamma_m_mhz, mag.eta3):
        out.append(Violation("NONFINITE", "magnon: non-finite parameter"))
    else:
        if mag.gamma_m_mhz <= 0.0:
            out.append(Violation("RATE_POSITIVE",
                                 "magnon: linewidth must be positive"))
        if not 0.0 <= mag.eta3 <= 1.0:
            out.append(Violation("ETA_RANGE",
                                 "magnon: drive coupling fraction outside [0, 1]"))
    for label, g0 in (("g0_1", params.g0_1_mhz), ("g0_2", params.g0_2_mhz)):
        if not _finite(g0):
            out.append(Violation("NONFINITE", f"{label}: non-finite coupling"))
        elif g0 < 0.0:
            out.append(Violation("COUPLING_NEGATIVE",
                                 f"{label}: coupling must be >= 0"))
    spec = params.squeeze
    if not _finite(spec.g_squeeze):
        out.append(Violation("NONFINITE", "squeeze: non-finite exponent"))
    if not _finite(spec.omega_s_mhz):
        out.append(Violation("NONFINITE", "squeeze: non-finite omega_s override"))
    if not out:
        try:
            eff = params.effective()
            finite = _finite(eff.g_eff_1_mhz, eff.g_eff_2_mhz)
        except OverflowError:  # cosh(2G)
            finite = False
        if not finite:
            out.append(Violation("NONFINITE", "squeeze: effective coupling "
                                 "g0 cosh(2G) leaves the float range"))
    d = params.drive
    if not _finite(d.eps_1, d.eps_2, d.eps_3_eff):
        out.append(Violation("NONFINITE", "drive: non-finite amplitude"))
    elif min(d.eps_1, d.eps_2, d.eps_3_eff) < 0.0:
        out.append(Violation("DRIVE_NEGATIVE", "drive amplitudes must be >= 0"))
    if not _finite(params.delta_mhz, params.delta_f_mhz):
        out.append(Violation("NONFINITE", "non-finite detuning or Fizeau shift"))
    return out


def validate_rotation(rotation: RotationSpec) -> list[Violation]:
    values = (rotation.omega_rot_hz, rotation.refractive_index,
              rotation.radius_m, rotation.dn_dwavelength_per_m,
              rotation.omega0_mhz)
    if not _finite(*values):
        return [Violation("NONFINITE", "rotation: non-finite parameter")]
    out = []
    if rotation.omega_rot_hz < 0.0:
        out.append(Violation("ROTATION_RANGE",
                             "rotation: spin rate must be >= 0 (use direction "
                             "to flip the sign)"))
    if rotation.refractive_index <= 1.0:
        out.append(Violation("ROTATION_RANGE",
                             "rotation: refractive index must exceed 1"))
    if rotation.radius_m <= 0.0:
        out.append(Violation("ROTATION_RANGE", "rotation: radius must be positive"))
    if rotation.omega0_mhz <= 0.0:
        out.append(Violation("ROTATION_RANGE",
                             "rotation: optical frequency must be positive"))
    return out
