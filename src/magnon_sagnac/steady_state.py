"""Steady-state response of the driven three-mode system.

With fluctuations dropped, the equations of motion for the two optical
modes and the squeezed magnon mode reduce to one 3x3 complex linear
system per drive side:

    (kappa_1/2 + i delta_1) a_1 + i g_1 m = sqrt(eta_1 kappa_1) eps_1
    (kappa_2/2 + i delta_2) a_2 + i g_2 m = sqrt(eta_2 kappa_2) eps_2
    i g_1 a_1 + i g_2 a_2 + (gamma_m/2 + i omega_s) m = sqrt(eta_3 gamma_m) eps_3'

where g_j are the squeeze-enhanced couplings and eps_3' the squeezed-frame
magnon drive.  Two solution routes are provided: the closed form
(:func:`solve_closed_form`), and ``np.linalg.solve`` on the same 3x3
matrix (:func:`solve_generic`) as its cross-check.  The matrix is
diag(d) + i G with G real symmetric and Re d > 0 for every valid input,
so its Hermitian part is positive definite and it is never singular
there.  Output fields follow from a_out = sqrt(eta kappa) a.

Transmissions are amplitude ratios: T12 = |a1_out / eps_2| with the drive
on port 2, T21 = |a2_out / eps_1| with the drive on port 1, so
:func:`transmissions` solves only those two amplitudes.  The isolation
ratio is R = (T12 / T21)^2 and I = 10 log10 R in dB.

The scalar route (:func:`solve_closed_form`, :func:`transmissions`) is
plain ``math`` and ``complex``; numpy is bound lazily and loads only
when :func:`solve_generic` or the grid kernel :func:`transmission_grid`
first runs.  Numpy's float rules for one parameter set live here, in
:func:`_div`, :func:`_sqrt`, :func:`_max` and :func:`_min`, and every
scalar function of the package takes them from this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._lazy import lazy_import
from .model import PhysicsError, SystemParams

np = lazy_import("numpy")


class DegenerateSystemError(PhysicsError):
    """The steady-state linear system is singular to working precision."""


class NoTransmissionError(PhysicsError):
    """Both output amplitudes vanish; the isolation ratio is undefined."""


class DriveSide(Enum):
    LEFT = "left"    # optical drive on port 1
    RIGHT = "right"  # optical drive on port 2


@dataclass(frozen=True)
class SteadyState:
    """Intracavity amplitudes for one drive side."""

    a1: complex
    a2: complex
    m: complex


@dataclass(frozen=True)
class OutputFields:
    a1_out: complex
    a2_out: complex


@dataclass(frozen=True)
class TransmissionReport:
    """Both transmissions plus the isolation figures derived from them.

    ``i_signed_db`` is positive when port-2-to-port-1 transmission wins
    and negative the other way; ``i_abs_db`` is its magnitude.  The
    sentinel values ratio = inf / i_signed_db = +inf (or 0.0 / -inf)
    flag a point where exactly one of T12 and T21 is 0, or where R left
    the float range.
    """

    t12: float
    t21: float
    ratio: float
    i_signed_db: float
    i_abs_db: float


def _div(a: float, b: float) -> float:
    """``np.divide`` of floats: a +/-0 divisor gives +/-inf or nan."""
    return a / b if b else a * math.copysign(math.inf, b)


def _sqrt(x: float) -> float:
    return math.sqrt(x) if x >= 0.0 else math.nan  # np.sqrt: nan below 0


def _max(a: float, b: float) -> float:  # np.maximum: nan if either is
    return a if a > b or a != a else b


def _min(a: float, b: float) -> float:  # np.minimum: nan if either is
    return a if a < b or a != a else b


def _coefficients(params: SystemParams, side: DriveSide | None):
    """(d1, d2, dm, g1, g2, f1, f2, f3), driven on ``side`` (None: both)."""
    eff = params.effective()
    m1, m2, mag = params.mode_1, params.mode_2, params.magnon
    d1 = 0.5 * m1.kappa_mhz + 1j * params.delta_1_mhz
    d2 = 0.5 * m2.kappa_mhz + 1j * params.delta_2_mhz
    dm = 0.5 * mag.gamma_m_mhz + 1j * params.squeeze.omega_s_mhz
    eps_1 = params.drive.eps_1 if side is not DriveSide.RIGHT else 0.0
    eps_2 = params.drive.eps_2 if side is not DriveSide.LEFT else 0.0
    f1 = math.sqrt(m1.eta * m1.kappa_mhz) * eps_1
    f2 = math.sqrt(m2.eta * m2.kappa_mhz) * eps_2
    f3 = math.sqrt(mag.eta3 * mag.gamma_m_mhz) * params.drive.eps_3_eff
    return d1, d2, dm, eff.g_eff_1_mhz, eff.g_eff_2_mhz, f1, f2, f3


def _closed_setup(params: SystemParams, side: DriveSide | None):
    """The coefficients, shared determinant and undriven a1 and a2."""
    d1, d2, dm, g1, g2, f1, f2, f3 = coefficients = _coefficients(params, side)
    den = d1 * d2 * dm + d2 * g1 * g1 + d1 * g2 * g2
    if den == 0:
        raise DegenerateSystemError("vanishing system determinant")
    a1 = -1j * g1 * (d2 * f3 - 1j * g2 * f2) / den
    a2 = -1j * g2 * (d1 * f3 - 1j * g1 * f1) / den
    return coefficients, den, a1, a2


def solve_closed_form(params: SystemParams, side: DriveSide) -> SteadyState:
    """Closed-form steady state for a one-sided optical drive."""
    (d1, d2, dm, g1, g2, f1, f2, f3), den, a1, a2 = _closed_setup(params, side)
    if (d1 if side is DriveSide.LEFT else d2) == 0:
        raise DegenerateSystemError("the driven mode's kappa/2 + i delta "
                                    "rounds to 0")
    if side is DriveSide.LEFT:
        m = (d1 * d2 * f3 - 1j * g1 * d2 * f1) / den
        a1 = f1 / d1 - 1j * g1 * m / d1
    else:
        m = (d1 * d2 * f3 - 1j * g2 * d1 * f2) / den
        a2 = f2 / d2 - 1j * g2 * m / d2
    return SteadyState(a1, a2, m)


def solve_generic(params: SystemParams, side: DriveSide) -> SteadyState:
    """Solve the 3x3 system with ``np.linalg.solve``; an independent route
    to the same steady state as :func:`solve_closed_form`.

    The system is first scaled to a unit-modulus diagonal, so that rates
    decades apart do not defeat LAPACK's partial pivoting.  Every entry
    is divided by the same rounded r_i r_j (d_i / r_i / r_i, not
    d_i / |d_i|), which measurably answers more extreme systems right.
    """
    d1, d2, dm, g1, g2, f1, f2, f3 = _coefficients(params, side)
    r1, r2, r3 = (math.sqrt(abs(d)) for d in (d1, d2, dm))
    try:
        c1, c2 = 1j * g1 / (r1 * r3), 1j * g2 / (r2 * r3)
        x1, x2, x3 = np.linalg.solve(
            [[d1 / r1 / r1, 0j, c1], [0j, d2 / r2 / r2, c2],
             [c1, c2, dm / r3 / r3]], [f1 / r1, f2 / r2, f3 / r3]).tolist()
    except (ZeroDivisionError, np.linalg.LinAlgError):
        raise DegenerateSystemError("singular system matrix") from None
    return SteadyState(x1 / r1, x2 / r2, x3 / r3)


def residuals(state: SteadyState, params: SystemParams,
              side: DriveSide) -> tuple[float, float, float]:
    """Absolute residuals of the three steady-state equations."""
    d1, d2, dm, g1, g2, f1, f2, f3 = _coefficients(params, side)
    r1 = abs(d1 * state.a1 + 1j * g1 * state.m - f1)
    r2 = abs(d2 * state.a2 + 1j * g2 * state.m - f2)
    r3 = abs(1j * g1 * state.a1 + 1j * g2 * state.a2 + dm * state.m - f3)
    return r1, r2, r3


def output_fields(state: SteadyState, params: SystemParams) -> OutputFields:
    m1, m2 = params.mode_1, params.mode_2
    return OutputFields(math.sqrt(m1.eta * m1.kappa_mhz) * state.a1,
                        math.sqrt(m2.eta * m2.kappa_mhz) * state.a2)


def require_optical_drive(params: SystemParams) -> None:
    """Refuse non-positive optical drive amplitudes, which T12 and T21 are
    normalized by."""
    if params.drive.eps_1 <= 0.0 or params.drive.eps_2 <= 0.0:
        raise NoTransmissionError(
            "both optical drive amplitudes must be positive to define T12 and T21")


def transmissions(params: SystemParams, method: str = "closed") -> TransmissionReport:
    """Solve both drive sides and report T12, T21 and the isolation."""
    require_optical_drive(params)
    if method == "closed":
        a1, a2 = _closed_setup(params, None)[2:]
    elif method == "generic":
        a2 = solve_generic(params, DriveSide.LEFT).a2
        a1 = solve_generic(params, DriveSide.RIGHT).a1
    else:
        raise ValueError(f"unknown method {method!r}, expected 'closed' or 'generic'")
    m1, m2 = params.mode_1, params.mode_2  # a_out = sqrt(eta kappa) a
    t12 = abs(math.sqrt(m1.eta * m1.kappa_mhz) * a1) / params.drive.eps_2
    t21 = abs(math.sqrt(m2.eta * m2.kappa_mhz) * a2) / params.drive.eps_1
    if t12 == 0.0 and t21 == 0.0:
        raise NoTransmissionError("both output amplitudes vanish")
    quotient = _div(t12, t21)
    ratio = quotient * quotient
    i_signed = -math.inf if ratio == 0.0 else 10.0 * math.log10(ratio)
    return TransmissionReport(t12, t21, ratio, i_signed, abs(i_signed))


def kernel_args(params: SystemParams) -> dict:
    """Keyword arguments of :func:`transmission_grid` for one parameter set."""
    eff = params.effective()
    return {
        "delta": params.delta_mhz,
        "delta_f": params.delta_f_mhz,
        "kappa_1": params.mode_1.kappa_mhz,
        "kappa_2": params.mode_2.kappa_mhz,
        "gamma_m": params.magnon.gamma_m_mhz,
        "omega_s": params.squeeze.omega_s_mhz,
        "g_1": eff.g_eff_1_mhz,
        "g_2": eff.g_eff_2_mhz,
        "eta_1": params.mode_1.eta,
        "eta_2": params.mode_2.eta,
        "eta_3": params.magnon.eta3,
        "eps_1": params.drive.eps_1,
        "eps_2": params.drive.eps_2,
        "eps_3": params.drive.eps_3_eff,
    }


def transmission_grid(*, delta, delta_f, kappa_1, kappa_2, gamma_m, omega_s,
                      g_1, g_2, eta_1, eta_2, eta_3, eps_1, eps_2, eps_3):
    """Vectorized closed-form transmissions on broadcastable numpy inputs.

    All arguments are effective quantities (couplings already squeeze
    enhanced, magnon drive already in the squeezed frame).  Returns
    (t12, t21, ratio, i_signed_db) as float arrays.  Points where both
    outputs vanish come back as nan in ratio and i_signed_db, a single
    vanishing output as infinite isolation, an overflow as non-finite t12
    or t21 (or, of the ratio alone, as infinite isolation with both outputs
    non-zero).  No validity checking is done here, callers mask bad points.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d1 = 0.5 * kappa_1 + 1j * (np.asarray(delta) + np.asarray(delta_f))
        d2 = 0.5 * kappa_2 + 1j * (np.asarray(delta) - np.asarray(delta_f))
        dm = 0.5 * gamma_m + 1j * np.asarray(omega_s)
        root_1 = np.sqrt(eta_1 * np.asarray(kappa_1, dtype=float))
        root_2 = np.sqrt(eta_2 * np.asarray(kappa_2, dtype=float))
        root_3 = np.sqrt(eta_3 * np.asarray(gamma_m, dtype=float))
        den = d1 * d2 * dm + d2 * np.square(g_1) + d1 * np.square(g_2)
        den = np.where(np.isfinite(den), den, np.nan)  # inf + 1j would give 0
        backward = np.abs(g_2 * (d1 * root_3 * eps_3 - 1j * g_1 * root_1 * eps_1)
                          * root_2 / den)
        forward = np.abs(g_1 * (d2 * root_3 * eps_3 - 1j * g_2 * root_2 * eps_2)
                         * root_1 / den)
        t12 = forward / eps_2
        t21 = backward / eps_1
        ratio = np.square(t12 / t21)
        i_signed = 10.0 * np.log10(ratio)
    return t12, t21, ratio, i_signed
