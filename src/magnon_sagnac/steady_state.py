"""Steady-state response of the driven three-mode system.

With fluctuations dropped, the equations of motion for the two optical
modes and the squeezed magnon mode reduce to one 3x3 complex linear
system per drive side:

    (kappa_1/2 + i delta_1) a_1 + i g_1 m = sqrt(eta_1 kappa_1) eps_1
    (kappa_2/2 + i delta_2) a_2 + i g_2 m = sqrt(eta_2 kappa_2) eps_2
    i g_1 a_1 + i g_2 a_2 + (gamma_m/2 + i omega_s) m = sqrt(eta_3 gamma_m) eps_3'

where g_j are the squeeze-enhanced couplings and eps_3' the squeezed-frame
magnon drive.  Two solution routes are provided, a closed-form evaluation
and a generic elimination solver; they are algebraically identical and
serve as cross-checks on each other.  Output fields follow from
a_out = sqrt(eta kappa) a.

Transmissions are amplitude ratios: T12 = |a1_out / eps_2| with the drive
on port 2, T21 = |a2_out / eps_1| with the drive on port 1.  The
isolation ratio is R = (T12 / T21)^2 and I = 10 log10 R in dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import PhysicsError, SystemParams


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
    flag a point where exactly one of the two outputs vanishes.
    """

    t12: float
    t21: float
    ratio: float
    i_signed_db: float
    i_abs_db: float


def _coefficients(params: SystemParams, side: DriveSide):
    eff = params.effective()
    m1, m2, mag = params.mode_1, params.mode_2, params.magnon
    d1 = 0.5 * m1.kappa_mhz + 1j * params.delta_1_mhz
    d2 = 0.5 * m2.kappa_mhz + 1j * params.delta_2_mhz
    dm = 0.5 * mag.gamma_m_mhz + 1j * eff.omega_s_mhz
    eps_1 = params.drive.eps_1 if side is DriveSide.LEFT else 0.0
    eps_2 = params.drive.eps_2 if side is DriveSide.RIGHT else 0.0
    f1 = math.sqrt(m1.eta * m1.kappa_mhz) * eps_1
    f2 = math.sqrt(m2.eta * m2.kappa_mhz) * eps_2
    f3 = math.sqrt(mag.eta3 * mag.gamma_m_mhz) * params.drive.eps_3_eff
    return d1, d2, dm, eff.g_eff_1_mhz, eff.g_eff_2_mhz, f1, f2, f3


def solve_closed_form(params: SystemParams, side: DriveSide) -> SteadyState:
    """Closed-form steady state for a one-sided optical drive."""
    d1, d2, dm, g1, g2, f1, f2, f3 = _coefficients(params, side)
    den = d1 * d2 * dm + d2 * g1 * g1 + d1 * g2 * g2
    if den == 0:
        raise DegenerateSystemError("vanishing system determinant")
    if side is DriveSide.LEFT:
        m = (d1 * d2 * f3 - 1j * g1 * d2 * f1) / den
        a1 = f1 / d1 - 1j * g1 * m / d1
        a2 = -1j * g2 * (d1 * f3 - 1j * g1 * f1) / den
    else:
        m = (d1 * d2 * f3 - 1j * g2 * d1 * f2) / den
        a2 = f2 / d2 - 1j * g2 * m / d2
        a1 = -1j * g1 * (d2 * f3 - 1j * g2 * f2) / den
    return SteadyState(a1, a2, m)


def _solve_complex_3x3(a: list[list[complex]], b: list[complex],
                       pivot_floor: float = 1e-14) -> list[complex]:
    """Gaussian elimination with scaled partial pivoting.

    Raises DegenerateSystemError when the best available pivot falls below
    ``pivot_floor`` relative to its row scale, i.e. the system is singular
    to roughly working precision.
    """
    n = len(b)
    a = [list(row) for row in a]
    b = list(b)
    scale = [max(abs(v) for v in row) for row in a]
    if min(scale) == 0.0:
        raise DegenerateSystemError("zero row in system matrix")
    for k in range(n - 1):
        p = max(range(k, n), key=lambda i: abs(a[i][k]) / scale[i])
        if abs(a[p][k]) <= pivot_floor * scale[p]:
            raise DegenerateSystemError("system matrix numerically singular")
        if p != k:
            a[k], a[p] = a[p], a[k]
            b[k], b[p] = b[p], b[k]
            scale[k], scale[p] = scale[p], scale[k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= factor * a[k][j]
            b[i] -= factor * b[k]
    if abs(a[n - 1][n - 1]) <= pivot_floor * scale[n - 1]:
        raise DegenerateSystemError("system matrix numerically singular")
    x = [0j] * n
    for i in range(n - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, n):
            acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return x


def solve_generic(params: SystemParams, side: DriveSide) -> SteadyState:
    """Eliminate the full 3x3 system; an independent route to the same
    steady state as :func:`solve_closed_form`."""
    d1, d2, dm, g1, g2, f1, f2, f3 = _coefficients(params, side)
    matrix = [[d1, 0j, 1j * g1],
              [0j, d2, 1j * g2],
              [1j * g1, 1j * g2, dm]]
    a1, a2, m = _solve_complex_3x3(matrix, [f1, f2, f3])
    return SteadyState(a1, a2, m)


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


_SOLVERS = {"closed": solve_closed_form, "generic": solve_generic}


def transmissions(params: SystemParams, method: str = "closed") -> TransmissionReport:
    """Solve both drive sides and report T12, T21 and the isolation.

    Requires strictly positive optical drive amplitudes, since the
    transmissions are normalized by them.
    """
    if params.drive.eps_1 <= 0.0 or params.drive.eps_2 <= 0.0:
        raise NoTransmissionError(
            "both optical drive amplitudes must be positive to define T12 and T21")
    try:
        solver = _SOLVERS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}, expected 'closed' or 'generic'")
    backward = abs(output_fields(solver(params, DriveSide.LEFT), params).a2_out)
    forward = abs(output_fields(solver(params, DriveSide.RIGHT), params).a1_out)
    t12 = forward / params.drive.eps_2
    t21 = backward / params.drive.eps_1
    if forward == 0.0 and backward == 0.0:
        raise NoTransmissionError("both output amplitudes vanish")
    if backward == 0.0:
        ratio, i_signed = math.inf, math.inf
    elif forward == 0.0:
        ratio, i_signed = 0.0, -math.inf
    else:  # R may leave the float range: I is then +/-inf, as on a grid
        quotient = t12 / t21
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
        "omega_s": eff.omega_s_mhz,
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
