"""Extremal Fizeau shifts, impedance matching and direction bookkeeping.

The determinant and the squeezed-frame frequency omega_s cancel in
T12/T21, so for any ports the isolation ratio is a ratio of two
quadratics in the Fizeau shift x = delta_f:

    R(x) = (w1/w2)^2 [(kappa_2/2)^2 + (x - B)^2] / [(kappa_1/2)^2 + (x + A)^2]

with A = delta - w1, B = delta - w2, w_j = g_j r_j and
r_j = sqrt(kappa_j / gamma_m) sqrt(eta_j / eta_3) eps_j / eps_3.  Its
two stationary shifts are always real (:func:`stationary_shifts`); one
maximizes R and the other minimizes it.  For a symmetric system (equal
ports, equal couplings g) they are the mirror images
+/- sqrt(kappa^2/4 + u^2) with u = delta - g * sqrt(kappa / gamma_m).

The sign u = 0, i.e. delta = g * sqrt(kappa / gamma_m), is the impedance
matched point where transmission is reciprocal for every delta_f.  Solved
for the damping rates this gives the reversal thresholds gamma_0 and
kappa_0 reported by :func:`reciprocal_points`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (FEASIBLE_FIZEAU_BAND, PhysicsError, SystemParams,
                    is_symmetric, with_delta_f)
from .steady_state import TransmissionReport, kernel_args, transmissions


class SymmetryRequiredError(PhysicsError):
    """Closed-form analysis invoked outside its symmetry preconditions."""


class Direction(Enum):
    """Which transmission dominates: FORWARD means port 2 to port 1
    (T12 > T21), BACKWARD the reverse."""

    FORWARD = "forward"
    BACKWARD = "backward"
    RECIPROCAL = "reciprocal"


def classify_direction(report: TransmissionReport,
                       tol_db: float = 1e-9) -> Direction:
    if abs(report.i_signed_db) <= tol_db:
        return Direction.RECIPROCAL
    return Direction.FORWARD if report.i_signed_db > 0 else Direction.BACKWARD


@dataclass(frozen=True)
class SymmetricExtrema:
    """Extremal shifts of a symmetric system; the plus branch maximizes R
    and the minus branch minimizes it, with ratio_minus = 1/ratio_plus and
    a common isolation magnitude."""

    delta_f_plus_mhz: float
    delta_f_minus_mhz: float
    ratio_plus: float
    ratio_minus: float
    isolation_db: float
    in_band_plus: bool
    in_band_minus: bool


def extremal_fizeau_symmetric(
        params: SystemParams,
        band: tuple[float, float] = FEASIBLE_FIZEAU_BAND) -> SymmetricExtrema:
    """:func:`extremal_fizeau_general` for a fully symmetric system."""
    if not is_symmetric(params):
        raise SymmetryRequiredError(
            "extremal_fizeau_symmetric needs equal ports and equal couplings; "
            "see extremal_fizeau_general")
    ex = extremal_fizeau_general(params, band)
    return SymmetricExtrema(ex.delta_f_plus_mhz, ex.delta_f_minus_mhz,
                            ex.ratio_plus, ex.ratio_minus,
                            ex.isolation_plus_db, ex.in_band_plus,
                            ex.in_band_minus)


def stationary_shifts(*, delta, kappa_1, kappa_2, gamma_m, g_1, g_2, eta_1,
                      eta_2, eta_3, eps_1, eps_2, eps_3, delta_f=None,
                      omega_s=None):
    """Both stationary Fizeau shifts (x_plus, x_minus) of R, for any ports.

    Takes :func:`.transmission_grid`'s keyword arguments as broadcastable
    arrays (R depends on neither delta_f nor omega_s).  The shifts solve
    x^2 - u1 x - u2/4 = 0 with t = (kappa_1^2 - kappa_2^2) / (4 (A + B)),
    u1 = w1 - w2 - t and u2 = kappa_2^2 + 4 B (A + t), written so that
    for uniform ports (t = 0) they are r (g1 - g2) and kappa^2 + 4 A B
    operation for operation.  The discriminant is
    (A + B)^2 + t^2 + (kappa_1^2 + kappa_2^2)/2 and is floored at its last
    term.  A point with a non-positive rate or eta_3 eps_3 = 0 gives nan.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r1 = (np.sqrt(np.divide(kappa_1, gamma_m))
              * (np.sqrt(np.divide(eta_1, eta_3)) * eps_1 / eps_3))
        r2 = (np.sqrt(np.divide(kappa_2, gamma_m))
              * (np.sqrt(np.divide(eta_2, eta_3)) * eps_2 / eps_3))
        a = delta - g_1 * r1
        b = delta - g_2 * r2
        k1, k2 = np.multiply(kappa_1, kappa_1), np.multiply(kappa_2, kappa_2)
        # t = 0 wherever kappa_1 = kappa_2; where that holds at every point
        # (uniform ports), its arithmetic is skipped.
        t = (0.0 if np.array_equal(kappa_1, kappa_2)
             else np.where(np.equal(kappa_1, kappa_2), 0.0,
                           (k1 - k2) / (4.0 * (a + b))))
        u1 = r1 * (g_1 - g_2) + g_2 * (r1 - r2) - t
        u2 = k2 + 4.0 * b * (a + t)
        root = np.sqrt(np.maximum(u1 * u1 + u2, 0.5 * (k1 + k2)))
        return 0.5 * (u1 + root), 0.5 * (u1 - root)


def isolation_ratio(*, delta, delta_f, kappa_1, kappa_2, gamma_m, g_1, g_2,
                    eta_1, eta_2, eta_3, eps_1, eps_2, eps_3, omega_s=None):
    """R at ``delta_f`` from the ratio of quadratics, free of the
    determinant.  Takes :func:`.transmission_grid`'s keyword arguments;
    both quadratics are multiplied through by f3 = sqrt(eta_3 gamma_m)
    eps_3, so R stays finite (it is 1) where f3 = 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f3 = np.sqrt(np.multiply(eta_3, gamma_m)) * eps_3
        p1 = g_1 * np.sqrt(np.multiply(eta_1, kappa_1)) * eps_1
        p2 = g_2 * np.sqrt(np.multiply(eta_2, kappa_2)) * eps_2
        num = (np.square(0.5 * kappa_2 * f3)
               + np.square(f3 * (delta_f - delta) + p2))
        den = (np.square(0.5 * kappa_1 * f3)
               + np.square(f3 * (delta_f + delta) - p1))
        return np.square(p1) * num / (np.square(p2) * den)


@dataclass(frozen=True)
class GeneralExtrema:
    """Both stationary Fizeau shifts of R and the ratio at each.

    ``u1_mhz`` and ``u2_mhz2`` are the linear and constant coefficients of
    the extremum quadratic delta_f^2 - u1 delta_f - u2/4 = 0 (the sum of
    the shifts and -4 times their product), kept for inspection; the plus
    branch is the larger shift.
    """

    u1_mhz: float
    u2_mhz2: float
    delta_f_plus_mhz: float
    delta_f_minus_mhz: float
    ratio_plus: float
    ratio_minus: float
    in_band_plus: bool
    in_band_minus: bool

    @property
    def isolation_plus_db(self) -> float:
        return abs(10.0 * math.log10(self.ratio_plus))

    @property
    def isolation_minus_db(self) -> float:
        return abs(10.0 * math.log10(self.ratio_minus))


def extremal_fizeau_general(
        params: SystemParams,
        band: tuple[float, float] = FEASIBLE_FIZEAU_BAND) -> GeneralExtrema:
    """Closed-form extremal Fizeau shifts for any ports and couplings.

    Reduces to the symmetric result when ports and couplings match.  Both
    shifts are real for every positive linewidth.
    """
    args = kernel_args(params)
    if min(args["g_1"], args["g_2"], args["eta_3"] * args["eps_3"]) <= 0.0:
        raise ValueError("extremal analysis needs strictly positive couplings "
                         "and magnon drive; otherwise R does not depend on "
                         "delta_f")
    plus, minus = (float(x) for x in stationary_shifts(**args))
    ratio_plus, ratio_minus = (float(isolation_ratio(**dict(args, delta_f=x)))
                               for x in (plus, minus))
    return GeneralExtrema(plus + minus, -4.0 * plus * minus, plus, minus,
                          ratio_plus, ratio_minus, band[0] <= plus <= band[1],
                          band[0] <= minus <= band[1])


@dataclass(frozen=True)
class ReciprocalPoints:
    """Damping rates at which the response turns reciprocal.

    At fixed delta and coupling, transmission is direction-independent for
    every Fizeau shift once gamma_m = gamma_0 or kappa = kappa_0; crossing
    either threshold reverses the isolation direction.  ``matched`` flags
    whether the given parameters already sit on the reciprocal point.
    """

    gamma_0_mhz: float
    kappa_0_mhz: float
    matched: bool


def reciprocal_points(params: SystemParams) -> ReciprocalPoints:
    if not is_symmetric(params):
        raise SymmetryRequiredError("reciprocal_points needs a symmetric system")
    eff = params.effective()
    g = eff.g_eff_1_mhz
    kappa = params.mode_1.kappa_mhz
    gamma_m = params.magnon.gamma_m_mhz
    delta = params.delta_mhz
    w = g * math.sqrt(kappa / gamma_m)
    matched = abs(delta - w) <= 1e-9 * max(1.0, abs(delta), w)
    gamma_0 = g * g * kappa / delta ** 2 if delta != 0.0 else math.inf
    kappa_0 = delta ** 2 * gamma_m / (g * g) if g != 0.0 else math.inf
    return ReciprocalPoints(gamma_0, kappa_0, matched)


@dataclass(frozen=True)
class OptimumResult:
    delta_f_mhz: float
    isolation_db: float


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


def brute_force_optimum(params: SystemParams,
                        band: tuple[float, float] = FEASIBLE_FIZEAU_BAND,
                        grid_points: int = 2001,
                        refine_tol_mhz: float = 1e-6,
                        method: str = "closed") -> OptimumResult:
    """Locate the Fizeau shift maximizing |I| inside ``band`` numerically.

    A uniform scan brackets the maximum (ties break toward the smallest
    |delta_f|), then golden-section refinement narrows it down to
    ``refine_tol_mhz``.  Makes no symmetry assumptions; this is the
    reference against which the closed-form extrema are checked.
    """
    lo, hi = band
    if not lo < hi:
        raise ValueError("band must satisfy lo < hi")
    if grid_points < 11:
        raise ValueError("grid_points must be at least 11")

    def objective(delta_f: float) -> float:
        return transmissions(with_delta_f(params, delta_f), method=method).i_abs_db

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
    if best_value > i_star:
        x_star, i_star = best_x, best_value
    return OptimumResult(x_star, i_star)
