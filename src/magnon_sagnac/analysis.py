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

from ._lazy import lazy_import
from .model import (DIRECTION_LABELS, FEASIBLE_FIZEAU_BAND, PhysicsError,
                    SystemParams, _close, direction_index, is_symmetric,
                    with_delta_f)
from .steady_state import (TransmissionReport, kernel_args,
                           require_optical_drive, transmissions)

np = lazy_import("numpy")


class SymmetryRequiredError(PhysicsError):
    """Closed-form analysis invoked outside its symmetry preconditions."""


class Direction(Enum):
    """Which transmission dominates: FORWARD means port 2 to port 1
    (T12 > T21), BACKWARD the reverse."""

    FORWARD = "forward"
    BACKWARD = "backward"
    RECIPROCAL = "reciprocal"


def classify_direction(report: TransmissionReport) -> Direction:
    """The direction of ``report``'s isolation, reciprocal within
    ``RECIPROCAL_TOL_DB``; a nan isolation has none and raises
    ``ValueError``."""
    if math.isnan(report.i_signed_db):
        raise ValueError("the isolation is nan, so it has no direction")
    return Direction(DIRECTION_LABELS[direction_index(report.i_signed_db)])


def stationary_shifts(**args):
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
    return _stationary(**args)[:2]


def _stationary(*, delta, kappa_1, kappa_2, gamma_m, g_1, g_2, eta_1, eta_2,
                eta_3, eps_1, eps_2, eps_3, delta_f=None, omega_s=None):
    """The stationary shifts and the terms of R they are built from:
    (x_plus, x_minus, w1, w2, A, B, kappa_1^2, kappa_2^2)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r1 = (np.sqrt(np.divide(kappa_1, gamma_m))
              * (np.sqrt(np.divide(eta_1, eta_3)) * eps_1 / eps_3))
        r2 = (np.sqrt(np.divide(kappa_2, gamma_m))
              * (np.sqrt(np.divide(eta_2, eta_3)) * eps_2 / eps_3))
        w1, w2 = g_1 * r1, g_2 * r2
        a, b = delta - w1, delta - w2
        k1, k2 = np.multiply(kappa_1, kappa_1), np.multiply(kappa_2, kappa_2)
        # t = 0 wherever kappa_1 = kappa_2; where that holds at every point
        # (uniform ports), its arithmetic is skipped.
        t = (0.0 if np.array_equal(kappa_1, kappa_2)
             else np.where(np.equal(kappa_1, kappa_2), 0.0,
                           (k1 - k2) / (4.0 * (a + b))))
        u1 = r1 * (g_1 - g_2) + g_2 * (r1 - r2) - t
        u2 = k2 + 4.0 * b * (a + t)
        root = np.sqrt(np.maximum(u1 * u1 + u2, 0.5 * (k1 + k2)))
        return 0.5 * (u1 + root), 0.5 * (u1 - root), w1, w2, a, b, k1, k2


def half_band_shift(lo: float, hi: float, **args):
    """The Fizeau shift of largest |I| on [lo, hi], for any ports.

    Takes :func:`.transmission_grid`'s keyword arguments as broadcastable
    arrays and returns the shift at their broadcast shape.  The candidates
    are, in order, the point of [lo, hi] nearest 0, the smaller and the
    larger :func:`stationary_shifts` inside [lo, hi], and each finite edge,
    lower first; a later one wins only at a strictly larger |I|, and a nan
    score never wins.  With R = N / D as in the module docstring, the score
    max(N, D) / min(N, D) is the same for both mirror shifts of a symmetric
    system, so a mirror tie keeps the negative shift.  No determinant
    enters, so an infinite ``hi`` (or ``lo``) leaves that side unbounded.
    """
    plus, minus, w1, w2, a, b, k1, k2 = _stationary(**args)
    zero = min(max(lo, 0.0), hi)
    edges = [(x, False) for x in (lo, hi) if math.isfinite(x) and x != zero]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale, c1, c2 = np.square(w1 / w2), 0.25 * k1, 0.25 * k2
        shape = np.broadcast(plus, minus, scale, a, b, c1, c2).shape
        num, den, score = (np.empty(shape) for _ in range(3))
        shift, best = np.full(shape, zero), np.full(shape, -math.inf)
        # N and D into buffers that every candidate reuses.  The point
        # nearest 0 and the finite edges lie in [lo, hi] by construction;
        # only the stationary shifts take the band test.
        for x, test in ((zero, False), (minus, True), (plus, True), *edges):
            np.square(np.subtract(x, b, out=num), out=num)
            np.multiply(scale, np.add(c2, num, out=num), out=num)
            np.add(c1, np.square(np.add(x, a, out=den), out=den), out=den)
            np.maximum(num, den, out=score)
            np.divide(score, np.minimum(num, den, out=num), out=score)
            better = score > best
            if test:
                better &= (lo <= x) & (x <= hi)
            np.copyto(shift, x, where=better)
            np.copyto(best, score, where=better)
    return shift


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
    """Both stationary Fizeau shifts of R and the ratio at each; the plus
    branch is the larger shift."""

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

    For a symmetric system (:func:`.is_symmetric`) the shifts are mirror
    images, ratio_minus = 1/ratio_plus, and both branches share one
    isolation magnitude.  Both shifts are real for every positive
    linewidth.  An isolation ratio that leaves the float range at either
    shift raises ``PhysicsError`` with an ``OVERFLOW`` message.
    """
    require_optical_drive(params)
    args = kernel_args(params)
    if min(args["g_1"], args["g_2"], args["eta_3"] * args["eps_3"]) <= 0.0:
        raise ValueError("extremal analysis needs strictly positive couplings "
                         "and magnon drive; otherwise R does not depend on "
                         "delta_f")
    plus, minus = (float(x) for x in stationary_shifts(**args))
    ratio_plus, ratio_minus = (float(isolation_ratio(**dict(args, delta_f=x)))
                               for x in (plus, minus))
    if math.isnan(ratio_plus) or math.isnan(ratio_minus):
        raise PhysicsError("OVERFLOW: the isolation ratio left the float "
                           "range at a stationary shift")
    return GeneralExtrema(plus, minus, ratio_plus, ratio_minus,
                          band[0] <= plus <= band[1],
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
    matched = _close(delta, g * math.sqrt(kappa / gamma_m))
    gamma_0 = g * g * kappa / delta ** 2 if delta != 0.0 else math.inf
    kappa_0 = delta ** 2 * gamma_m / (g * g) if g != 0.0 else math.inf
    return ReciprocalPoints(gamma_0, kappa_0, matched)


@dataclass(frozen=True)
class OptimumResult:
    delta_f_mhz: float
    isolation_db: float


def brute_force_optimum(params: SystemParams,
                        band: tuple[float, float] = FEASIBLE_FIZEAU_BAND
                        ) -> OptimumResult:
    """The Fizeau shift of largest |I| inside ``band``, found exactly.

    The shift is :func:`half_band_shift` over the whole band, the rule an
    extremal ``sweep()`` applies at every point, so a response that does
    not depend on the shift keeps the point nearest 0.  Only the winner is
    solved with the scalar :func:`.transmissions`, whose errors are raised;
    ``isolation_db`` is -inf where its isolation is nan.  Makes no symmetry
    assumptions.
    """
    lo, hi = band
    if not lo < hi:
        raise ValueError("band must satisfy lo < hi")
    require_optical_drive(params)
    x = float(half_band_shift(lo, hi, **kernel_args(params)))
    value = transmissions(with_delta_f(params, x)).i_abs_db
    return OptimumResult(x, -math.inf if math.isnan(value) else value)
