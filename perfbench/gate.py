"""Correctness gate: every output checked against an oracle, outside timing.

The oracles carry tolerances rather than pinned bytes wherever the
numbers come from a search or a solver, so an exact extremum or a
reordered kernel still passes while a wrong answer fails.  Only the
preset files, whose bytes the project promises to keep, are compared by
sha256.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np

from magnon_sagnac import (apply_overrides, apply_parameter, load_config,
                           parse_config, solve_closed_form, solve_generic,
                           transmissions)
from magnon_sagnac.cli import parse_axis_spec
from magnon_sagnac.serialize import CSV_HEADER
from magnon_sagnac.steady_state import DriveSide
from magnon_sagnac.sweep import sweep

# Closed form against the pivoted 3x3 eliminator, relative to the larger
# transmission (or amplitude).  float64 rounding is 1.1e-16 and the
# systems here have condition numbers below 1e5, so 1e-9 leaves three
# orders of magnitude of margin while a corrupted digit still fails.
RTOL = 1e-9
# 10 log10 of a ratio whose parts agree to RTOL.
I_ATOL_DB = 1e-6
# Searched optima against the exact stationary points.
OPT_ATOL_DB = 0.01
FIZEAU_MHZ, FIZEAU_ATOL_MHZ = 51.26, 0.005
SAMPLES_PER_GRID = 8

DIGESTS = json.loads((Path(__file__).with_name("digests.json"))
                     .read_text(encoding="utf-8"))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# Isolation oracle ------------------------------------------------------
#
# The determinant and omega_s cancel in T12/T21, which leaves
#   R(x) = K [(k2/2)^2 + (x - d + w2)^2] / [(k1/2)^2 + (x + d - w1)^2]
# with w_j = g_j sqrt(eta_j k_j) eps_j / (sqrt(eta3 gamma_m) eps_3) and
# K = (g1 sqrt(eta1 k1) eps1 / (g2 sqrt(eta2 k2) eps2))^2.  |I| is then
# largest at a stationary point of R or at a band edge.

def _quadratics(params):
    eff = params.effective()
    m1, m2, d = params.mode_1, params.mode_2, params.delta_mhz
    drive = params.drive
    f3 = math.sqrt(params.magnon.eta3 * params.magnon.gamma_m_mhz) * drive.eps_3_eff
    p1 = eff.g_eff_1_mhz * math.sqrt(m1.eta * m1.kappa_mhz) * drive.eps_1
    p2 = eff.g_eff_2_mhz * math.sqrt(m2.eta * m2.kappa_mhz) * drive.eps_2
    w1, w2 = p1 / f3, p2 / f3
    b1, c1 = 2.0 * (w2 - d), (0.5 * m2.kappa_mhz) ** 2 + (w2 - d) ** 2
    b2, c2 = 2.0 * (d - w1), (0.5 * m1.kappa_mhz) ** 2 + (d - w1) ** 2
    return (p1 / p2) ** 2, b1, c1, b2, c2


def isolation_db(params, x):
    """Signed isolation at Fizeau shift(s) ``x`` from the quadratic ratio."""
    k, b1, c1, b2, c2 = _quadratics(params)
    x = np.asarray(x, dtype=float)
    return 10.0 * np.log10(k * (x * x + b1 * x + c1) / (x * x + b2 * x + c2))


def best_abs_isolation_db(params, lo=-math.inf, hi=math.inf) -> float:
    """Largest |I| over lo <= delta_f <= hi."""
    _, b1, c1, b2, c2 = _quadratics(params)
    a, b, c = b2 - b1, 2.0 * (c2 - c1), b1 * c2 - b2 * c1
    if a != 0.0:
        roots = np.roots([a, b, c])
        roots = roots[np.isreal(roots)].real
    else:
        roots = np.array([-c / b]) if b != 0.0 else np.array([])
    candidates = [r for r in roots if lo <= r <= hi]
    candidates += [e for e in (lo, hi) if math.isfinite(e)]
    return float(np.max(np.abs(isolation_db(params, candidates))))


# datasets --------------------------------------------------------------

def check_preset_files(out_dir, names) -> list[str]:
    errors = []
    for name in names:
        for ext in ("csv", "svg"):
            path = Path(out_dir) / f"{name}.{ext}"
            if not path.is_file():
                errors.append(f"{path.name} missing")
            elif sha256_file(path) != DIGESTS[path.name]:
                errors.append(f"{path.name} sha256 differs from the recorded "
                              "digest")
    return errors


def _float_column(records, key):
    return np.array([float(r[key]) for r in records], dtype=float)


def _same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=float).ravel()
    b = np.ascontiguousarray(b, dtype=float).ravel()
    return a.shape == b.shape and bool(np.all(
        (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))))


def check_json_sweep(path, job) -> list[str]:
    """Parse a JSON sweep back and compare it bit for bit with sweep()."""
    try:
        records = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        return [f"unreadable JSON output: {e}"]
    cfg = parse_config(apply_overrides({}, job["sets"]))
    result = sweep(cfg.params, [parse_axis_spec(job["axis"]),
                                parse_axis_spec(job["axis2"])])
    if len(records) != result.n_points:
        return [f"{len(records)} records, expected {result.n_points}"]
    n2 = result.shape[1]
    ax1 = np.repeat(result.axis_values[0], n2)
    ax2 = np.tile(result.axis_values[1], result.shape[0])
    errors = []
    for key, expected in (("axis1", ax1), ("axis2", ax2), ("T12", result.t12),
                          ("T21", result.t21), ("R", result.ratio),
                          ("I_signed_db", result.i_signed_db),
                          ("I_abs_db", result.i_abs_db)):
        if not _same_bits(_float_column(records, key), expected):
            errors.append(f"column {key} differs from the in-process sweep")
    if [r["direction"] for r in records] != result.directions().ravel().tolist():
        errors.append("direction column differs from the in-process sweep")
    codes = [result.error_codes.get(i, "") for i in range(result.n_points)]
    if [r["error_code"] for r in records] != codes:
        errors.append("error_code column differs from the in-process sweep")
    return errors


# grid_api --------------------------------------------------------------

_SCRUBBED = frozenset({"RATE_POSITIVE", "NONFINITE", "COUPLING_NEGATIVE",
                       "NO_REAL_EXTREMUM", "EXTREMUM_SEARCH_FAILED"})


def expected_invalid(job) -> np.ndarray:
    """Points whose swept gamma_m or kappa is not positive, recomputed from
    the axis specs alone."""
    masks = []
    for param, lo, hi, count, _norm in job["axes"]:
        values = np.linspace(lo, hi, count)
        masks.append(values <= 0.0 if param in ("gamma_m", "kappa")
                     else np.zeros(count, dtype=bool))
    if len(masks) == 1:
        return masks[0]
    return masks[0][:, None] | masks[1][None, :]


def check_grid(job, result) -> list[str]:
    errors = []
    invalid = expected_invalid(job)
    if result.shape != invalid.shape:
        return [f"shape {result.shape}, expected {invalid.shape}"]
    counts = Counter(result.error_codes.values())
    scrubbed = np.zeros(result.n_points, dtype=bool)
    scrubbed[[flat for flat, code in result.error_codes.items()
              if code in _SCRUBBED]] = True
    if counts["RATE_POSITIVE"] != int(invalid.sum()):
        errors.append(f"{counts['RATE_POSITIVE']} RATE_POSITIVE points, "
                      f"expected {int(invalid.sum())}")
    if not np.array_equal(scrubbed, invalid.ravel()):
        errors.append("masked points differ from the invalid inputs")
    t12 = result.t12.ravel()
    if not np.all(np.isnan(t12[invalid.ravel()])):
        errors.append("a masked point carries a value")
    valid = np.flatnonzero(~invalid.ravel())
    if not np.all(np.isfinite(t12[valid])):
        errors.append("a valid point has a non-finite transmission")
    rng = random.Random(job["id"])
    for flat in rng.sample(list(valid), min(SAMPLES_PER_GRID, valid.size)):
        idx = np.unravel_index(flat, result.shape)
        ref = transmissions(result.params_at(*map(int, idx)), method="generic")
        scale = max(ref.t12, ref.t21)
        got = result.report_at(*idx)
        if (abs(got.t12 - ref.t12) > RTOL * scale
                or abs(got.t21 - ref.t21) > RTOL * scale
                or abs(got.i_signed_db - ref.i_signed_db) > I_ATOL_DB):
            errors.append(f"point {tuple(map(int, idx))} disagrees with the "
                          "generic solver")
    return errors


# queries ---------------------------------------------------------------

def parse_text(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= RTOL * scale


def check_query(job, config_path, rc: int, stdout: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    cfg = parse_config(apply_overrides(load_config(config_path), job["sets"]))
    params = cfg.params
    kind = job["kind"]
    fields = parse_text(stdout)
    try:
        if kind == "validate":
            return [] if stdout == "ok\n" else ["validate did not print ok"]
        if kind == "fizeau":
            shift = float(fields["delta_f_mhz"])
            if abs(shift - FIZEAU_MHZ) > FIZEAU_ATOL_MHZ:
                return [f"Fizeau shift {shift} MHz, expected {FIZEAU_MHZ}"]
            return []
        if kind == "isolate":
            ref = transmissions(params, method="generic")
            scale = max(ref.t12, ref.t21)
            ok = (_close(float(fields["t12"]), ref.t12, scale)
                  and _close(float(fields["t21"]), ref.t21, scale)
                  and abs(float(fields["i_signed_db"]) - ref.i_signed_db)
                  <= I_ATOL_DB)
            return [] if ok else ["isolate disagrees with the generic solver"]
        if kind.startswith("steady"):
            side = DriveSide(job["argv"][job["argv"].index("--side") + 1])
            other = solve_generic if kind == "steady_closed" else solve_closed_form
            ref = other(params, side)
            scale = max(abs(ref.a1), abs(ref.a2), abs(ref.m))
            for name in ("a1", "a2", "m"):
                z = complex(float(fields[f"{name}_re"]),
                            float(fields[f"{name}_im"]))
                if abs(z - getattr(ref, name)) > RTOL * scale:
                    return [f"steady {name} disagrees with the other solver"]
            return []
        if kind == "brute":
            best = best_abs_isolation_db(params, *cfg.band)
            got = float(fields["isolation_db"])
            at = abs(float(isolation_db(params, float(fields["delta_f_mhz"]))))
            if abs(got - best) > OPT_ATOL_DB or abs(at - got) > OPT_ATOL_DB:
                return [f"brute optimum {got} dB, oracle {best} dB"]
            return []
        if kind == "analytic":
            best = best_abs_isolation_db(params)
            got = float(fields["isolation_db"])
            if abs(got - best) > OPT_ATOL_DB:
                return [f"analytic optimum {got} dB, oracle {best} dB"]
            return []
        if kind == "sweep":
            return _check_optimal_sweep(job, cfg, stdout)
    except (KeyError, ValueError) as e:
        return [f"unparsable {kind} output: {e!r}"]
    raise ValueError(f"unknown query kind {kind!r}")


def _check_optimal_sweep(job, cfg, stdout: str) -> list[str]:
    """Each --optimal-df point must sit within OPT_ATOL_DB of the best
    isolation over the positive half of the band."""
    lines = stdout.splitlines()
    axis = parse_axis_spec(job["argv"][job["argv"].index("--axis") + 1])
    if lines[0] != CSV_HEADER or len(lines) != axis.count + 1:
        return ["optimal-df sweep output has the wrong shape"]
    errors = []
    for line in lines[1:]:
        cols = line.split(",")
        value = float(cols[0])
        point = apply_parameter(cfg.params, axis.parameter,
                                value * axis.scale(cfg.params))
        best = best_abs_isolation_db(point, 0.0, cfg.band[1])
        if cols[8] or abs(float(cols[6]) - best) > OPT_ATOL_DB:
            errors.append(f"{axis.parameter.value}={value}: |I| = {cols[6]} "
                          f"dB, oracle {best} dB")
    return errors

