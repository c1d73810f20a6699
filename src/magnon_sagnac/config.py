"""Config documents: strict parsing, overrides and canonical resolution.

A config is a flat JSON object.  Every key is optional; defaults give the
standard demonstration parameter set.  Anything unrecognized is an error
rather than a warning, so typos cannot silently fall back to defaults;
a ``null`` value is an error too, never the default.

    {
      "g0_mhz": 41.0,              // scalar or [g0_1, g0_2]
      "G": 0.5,                    // squeeze exponent
      "kappa_mhz": 1.1,            // scalar, or {"total": ..., "external": ...}
      "eta": 0.5,                  // scalar or pair; scalar-kappa form only
      "gamma_m_mhz": 4.0,
      "eta3": 0.5,
      "delta_mhz": 0.0,
      "delta_f_mhz": 0.0,
      "omega_s_mhz": 0.0,          // squeezed-frame frequency override
      "drive": {"eps": [1, 1, 1]}, // or {"power_w": [...], "omega_p_mhz": ...}
      "rotation": {"omega_rot_hz": 6600.0, "direction": "cw", "n": 2.2,
                   "r_m": 1.1e-3, "dn_dlambda": 0.0, "omega0_thz": 193.0},
      "band_mhz": [-65.0, 65.0]
    }

``drive.eps`` entries are amplitudes in s^-1/2 with the third already in
the squeezed frame; ``drive.power_w`` converts watts through
sqrt(P / hbar omega_p) and multiplies the magnon entry by e^{-G}, with
omega_p defaulting to the carrier omega0.  Otherwise the rotation block
only feeds the Fizeau-shift computation, it never sets ``delta_f_mhz``
implicitly; its dispersion term takes the carrier's wavelength c / omega0.

Parsing also assembles the canonical document (every key explicit, kappa
in total/external form, drives as amplitudes) from the exact parsed
floats, so ``resolved_document`` is a true fixed point of
``parse_config`` with no unit round trips in between.  Physics range
checking is left to :func:`magnon_sagnac.model.validate`.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

from .model import (CavityMode, DriveAmplitudes, MagnonMode,
                    RotationDirection, RotationSpec, SqueezeSpec,
                    SystemParams)


class ConfigError(Exception):
    """Structurally invalid config document."""


_DRIVE_KEYS = {"eps", "power_w", "omega_p_mhz"}
_KAPPA_KEYS = {"total", "external"}


def default_document() -> dict:
    return {
        "g0_mhz": 41.0,
        "G": 0.5,
        "kappa_mhz": 1.1,
        "eta": 0.5,
        "gamma_m_mhz": 4.0,
        "eta3": 0.5,
        "delta_mhz": 0.0,
        "delta_f_mhz": 0.0,
        "omega_s_mhz": 0.0,
        "drive": {"eps": [1.0, 1.0, 1.0]},
        "rotation": {"omega_rot_hz": 6.6e3, "direction": "cw", "n": 2.2,
                     "r_m": 1.1e-3, "dn_dlambda": 0.0, "omega0_thz": 193.0},
        "band_mhz": [-65.0, 65.0],
    }


_TOP_KEYS = set(default_document())
_ROTATION_KEYS = set(default_document()["rotation"])


@dataclass(frozen=True)
class ResolvedConfig:
    params: SystemParams
    rotation: RotationSpec
    band: tuple[float, float]
    document: dict


def _as_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _pair_or_scalar(value, name: str) -> tuple[float, float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value), float(value)
    if isinstance(value, list) and len(value) == 2:
        return (_as_number(value[0], f"{name}[0]"),
                _as_number(value[1], f"{name}[1]"))
    raise ConfigError(f"{name} must be a number or a pair, got {value!r}")


def _scalar_or_list(a: float, b: float):
    return a if a == b else [a, b]


def _check_keys(doc: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"unknown {context} key(s): {', '.join(unknown)}; "
                          f"allowed: {', '.join(sorted(allowed))}")


def _parse_modes(doc: dict, eta_explicit: bool):
    kappa = doc["kappa_mhz"]
    if isinstance(kappa, dict):
        _check_keys(kappa, _KAPPA_KEYS, "kappa_mhz")
        if set(kappa) != _KAPPA_KEYS:
            raise ConfigError("kappa_mhz object needs both total and external")
        if eta_explicit:
            raise ConfigError("eta cannot be combined with the explicit "
                              "kappa_mhz total/external form")
        totals = _pair_or_scalar(kappa["total"], "kappa_mhz.total")
        externals = _pair_or_scalar(kappa["external"], "kappa_mhz.external")
    else:
        totals = _pair_or_scalar(kappa, "kappa_mhz")
        etas = _pair_or_scalar(doc["eta"], "eta")
        externals = (etas[0] * totals[0], etas[1] * totals[1])
    return (CavityMode(totals[0], externals[0]),
            CavityMode(totals[1], externals[1]))


def _parse_drive(doc: dict, g_squeeze: float,
                 rotation: RotationSpec) -> DriveAmplitudes:
    drive = doc["drive"]
    if not isinstance(drive, dict):
        raise ConfigError("drive must be an object")
    _check_keys(drive, _DRIVE_KEYS, "drive")
    has_eps = "eps" in drive
    has_power = "power_w" in drive
    if has_eps == has_power:
        raise ConfigError("drive needs exactly one of eps, power_w")
    if has_eps:
        if "omega_p_mhz" in drive:
            raise ConfigError("drive.omega_p_mhz only applies to power_w")
        eps = drive["eps"]
        if not (isinstance(eps, list) and len(eps) == 3):
            raise ConfigError("drive.eps must be a list of three amplitudes")
        return DriveAmplitudes(*(_as_number(v, f"drive.eps[{i}]")
                                 for i, v in enumerate(eps)))
    powers = drive["power_w"]
    if not (isinstance(powers, list) and len(powers) == 3):
        raise ConfigError("drive.power_w must be a list of three powers")
    values = [_as_number(v, f"drive.power_w[{i}]")
              for i, v in enumerate(powers)]
    omega_p = (_as_number(drive["omega_p_mhz"], "drive.omega_p_mhz")
               if "omega_p_mhz" in drive else rotation.omega0_mhz)
    try:
        return DriveAmplitudes.from_powers(*values, omega_p,
                                           math.exp(-g_squeeze))
    except (ValueError, OverflowError) as e:  # OverflowError: e^-G
        raise ConfigError(f"drive: {e}") from None


def _parse_rotation(doc: dict) -> RotationSpec:
    rot = doc["rotation"]  # parse_config merged it over the full default
    _check_keys(rot, _ROTATION_KEYS, "rotation")
    direction = rot["direction"]
    try:
        direction = RotationDirection(direction)
    except ValueError:
        raise ConfigError(f"rotation.direction must be one of cw, ccw, none; "
                          f"got {direction!r}") from None
    return RotationSpec(
        omega_rot_hz=_as_number(rot["omega_rot_hz"], "rotation.omega_rot_hz"),
        direction=direction,
        refractive_index=_as_number(rot["n"], "rotation.n"),
        radius_m=_as_number(rot["r_m"], "rotation.r_m"),
        dn_dwavelength_per_m=_as_number(rot["dn_dlambda"],
                                        "rotation.dn_dlambda"),
        omega0_mhz=_as_number(rot["omega0_thz"], "rotation.omega0_thz") * 1e6)


def parse_config(raw: dict) -> ResolvedConfig:
    """Build the full parameter set from a (possibly partial) document."""
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "config")
    doc = default_document()
    for key, value in raw.items():
        if key == "rotation":
            if not isinstance(value, dict):
                raise ConfigError("rotation must be an object")
            doc["rotation"] = {**doc["rotation"], **value}
        else:
            doc[key] = value

    g0 = _pair_or_scalar(doc["g0_mhz"], "g0_mhz")
    g_squeeze = _as_number(doc["G"], "G")
    mode_1, mode_2 = _parse_modes(doc, eta_explicit="eta" in raw)
    rotation = _parse_rotation(doc)
    band_raw = doc["band_mhz"]
    if not (isinstance(band_raw, list) and len(band_raw) == 2):
        raise ConfigError("band_mhz must be [lo, hi]")
    band = (_as_number(band_raw[0], "band_mhz[0]"),
            _as_number(band_raw[1], "band_mhz[1]"))
    if not (math.isfinite(band[0]) and math.isfinite(band[1])):
        raise ConfigError(f"band_mhz must be finite, got {band_raw!r}")
    if not band[0] < band[1]:
        raise ConfigError("band_mhz must satisfy lo < hi")

    magnon = MagnonMode(_as_number(doc["gamma_m_mhz"], "gamma_m_mhz"),
                        _as_number(doc["eta3"], "eta3"))
    drive = _parse_drive(doc, g_squeeze, rotation)
    omega_s = _as_number(doc["omega_s_mhz"], "omega_s_mhz")
    params = SystemParams(
        mode_1=mode_1, mode_2=mode_2, magnon=magnon,
        squeeze=SqueezeSpec(g_squeeze, omega_s),
        drive=drive,
        g0_1_mhz=g0[0], g0_2_mhz=g0[1],
        delta_mhz=_as_number(doc["delta_mhz"], "delta_mhz"),
        delta_f_mhz=_as_number(doc["delta_f_mhz"], "delta_f_mhz"))

    canonical: dict = {
        "g0_mhz": _scalar_or_list(params.g0_1_mhz, params.g0_2_mhz),
        "G": g_squeeze,
        "kappa_mhz": {
            "total": _scalar_or_list(mode_1.kappa_mhz, mode_2.kappa_mhz),
            "external": _scalar_or_list(mode_1.kappa_ext_mhz,
                                        mode_2.kappa_ext_mhz)},
        "gamma_m_mhz": magnon.gamma_m_mhz,
        "eta3": magnon.eta3,
        "delta_mhz": params.delta_mhz,
        "delta_f_mhz": params.delta_f_mhz,
        "omega_s_mhz": omega_s,
        "drive": {"eps": [drive.eps_1, drive.eps_2, drive.eps_3_eff]},
        "rotation": {"omega_rot_hz": rotation.omega_rot_hz,
                     "direction": rotation.direction.value,
                     "n": rotation.refractive_index,
                     "r_m": rotation.radius_m,
                     "dn_dlambda": rotation.dn_dwavelength_per_m,
                     "omega0_thz": doc["rotation"]["omega0_thz"]},
        "band_mhz": [band[0], band[1]],
    }
    return ResolvedConfig(params, rotation, band, canonical)


def resolved_document(cfg: ResolvedConfig) -> dict:
    """Canonical explicit document; a fixed point of parse_config."""
    return copy.deepcopy(cfg.document)


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as file:
        text = file.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    return raw


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply ``key=value`` or ``nested.key=value`` command-line overrides.

    Values are parsed as JSON with a fallback to the bare string, so
    ``--set rotation.direction=ccw`` works without inner quotes.  ``raw``
    is never mutated: only the dicts on each override's dotted path are
    copied, and nested values that no override touches are shared with
    ``raw`` (nothing in the package mutates them).
    """
    doc = dict(raw)
    for assignment in assignments:
        key, sep, text = assignment.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"override {assignment!r} is not key=value")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        target = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = target.get(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot descend into {part!r} in override "
                                  f"{assignment!r}")
            target[part] = node = dict(node)
            target = node
        target[parts[-1]] = value
    return doc
