"""Each input guard against the float edge values, one table per layer:
the per-point input codes of sweep() and the ConfigError branches of
parse_config."""

import dataclasses
import importlib
import math
import re
import sys

import numpy as np
import pytest

from magnon_sagnac import Axis, SweepParameter, sweep
from magnon_sagnac.config import ConfigError, parse_config
from magnon_sagnac.steady_state import kernel_args

sweep_module = importlib.import_module("magnon_sagnac.sweep")

MAX = sys.float_info.max
# The values every guard is fed, in the order of the tables' strings.
_SPECIALS = (0.0, -0.0, math.nan, math.inf, -math.inf, MAX, -MAX)

# What sweep() marks where one kernel argument takes each of _SPECIALS:
# R RATE_POSITIVE, C COUPLING_NEGATIVE, N NONFINITE, and "." no input code
# (the kernel may still give OVERFLOW, NO_TRANSMISSION or INF_ISOLATION).
# A rate that is -inf is RATE_POSITIVE before it is NONFINITE, and a
# coupling that is -inf COUPLING_NEGATIVE before it is NONFINITE.
_CODES = {"R": "RATE_POSITIVE", "C": "COUPLING_NEGATIVE", "N": "NONFINITE"}
_INPUT_TABLE = {
    "kappa_1": "RRNNR.R", "kappa_2": "RRNNR.R", "gamma_m": "RRNNR.R",
    "g_1": "..NNC.C", "g_2": "..NNC.C",
    "delta": "..NNN..", "delta_f": "..NNN..", "omega_s": "..NNN..",
}


def test_input_table_covers_every_check():
    keys = {key for _, keys, _ in sweep_module._INPUT_CHECKS for key in keys}
    assert keys == set(_INPUT_TABLE)
    assert [name for name, _, _ in sweep_module._INPUT_CHECKS] == [
        "RATE_POSITIVE", "COUPLING_NEGATIVE", "NONFINITE"]


@pytest.mark.parametrize("key", sorted(_INPUT_TABLE))
def test_input_checks_name_each_special_value(base_params, monkeypatch, key):
    """Each kernel argument takes every special value, and one ordinary
    value that passes, at the points of a delta_f axis whose substitution
    is replaced to write them."""
    values = np.array([*_SPECIALS, kernel_args(base_params)[key]])
    quantity = sweep_module._QUANTITIES[SweepParameter.DELTA_F]
    monkeypatch.setitem(
        sweep_module._QUANTITIES, SweepParameter.DELTA_F,
        dataclasses.replace(quantity, kernel=lambda args, base, grid: {
            key: values[grid.astype(int)]}))
    res = sweep(base_params, [Axis(SweepParameter.DELTA_F, 0.0,
                                   len(values) - 1.0, len(values))])
    codes = [sweep_module.CODE_NAMES[c] for c in res.codes]
    for value, code, want in zip(values, codes, _INPUT_TABLE[key] + "."):
        if want == ".":
            assert code not in _CODES.values(), (key, value, code)
        else:
            assert code == _CODES[want], (key, value, code)
    assert codes[-1] == ""


_FINITE = "band_mhz must be finite"
_ORDER = "band_mhz must satisfy lo < hi"
_POWER = "drive: pump power must be non-negative"
_FREQUENCY = "drive: pump frequency must be positive"
_RANGE = "drive: math range error"
_POWERS = [1e-3, 1e-3, 1e-3]
# Per config entry, a document holding the value V, and what parse_config
# says to each of _SPECIALS: None where it accepts the value (validate()
# checks the physics), else the start of its ConfigError message.
_CONFIG_TABLE = [
    ("band_mhz[0]", lambda v: {"band_mhz": [v, 65.0]},
     (None, None, _FINITE, _FINITE, _FINITE, _ORDER, None)),
    ("band_mhz[1]", lambda v: {"band_mhz": [-65.0, v]},
     (None, None, _FINITE, _FINITE, _FINITE, None, _ORDER)),
    ("drive.power_w[0]", lambda v: {"drive": {"power_w": [v, 1e-3, 1e-3]}},
     (None, None, None, None, _POWER, None, _POWER)),
    ("drive.power_w[2]", lambda v: {"drive": {"power_w": [1e-3, 1e-3, v]}},
     (None, None, None, None, _POWER, None, _POWER)),
    ("drive.omega_p_mhz",
     lambda v: {"drive": {"power_w": _POWERS, "omega_p_mhz": v}},
     (_FREQUENCY, _FREQUENCY, None, None, _FREQUENCY, None, _FREQUENCY)),
    # e^-G overflows for G = -MAX only; -inf gives e^inf = inf.
    ("G with power_w", lambda v: {"G": v, "drive": {"power_w": _POWERS}},
     (None, None, None, None, None, None, _RANGE)),
    *((key, lambda v, key=key: {key: v}, (None,) * 7)
      for key in ("g0_mhz", "G", "kappa_mhz", "eta", "gamma_m_mhz", "eta3",
                  "delta_mhz", "delta_f_mhz", "omega_s_mhz")),
    ("kappa_mhz.total",
     lambda v: {"kappa_mhz": {"total": v, "external": 0.5}}, (None,) * 7),
    ("kappa_mhz.external",
     lambda v: {"kappa_mhz": {"total": 1.0, "external": v}}, (None,) * 7),
    ("drive.eps[0]", lambda v: {"drive": {"eps": [v, 1.0, 1.0]}},
     (None,) * 7),
    *((f"rotation.{key}", lambda v, key=key: {"rotation": {key: v}},
       (None,) * 7)
      for key in ("omega_rot_hz", "n", "r_m", "dn_dlambda", "omega0_thz")),
]


@pytest.mark.parametrize("name, document, outcomes", _CONFIG_TABLE,
                         ids=[row[0] for row in _CONFIG_TABLE])
def test_config_answers_each_special_value(name, document, outcomes):
    for value, message in zip(_SPECIALS, outcomes):
        if message is None:
            parse_config(document(value))
        else:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
                parse_config(document(value))
