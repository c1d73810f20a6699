"""Tests for config parsing, overrides and canonical documents."""

import contextlib
import copy
import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from magnon_sagnac import (
    ConfigError,
    RotationDirection,
    RotationSpec,
    SystemParams,
    apply_overrides,
    default_document,
    drive_amplitude,
    load_config,
    parse_config,
    resolved_document,
)


class TestDefaults:
    def test_empty_document_gives_demo_set(self):
        cfg = parse_config({})
        assert cfg.params == SystemParams.symmetric()
        assert cfg.band == (-65.0, 65.0)
        assert cfg.rotation == RotationSpec()

    def test_default_document_is_equivalent(self):
        assert parse_config(default_document()).params == \
            parse_config({}).params

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])


class TestStrictKeys:
    def test_top_level(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config({"kappa": 1.0})

    def test_rotation(self):
        with pytest.raises(ConfigError, match="unknown rotation key"):
            parse_config({"rotation": {"spin_hz": 100.0}})

    def test_drive(self):
        with pytest.raises(ConfigError, match="unknown drive key"):
            parse_config({"drive": {"eps": [1, 1, 1], "power": 0.1}})

    def test_kappa_object(self):
        with pytest.raises(ConfigError, match="unknown kappa_mhz key"):
            parse_config({"kappa_mhz": {"total": 1.1, "ext": 0.5}})


class TestShapes:
    def test_coupling_pair(self):
        cfg = parse_config({"g0_mhz": [41.0, 61.5]})
        assert cfg.params.g0_1_mhz == 41.0
        assert cfg.params.g0_2_mhz == 61.5

    def test_eta_pair_with_scalar_kappa(self):
        cfg = parse_config({"eta": [0.3, 0.7]})
        assert cfg.params.mode_1.kappa_ext_mhz == pytest.approx(0.33)
        assert cfg.params.mode_2.kappa_ext_mhz == pytest.approx(0.77)

    def test_kappa_total_external_object(self):
        cfg = parse_config({"kappa_mhz": {"total": [1.1, 2.2],
                                          "external": [0.5, 0.6]}})
        assert cfg.params.mode_1.kappa_mhz == 1.1
        assert cfg.params.mode_2.kappa_ext_mhz == 0.6

    def test_eta_conflicts_with_kappa_object(self):
        with pytest.raises(ConfigError, match="eta cannot be combined"):
            parse_config({"eta": 0.5,
                          "kappa_mhz": {"total": 1.1, "external": 0.55}})

    def test_kappa_object_needs_both_parts(self):
        with pytest.raises(ConfigError):
            parse_config({"kappa_mhz": {"total": 1.1}})

    def test_bad_pair_shape(self):
        with pytest.raises(ConfigError):
            parse_config({"g0_mhz": [1.0, 2.0, 3.0]})
        with pytest.raises(ConfigError):
            parse_config({"g0_mhz": "41"})

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ConfigError):
            parse_config({"gamma_m_mhz": True})


class TestDrive:
    def test_power_form_converts_to_amplitudes(self):
        cfg = parse_config({"drive": {"power_w": [0.1, 0.1, 0.1]}})
        eps = drive_amplitude(0.1, 1.93e8)
        assert cfg.params.drive.eps_1 == pytest.approx(eps, rel=1e-12)
        assert cfg.params.drive.eps_2 == cfg.params.drive.eps_1
        # magnon drive lands in the squeezed frame (G = 0.5 by default)
        assert cfg.params.drive.eps_3_eff == pytest.approx(
            math.exp(-0.5) * eps, rel=1e-12)

    def test_power_form_pump_frequency_override(self):
        low = parse_config({"drive": {"power_w": [0.1, 0.1, 0.1],
                                      "omega_p_mhz": 0.5e8}})
        assert low.params.drive.eps_1 == pytest.approx(
            drive_amplitude(0.1, 0.5e8), rel=1e-12)

    def test_exactly_one_form(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config({"drive": {}})
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config({"drive": {"eps": [1, 1, 1],
                                    "power_w": [0.1, 0.1, 0.1]}})

    def test_eps_rejects_pump_frequency(self):
        with pytest.raises(ConfigError):
            parse_config({"drive": {"eps": [1, 1, 1], "omega_p_mhz": 1.93e8}})

    def test_wrong_length(self):
        with pytest.raises(ConfigError):
            parse_config({"drive": {"eps": [1.0, 1.0]}})

    def test_negative_power(self):
        with pytest.raises(ConfigError, match="drive"):
            parse_config({"drive": {"power_w": [-0.1, 0.1, 0.1]}})


@pytest.mark.parametrize("raw,message", [
    ({"drive": 5}, "drive must be an object"),
    ({"drive": {"power_w": [0.1, 0.1]}},
     "drive.power_w must be a list of three powers"),
    ({"rotation": 5}, "rotation must be an object"),
    # e^-G leaves the float range before cosh(2G) can be validated.
    ({"G": -800.0, "drive": {"power_w": [0.1, 0.1, 0.1]}},
     "drive: math range error"),
], ids=["drive_scalar", "two_powers", "rotation_scalar", "power_e_minus_G"])
def test_malformed_blocks_are_refused(raw, message):
    with pytest.raises(ConfigError) as refused:
        parse_config(raw)
    assert str(refused.value) == message


class TestRotationAndBand:
    def test_partial_rotation_merges_defaults(self):
        cfg = parse_config({"rotation": {"omega_rot_hz": 1.0e4}})
        assert cfg.rotation.omega_rot_hz == 1.0e4
        assert cfg.rotation.refractive_index == 2.2
        assert cfg.rotation.omega0_mhz == pytest.approx(1.93e8)

    def test_direction_values(self):
        cfg = parse_config({"rotation": {"direction": "ccw"}})
        assert cfg.rotation.direction is RotationDirection.CCW
        with pytest.raises(ConfigError, match="direction"):
            parse_config({"rotation": {"direction": "up"}})

    def test_band(self):
        assert parse_config({"band_mhz": [-10.0, 10.0]}).band == (-10.0, 10.0)
        with pytest.raises(ConfigError):
            parse_config({"band_mhz": [10.0, -10.0]})
        with pytest.raises(ConfigError):
            parse_config({"band_mhz": [1.0, 2.0, 3.0]})


class TestResolvedDocument:
    CASES = (
        {},
        {"g0_mhz": [41.0, 61.5], "delta_mhz": 22.0},
        {"eta": [0.3, 0.7], "kappa_mhz": [1.1, 2.2]},
        {"kappa_mhz": {"total": 1.1, "external": [0.4, 0.5]}},
        {"drive": {"power_w": [0.1, 0.2, 0.3]}, "G": 0.25},
        {"rotation": {"direction": "ccw", "omega0_thz": 200.0},
         "band_mhz": [-40.0, 40.0]},
    )

    @pytest.mark.parametrize("raw", CASES)
    def test_fixed_point(self, raw):
        first = parse_config(raw)
        doc = resolved_document(first)
        second = parse_config(doc)
        assert second.params == first.params
        assert second.band == first.band
        assert second.rotation == first.rotation
        assert resolved_document(second) == doc

    def test_canonical_form_is_explicit(self):
        doc = resolved_document(parse_config({}))
        assert "eta" not in doc
        assert set(doc["kappa_mhz"]) == {"total", "external"}
        assert doc["drive"] == {"eps": [1.0, 1.0, 1.0]}
        assert json.dumps(doc)  # JSON-serializable as-is


class TestLoadAndOverrides:
    def test_load_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"delta_mhz": 22.0}', encoding="utf-8")
        assert load_config(path) == {"delta_mhz": 22.0}

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"delta_mhz": }', encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)
        path.write_text('[1, 2]', encoding="utf-8")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)

    def test_scalar_and_nested_overrides(self):
        doc = apply_overrides({}, ["delta_mhz=22", "rotation.direction=ccw",
                                   "g0_mhz=[41, 61.5]"])
        assert doc == {"delta_mhz": 22,
                       "rotation": {"direction": "ccw"},
                       "g0_mhz": [41, 61.5]}

    def test_overrides_do_not_mutate_input(self):
        raw = {"delta_mhz": 5.0}
        out = apply_overrides(raw, ["delta_mhz=22"])
        assert raw == {"delta_mhz": 5.0}
        assert out["delta_mhz"] == 22

    def test_override_wins_over_file_value(self):
        raw = {"delta_mhz": 5.0}
        cfg = parse_config(apply_overrides(raw, ["delta_mhz=22"]))
        assert cfg.params.delta_mhz == 22.0

    def test_bad_overrides(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no_equals_sign"])
        with pytest.raises(ConfigError):
            apply_overrides({"delta_mhz": 1.0}, ["delta_mhz.deep=2"])


def _deep_copy_overrides(raw: dict, assignments: list[str]) -> dict:
    """apply_overrides as it was when it deep-copied the whole document:
    the oracle of the path-copying one."""
    doc = copy.deepcopy(raw)
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
            node = target.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot descend into {part!r} in override "
                                  f"{assignment!r}")
            target = node
        target[parts[-1]] = value
    return doc


# Real config keys and a few others, so that overrides meet the nested
# dicts, lists and scalars of the documents.
_KEYS = st.sampled_from(["rotation", "n", "direction", "drive", "eps",
                         "kappa_mhz", "total", "delta_mhz", "x"])
_LEAVES = st.one_of(st.integers(-3, 3), st.floats(-10.0, 10.0),
                    st.sampled_from(["cw", "ccw", ""]),
                    st.lists(st.floats(0.0, 2.0), max_size=3))
_DOCUMENTS = st.dictionaries(_KEYS, st.recursive(
    _LEAVES, lambda inner: st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=8), max_size=4)
_ASSIGNMENTS = st.one_of(
    st.builds(lambda path, value: ".".join(path) + "=" + value,
              st.lists(_KEYS, min_size=1, max_size=3),
              st.sampled_from(["1", "2.5", '"x"', "ccw", "", "[1, 2, 3]",
                               '{"n": 2.0}', '{"total": {"x": 1}}'])),
    st.sampled_from(["no_equals_sign", "=1", " .n=2", "rotation..n=1"]))


class TestOverridesCopyOnlyTheirPaths:
    @given(_DOCUMENTS, st.lists(_ASSIGNMENTS, max_size=4))
    def test_same_result_as_a_deep_copy_and_input_untouched(self, raw,
                                                            assignments):
        before = copy.deepcopy(raw)
        try:
            expected = _deep_copy_overrides(raw, assignments)
        except ConfigError as e:
            with pytest.raises(ConfigError, match=f"^{re.escape(str(e))}$"):
                apply_overrides(raw, assignments)
            assert raw == before
            return
        out = apply_overrides(raw, assignments)
        assert out == expected
        assert raw == before
        with contextlib.suppress(ConfigError, ValueError):
            parse_config(out)
        assert raw == before

    def test_new_nested_key(self):
        raw = {"rotation": {"n": 2.0}, "drive": {"eps": [1.0, 1.0, 1.0]}}
        out = apply_overrides(raw, ["rotation.r_m=0.002", "x.y.z=1"])
        assert out == {"rotation": {"n": 2.0, "r_m": 0.002},
                       "drive": {"eps": [1.0, 1.0, 1.0]},
                       "x": {"y": {"z": 1}}}
        assert raw == {"rotation": {"n": 2.0},
                       "drive": {"eps": [1.0, 1.0, 1.0]}}
        assert out["drive"] is raw["drive"]  # untouched, so shared

    def test_dict_replaced_by_a_scalar(self):
        raw = {"kappa_mhz": {"total": 1.0, "external": 0.5}}
        out = apply_overrides(raw, ["kappa_mhz=1.1"])
        assert out == {"kappa_mhz": 1.1}
        assert raw == {"kappa_mhz": {"total": 1.0, "external": 0.5}}

    def test_error_messages(self):
        with pytest.raises(ConfigError) as failed:
            apply_overrides({}, ["no_equals_sign"])
        assert str(failed.value) == ("override 'no_equals_sign' is not "
                                     "key=value")
        raw = {"delta_mhz": 1.0, "rotation": {"n": 2.0}}
        with pytest.raises(ConfigError) as failed:
            apply_overrides(raw, ["rotation.n=3", "delta_mhz.deep=2"])
        assert str(failed.value) == ("cannot descend into 'delta_mhz' in "
                                     "override 'delta_mhz.deep=2'")
        assert raw == {"delta_mhz": 1.0, "rotation": {"n": 2.0}}
