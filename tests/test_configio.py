"""Config-file format: strict schema, coercion, and round-trip fidelity."""

import math

import pytest

from cryopower.configio import (
    ConfigError,
    coerce_value,
    get_value,
    parse_config,
    serialize_config,
    set_value,
)
from cryopower.model import _FIELD_KINDS, default_config, validate


def test_round_trip_defaults():
    cfg = default_config()
    assert parse_config(serialize_config(cfg)) == cfg


def test_every_field_reachable_round_trip():
    # Tweak every leaf away from its default, then check text round-trip identity.
    cfg = default_config()
    replacements = {
        "wire.resistance_warm": 17.5,
        "wire.resistance_cold": 11.25,
        "wire.resistance_mode": "mean",
        "wire.thermal_load_per_wire": 0.125,
        "wire.wire_count": 55,
        "load.power_per_device": 0.0075,
        "load.device_count": 321,
        "load.v_rx": 1.8,
        "load.v_rx_hv": 48.0,
        "coupling.eta_rad_r": 0.95,
        "coupling.eta_coup_ant": 0.65,
        "coupling.eta_coup_coil": 0.85,
        "coupling.loss_to_cold_fraction": 0.5,
        "converter.r_hs": 0.2,
        "converter.r_ls": 0.15,
        "converter.r_l": 0.075,
        "converter.v_in": 24.0,
        "converter.v_out": 1.8,
        "converter.i_out": 0.75,
        "converter.t_r": 4e-9,
        "converter.t_f": 6e-9,
        "converter.f_sw": 2e6,
        "converter.duty": 0.075,
        "converter.include_loss": False,
        "converter.attach_hv_nonradiative": True,
        "cooling.t_cold": 3.5,
        "cooling.t_ambient": 295.0,
        "cooling.eta_c": 0.15,
        "stage.q_ambient_leak": 0.01,
        "stage.q_electronics": 0.02,
        "noise.s_white": 2e-14,
        "noise.f_corner": 500.0,
        "noise.wireless_floor_ratio": 1e-4,
        "noise.switching_spur": 5e-13,
    }
    assert set(replacements) == set(_FIELD_KINDS)
    for path, value in replacements.items():
        cfg = set_value(cfg, path, value)
    assert validate(cfg).ok
    assert cfg != default_config()
    assert parse_config(serialize_config(cfg)) == cfg


def test_serialization_is_deterministic():
    assert serialize_config(default_config()) == serialize_config(default_config())


def test_unknown_key_names_the_key():
    with pytest.raises(ConfigError, match="wire.resistanse_warm"):
        parse_config("wire.resistanse_warm = 16\n")


def test_duplicate_key_rejected():
    text = "wire.resistance_warm = 16\nwire.resistance_warm = 17\n"
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(text)


def test_missing_separator_rejected():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("wire.resistance_warm 16\n")


def test_comments_and_blank_lines():
    text = (
        "# leading comment\n"
        "\n"
        "wire.resistance_warm = 18.0  # trailing comment\n"
        "   \n"
    )
    cfg = parse_config(text)
    assert cfg.wire.resistance_warm == 18.0


def test_partial_file_keeps_defaults():
    cfg = parse_config("load.device_count = 555\n")
    assert cfg.load.device_count == 555
    assert cfg.wire.resistance_warm == default_config().wire.resistance_warm


def test_int_field_rejects_fraction():
    with pytest.raises(ConfigError, match="wire.wire_count"):
        parse_config("wire.wire_count = 1.5\n")


def test_bool_parsing():
    assert parse_config("converter.include_loss = false\n").converter.include_loss is False
    assert parse_config("converter.include_loss = TRUE\n").converter.include_loss is True
    with pytest.raises(ConfigError, match="converter.include_loss"):
        parse_config("converter.include_loss = yes\n")


def test_float_field_accepts_integer_literal():
    assert parse_config("load.v_rx = 2\n").load.v_rx == 2.0


def test_bad_number_names_path():
    with pytest.raises(ConfigError, match="load.v_rx"):
        parse_config("load.v_rx = twelve\n")


# The type column of model._RULES before each field's kind was read from its
# annotation, in declaration order. Do not edit it to follow a change in
# cryopower.model: a difference is a change of behaviour.
FROZEN_FIELD_KINDS = {
    "wire.resistance_warm": "a number",
    "wire.resistance_cold": "a number",
    "wire.resistance_mode": None,
    "wire.thermal_load_per_wire": "a number",
    "wire.wire_count": "an integer",
    "load.power_per_device": "a number",
    "load.device_count": "an integer",
    "load.v_rx": "a number",
    "load.v_rx_hv": "a number",
    "coupling.eta_rad_r": "a number",
    "coupling.eta_coup_ant": "a number",
    "coupling.eta_coup_coil": "a number",
    "coupling.loss_to_cold_fraction": "a number",
    "converter.r_hs": "a number",
    "converter.r_ls": "a number",
    "converter.r_l": "a number",
    "converter.v_in": "a number",
    "converter.v_out": "a number",
    "converter.i_out": "a number",
    "converter.t_r": "a number",
    "converter.t_f": "a number",
    "converter.f_sw": "a number",
    "converter.duty": "a number",
    "converter.include_loss": "a boolean",
    "converter.attach_hv_nonradiative": "a boolean",
    "cooling.t_cold": "a number",
    "cooling.t_ambient": "a number",
    "cooling.eta_c": "a number",
    "stage.q_ambient_leak": "a number",
    "stage.q_electronics": "a number",
    "noise.s_white": "a number",
    "noise.f_corner": "a number",
    "noise.wireless_floor_ratio": "a number",
    "noise.switching_spur": "a number",
}


class TestFieldKinds:
    def test_annotations_give_the_frozen_type_column(self):
        assert list(_FIELD_KINDS.items()) == list(FROZEN_FIELD_KINDS.items())

    def test_serialized_default_coerces_to_the_default_type(self):
        # The types configio once took from the default values.
        config = default_config()
        lines = [line for line in serialize_config(config).splitlines() if "=" in line]
        assert len(lines) == len(FROZEN_FIELD_KINDS)
        for line in lines:
            path, text = (part.strip() for part in line.split("="))
            value = coerce_value(path, text)
            assert type(value) is type(get_value(config, path)) and value == get_value(config, path), path


class TestPlainAsciiNumbers:
    @pytest.mark.parametrize(
        "path, text",
        [("wire.wire_count", "1_000"), ("load.v_rx", "1_0.5"), ("load.v_rx", "\u0661\u0662")],
    )
    def test_rejected_and_named(self, path, text):
        with pytest.raises(ConfigError) as caught:
            parse_config(f"{path} = {text}\n")
        assert str(caught.value) == f"{path}: invalid value {text!r} (expected a plain ASCII number)"

    def test_exponent_sign_and_negative_zero_still_parse(self):
        cfg = parse_config("load.v_rx = 1e3\nload.v_rx_hv = +2e3\nwire.wire_count = +2\nstage.q_electronics = -0.0\n")
        assert (cfg.load.v_rx, cfg.load.v_rx_hv, cfg.wire.wire_count) == (1000.0, 2000.0, 2)
        assert math.copysign(1.0, cfg.stage.q_electronics) == -1.0
        assert validate(cfg).ok

    def test_infinity_parses_and_validate_rejects_it(self):
        cfg = parse_config("load.v_rx = inf\n")
        assert cfg.load.v_rx == math.inf
        assert [str(item) for item in validate(cfg).violations][0] == "load.v_rx: must be finite, got inf"
