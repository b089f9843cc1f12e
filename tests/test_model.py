"""Domain type, validation, and default-parameter tests."""

import itertools
import math
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cryopower.model import (
    ARCHITECTURES,
    ArchitectureKind,
    CouplingSpec,
    LoadSpec,
    SystemConfig,
    WireSpec,
    default_config,
    require_valid,
    validate,
)

import validate_reference


class TestArchitectureKind:
    def test_exactly_five_variants(self):
        assert len(ARCHITECTURES) == 5

    def test_enum_order(self):
        assert [a.label for a in ARCHITECTURES] == [
            "wired",
            "hv_wired",
            "radiative",
            "non_radiative",
            "hv_non_radiative",
        ]

    def test_wireless_split(self):
        assert not ArchitectureKind.WIRED.is_wireless
        assert not ArchitectureKind.HV_WIRED.is_wireless
        assert ArchitectureKind.RADIATIVE.is_wireless
        assert ArchitectureKind.NON_RADIATIVE.is_wireless
        assert ArchitectureKind.HV_NON_RADIATIVE.is_wireless

    def test_label_round_trip(self):
        for arch in ARCHITECTURES:
            assert ArchitectureKind.from_label(arch.label) is arch

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            ArchitectureKind.from_label("telepathy")


class TestDefaults:
    def test_wire_defaults(self):
        cfg = default_config()
        assert cfg.wire.resistance_warm == 16.0
        assert cfg.wire.resistance_cold == 12.0
        assert cfg.wire.resistance_mode == "warm"
        assert cfg.wire.wire_count == 1

    def test_load_defaults(self):
        cfg = default_config()
        assert cfg.load.power_per_device == 0.005
        assert cfg.load.device_count == 200
        assert cfg.load.v_rx == 2.0
        assert cfg.load.v_rx_hv == 20.0

    def test_coupling_defaults(self):
        cfg = default_config()
        assert cfg.coupling.eta_coup_ant == 0.70
        assert cfg.coupling.eta_coup_coil == 0.80
        assert cfg.coupling.eta_rad_r == 0.90
        assert cfg.coupling.loss_to_cold_fraction == 1.0

    def test_converter_defaults(self):
        conv = default_config().converter
        assert (conv.r_hs, conv.r_ls, conv.r_l) == (0.1, 0.1, 0.05)
        assert (conv.v_in, conv.v_out, conv.i_out) == (12.0, 3.3, 0.5)
        assert (conv.t_r, conv.t_f, conv.f_sw) == (5e-9, 5e-9, 1e6)
        assert conv.duty == 3.3 / 12.0  # ideal buck relation
        assert conv.include_loss is True
        assert conv.attach_hv_nonradiative is False

    def test_cooling_and_stage_defaults(self):
        cfg = default_config()
        assert (cfg.cooling.t_cold, cfg.cooling.t_ambient, cfg.cooling.eta_c) == (4.0, 300.0, 0.1)
        assert (cfg.stage.q_ambient_leak, cfg.stage.q_electronics) == (0.0, 0.0)

    def test_noise_defaults(self):
        noise = default_config().noise
        assert noise.s_white == 1e-14
        assert noise.f_corner == 1e3
        assert noise.wireless_floor_ratio == 1e-3
        assert noise.switching_spur == 1e-12

    def test_defaults_validate(self):
        assert validate(default_config()).ok

    def test_delivered_power(self):
        assert default_config().load.delivered_power == 1.0


class TestEffectiveResistance:
    def test_modes(self):
        wire = WireSpec(resistance_warm=16.0, resistance_cold=12.0)
        assert replace(wire, resistance_mode="warm").effective_resistance == 16.0
        assert replace(wire, resistance_mode="cold").effective_resistance == 12.0
        assert replace(wire, resistance_mode="mean").effective_resistance == 14.0

    def test_unknown_mode_raises_on_access(self):
        wire = WireSpec(resistance_mode="tepid")
        with pytest.raises(ValueError, match="resistance_mode"):
            wire.effective_resistance


def _violation_paths(config: SystemConfig) -> list[str]:
    return [violation.path for violation in validate(config).violations]


class TestValidate:
    def test_zero_coil_efficiency(self):
        cfg = replace(default_config(), coupling=CouplingSpec(eta_coup_coil=0.0))
        assert "coupling.eta_coup_coil" in _violation_paths(cfg)

    def test_hv_rail_below_conventional(self):
        cfg = replace(default_config(), load=LoadSpec(v_rx=20.0, v_rx_hv=2.0))
        assert "load.v_rx_hv" in _violation_paths(cfg)

    def test_warm_resistance_below_cold(self):
        cfg = replace(default_config(), wire=WireSpec(resistance_warm=10.0, resistance_cold=12.0))
        assert "wire.resistance_warm" in _violation_paths(cfg)

    def test_multiple_violations_accumulate(self):
        cfg = replace(
            default_config(),
            coupling=CouplingSpec(eta_coup_coil=0.0, eta_rad_r=1.5),
            wire=WireSpec(wire_count=0),
        )
        paths = _violation_paths(cfg)
        assert "coupling.eta_coup_coil" in paths
        assert "coupling.eta_rad_r" in paths
        assert "wire.wire_count" in paths

    @pytest.mark.parametrize(
        "section,field,value,path",
        [
            ("wire", "resistance_warm", 0.0, "wire.resistance_warm"),
            ("wire", "resistance_cold", -1.0, "wire.resistance_cold"),
            ("wire", "resistance_mode", "tepid", "wire.resistance_mode"),
            ("wire", "thermal_load_per_wire", -0.1, "wire.thermal_load_per_wire"),
            ("wire", "wire_count", 0, "wire.wire_count"),
            ("load", "power_per_device", -1e-3, "load.power_per_device"),
            ("load", "device_count", -1, "load.device_count"),
            ("load", "v_rx", 0.0, "load.v_rx"),
            ("coupling", "eta_coup_ant", 1.2, "coupling.eta_coup_ant"),
            ("coupling", "loss_to_cold_fraction", 1.5, "coupling.loss_to_cold_fraction"),
            ("converter", "r_hs", -0.1, "converter.r_hs"),
            ("converter", "v_out", 0.0, "converter.v_out"),
            ("converter", "v_in", 2.0, "converter.v_in"),
            ("converter", "duty", 0.0, "converter.duty"),
            ("converter", "duty", 1.0, "converter.duty"),
            ("cooling", "t_cold", 0.0, "cooling.t_cold"),
            ("cooling", "t_ambient", 3.0, "cooling.t_ambient"),
            ("cooling", "eta_c", 0.0, "cooling.eta_c"),
            ("stage", "q_ambient_leak", -1.0, "stage.q_ambient_leak"),
            ("noise", "s_white", 0.0, "noise.s_white"),
            ("noise", "f_corner", -1.0, "noise.f_corner"),
            ("noise", "wireless_floor_ratio", 0.0, "noise.wireless_floor_ratio"),
            ("noise", "switching_spur", -1e-15, "noise.switching_spur"),
        ],
    )
    def test_field_bounds(self, section, field, value, path):
        cfg = default_config()
        cfg = replace(cfg, **{section: replace(getattr(cfg, section), **{field: value})})
        assert path in _violation_paths(cfg)

    def test_non_finite_rejected(self):
        cfg = replace(default_config(), wire=WireSpec(resistance_warm=math.inf))
        assert "wire.resistance_warm" in _violation_paths(cfg)
        cfg = replace(default_config(), load=LoadSpec(v_rx=math.nan))
        assert "load.v_rx" in _violation_paths(cfg)

    def test_wrong_type_rejected(self):
        cfg = replace(default_config(), wire=WireSpec(wire_count=1.5))  # type: ignore[arg-type]
        assert "wire.wire_count" in _violation_paths(cfg)

    def test_messages_name_the_bound(self):
        cfg = replace(default_config(), coupling=CouplingSpec(eta_coup_coil=0.0))
        (violation,) = [v for v in validate(cfg).violations if v.path == "coupling.eta_coup_coil"]
        assert "(0, 1]" in violation.message

    def test_deterministic(self):
        cfg = replace(default_config(), coupling=CouplingSpec(eta_coup_coil=0.0))
        assert validate(cfg) == validate(cfg)

    def test_require_valid_raises(self):
        cfg = replace(default_config(), coupling=CouplingSpec(eta_coup_coil=0.0))
        with pytest.raises(ValueError, match="coupling.eta_coup_coil"):
            require_valid(cfg)
        assert require_valid(default_config()) == default_config()


_PATHS = tuple(
    f"{section.name}.{leaf.name}" for section in fields(SystemConfig) for leaf in fields(section.default_factory)
)

# Values that sit on, off and across every bound, of every wrong type, and
# equal to the defaults that the relations compare against.
_SPECIAL_VALUES = (
    0, -0.0, 1, -1, 0.5, 1.5, 2.0, 3.3, 4.0, 12.0, 16.0, 20.0, 300.0,
    math.inf, -math.inf, math.nan, 1e-300, 5e-324, 1e300,
    True, False, None, "x", "warm",
)

# Each relation as (field, the field it is compared with).
_RELATIONS = (
    ("wire.resistance_warm", "wire.resistance_cold"),
    ("load.v_rx_hv", "load.v_rx"),
    ("converter.v_in", "converter.v_out"),
    ("cooling.t_ambient", "cooling.t_cold"),
)


def _with_values(values: dict) -> SystemConfig:
    cfg = default_config()
    for path, value in values.items():
        section, leaf = path.split(".")
        cfg = replace(cfg, **{section: replace(getattr(cfg, section), **{leaf: value})})
    return cfg


def _same_as_reference(cfg: SystemConfig) -> None:
    result, expected = validate(cfg), validate_reference.validate(cfg)
    assert type(result) is type(expected)
    assert [tuple(v) for v in result.violations] == [tuple(v) for v in expected.violations]


class TestValidateMatchesReference:
    """The table-driven validate against the hand-written form it replaced."""

    def test_every_field_is_checked(self):
        assert len(_PATHS) == 34
        for path in _PATHS:
            assert path in _violation_paths(_with_values({path: None}))

    @given(st.dictionaries(st.sampled_from(_PATHS), st.sampled_from(_SPECIAL_VALUES), max_size=len(_PATHS)))
    def test_same_violations_in_the_same_order(self, values):
        _same_as_reference(_with_values(values))

    @pytest.mark.parametrize("path, other", _RELATIONS)
    def test_relations_on_every_pair_of_values(self, path, other):
        # Both sides of every relation, equal operands and NaN on either side included.
        for value, other_value in itertools.product(_SPECIAL_VALUES, repeat=2):
            _same_as_reference(_with_values({path: value, other: other_value}))

    def test_infinite_warm_resistance_also_breaks_the_relation(self):
        cfg = _with_values({"wire.resistance_warm": -math.inf})
        assert [str(v) for v in validate(cfg).violations] == [
            "wire.resistance_warm: must be finite, got -inf",
            "wire.resistance_warm: must be >= wire.resistance_cold (12.0), got -inf",
        ]

    def test_converter_output_is_checked_before_its_input(self):
        cfg = _with_values({"converter.v_out": 0, "converter.v_in": math.nan})
        assert [str(v) for v in validate(cfg).violations] == [
            "converter.v_out: must be > 0, got 0",
            "converter.v_in: must be finite, got nan",
        ]
