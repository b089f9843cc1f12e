"""The contract of the public config types and result records.

The 18 types, the eight config types and the ten result records, are
immutable ``typing.NamedTuple`` classes. Their field names and order,
defaults, ``repr``, hash, truth value and ``str`` are those of the frozen
dataclasses they replaced, and ``dataclasses.replace``,
``dataclasses.fields``, ``dataclasses.asdict`` and
``dataclasses.is_dataclass`` still accept them.
"""

import ast
import dataclasses
import inspect

import pytest

import cryopower
from cryopower import (
    ArchitectureEvaluation,
    ComparisonReport,
    ComparisonRow,
    ConverterSpec,
    CoolingSpec,
    CouplingSpec,
    LoadSpec,
    LossBreakdown,
    NoiseSpec,
    OptimizationResult,
    StageSpec,
    SweepPoint,
    SweepResult,
    SystemConfig,
    ThermalBudget,
    ValidationResult,
    Violation,
    WireSpec,
    architecture_loss_at,
    default_config,
    evaluate_architecture,
    heat_budget,
    optimize,
    scorecard,
    sweep_loss,
    validate,
)
from cryopower.model import ArchitectureKind

CONFIG_FIELDS = {
    WireSpec: ("resistance_warm", "resistance_cold", "resistance_mode", "thermal_load_per_wire", "wire_count"),
    LoadSpec: ("power_per_device", "device_count", "v_rx", "v_rx_hv"),
    CouplingSpec: ("eta_rad_r", "eta_coup_ant", "eta_coup_coil", "loss_to_cold_fraction"),
    ConverterSpec: (
        "r_hs",
        "r_ls",
        "r_l",
        "v_in",
        "v_out",
        "i_out",
        "t_r",
        "t_f",
        "f_sw",
        "duty",
        "include_loss",
        "attach_hv_nonradiative",
    ),
    CoolingSpec: ("t_cold", "t_ambient", "eta_c"),
    StageSpec: ("q_ambient_leak", "q_electronics"),
    NoiseSpec: ("s_white", "f_corner", "wireless_floor_ratio", "switching_spur"),
    SystemConfig: ("wire", "load", "coupling", "converter", "cooling", "stage", "noise"),
}

FIELDS = {
    **CONFIG_FIELDS,
    LossBreakdown: (
        "architecture",
        "delivered_power",
        "transmission_loss",
        "converter_loss",
        "loss_at_cold_stage",
    ),
    ThermalBudget: (
        "architecture",
        "p_load",
        "p_loss_cold",
        "q_ambient",
        "q_electronics",
        "q_total",
        "cop",
        "cooling_power",
    ),
    Violation: ("path", "message"),
    ValidationResult: ("violations",),
    ArchitectureEvaluation: ("loss", "thermal"),
    SweepPoint: ("value", "evaluations"),
    SweepResult: ("parameter", "points"),
    ComparisonRow: (
        "architecture",
        "transmission_loss",
        "cold_stage_heat",
        "cooling_power",
        "noise_floor_ratio",
        "power_density",
        "reliability",
    ),
    ComparisonReport: ("device_count", "rows"),
    OptimizationResult: ("architecture", "parameters", "objective", "objective_value", "evaluations", "trace"),
}


def _invalid_config():
    cfg = default_config()
    return dataclasses.replace(cfg, load=dataclasses.replace(cfg.load, v_rx=-1.0))


def _records():
    """One record of each type, from the public functions that return them."""
    cfg = default_config()
    sweep = sweep_loss(cfg, [1, 2])
    report = scorecard(cfg, 200)
    invalid = validate(_invalid_config())
    return {
        **{cls: cls() for cls in CONFIG_FIELDS if cls is not SystemConfig},
        SystemConfig: cfg,
        LossBreakdown: architecture_loss_at(ArchitectureKind.HV_WIRED, cfg, 0.005),
        ThermalBudget: heat_budget(ArchitectureKind.WIRED, cfg),
        Violation: invalid.violations[0],
        ValidationResult: invalid,
        ArchitectureEvaluation: evaluate_architecture(ArchitectureKind.HV_NON_RADIATIVE, cfg),
        SweepPoint: sweep.points[0],
        SweepResult: sweep,
        ComparisonRow: report.rows[0],
        ComparisonReport: report,
        OptimizationResult: optimize(cfg, {"v_rx_hv": (2.0, 200.0)}, ArchitectureKind.HV_WIRED, resolution=10),
    }


RECORDS = _records()


def test_fields_cover_every_exported_record():
    exported = [getattr(cryopower, name) for name in cryopower.__all__]
    records = {obj for obj in exported if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")}
    assert records == set(FIELDS)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_field_names_and_order(cls):
    assert cls._fields == FIELDS[cls]
    assert tuple(field.name for field in dataclasses.fields(cls)) == FIELDS[cls]
    assert type(RECORDS[cls]) is cls


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_records_are_immutable(cls):
    record = RECORDS[cls]
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_replace_builds_the_same_type(cls):
    record = RECORDS[cls]
    name = cls._fields[-1]
    for changed in (record._replace(**{name: "x"}), dataclasses.replace(record, **{name: "x"})):
        assert type(changed) is cls
        assert tuple(changed) == tuple(record)[:-1] + ("x",)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_field_types_are_the_annotation_text(cls):
    # As @dataclass stores them under ``from __future__ import annotations``: text, not a ForwardRef.
    (node,) = ast.parse(inspect.getsource(cls)).body
    annotations = {item.target.id: ast.unparse(item.annotation) for item in node.body if isinstance(item, ast.AnnAssign)}
    assert {field.name: field.type for field in dataclasses.fields(cls)} == annotations


@pytest.mark.parametrize("cls", list(CONFIG_FIELDS), ids=lambda cls: cls.__name__)
def test_config_types_are_dataclasses(cls):
    assert dataclasses.is_dataclass(cls)
    assert dataclasses.is_dataclass(RECORDS[cls])


def test_system_config_defaults_are_section_instances():
    for field in dataclasses.fields(SystemConfig):
        assert type(field.default).__name__ == field.type
        assert field.default == getattr(RECORDS[SystemConfig], field.name)


def test_default_config_repr_is_unchanged():
    assert repr(default_config()) == (
        "SystemConfig(wire=WireSpec(resistance_warm=16.0, resistance_cold=12.0, resistance_mode='warm', "
        "thermal_load_per_wire=0.3, wire_count=1), load=LoadSpec(power_per_device=0.005, device_count=200, "
        "v_rx=2.0, v_rx_hv=20.0), coupling=CouplingSpec(eta_rad_r=0.9, eta_coup_ant=0.7, eta_coup_coil=0.8, "
        "loss_to_cold_fraction=1.0), converter=ConverterSpec(r_hs=0.1, r_ls=0.1, r_l=0.05, v_in=12.0, "
        "v_out=3.3, i_out=0.5, t_r=5e-09, t_f=5e-09, f_sw=1000000.0, duty=0.27499999999999997, "
        "include_loss=True, attach_hv_nonradiative=False), cooling=CoolingSpec(t_cold=4.0, t_ambient=300.0, "
        "eta_c=0.1), stage=StageSpec(q_ambient_leak=0.0, q_electronics=0.0), noise=NoiseSpec(s_white=1e-14, "
        "f_corner=1000.0, wireless_floor_ratio=0.001, switching_spur=1e-12))"
    )


def test_default_config_asdict_nests_every_section():
    assert dataclasses.asdict(default_config()) == {
        "wire": {
            "resistance_warm": 16.0,
            "resistance_cold": 12.0,
            "resistance_mode": "warm",
            "thermal_load_per_wire": 0.3,
            "wire_count": 1,
        },
        "load": {"power_per_device": 0.005, "device_count": 200, "v_rx": 2.0, "v_rx_hv": 20.0},
        "coupling": {"eta_rad_r": 0.9, "eta_coup_ant": 0.7, "eta_coup_coil": 0.8, "loss_to_cold_fraction": 1.0},
        "converter": {
            "r_hs": 0.1,
            "r_ls": 0.1,
            "r_l": 0.05,
            "v_in": 12.0,
            "v_out": 3.3,
            "i_out": 0.5,
            "t_r": 5e-09,
            "t_f": 5e-09,
            "f_sw": 1e6,
            "duty": 3.3 / 12.0,
            "include_loss": True,
            "attach_hv_nonradiative": False,
        },
        "cooling": {"t_cold": 4.0, "t_ambient": 300.0, "eta_c": 0.1},
        "stage": {"q_ambient_leak": 0.0, "q_electronics": 0.0},
        "noise": {"s_white": 1e-14, "f_corner": 1e3, "wireless_floor_ratio": 1e-3, "switching_spur": 1e-12},
    }


def test_asdict_recurses_into_nested_records():
    evaluation = RECORDS[ArchitectureEvaluation]
    assert dataclasses.asdict(evaluation) == {
        "loss": evaluation.loss._asdict(),
        "thermal": evaluation.thermal._asdict(),
    }


def test_repr_is_unchanged():
    assert repr(RECORDS[LossBreakdown]) == (
        "LossBreakdown(architecture=<ArchitectureKind.HV_WIRED: 'hv_wired'>, delivered_power=0.005, "
        "transmission_loss=1e-06, converter_loss=0.00020454545454545392, "
        "loss_at_cold_stage=0.00020554545454545391)"
    )
    assert repr(RECORDS[ThermalBudget]) == (
        "ThermalBudget(architecture=<ArchitectureKind.WIRED: 'wired'>, p_load=0.3, p_loss_cold=4.0, "
        "q_ambient=0.0, q_electronics=0.0, q_total=4.3, cop=0.0013513513513513514, "
        "cooling_power=3181.9999999999995)"
    )


@pytest.mark.parametrize("cls", [cls for cls in FIELDS if cls is not OptimizationResult], ids=lambda cls: cls.__name__)
def test_hash_is_the_hash_of_the_fields(cls):
    record = RECORDS[cls]
    assert hash(record) == hash(tuple(record))


def test_optimization_result_is_unhashable():
    # Its parameters are a dict, as they were in the dataclass.
    with pytest.raises(TypeError):
        hash(RECORDS[OptimizationResult])


def test_validation_result_truth_value():
    assert bool(ValidationResult(())) is True
    assert bool(ValidationResult()) is True
    assert ValidationResult().ok
    one = ValidationResult((Violation("load.v_rx", "must be > 0, got -1.0"),))
    assert bool(one) is False
    assert not one.ok
    assert not RECORDS[ValidationResult]


def test_violation_str():
    assert str(Violation("load.v_rx", "must be > 0, got -1.0")) == "load.v_rx: must be > 0, got -1.0"
    assert str(RECORDS[Violation]) == "load.v_rx: must be > 0, got -1.0"


def test_evaluation_architecture_is_the_loss_architecture():
    evaluation = RECORDS[ArchitectureEvaluation]
    assert evaluation.architecture is ArchitectureKind.HV_NON_RADIATIVE
    assert evaluation.architecture is evaluation.loss.architecture
    for point in RECORDS[SweepResult].points:
        assert [e.architecture for e in point.evaluations] == list(ArchitectureKind)
