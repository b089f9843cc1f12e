"""The contract of the public result records.

The ten result types are immutable ``typing.NamedTuple`` records. Their
field names and order, ``repr``, hash, truth value and ``str`` are those of
the frozen dataclasses they replaced, and ``dataclasses.replace``,
``dataclasses.fields`` and ``dataclasses.asdict`` still accept them.
"""

import dataclasses

import pytest

import cryopower
from cryopower import (
    ArchitectureEvaluation,
    ComparisonReport,
    ComparisonRow,
    LossBreakdown,
    OptimizationResult,
    SweepPoint,
    SweepResult,
    ThermalBudget,
    ValidationResult,
    Violation,
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

FIELDS = {
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
