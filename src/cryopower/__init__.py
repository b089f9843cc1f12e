"""Modeling and optimization toolkit for cryogenic power-delivery architectures.

Quantifies transmission losses, cold-stage heat budgets, required cooling
power, and supply-noise figures for wired, high-voltage wired, radiative,
non-radiative, and hybrid HV non-radiative power transfer, and searches the
design space for minimum-cooling-cost configurations.
"""

from .compare import (
    ArchitectureEvaluation,
    ComparisonReport,
    ComparisonRow,
    OptimizationResult,
    SweepPoint,
    SweepResult,
    default_score_table,
    devices_under_budget,
    equivalent_wire_count,
    evaluate_architecture,
    optimize,
    resolve_parameters,
    scorecard,
    sweep_loss,
)
from .configio import ConfigError, parse_config, serialize_config
from .losses import (
    LossBreakdown,
    architecture_loss,
    architecture_loss_at,
    converter_loss,
    dcdc_efficiency,
    hv_nonradiative_loss,
    hv_wired_loss,
    nonradiative_loss,
    radiative_loss,
    wired_loss,
)
from .model import (
    ARCHITECTURES,
    ArchitectureKind,
    ConverterSpec,
    CoolingSpec,
    CouplingSpec,
    LoadSpec,
    NoiseSpec,
    StageSpec,
    SystemConfig,
    ValidationResult,
    Violation,
    WireSpec,
    default_config,
    validate,
)
from .noise import rail_noise, spur_shape, supply_noise, white_floor_ratio
from .thermal import ThermalBudget, carnot_cop, heat_budget, heat_budget_at

__version__ = "0.1.0"

__all__ = [
    "ARCHITECTURES",
    "ArchitectureEvaluation",
    "ArchitectureKind",
    "ComparisonReport",
    "ComparisonRow",
    "ConfigError",
    "ConverterSpec",
    "CoolingSpec",
    "CouplingSpec",
    "LoadSpec",
    "LossBreakdown",
    "NoiseSpec",
    "OptimizationResult",
    "StageSpec",
    "SweepPoint",
    "SweepResult",
    "SystemConfig",
    "ThermalBudget",
    "ValidationResult",
    "Violation",
    "WireSpec",
    "architecture_loss",
    "architecture_loss_at",
    "carnot_cop",
    "converter_loss",
    "dcdc_efficiency",
    "default_config",
    "default_score_table",
    "devices_under_budget",
    "equivalent_wire_count",
    "evaluate_architecture",
    "heat_budget",
    "heat_budget_at",
    "hv_nonradiative_loss",
    "hv_wired_loss",
    "nonradiative_loss",
    "optimize",
    "parse_config",
    "radiative_loss",
    "rail_noise",
    "resolve_parameters",
    "scorecard",
    "serialize_config",
    "spur_shape",
    "supply_noise",
    "sweep_loss",
    "validate",
    "white_floor_ratio",
    "wired_loss",
]
