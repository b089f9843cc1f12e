"""Modeling and optimization toolkit for cryogenic power-delivery architectures.

Quantifies transmission losses, cold-stage heat budgets, required cooling
power, and supply-noise figures for wired, high-voltage wired, radiative,
non-radiative, and hybrid HV non-radiative power transfer, and searches the
design space for minimum-cooling-cost configurations.

Each exported name loads its module on first use (PEP 562), so a process
imports only the modules it reads: ``cryopower.compare`` stays unloaded
until one of its names is looked up.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every exported name, by the module that defines it.
_EXPORTS = {
    "compare": (
        "ArchitectureEvaluation",
        "ComparisonReport",
        "ComparisonRow",
        "OptimizationResult",
        "SweepPoint",
        "SweepResult",
        "default_score_table",
        "devices_under_budget",
        "equivalent_wire_count",
        "evaluate_architecture",
        "optimize",
        "resolve_parameters",
        "scorecard",
        "sweep_loss",
    ),
    "configio": ("ConfigError", "parse_config", "serialize_config"),
    "losses": (
        "LossBreakdown",
        "architecture_loss",
        "architecture_loss_at",
        "converter_loss",
        "dcdc_efficiency",
        "hv_nonradiative_loss",
        "hv_wired_loss",
        "nonradiative_loss",
        "radiative_loss",
        "wired_loss",
    ),
    "model": (
        "ARCHITECTURES",
        "ArchitectureKind",
        "ConverterSpec",
        "CoolingSpec",
        "CouplingSpec",
        "LoadSpec",
        "NoiseSpec",
        "StageSpec",
        "SystemConfig",
        "ValidationResult",
        "Violation",
        "WireSpec",
        "default_config",
        "validate",
    ),
    "noise": ("rail_noise", "spur_shape", "supply_noise", "white_floor_ratio"),
    "thermal": ("ThermalBudget", "carnot_cop", "heat_budget", "heat_budget_at"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Load an exported name's module on first use, and keep the value here for later lookups."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
