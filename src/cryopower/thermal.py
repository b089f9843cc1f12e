"""Cold-stage heat budgeting and required cooling power.

The budget models a single cold stage: wire conduction load, transmission
and converter losses deposited there, ambient leakage, and fixed electronics
dissipation sum to the total heat leak, which the cooling plant must remove
at its (Carnot-limited, corrected) coefficient of performance.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .losses import LossBreakdown, _check_delivered, _loss_cell
from .model import ArchitectureKind, SystemConfig, _dataclass_compatible


@_dataclass_compatible
class ThermalBudget(NamedTuple):
    """Per-architecture cold-stage heat composition and cooling demand."""

    architecture: ArchitectureKind
    p_load: float
    p_loss_cold: float
    q_ambient: float
    q_electronics: float
    q_total: float
    cop: float
    cooling_power: float


def carnot_cop(t_cold: float, t_ambient: float, eta_c: float) -> float:
    """Corrected Carnot coefficient of performance: eta_c * T_C / (T_0 - T_C).

    The result is nondecreasing in ``eta_c`` and in ``t_cold`` (at fixed
    ``t_ambient``): every rounding step is monotone. It rises strictly only
    for steps larger than rounding; an ``eta_c`` one ulp higher can give the
    same COP. For ``eta_c``, a relative step above about 4.4e-16
    (``((1 + u) / (1 - u))**2 - 1`` with ``u = 2**-53``) always rises.
    """
    if not 0 < t_cold < t_ambient:
        raise ValueError(
            f"temperatures must satisfy 0 < t_cold < t_ambient, got {t_cold!r}, {t_ambient!r}"
        )
    if not 0 < eta_c <= 1:
        raise ValueError(f"eta_c must be in (0, 1], got {eta_c!r}")
    return eta_c * t_cold / (t_ambient - t_cold)


def _heat_cell(
    arch: ArchitectureKind, config: SystemConfig, couple_converter_input: bool = True
) -> Callable[..., tuple]:
    """The one heat evaluator, of every record, grid, sweep and probe: ``fields(p_rx, v_rx_hv=None, wire_count=None)``.

    Inputs are floats, or NumPy arrays that broadcast together; ``None``
    keeps the configured rail or count. A call returns the seven fields of
    :func:`heat_budget_at` there: ``transmission_loss``, ``converter_loss``,
    ``loss_at_cold_stage`` (from :func:`cryopower.losses._loss_cell`, same
    converter coupling), ``p_load``, ``q_total``, ``cop``, ``cooling_power``.
    What no input moves is worked out once and checked at the build: the
    loss evaluator's checks, a NaN leak, electronics or (on a rail) per-wire
    load, then the COP. A call checks nothing: a float call (the scalar
    path, :func:`_records_at`) can raise ``ZeroDivisionError``, and an array
    call raises under its caller's ``compare._ARRAY_ERRORS``. A float rail,
    or none, never loads NumPy.
    """
    loss = _loss_cell(arch, config, couple_converter_input)
    stage, cooling, wires = config.stage, config.cooling, config.wire.wire_count
    per_wire = None if arch.is_wireless else config.wire.thermal_load_per_wire
    leak, electronics = stage.q_ambient_leak, stage.q_electronics
    named = {"stage.q_ambient_leak": leak, "stage.q_electronics": electronics, "wire.thermal_load_per_wire": per_wire}
    for name, value in named.items():
        if value != value:  # NaN only: a negative load still computes
            raise ValueError(f"{name} must not be NaN, got {value!r}")
    cop = carnot_cop(cooling.t_cold, cooling.t_ambient, cooling.eta_c)

    def fields(p_rx, v_rx_hv=None, wire_count=None) -> tuple:
        transmission, converter, cold = loss(p_rx, v_rx_hv, wire_count)
        p_load = 0.0 if per_wire is None else per_wire * (wires if wire_count is None else wire_count)
        q_total = p_load + cold + leak + electronics
        return transmission, converter, cold, p_load, q_total, cop, q_total / cop

    return fields


def _records_at(arch: ArchitectureKind, config: SystemConfig, p_rx: float) -> tuple[LossBreakdown, ThermalBudget]:
    """The loss breakdown and heat budget of ``arch`` at ``p_rx``: one float call of :func:`_heat_cell`."""
    config.wire.effective_resistance  # raises first on a bad resistance mode, as the leaf path did
    _check_delivered(p_rx)
    transmission, converter, cold, p_load, q_total, cop, cooling = _heat_cell(arch, config)(p_rx)
    return LossBreakdown(arch, p_rx, transmission, converter, cold), ThermalBudget(
        arch, p_load, cold, config.stage.q_ambient_leak, config.stage.q_electronics, q_total, cop, cooling
    )


def heat_budget_at(arch: ArchitectureKind, config: SystemConfig, p_rx: float) -> ThermalBudget:
    """Heat budget for ``arch`` at an explicit delivered power ``p_rx``.

    Wireless architectures carry no wire conduction load; wired ones carry
    ``thermal_load_per_wire * wire_count``.
    """
    return _records_at(arch, config, p_rx)[1]


def heat_budget(arch: ArchitectureKind, config: SystemConfig) -> ThermalBudget:
    """Heat budget at the configured load."""
    return heat_budget_at(arch, config, config.load.delivered_power)
