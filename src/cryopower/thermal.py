"""Cold-stage heat budgeting and required cooling power.

The budget models a single cold stage: wire conduction load, transmission
and converter losses deposited there, ambient leakage, and fixed electronics
dissipation sum to the total heat leak, which the cooling plant must remove
at its (Carnot-limited, corrected) coefficient of performance.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .losses import LossBreakdown, _loss_cell, architecture_loss_at
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
    if t_cold <= 0 or t_ambient <= t_cold:
        raise ValueError(
            f"temperatures must satisfy 0 < t_cold < t_ambient, got {t_cold!r}, {t_ambient!r}"
        )
    if not 0 < eta_c <= 1:
        raise ValueError(f"eta_c must be in (0, 1], got {eta_c!r}")
    return eta_c * t_cold / (t_ambient - t_cold)


def _stage_terms(arch: ArchitectureKind, config: SystemConfig) -> tuple:
    """Conduction per wire (None over a link), leak, electronics and COP: what no free parameter moves."""
    stage, cooling = config.stage, config.cooling
    per_wire = None if arch.is_wireless else config.wire.thermal_load_per_wire
    cop = carnot_cop(cooling.t_cold, cooling.t_ambient, cooling.eta_c)
    return per_wire, stage.q_ambient_leak, stage.q_electronics, cop


def budget_from_loss(config: SystemConfig, breakdown: LossBreakdown) -> ThermalBudget:
    """Heat budget around an already computed loss breakdown of ``config``."""
    arch, cold = breakdown.architecture, breakdown.loss_at_cold_stage
    per_wire, leak, electronics, cop = _stage_terms(arch, config)
    p_load = 0.0 if per_wire is None else per_wire * config.wire.wire_count
    q_total = p_load + cold + leak + electronics
    return ThermalBudget(arch, p_load, cold, leak, electronics, q_total, cop, q_total / cop)


def heat_budget_at(arch: ArchitectureKind, config: SystemConfig, p_rx: float) -> ThermalBudget:
    """Heat budget for ``arch`` at an explicit delivered power ``p_rx``.

    Wireless architectures carry no wire conduction load; wired ones carry
    ``thermal_load_per_wire * wire_count``.
    """
    return budget_from_loss(config, architecture_loss_at(arch, config, p_rx))


def heat_budget(arch: ArchitectureKind, config: SystemConfig) -> ThermalBudget:
    """Heat budget at the configured load."""
    return heat_budget_at(arch, config, config.load.delivered_power)


class _HeatGrid(NamedTuple):
    """Loss and heat fields of one architecture over a grid (see :func:`_heat_grid`)."""

    transmission_loss: float | np.ndarray
    converter_loss: float | np.ndarray
    loss_at_cold_stage: float | np.ndarray
    p_load: float | np.ndarray
    q_total: float | np.ndarray
    cop: float
    cooling_power: float | np.ndarray


def _heat_grid(
    arch: ArchitectureKind,
    config: SystemConfig,
    p_rx,
    v_rx_hv=None,
    wire_count=None,
    couple_converter_input: bool = True,
) -> _HeatGrid:
    """The fields of :func:`heat_budget_at` over a broadcast grid, in one pass.

    ``p_rx``, ``v_rx_hv`` and ``wire_count`` are floats or NumPy arrays that
    broadcast together; this is one :func:`_heat_cell` call, and so one call
    of the loss evaluator :func:`cryopower.losses._loss_cell`, under NumPy's
    floating-point error checks. Where a cell divides a nonzero value by zero
    (the scalar path raises ``ZeroDivisionError`` there, unless the division
    sits in a converter branch it never takes), the kernel raises
    ``FloatingPointError``.
    """
    import numpy as np  # loaded on first grid call, off the CLI cold path

    with np.errstate(divide="raise", over="ignore", under="ignore", invalid="ignore"):
        return _HeatGrid(*_heat_cell(arch, config, couple_converter_input)(p_rx, v_rx_hv, wire_count))


def _heat_cell(
    arch: ArchitectureKind, config: SystemConfig, couple_converter_input: bool = True
) -> Callable[..., tuple]:
    """The grid evaluator of ``arch``: ``fields(p_rx, v_rx_hv=None, wire_count=None)``.

    A call returns the seven :class:`_HeatGrid` fields, those of
    :func:`heat_budget_at` at that point: the three losses of the loss
    evaluator :func:`cryopower.losses._loss_cell` (same inputs, same
    converter coupling), then the wire load, the heat sum and the cooling
    power. What no input moves (the COP, leak and electronics) is worked out
    once, so every value is bit-identical to the scalar path. Inputs are not
    checked; a float cell raises the scalar path's exception, such as
    ``ZeroDivisionError``, at the call. A float rail, or none, never loads
    NumPy.
    """
    loss = _loss_cell(arch, config, couple_converter_input)
    per_wire, leak, electronics, cop = _stage_terms(arch, config)
    wires = config.wire.wire_count

    def fields(p_rx, v_rx_hv=None, wire_count=None) -> tuple:
        transmission, converter, cold = loss(p_rx, v_rx_hv, wire_count)
        p_load = 0.0 if per_wire is None else per_wire * (wires if wire_count is None else wire_count)
        q_total = p_load + cold + leak + electronics
        return transmission, converter, cold, p_load, q_total, cop, q_total / cop

    return fields
