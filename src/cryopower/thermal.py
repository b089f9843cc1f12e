"""Cold-stage heat budgeting and required cooling power.

The budget models a single cold stage: wire conduction load, transmission
and converter losses deposited there, ambient leakage, and fixed electronics
dissipation sum to the total heat leak, which the cooling plant must remove
at its (Carnot-limited, corrected) coefficient of performance.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .losses import LossBreakdown, _buck_efficiency, _coefficients, _link_terms, architecture_loss_at, dcdc_efficiency
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


def _conduction(terms: tuple, wire_count):
    """Wire conduction load at ``wire_count`` from :func:`_stage_terms`: 0.0 over a link."""
    return 0.0 if terms[0] is None else terms[0] * wire_count


def _stage_heat(terms: tuple, losses: tuple, p_load) -> tuple:
    """The :class:`_HeatGrid` fields from a loss triple, the conduction load and :func:`_stage_terms`."""
    transmission, converter, cold = losses
    _, leak, electronics, cop = terms
    q_total = p_load + cold + leak + electronics
    return transmission, converter, cold, p_load, q_total, cop, q_total / cop


def budget_from_loss(config: SystemConfig, breakdown: LossBreakdown) -> ThermalBudget:
    """Heat budget around an already computed loss breakdown of ``config``."""
    arch = breakdown.architecture
    terms = _stage_terms(arch, config)
    p_load = _conduction(terms, config.wire.wire_count)
    _, _, cold, _, q_total, cop, cooling = _stage_heat(terms, breakdown[2:], p_load)
    return ThermalBudget(arch, p_load, cold, terms[1], terms[2], q_total, cop, cooling)


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
    broadcast together; this is :func:`_heat_rows` with ``p_rx`` as its one
    power, under NumPy's floating-point error checks. Where a cell divides a
    nonzero value by zero (the scalar path raises ``ZeroDivisionError``
    there, unless the division sits in a converter branch it never takes),
    the kernel raises ``FloatingPointError``.
    """
    import numpy as np  # loaded on first grid call, off the CLI cold path

    with np.errstate(divide="raise", over="ignore", under="ignore", invalid="ignore"):
        return _HeatGrid(*_heat_rows(arch, config, (p_rx,), v_rx_hv, wire_count, couple_converter_input)[0])


def _heat_rows(
    arch: ArchitectureKind,
    config: SystemConfig,
    p_rx,
    v_rx_hv=None,
    wire_count=None,
    couple_converter_input: bool = True,
) -> list[tuple]:
    """The fields of :func:`heat_budget_at` at each power of ``p_rx``: one :class:`_HeatGrid` tuple per power.

    ``p_rx`` is a sequence of delivered powers. ``v_rx_hv``, ``wire_count``
    and each power are floats, or NumPy arrays that broadcast together;
    ``None`` keeps the configured value. The loss comes from the coefficient
    record the scalar path reads, built once, in the same operation order, so
    every value is bit-identical to the scalar path at that point. Inputs are
    not checked (see :func:`cryopower.losses._coefficients`); where a float
    cell divides by zero this raises ``ZeroDivisionError``, as the scalar
    path does.
    """
    coefficients = _coefficients(arch, config, v_rx_hv, wire_count, couple_converter_input, check=False)
    terms = _stage_terms(arch, config)
    p_load = _conduction(terms, coefficients.wires)
    return [_stage_heat(terms, coefficients.losses(p), p_load) for p in p_rx]


def _cell_cooling(
    arch: ArchitectureKind, config: SystemConfig, p_rx: float, couple_converter_input: bool = True
) -> Callable[[float | None, int | None], float]:
    """``_heat_rows(arch, config, (p_rx,), v, n, couple)[0][-1]`` as a function ``cooling(v, n)``.

    For a float rail ``v`` (or None) and an integer wire count ``n`` (or
    None). What neither moves (the link, resistance, COP, leak and
    electronics) is worked out once; a call computes the rail or link term,
    the converter term and the heat sum on floats, with the operations and
    order of :func:`cryopower.losses._coefficients`, ``_Coefficients.losses``
    and :func:`_stage_heat`, and builds no record. So every value and every
    error is that of :func:`_heat_rows`, raised at the call.
    """
    linear, r_wire, cold_fraction, staged = _link_terms(arch, config, check=False)
    per_wire, leak, electronics, cop = _stage_terms(arch, config)
    conv, v_out, wires = config.converter, config.converter.v_out, config.wire.wire_count
    rail = None if arch._rail is None else getattr(config.load, arch._rail)
    moves_rail = arch._rail != "v_rx"

    def cooling(v_rx_hv: float | None, wire_count: int | None) -> float:
        n = wires if wire_count is None else wire_count
        converter = 0.0
        if staged:
            if v_rx_hv is None or not couple_converter_input:
                converter = p_rx * (1.0 / dcdc_efficiency(conv) - 1.0)
            elif v_rx_hv > v_out:
                converter = p_rx * (1.0 / _buck_efficiency(conv, v_rx_hv, v_out / v_rx_hv) - 1.0)
        if rail is None:
            transmission = p_rx * linear
        else:
            v = v_rx_hv if moves_rail and v_rx_hv is not None else rail
            transmission = (p_rx * p_rx) / (v * v) * r_wire / n
        p_load = 0.0 if per_wire is None else per_wire * n
        return (p_load + (transmission * cold_fraction + converter) + leak + electronics) / cop

    return cooling
