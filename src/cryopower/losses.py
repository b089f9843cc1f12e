"""Transmission-loss and DC/DC converter efficiency models.

Each architecture's transmission loss is the power dissipated between the
room-temperature source and the cold load when delivering ``p_rx`` watts.
Transmitter-side antenna/coil losses are excluded throughout: they dissipate
outside the refrigerator and never load the cold stage.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .model import ArchitectureKind, ConverterSpec, SystemConfig, _dataclass_compatible


@_dataclass_compatible
class LossBreakdown(NamedTuple):
    """Loss decomposition for one architecture at one operating point.

    ``loss_at_cold_stage`` is the portion of transmission plus converter
    loss that heats the budgeted cold stage.
    """

    architecture: ArchitectureKind
    delivered_power: float
    transmission_loss: float
    converter_loss: float
    loss_at_cold_stage: float


def _check_delivered(p_rx: float) -> None:
    if p_rx < 0:
        raise ValueError(f"delivered power must be >= 0, got {p_rx!r}")


def _check_efficiency(name: str, eta: float) -> None:
    if not 0 < eta <= 1:
        raise ValueError(f"{name} must be in (0, 1], got {eta!r}")


def _check_rail(v_rx: float, r_wire: float, n_wires: int) -> None:
    if v_rx <= 0:
        raise ValueError(f"rail voltage must be > 0, got {v_rx!r}")
    if r_wire <= 0:
        raise ValueError(f"wire resistance must be > 0, got {r_wire!r}")
    if n_wires < 1:
        raise ValueError(f"wire count must be >= 1, got {n_wires!r}")


def wired_loss(p_rx: float, v_rx: float, r_wire: float, n_wires: int) -> float:
    """Joule loss of a conventional rail: (p_rx/v_rx)^2 * r_wire / n_wires.

    Parallel wires divide the effective resistance by ``n_wires``.
    """
    _check_delivered(p_rx)
    _check_rail(v_rx, r_wire, n_wires)
    return (p_rx * p_rx) / (v_rx * v_rx) * r_wire / n_wires


def hv_wired_loss(p_rx: float, v_rx_hv: float, r_wire: float, n_wires: int) -> float:
    """Joule loss of a high-voltage rail; identical form at the elevated voltage."""
    return wired_loss(p_rx, v_rx_hv, r_wire, n_wires)


def radiative_loss(p_rx: float, eta_rad_r: float, eta_coup_ant: float) -> float:
    """Far-field link loss: p_rx * (1/(eta_rad_r * eta_coup_ant) - 1)."""
    _check_delivered(p_rx)
    _check_efficiency("eta_rad_r", eta_rad_r)
    _check_efficiency("eta_coup_ant", eta_coup_ant)
    return p_rx * (1.0 / (eta_rad_r * eta_coup_ant) - 1.0)


def nonradiative_loss(p_rx: float, eta_coup_coil: float) -> float:
    """Near-field coil-coupling loss: p_rx * (1 - eta)/eta."""
    _check_delivered(p_rx)
    _check_efficiency("eta_coup_coil", eta_coup_coil)
    return p_rx * (1.0 / eta_coup_coil - 1.0)


def hv_nonradiative_loss(p_rx: float, eta_coup_coil: float) -> float:
    """Coil-coupling loss of the HV non-radiative hybrid.

    The HV source only shrinks transmitter-side resistive loss, which never
    heats the cold stage, so the cold-relevant loss matches
    :func:`nonradiative_loss` identically.
    """
    return nonradiative_loss(p_rx, eta_coup_coil)


def dcdc_efficiency(spec: ConverterSpec) -> float:
    """Buck converter efficiency from conduction and switching losses.

    eta = 1 / (1 + I_out*(R_HS*D + R_LS*(1-D) + R_L)/V_out
               + 0.5*V_in*(t_r + t_f)*f_sw/V_out)
    """
    return _buck_efficiency(spec, spec.v_in, spec.duty)


def _buck_efficiency(spec: ConverterSpec, v_in, duty):
    """:func:`dcdc_efficiency` of ``spec`` at input ``v_in`` and ``duty`` (floats or arrays)."""
    if spec.v_out <= 0:
        raise ValueError(f"converter output voltage must be > 0, got {spec.v_out!r}")
    conduction = spec.i_out * (spec.r_hs * duty + spec.r_ls * (1.0 - duty) + spec.r_l) / spec.v_out
    switching = 0.5 * v_in * (spec.t_r + spec.t_f) * spec.f_sw / spec.v_out
    return 1.0 / (1.0 + conduction + switching)


def converter_loss(spec: ConverterSpec, p_rx: float) -> float:
    """Converter dissipation when passing ``p_rx`` watts: p_rx * (1/eta - 1)."""
    _check_delivered(p_rx)
    return p_rx * (1.0 / dcdc_efficiency(spec) - 1.0)


def carries_converter(arch: ArchitectureKind, spec: ConverterSpec) -> bool:
    """Whether ``arch`` passes its power through the cold buck converter ``spec``.

    It does when ``include_loss`` and the flag ``arch`` declares are both set:
    ``include_loss`` itself for HV wired, ``attach_hv_nonradiative`` for the hybrid.
    """
    if not spec.include_loss or arch._converter_flag is None:
        return False
    return getattr(spec, arch._converter_flag)


def _link_terms(arch: ArchitectureKind, config: SystemConfig, check: bool = True) -> tuple:
    """What no rail or wire count moves: a link's ``1/eta - 1``, resistance, cold fraction, stage flag."""
    coup = config.coupling
    r_wire = config.wire.effective_resistance
    linear, cold_fraction = 0.0, 1.0
    if arch._rail is None:
        eta, cold_fraction = 1.0, coup.loss_to_cold_fraction
        for name in arch._link:
            if check:
                _check_efficiency(name, getattr(coup, name))
            eta *= getattr(coup, name)
        linear = 1.0 / eta - 1.0
    return linear, r_wire, cold_fraction, carries_converter(arch, config.converter)


def _loss_cell(
    arch: ArchitectureKind, config: SystemConfig, couple_converter_input: bool = True, check: bool = False
) -> Callable[..., tuple]:
    """The loss evaluator of ``arch``: ``loss(p_rx, v_rx_hv=None, wire_count=None)``.

    A call returns the transmission, converter and cold-stage loss of
    :class:`LossBreakdown` at that point. Its inputs are floats, or NumPy
    arrays that broadcast together; ``None`` keeps the configured rail or
    wire count. With coupling on, a given ``v_rx_hv`` sets the converter as
    :func:`cryopower.compare.resolve_parameters` does: its input tracks the
    rail, and the stage drops where the rail is at or below ``v_out`` (a
    float rail then carries no stage, an array rail a 0.0 coefficient
    there). What no input moves (the link and the resistance) is worked out
    once; a call computes the rest in the operation order of the leaf
    functions. With ``check``, the configured point's inputs are checked as
    the leaf functions check them, after the resistance mode; a call checks
    nothing, and a float call raises the leaf functions' exception, such as
    ``ZeroDivisionError``. The evaluator never reads the cooling section. A
    float rail, or none, never loads NumPy.
    """
    linear, r_wire, cold_fraction, staged = _link_terms(arch, config, check)
    conv, v_out, wires = config.converter, config.converter.v_out, config.wire.wire_count
    rail = None if arch._rail is None else getattr(config.load, arch._rail)
    if check and rail is not None:
        _check_rail(rail, r_wire, wires)
    moves_rail = arch._rail != "v_rx"

    def loss(p_rx, v_rx_hv=None, wire_count=None) -> tuple:
        converter = 0.0
        if staged:
            if v_rx_hv is None or not couple_converter_input:
                converter = p_rx * (1.0 / dcdc_efficiency(conv) - 1.0)
            elif isinstance(v_rx_hv, float):  # one rail: a carried stage, or none
                if v_rx_hv > v_out:
                    converter = p_rx * (1.0 / _buck_efficiency(conv, v_rx_hv, v_out / v_rx_hv) - 1.0)
            else:
                import numpy as np  # only array grids reach here

                carried = v_rx_hv > v_out
                if np.any(carried):  # as in resolve_parameters, only a carried stage checks its spec
                    eta = _buck_efficiency(conv, v_rx_hv, v_out / v_rx_hv)
                    converter = p_rx * np.where(carried, 1.0 / eta - 1.0, 0.0)
        if rail is None:
            transmission = p_rx * linear
        else:
            v = v_rx_hv if moves_rail and v_rx_hv is not None else rail
            n = wires if wire_count is None else wire_count
            transmission = (p_rx * p_rx) / (v * v) * r_wire / n
        return transmission, converter, transmission * cold_fraction + converter

    return loss


def _cost_terms(arch: ArchitectureKind, config: SystemConfig) -> tuple[float, float]:
    """``b`` and ``c`` of the budgeted cost ``p_rx + cold(p_rx) = b p_rx + c p_rx^2`` at the configured point."""
    linear, r_wire, cold_fraction, staged = _link_terms(arch, config, check=False)
    b = 1.0 + linear * cold_fraction + (1.0 / dcdc_efficiency(config.converter) - 1.0 if staged else 0.0)
    rail = None if arch._rail is None else getattr(config.load, arch._rail)
    c = (0.0 if rail is None else r_wire / (rail * rail) / config.wire.wire_count) * cold_fraction
    return b, c


def architecture_loss_at(
    arch: ArchitectureKind, config: SystemConfig, p_rx: float, _loss: Callable[..., tuple] | None = None
) -> LossBreakdown:
    """Loss breakdown for ``arch`` at an explicit delivered power ``p_rx``.

    Wired architectures deposit their full transmission loss at the cold
    stage; wireless ones deposit ``coupling.loss_to_cold_fraction`` of it.
    Only converter-equipped architectures add converter dissipation, which
    sits at the cold stage in full. The values come from the checked loss
    evaluator :func:`_loss_cell`, which every grid reads too.
    """
    # ``_loss``, when given, is ``_loss_cell(arch, config, check=True)``; a budget solve builds it once.
    config.wire.effective_resistance  # raises first on a bad resistance mode, as the leaf path did
    _check_delivered(p_rx)
    if _loss is None:
        _loss = _loss_cell(arch, config, check=True)
    return LossBreakdown(arch, p_rx, *_loss(p_rx))


def architecture_loss(arch: ArchitectureKind, config: SystemConfig) -> LossBreakdown:
    """Loss breakdown at the configured load (power_per_device * device_count)."""
    return architecture_loss_at(arch, config, config.load.delivered_power)
