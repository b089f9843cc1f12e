"""Transmission-loss and DC/DC converter efficiency models.

Each architecture's transmission loss is the power dissipated between the
room-temperature source and the cold load when delivering ``p_rx`` watts.
Transmitter-side antenna/coil losses are excluded throughout: they dissipate
outside the refrigerator and never load the cold stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ArchitectureKind, ConverterSpec, SystemConfig


@dataclass(frozen=True)
class LossBreakdown:
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


def _joule_loss(p, v, r, n):
    # Shared by the scalar functions and the grid kernel (floats or NumPy
    # arrays); keeping one operation order keeps both paths bit-identical.
    return (p * p) / (v * v) * r / n


def _efficiency_loss(p, eta):
    return p * (1.0 / eta - 1.0)


def wired_loss(p_rx: float, v_rx: float, r_wire: float, n_wires: int) -> float:
    """Joule loss of a conventional rail: (p_rx/v_rx)^2 * r_wire / n_wires.

    Parallel wires divide the effective resistance by ``n_wires``.
    """
    _check_delivered(p_rx)
    if v_rx <= 0:
        raise ValueError(f"rail voltage must be > 0, got {v_rx!r}")
    if r_wire <= 0:
        raise ValueError(f"wire resistance must be > 0, got {r_wire!r}")
    if n_wires < 1:
        raise ValueError(f"wire count must be >= 1, got {n_wires!r}")
    return _joule_loss(p_rx, v_rx, r_wire, n_wires)


def hv_wired_loss(p_rx: float, v_rx_hv: float, r_wire: float, n_wires: int) -> float:
    """Joule loss of a high-voltage rail; identical form at the elevated voltage."""
    return wired_loss(p_rx, v_rx_hv, r_wire, n_wires)


def radiative_loss(p_rx: float, eta_rad_r: float, eta_coup_ant: float) -> float:
    """Far-field link loss: p_rx * (1/(eta_rad_r * eta_coup_ant) - 1)."""
    _check_delivered(p_rx)
    _check_efficiency("eta_rad_r", eta_rad_r)
    _check_efficiency("eta_coup_ant", eta_coup_ant)
    return _efficiency_loss(p_rx, eta_rad_r * eta_coup_ant)


def nonradiative_loss(p_rx: float, eta_coup_coil: float) -> float:
    """Near-field coil-coupling loss: p_rx * (1 - eta)/eta."""
    _check_delivered(p_rx)
    _check_efficiency("eta_coup_coil", eta_coup_coil)
    return _efficiency_loss(p_rx, eta_coup_coil)


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
    return _efficiency_loss(p_rx, dcdc_efficiency(spec))


def carries_converter(arch: ArchitectureKind, spec: ConverterSpec) -> bool:
    """Whether ``arch`` passes its power through the cold buck converter ``spec``.

    HV wired always does and the HV non-radiative hybrid does when
    ``attach_hv_nonradiative`` is set; ``include_loss = False`` removes the
    stage from every architecture.
    """
    if not spec.include_loss:
        return False
    if arch is ArchitectureKind.HV_WIRED:
        return True
    return arch is ArchitectureKind.HV_NON_RADIATIVE and spec.attach_hv_nonradiative


def architecture_loss_at(
    arch: ArchitectureKind, config: SystemConfig, p_rx: float
) -> LossBreakdown:
    """Loss breakdown for ``arch`` at an explicit delivered power ``p_rx``.

    Wired architectures deposit their full transmission loss at the cold
    stage; wireless ones deposit ``coupling.loss_to_cold_fraction`` of it.
    Only converter-equipped architectures add converter dissipation, which
    sits at the cold stage in full.
    """
    wire, load, coup = config.wire, config.load, config.coupling
    r_eff = wire.effective_resistance

    if arch is ArchitectureKind.WIRED:
        transmission = wired_loss(p_rx, load.v_rx, r_eff, wire.wire_count)
        cold_fraction = 1.0
    elif arch is ArchitectureKind.HV_WIRED:
        transmission = hv_wired_loss(p_rx, load.v_rx_hv, r_eff, wire.wire_count)
        cold_fraction = 1.0
    elif arch is ArchitectureKind.RADIATIVE:
        transmission = radiative_loss(p_rx, coup.eta_rad_r, coup.eta_coup_ant)
        cold_fraction = coup.loss_to_cold_fraction
    elif arch is ArchitectureKind.NON_RADIATIVE:
        transmission = nonradiative_loss(p_rx, coup.eta_coup_coil)
        cold_fraction = coup.loss_to_cold_fraction
    elif arch is ArchitectureKind.HV_NON_RADIATIVE:
        transmission = hv_nonradiative_loss(p_rx, coup.eta_coup_coil)
        cold_fraction = coup.loss_to_cold_fraction
    else:  # pragma: no cover - enum is closed
        raise TypeError(f"unknown architecture: {arch!r}")

    conv_loss = converter_loss(config.converter, p_rx) if carries_converter(arch, config.converter) else 0.0
    cold = transmission * cold_fraction + conv_loss
    return LossBreakdown(
        architecture=arch,
        delivered_power=p_rx,
        transmission_loss=transmission,
        converter_loss=conv_loss,
        loss_at_cold_stage=cold,
    )


def architecture_loss(arch: ArchitectureKind, config: SystemConfig) -> LossBreakdown:
    """Loss breakdown at the configured load (power_per_device * device_count)."""
    return architecture_loss_at(arch, config, config.load.delivered_power)
