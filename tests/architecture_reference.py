"""Frozen reference for the per-architecture dispatch.

These are the enum-member chains that told the architectures apart before
each ``ArchitectureKind`` member declared its rail, link and converter flag:
``carries_converter``, ``is_wireless``, ``white_floor_ratio``, ``rail_noise``
and the scalar loss path of ``architecture_loss_at``, as they were at
commit 30c5f84. Do not edit them to follow a change in ``cryopower``: a
difference is a change of behaviour. The one edit since is deliberate: the
wireless frequency guard of ``rail_noise`` rejects NaN (``not f > 0``), as
``supply_noise``, which the wired branches call, does too.
"""

from __future__ import annotations

from cryopower.losses import _check_delivered, _check_efficiency, _check_rail, dcdc_efficiency
from cryopower.model import ArchitectureKind, ConverterSpec, SystemConfig
from cryopower.noise import spur_shape, supply_noise


def carries_converter(arch: ArchitectureKind, spec: ConverterSpec) -> bool:
    if not spec.include_loss:
        return False
    if arch is ArchitectureKind.HV_WIRED:
        return True
    return arch is ArchitectureKind.HV_NON_RADIATIVE and spec.attach_hv_nonradiative


def is_wireless(arch: ArchitectureKind) -> bool:
    return arch in (
        ArchitectureKind.RADIATIVE,
        ArchitectureKind.NON_RADIATIVE,
        ArchitectureKind.HV_NON_RADIATIVE,
    )


def white_floor_ratio(arch: ArchitectureKind, config: SystemConfig) -> float:
    if arch is ArchitectureKind.WIRED:
        return 1.0
    if arch is ArchitectureKind.HV_WIRED:
        return config.load.v_rx / config.load.v_rx_hv
    return config.noise.wireless_floor_ratio


def rail_noise(arch: ArchitectureKind, f: float, config: SystemConfig) -> float:
    spec = config.noise
    if arch is ArchitectureKind.WIRED:
        return supply_noise(f, spec)
    if arch is ArchitectureKind.HV_WIRED:
        step_down = config.load.v_rx_hv / config.load.v_rx
        spur = spec.switching_spur * spur_shape(f, config.converter.f_sw)
        return supply_noise(f, spec) / step_down + spur
    if not f > 0:
        raise ValueError(f"frequency must be > 0, got {f!r}")
    return spec.s_white * spec.wireless_floor_ratio


def architecture_loss_at(arch: ArchitectureKind, config: SystemConfig, p_rx: float) -> tuple[float, float, float]:
    """Transmission, converter and cold-stage loss of ``arch`` at ``p_rx``, checks in their old order."""
    config.wire.effective_resistance
    _check_delivered(p_rx)
    wire, load, coup, conv = config.wire, config.load, config.coupling, config.converter
    n = wire.wire_count
    r_wire = wire.effective_resistance
    linear, rail, cold_fraction = 0.0, None, coup.loss_to_cold_fraction
    if arch is ArchitectureKind.WIRED or arch is ArchitectureKind.HV_WIRED:
        rail = load.v_rx if arch is ArchitectureKind.WIRED else load.v_rx_hv
        _check_rail(rail, r_wire, n)
        cold_fraction = 1.0
    elif arch is ArchitectureKind.RADIATIVE:
        _check_efficiency("eta_rad_r", coup.eta_rad_r)
        _check_efficiency("eta_coup_ant", coup.eta_coup_ant)
        linear = 1.0 / (coup.eta_rad_r * coup.eta_coup_ant) - 1.0
    elif arch is ArchitectureKind.NON_RADIATIVE or arch is ArchitectureKind.HV_NON_RADIATIVE:
        _check_efficiency("eta_coup_coil", coup.eta_coup_coil)
        linear = 1.0 / coup.eta_coup_coil - 1.0
    else:
        raise TypeError(f"unknown architecture: {arch!r}")
    converter = None
    if carries_converter(arch, conv):
        converter = 1.0 / dcdc_efficiency(conv) - 1.0
    if rail is None:
        transmission = p_rx * linear
    else:
        transmission = (p_rx * p_rx) / (rail * rail) * r_wire / n
    converter_loss = 0.0 if converter is None else p_rx * converter
    return transmission, converter_loss, transmission * cold_fraction + converter_loss
