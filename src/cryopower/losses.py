"""Transmission-loss and DC/DC converter efficiency models.

Each architecture's transmission loss is the power dissipated between the
room-temperature source and the cold load when delivering ``p_rx`` watts.
Transmitter-side antenna/coil losses are excluded throughout: they dissipate
outside the refrigerator and never load the cold stage.
"""

from __future__ import annotations

from typing import NamedTuple

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


class _Coefficients(NamedTuple):
    """Loss of one architecture as coefficients of the delivered power ``p``.

    A wireless link loses ``p * linear``, an I^2 R rail (``rail`` is None for
    a link) ``(p/rail)^2 * resistance / wires`` and the cold converter
    ``p * converter`` (None without a stage); the cold stage takes
    ``transmission * cold_fraction + converter``.
    """

    linear: float
    rail: float | None
    resistance: float
    wires: int
    converter: float | None
    cold_fraction: float

    @property
    def quadratic(self):
        """Transmission per watt squared: ``r / v^2 / n`` for a rail, 0 for a link."""
        return 0.0 if self.rail is None else self.resistance / (self.rail * self.rail) / self.wires

    def losses(self, p):
        """Transmission, converter and cold-stage loss at ``p``, in the leaf functions' order."""
        if self.rail is None:
            transmission = p * self.linear
        else:
            transmission = (p * p) / (self.rail * self.rail) * self.resistance / self.wires
        converter = 0.0 if self.converter is None else p * self.converter
        return transmission, converter, transmission * self.cold_fraction + converter


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


def _coefficients(
    arch: ArchitectureKind, config: SystemConfig, wire_count: int | None = None, check: bool = True
) -> _Coefficients:
    """The loss coefficients of ``arch`` at the configured point, from the rail, link and converter flag it declares.

    ``wire_count``, when given, replaces the configured count. With
    ``check``, the architecture's inputs are checked as its leaf functions
    check them, after the resistance mode. Grids do not read the record:
    :func:`cryopower.thermal._heat_cell` evaluates them.
    """
    linear, r_wire, cold_fraction, staged = _link_terms(arch, config, check)
    n = config.wire.wire_count if wire_count is None else wire_count
    rail = arch._rail  # the LoadSpec field name, then its voltage
    if rail is not None:
        rail = getattr(config.load, rail)
        if check:
            _check_rail(rail, r_wire, n)
    converter = 1.0 / dcdc_efficiency(config.converter) - 1.0 if staged else None
    return _Coefficients(linear, rail, r_wire, n, converter, cold_fraction)


def architecture_loss_at(
    arch: ArchitectureKind, config: SystemConfig, p_rx: float, _record: _Coefficients | None = None
) -> LossBreakdown:
    """Loss breakdown for ``arch`` at an explicit delivered power ``p_rx``.

    Wired architectures deposit their full transmission loss at the cold
    stage; wireless ones deposit ``coupling.loss_to_cold_fraction`` of it.
    Only converter-equipped architectures add converter dissipation, which
    sits at the cold stage in full.
    """
    # ``_record``, when given, is ``_coefficients(arch, config)``; a budget solve builds it once.
    config.wire.effective_resistance  # raises first on a bad resistance mode, as the leaf path did
    _check_delivered(p_rx)
    if _record is None:
        _record = _coefficients(arch, config)
    transmission, converter, cold = _record.losses(p_rx)
    return LossBreakdown(arch, p_rx, transmission, converter, cold)


def architecture_loss(arch: ArchitectureKind, config: SystemConfig) -> LossBreakdown:
    """Loss breakdown at the configured load (power_per_device * device_count)."""
    return architecture_loss_at(arch, config, config.load.delivered_power)
