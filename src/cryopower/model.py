"""Domain types, validation, and defaults for cryogenic power-delivery modeling.

All quantities are strict SI: watts, volts, amperes, ohms, hertz, seconds,
kelvin. The config types are frozen dataclasses; derive a modified
configuration with :func:`dataclasses.replace`. The result records here and
in the other modules are immutable ``typing.NamedTuple`` classes: derive one
with ``_replace``.
"""

from __future__ import annotations

import math
from dataclasses import _FIELD, MISSING, dataclass, field, fields
from enum import Enum
from typing import NamedTuple


class ArchitectureKind(Enum):
    """The five power-transfer architectures under comparison."""

    WIRED = "wired"
    HV_WIRED = "hv_wired"
    RADIATIVE = "radiative"
    NON_RADIATIVE = "non_radiative"
    HV_NON_RADIATIVE = "hv_non_radiative"

    @property
    def label(self) -> str:
        return self.value

    @property
    def is_wireless(self) -> bool:
        """True for architectures that deliver power without wires between stages."""
        return self in (
            ArchitectureKind.RADIATIVE,
            ArchitectureKind.NON_RADIATIVE,
            ArchitectureKind.HV_NON_RADIATIVE,
        )

    @classmethod
    def from_label(cls, label: str) -> "ArchitectureKind":
        for kind in cls:
            if kind.value == label:
                return kind
        known = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown architecture {label!r} (expected one of: {known})")


ARCHITECTURES: tuple[ArchitectureKind, ...] = tuple(ArchitectureKind)

RESISTANCE_MODES = ("warm", "cold", "mean")


@dataclass(frozen=True)
class WireSpec:
    """Electrical and thermal description of one parallel wire rail.

    ``resistance_mode`` selects which endpoint resistance enters the loss
    formulas: the warm-end value (worst case, default), the cold-end value,
    or their mean.
    """

    resistance_warm: float = 16.0
    resistance_cold: float = 12.0
    resistance_mode: str = "warm"
    thermal_load_per_wire: float = 0.3
    wire_count: int = 1

    @property
    def effective_resistance(self) -> float:
        if self.resistance_mode == "warm":
            return self.resistance_warm
        if self.resistance_mode == "cold":
            return self.resistance_cold
        if self.resistance_mode == "mean":
            return 0.5 * (self.resistance_warm + self.resistance_cold)
        raise ValueError(f"unknown resistance_mode {self.resistance_mode!r}")


@dataclass(frozen=True)
class LoadSpec:
    """Delivered-power requirement of the cold electronics."""

    power_per_device: float = 0.005
    device_count: int = 200
    v_rx: float = 2.0
    v_rx_hv: float = 20.0

    @property
    def delivered_power(self) -> float:
        return self.power_per_device * self.device_count


@dataclass(frozen=True)
class CouplingSpec:
    """Wireless-link efficiencies and cold-stage loss attribution.

    ``loss_to_cold_fraction`` is the share of wireless transmission loss
    counted as heat at the cold stage; 1.0 is the worst case.
    """

    eta_rad_r: float = 0.90
    eta_coup_ant: float = 0.70
    eta_coup_coil: float = 0.80
    loss_to_cold_fraction: float = 1.0


@dataclass(frozen=True)
class ConverterSpec:
    """Cold-stage buck converter parameters.

    ``include_loss`` toggles whether converter dissipation enters the loss
    and heat budgets at all; ``attach_hv_nonradiative`` additionally assigns
    a converter stage to the HV non-radiative architecture (off by default,
    where only HV wired carries one).
    """

    r_hs: float = 0.1
    r_ls: float = 0.1
    r_l: float = 0.05
    v_in: float = 12.0
    v_out: float = 3.3
    i_out: float = 0.5
    t_r: float = 5e-9
    t_f: float = 5e-9
    f_sw: float = 1e6
    duty: float = 3.3 / 12.0
    include_loss: bool = True
    attach_hv_nonradiative: bool = False


@dataclass(frozen=True)
class CoolingSpec:
    """Cooling-plant operating temperatures and Carnot correction factor."""

    t_cold: float = 4.0
    t_ambient: float = 300.0
    eta_c: float = 0.1


@dataclass(frozen=True)
class StageSpec:
    """Fixed heat entering the budgeted cold stage from other sources.

    ``q_electronics`` excludes the DC/DC converter, whose dissipation is
    computed from the converter model to avoid double counting.
    """

    q_ambient_leak: float = 0.0
    q_electronics: float = 0.0


@dataclass(frozen=True)
class NoiseSpec:
    """Supply-noise spectrum parameters.

    ``switching_spur`` is the integrated converter spur power in V^2,
    spread over a localized bump around the switching frequency.
    """

    s_white: float = 1e-14
    f_corner: float = 1e3
    wireless_floor_ratio: float = 1e-3
    switching_spur: float = 1e-12


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one power-delivery system under study."""

    wire: WireSpec = field(default_factory=WireSpec)
    load: LoadSpec = field(default_factory=LoadSpec)
    coupling: CouplingSpec = field(default_factory=CouplingSpec)
    converter: ConverterSpec = field(default_factory=ConverterSpec)
    cooling: CoolingSpec = field(default_factory=CoolingSpec)
    stage: StageSpec = field(default_factory=StageSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)


def _dataclass_compatible(cls):
    """Give the NamedTuple record ``cls`` the field table that :mod:`dataclasses` reads.

    The result records were frozen dataclasses; with the table,
    :func:`dataclasses.replace`, :func:`dataclasses.fields` and
    :func:`dataclasses.asdict` still accept them.
    """
    table = {}
    for name in cls._fields:
        entry = field(default=cls._field_defaults.get(name, MISSING))
        # ``fields`` and ``asdict`` skip an entry unless it is marked as a regular field.
        entry.name, entry.type, entry._field_type = name, cls.__annotations__[name], _FIELD
        table[name] = entry
    cls.__dataclass_fields__ = table
    return cls


@_dataclass_compatible
class Violation(NamedTuple):
    """A single validation failure, naming the offending field."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@_dataclass_compatible
class ValidationResult(NamedTuple):
    """Every violation :func:`validate` found, in check order; true when there are none."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def default_config() -> SystemConfig:
    """Return the baseline configuration used throughout the comparisons.

    Wire resistances are the phosphor-bronze per-wire values (16 ohm at the
    warm end, 12 ohm at the cold end); the load is 5 mW per device on a 2 V
    rail with a 20 V high-voltage option; link efficiencies are 70 % antenna
    coupling, 80 % coil coupling, and 90 % antenna radiation; the cold stage
    sits at 4 K against a 300 K ambient. Remaining values (converter
    components, noise floor, per-wire thermal load, cooling correction
    factor) are representative defaults and fully configurable.
    """
    return SystemConfig()


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_number(out: list[Violation], path: str, value: object) -> bool:
    if not _is_number(value):
        out.append(Violation(path, f"must be a number, got {value!r}"))
        return False
    if not math.isfinite(value):
        out.append(Violation(path, f"must be finite, got {value!r}"))
        return False
    return True


def _check_int(out: list[Violation], path: str, value: object) -> bool:
    if not isinstance(value, int) or isinstance(value, bool):
        out.append(Violation(path, f"must be an integer, got {value!r}"))
        return False
    return True


def _check_bool(out: list[Violation], path: str, value: object) -> None:
    if not isinstance(value, bool):
        out.append(Violation(path, f"must be a boolean, got {value!r}"))


def validate(config: SystemConfig) -> ValidationResult:
    """Check every invariant of ``config``; violations name the field path.

    Violations are returned as data rather than raised: an invalid config is
    a legitimate value to inspect, e.g. when diagnosing a config file.
    """
    v: list[Violation] = []
    wire, load, coup = config.wire, config.load, config.coupling
    conv, cool, stage, noise = config.converter, config.cooling, config.stage, config.noise

    if _check_number(v, "wire.resistance_warm", wire.resistance_warm) and wire.resistance_warm <= 0:
        v.append(Violation("wire.resistance_warm", f"must be > 0, got {wire.resistance_warm!r}"))
    if _check_number(v, "wire.resistance_cold", wire.resistance_cold) and wire.resistance_cold <= 0:
        v.append(Violation("wire.resistance_cold", f"must be > 0, got {wire.resistance_cold!r}"))
    if (
        _is_number(wire.resistance_warm)
        and _is_number(wire.resistance_cold)
        and wire.resistance_warm < wire.resistance_cold
    ):
        v.append(
            Violation(
                "wire.resistance_warm",
                f"must be >= wire.resistance_cold ({wire.resistance_cold!r}), "
                f"got {wire.resistance_warm!r}",
            )
        )
    if wire.resistance_mode not in RESISTANCE_MODES:
        v.append(
            Violation(
                "wire.resistance_mode",
                f"must be one of {RESISTANCE_MODES}, got {wire.resistance_mode!r}",
            )
        )
    if _check_number(v, "wire.thermal_load_per_wire", wire.thermal_load_per_wire) and wire.thermal_load_per_wire < 0:
        v.append(Violation("wire.thermal_load_per_wire", f"must be >= 0, got {wire.thermal_load_per_wire!r}"))
    if _check_int(v, "wire.wire_count", wire.wire_count) and wire.wire_count < 1:
        v.append(Violation("wire.wire_count", f"must be >= 1, got {wire.wire_count!r}"))

    if _check_number(v, "load.power_per_device", load.power_per_device) and load.power_per_device < 0:
        v.append(Violation("load.power_per_device", f"must be >= 0, got {load.power_per_device!r}"))
    if _check_int(v, "load.device_count", load.device_count) and load.device_count < 0:
        v.append(Violation("load.device_count", f"must be >= 0, got {load.device_count!r}"))
    if _check_number(v, "load.v_rx", load.v_rx) and load.v_rx <= 0:
        v.append(Violation("load.v_rx", f"must be > 0, got {load.v_rx!r}"))
    if (
        _check_number(v, "load.v_rx_hv", load.v_rx_hv)
        and _is_number(load.v_rx)
        and load.v_rx_hv < load.v_rx
    ):
        v.append(
            Violation("load.v_rx_hv", f"must be >= load.v_rx ({load.v_rx!r}), got {load.v_rx_hv!r}")
        )

    for name in ("eta_rad_r", "eta_coup_ant", "eta_coup_coil"):
        path = f"coupling.{name}"
        value = getattr(coup, name)
        if _check_number(v, path, value) and not (0 < value <= 1):
            v.append(Violation(path, f"must be in (0, 1], got {value!r}"))
    if _check_number(v, "coupling.loss_to_cold_fraction", coup.loss_to_cold_fraction) and not (
        0 <= coup.loss_to_cold_fraction <= 1
    ):
        v.append(
            Violation(
                "coupling.loss_to_cold_fraction",
                f"must be in [0, 1], got {coup.loss_to_cold_fraction!r}",
            )
        )

    for name in ("r_hs", "r_ls", "r_l"):
        path = f"converter.{name}"
        value = getattr(conv, name)
        if _check_number(v, path, value) and value < 0:
            v.append(Violation(path, f"must be >= 0, got {value!r}"))
    if _check_number(v, "converter.v_out", conv.v_out) and conv.v_out <= 0:
        v.append(Violation("converter.v_out", f"must be > 0, got {conv.v_out!r}"))
    if (
        _check_number(v, "converter.v_in", conv.v_in)
        and _is_number(conv.v_out)
        and conv.v_in <= conv.v_out
    ):
        v.append(
            Violation("converter.v_in", f"must be > converter.v_out ({conv.v_out!r}), got {conv.v_in!r}")
        )
    if _check_number(v, "converter.i_out", conv.i_out) and conv.i_out < 0:
        v.append(Violation("converter.i_out", f"must be >= 0, got {conv.i_out!r}"))
    for name in ("t_r", "t_f", "f_sw"):
        path = f"converter.{name}"
        value = getattr(conv, name)
        if _check_number(v, path, value) and value < 0:
            v.append(Violation(path, f"must be >= 0, got {value!r}"))
    if _check_number(v, "converter.duty", conv.duty) and not (0 < conv.duty < 1):
        v.append(Violation("converter.duty", f"must be in (0, 1), got {conv.duty!r}"))
    _check_bool(v, "converter.include_loss", conv.include_loss)
    _check_bool(v, "converter.attach_hv_nonradiative", conv.attach_hv_nonradiative)

    if _check_number(v, "cooling.t_cold", cool.t_cold) and cool.t_cold <= 0:
        v.append(Violation("cooling.t_cold", f"must be > 0, got {cool.t_cold!r}"))
    if (
        _check_number(v, "cooling.t_ambient", cool.t_ambient)
        and _is_number(cool.t_cold)
        and cool.t_ambient <= cool.t_cold
    ):
        v.append(
            Violation("cooling.t_ambient", f"must be > cooling.t_cold ({cool.t_cold!r}), got {cool.t_ambient!r}")
        )
    if _check_number(v, "cooling.eta_c", cool.eta_c) and not (0 < cool.eta_c <= 1):
        v.append(Violation("cooling.eta_c", f"must be in (0, 1], got {cool.eta_c!r}"))

    if _check_number(v, "stage.q_ambient_leak", stage.q_ambient_leak) and stage.q_ambient_leak < 0:
        v.append(Violation("stage.q_ambient_leak", f"must be >= 0, got {stage.q_ambient_leak!r}"))
    if _check_number(v, "stage.q_electronics", stage.q_electronics) and stage.q_electronics < 0:
        v.append(Violation("stage.q_electronics", f"must be >= 0, got {stage.q_electronics!r}"))

    if _check_number(v, "noise.s_white", noise.s_white) and noise.s_white <= 0:
        v.append(Violation("noise.s_white", f"must be > 0, got {noise.s_white!r}"))
    if _check_number(v, "noise.f_corner", noise.f_corner) and noise.f_corner < 0:
        v.append(Violation("noise.f_corner", f"must be >= 0, got {noise.f_corner!r}"))
    if _check_number(v, "noise.wireless_floor_ratio", noise.wireless_floor_ratio) and not (
        0 < noise.wireless_floor_ratio <= 1
    ):
        v.append(
            Violation(
                "noise.wireless_floor_ratio",
                f"must be in (0, 1], got {noise.wireless_floor_ratio!r}",
            )
        )
    if _check_number(v, "noise.switching_spur", noise.switching_spur) and noise.switching_spur < 0:
        v.append(Violation("noise.switching_spur", f"must be >= 0, got {noise.switching_spur!r}"))

    return ValidationResult(tuple(v))


def require_valid(config: SystemConfig) -> SystemConfig:
    """Raise ``ValueError`` listing every violation if ``config`` is invalid."""
    result = validate(config)
    if not result.ok:
        lines = "; ".join(str(item) for item in result.violations)
        raise ValueError(f"invalid configuration: {lines}")
    return config


SECTION_NAMES: tuple[str, ...] = tuple(f.name for f in fields(SystemConfig))
