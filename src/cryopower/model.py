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
from operator import attrgetter, le, lt
from typing import Callable, NamedTuple


class ArchitectureKind(Enum):
    """The five power-transfer architectures under comparison."""

    # label, the LoadSpec field of the I^2 R rail (None: a wireless link), the CouplingSpec
    # efficiencies the link multiplies, and the ConverterSpec flag that adds the cold stage.
    WIRED = "wired", "v_rx", (), None
    HV_WIRED = "hv_wired", "v_rx_hv", (), "include_loss"
    RADIATIVE = "radiative", None, ("eta_rad_r", "eta_coup_ant"), None
    NON_RADIATIVE = "non_radiative", None, ("eta_coup_coil",), None
    HV_NON_RADIATIVE = "hv_non_radiative", None, ("eta_coup_coil",), "attach_hv_nonradiative"

    def __new__(cls, label: str, rail: str | None, link: tuple[str, ...], converter_flag: str | None):
        member = object.__new__(cls)
        member._value_, member._rail, member._link, member._converter_flag = label, rail, link, converter_flag
        return member

    @property
    def label(self) -> str:
        return self.value

    @property
    def is_wireless(self) -> bool:
        """True for architectures that deliver power without wires between stages."""
        return self._rail is None

    @classmethod
    def from_label(cls, label: str) -> "ArchitectureKind":
        for kind in cls:
            if kind.value == label:
                return kind
        known = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown architecture {label!r} (expected one of: {known})")


ARCHITECTURES: tuple[ArchitectureKind, ...] = tuple(ArchitectureKind)

RESISTANCE_MODES = ("warm", "cold", "mean")

# The fields ``compare.optimize`` can free: ``load.v_rx_hv`` and ``wire.wire_count``.
FREE_PARAMETER_NAMES = ("v_rx_hv", "wire_count")


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


def _is_finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past float range
        return False


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``num >= 1`` evenly spaced floats from ``start`` to ``stop``.

    Repeats ``numpy.linspace``'s float64 arithmetic element for element, so
    the grid equals ``numpy.linspace(start, stop, num).tolist()`` bit for bit
    without loading numpy.
    """
    start, stop = float(start), float(stop)
    delta = stop - start
    if num == 1:
        return [0.0 * delta + start]
    div = num - 1
    step = delta / div
    if step == 0:  # a span of a few subnormals: divide before scaling
        values = [i / div * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values


# Each bound, by the text its message prints, with the test that a value of
# the field's type violates it.
_BOUNDS: dict[str, Callable[[object], bool]] = {
    "> 0": lambda x: x <= 0,
    ">= 0": lambda x: x < 0,
    ">= 1": lambda x: x < 1,
    "in (0, 1]": lambda x: not 0 < x <= 1,
    "in [0, 1]": lambda x: not 0 <= x <= 1,
    "in (0, 1)": lambda x: not 0 < x < 1,
    f"one of {RESISTANCE_MODES}": lambda x: x not in RESISTANCE_MODES,
}

# A relation "<op> <other path>" is violated as written here, not as ``not``
# of the relation, so that a NaN on either side violates nothing.
_RELATIONS: dict[str, Callable[[object, object], bool]] = {">=": lt, ">": le}

# The types each type check accepts; a number or an integer is never a bool.
_TYPES = {"a number": (int, float), "an integer": int, "a boolean": bool}

# Every field path, in declaration order, with the kind its annotation declares:
# the _TYPES key validate checks and configio parses, None for a string. Any
# other annotation fails at import.
_FIELD_KINDS: dict[str, str | None] = {
    f"{section.name}.{leaf.name}": dict(float="a number", int="an integer", bool="a boolean", str=None)[leaf.type]
    for section in fields(SystemConfig)
    for leaf in fields(section.default_factory)
}

# Every check validate makes, in report order: field path and bound (a _BOUNDS
# key or a relation), None for none. A path's first check also checks its kind.
# A relation needs both values to be numbers and its field to pass its type check.
_RULES: tuple[tuple[str, str | None], ...] = (
    ("wire.resistance_warm", "> 0"),
    ("wire.resistance_cold", "> 0"),
    ("wire.resistance_warm", ">= wire.resistance_cold"),
    ("wire.resistance_mode", f"one of {RESISTANCE_MODES}"),
    ("wire.thermal_load_per_wire", ">= 0"),
    ("wire.wire_count", ">= 1"),
    ("load.power_per_device", ">= 0"),
    ("load.device_count", ">= 0"),
    ("load.v_rx", "> 0"),
    ("load.v_rx_hv", ">= load.v_rx"),
    ("coupling.eta_rad_r", "in (0, 1]"),
    ("coupling.eta_coup_ant", "in (0, 1]"),
    ("coupling.eta_coup_coil", "in (0, 1]"),
    ("coupling.loss_to_cold_fraction", "in [0, 1]"),
    ("converter.r_hs", ">= 0"),
    ("converter.r_ls", ">= 0"),
    ("converter.r_l", ">= 0"),
    ("converter.v_out", "> 0"),
    ("converter.v_in", "> converter.v_out"),
    ("converter.i_out", ">= 0"),
    ("converter.t_r", ">= 0"),
    ("converter.t_f", ">= 0"),
    ("converter.f_sw", ">= 0"),
    ("converter.duty", "in (0, 1)"),
    ("converter.include_loss", None),
    ("converter.attach_hv_nonradiative", None),
    ("cooling.t_cold", "> 0"),
    ("cooling.t_ambient", "> cooling.t_cold"),
    ("cooling.eta_c", "in (0, 1]"),
    ("stage.q_ambient_leak", ">= 0"),
    ("stage.q_electronics", ">= 0"),
    ("noise.s_white", "> 0"),
    ("noise.f_corner", ">= 0"),
    ("noise.wireless_floor_ratio", "in (0, 1]"),
    ("noise.switching_spur", ">= 0"),
)


def _compile_rule(path: str, kind: str | None, bound: str | None) -> tuple:
    """One _RULES entry as validate reads it, with its getters and tests looked up once."""
    if bound is None or bound in _BOUNDS:
        return path, attrgetter(path), kind, _TYPES.get(kind), bound, _BOUNDS.get(bound), None
    relation, other = bound.split(" ")
    return path, attrgetter(path), kind, _TYPES.get(kind), bound, _RELATIONS[relation], attrgetter(other)


_CHECKS = tuple(
    _compile_rule(path, kinds.pop(path, None), bound) for kinds in [dict(_FIELD_KINDS)] for path, bound in _RULES
)


def _violations(config: SystemConfig, checks: tuple) -> list[Violation]:
    """The violations of ``checks``, a selection of ``_CHECKS`` in its order, on ``config``."""
    v: list[Violation] = []
    for path, get, kind, types, bound, violated, get_other in checks:
        value = get(config)
        if kind is not None and (not isinstance(value, types) or (types is not bool and isinstance(value, bool))):
            problem = f"must be {kind}"
        elif kind in ("a number", "an integer") and not _is_finite(value):
            problem = "must be finite"
        elif get_other is not None:
            other = get_other(config)
            if not (_is_number(value) and _is_number(other) and violated(value, other)):
                continue
            problem = f"must be {bound} ({other!r})"
        elif violated is not None and violated(value):
            problem = f"must be {bound}"
        else:
            continue
        v.append(Violation(path, f"{problem}, got {value!r}"))
    return v


def validate(config: SystemConfig) -> ValidationResult:
    """Check every invariant of ``config``, in ``_RULES`` order; violations name the field path.

    Violations are returned as data rather than raised: an invalid config is
    a legitimate value to inspect, e.g. when diagnosing a config file.
    """
    return ValidationResult(tuple(_violations(config, _CHECKS)))
