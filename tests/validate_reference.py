"""Frozen reference for :func:`cryopower.model.validate`.

The table-driven ``validate`` must return exactly what this hand-written
form returns, path, message and order, as it was at commit 51f73b3. Do
not edit it to follow a change in ``cryopower.model``: a difference is a
change of behaviour.
"""

from __future__ import annotations

import math

from cryopower.model import RESISTANCE_MODES, SystemConfig, ValidationResult, Violation


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
    """The hand-written ``cryopower.model.validate`` of commit 51f73b3, verbatim.

    Check every invariant of ``config``; violations name the field path.
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
