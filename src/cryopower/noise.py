"""Supply-rail noise-density models for the five architectures.

The room-temperature supply is modeled as flicker noise over a white floor.
Delivering at higher voltage divides the rail-referred density by the
step-down ratio; converter-equipped rails add a localized switching spur;
wireless chains replace the supply spectrum with a strongly attenuated flat
floor set by their conversion stages.
"""

from __future__ import annotations

from .model import ArchitectureKind, NoiseSpec, SystemConfig


def supply_noise(f: float, spec: NoiseSpec) -> float:
    """Supply noise density s_white * (1 + f_corner/f) in V^2/Hz."""
    if not f > 0:
        raise ValueError(f"frequency must be > 0, got {f!r}")
    return spec.s_white * (1.0 + spec.f_corner / f)


def spur_shape(f: float, f_sw: float) -> float:
    """Unit-area triangular bump centered at ``f_sw``, in 1/Hz, of half-width 0.1 * f_sw.

    Returns 0 when the half-width is not positive: no switching frequency
    is configured, or a subnormal ``f_sw`` underflows it to 0.
    """
    if not f > 0:
        raise ValueError(f"frequency must be > 0, got {f!r}")
    w = 0.1 * f_sw
    offset = abs(f - f_sw)
    if offset >= w:
        return 0.0
    return (1.0 - offset / w) / w


def white_floor_ratio(arch: ArchitectureKind, config: SystemConfig) -> float:
    """High-frequency noise floor of ``arch`` relative to the wired rail.

    Wired is the reference (1.0); the HV rail improves by the voltage
    step-down ratio; wireless chains sit at ``wireless_floor_ratio``.
    """
    if arch._rail is None:
        return config.noise.wireless_floor_ratio
    return 1.0 if arch._rail == "v_rx" else config.load.v_rx / config.load.v_rx_hv


def rail_noise(arch: ArchitectureKind, f: float, config: SystemConfig) -> float:
    """Rail-referred noise density of ``arch`` at frequency ``f``, in V^2/Hz.

    Wireless rails are flat, set by the conversion stages and not the supply.
    Only ``hv_wired`` adds the switching spur, even when the hybrid has a converter.
    """
    spec = config.noise
    if arch._rail is None:
        if not f > 0:
            raise ValueError(f"frequency must be > 0, got {f!r}")
        return spec.s_white * spec.wireless_floor_ratio
    if arch._rail == "v_rx":
        return supply_noise(f, spec)
    step_down = config.load.v_rx_hv / config.load.v_rx
    spur = spec.switching_spur * spur_shape(f, config.converter.f_sw)
    return supply_noise(f, spec) / step_down + spur
