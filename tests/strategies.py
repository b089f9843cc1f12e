"""Hypothesis strategies generating valid domain values for the property suites."""

import struct

from hypothesis import strategies as st

from cryopower.model import (
    ConverterSpec,
    CoolingSpec,
    CouplingSpec,
    LoadSpec,
    NoiseSpec,
    StageSpec,
    SystemConfig,
    WireSpec,
    RESISTANCE_MODES,
)


def finite(lo: float, hi: float, **kwargs) -> st.SearchStrategy[float]:
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False, **kwargs)


def rails_past_v_out(cfg: SystemConfig) -> st.SearchStrategy[float]:
    """Rails from ``v_rx`` to past ``v_out``, with ``v_out`` itself (where the stage drops)."""
    top = max(cfg.load.v_rx, cfg.converter.v_out)
    return st.one_of(finite(cfg.load.v_rx, 20.0 * top), st.just(top))


delivered_powers = finite(0.0, 100.0)
positive_powers = finite(1e-9, 100.0)
rail_voltages = finite(0.5, 50.0)
resistances = finite(1e-3, 1e3)
wire_counts = st.integers(min_value=1, max_value=64)
efficiencies = finite(0.05, 1.0)


@st.composite
def wire_specs(draw) -> WireSpec:
    warm = draw(resistances)
    cold = warm * draw(finite(0.05, 1.0))
    return WireSpec(
        resistance_warm=warm,
        resistance_cold=cold,
        resistance_mode=draw(st.sampled_from(RESISTANCE_MODES)),
        thermal_load_per_wire=draw(finite(0.0, 5.0)),
        wire_count=draw(wire_counts),
    )


@st.composite
def load_specs(draw, positive_load: bool = False) -> LoadSpec:
    v_rx = draw(rail_voltages)
    per_device = draw(finite(1e-6, 0.1)) if positive_load else draw(finite(0.0, 0.1))
    min_devices = 1 if positive_load else 0
    return LoadSpec(
        power_per_device=per_device,
        device_count=draw(st.integers(min_value=min_devices, max_value=2000)),
        v_rx=v_rx,
        v_rx_hv=v_rx * draw(finite(1.0, 100.0)),
    )


@st.composite
def coupling_specs(draw) -> CouplingSpec:
    return CouplingSpec(
        eta_rad_r=draw(efficiencies),
        eta_coup_ant=draw(efficiencies),
        eta_coup_coil=draw(efficiencies),
        loss_to_cold_fraction=draw(finite(0.0, 1.0)),
    )


def _least_addend(x: float, floor: float) -> float:
    """The least float ``y >= 0`` whose float sum ``x + y`` exceeds ``floor > 0``, for ``x >= 0``.

    The sum is monotone in ``y``, and nonnegative floats order as their bit
    patterns, so this bisects on the patterns between ``0.0`` and ``2 * floor``.
    """

    def as_float(bits: int) -> float:
        return struct.unpack("<d", struct.pack("<Q", bits))[0]

    if x > floor:
        return 0.0
    lo, hi = 0, struct.unpack("<Q", struct.pack("<d", 2.0 * floor))[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if x + as_float(mid) > floor else (mid, hi)
    return as_float(hi)


@st.composite
def converter_specs(draw, switching: bool = False) -> ConverterSpec:
    """A valid converter; with ``switching``, one whose every loss term is live.

    That is the valid domain where the resistances and ``i_out`` exceed
    1e-6, ``f_sw`` exceeds 1 Hz and ``t_r + t_f`` exceeds 1e-12 s, drawn
    directly instead of filtered.
    """

    def above(floor: float, hi: float) -> st.SearchStrategy[float]:
        return finite(floor, hi, exclude_min=True) if switching else finite(0.0, hi)

    v_out = draw(finite(0.5, 5.0))
    return ConverterSpec(
        r_hs=draw(above(1e-6, 1.0)),
        r_ls=draw(above(1e-6, 1.0)),
        r_l=draw(above(1e-6, 1.0)),
        v_in=v_out * draw(finite(1.05, 20.0)),
        v_out=v_out,
        i_out=draw(above(1e-6, 5.0)),
        t_r=(t_r := draw(finite(0.0, 5e-8))),
        t_f=draw(finite(_least_addend(t_r, 1e-12) if switching else 0.0, 5e-8)),
        f_sw=draw(above(1.0, 5e6)),
        duty=draw(finite(0.01, 0.99)),
        include_loss=draw(st.booleans()),
        attach_hv_nonradiative=draw(st.booleans()),
    )


@st.composite
def cooling_specs(draw) -> CoolingSpec:
    t_cold = draw(finite(0.1, 100.0))
    return CoolingSpec(
        t_cold=t_cold,
        t_ambient=t_cold * draw(finite(1.05, 100.0)),
        eta_c=draw(finite(0.01, 1.0)),
    )


@st.composite
def stage_specs(draw) -> StageSpec:
    return StageSpec(
        q_ambient_leak=draw(finite(0.0, 10.0)),
        q_electronics=draw(finite(0.0, 10.0)),
    )


@st.composite
def noise_specs(draw) -> NoiseSpec:
    return NoiseSpec(
        s_white=draw(finite(1e-18, 1e-8)),
        f_corner=draw(st.one_of(st.just(0.0), finite(1.0, 1e6))),
        wireless_floor_ratio=draw(finite(1e-6, 1.0)),
        switching_spur=draw(finite(0.0, 1e-9)),
    )


@st.composite
def system_configs(draw, positive_load: bool = False) -> SystemConfig:
    return SystemConfig(
        wire=draw(wire_specs()),
        load=draw(load_specs(positive_load=positive_load)),
        coupling=draw(coupling_specs()),
        converter=draw(converter_specs()),
        cooling=draw(cooling_specs()),
        stage=draw(stage_specs()),
        noise=draw(noise_specs()),
    )
