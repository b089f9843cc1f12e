"""Supply and rail noise-density model tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cryopower.model import ARCHITECTURES, ArchitectureKind, default_config
from cryopower.noise import (
    rail_noise,
    spur_shape,
    supply_noise,
    white_floor_ratio,
)


class TestSupplyNoise:
    def test_white_floor_asymptote(self):
        spec = default_config().noise
        assert abs(supply_noise(1e12, spec) - spec.s_white) <= 1e-8 * spec.s_white

    def test_corner_doubles_the_floor(self):
        spec = default_config().noise
        assert supply_noise(spec.f_corner, spec) == 2.0 * spec.s_white

    def test_decade_below_corner(self):
        spec = default_config().noise
        assert supply_noise(spec.f_corner / 10.0, spec) == 11.0 * spec.s_white

    @pytest.mark.parametrize("f", [0.0, -1.0, math.nan])
    def test_domain_error(self, f):
        with pytest.raises(ValueError, match="frequency must be > 0"):
            supply_noise(f, default_config().noise)


class TestSpurShape:
    def test_unit_area(self):
        f_sw = 1e6
        freqs = np.linspace(0.5 * f_sw, 1.5 * f_sw, 200001)
        area = np.trapezoid([spur_shape(f, f_sw) for f in freqs], freqs)
        assert abs(area - 1.0) < 1e-6

    def test_peak_at_switching_frequency(self):
        f_sw = 1e6
        width = 0.1 * f_sw
        assert spur_shape(f_sw, f_sw) == 1.0 / width
        assert spur_shape(f_sw * 1.05, f_sw) == pytest.approx(0.5 / width)

    def test_zero_outside_bump(self):
        f_sw = 1e6
        assert spur_shape(f_sw * 0.89, f_sw) == 0.0
        assert spur_shape(f_sw * 1.11, f_sw) == 0.0
        assert spur_shape(1.0, f_sw) == 0.0

    def test_no_switching_frequency_no_spur(self):
        # 0.1 * 5e-324 underflows to 0.0; a NaN frequency is rejected before it could divide by that zero.
        # Every offset |f - f_sw| is at least a half-width that is not positive, so the bump is 0.0.
        for f_sw in (0.0, -0.0, -1.0, -math.inf, 5e-324):
            for f in (1e-300, 1.0, 1e6, math.inf):
                assert spur_shape(f, f_sw) == 0.0, (f, f_sw)
            with pytest.raises(ValueError, match="frequency must be > 0, got nan"):
                spur_shape(math.nan, f_sw)


class TestRailNoise:
    def test_wired_is_supply_passthrough(self):
        cfg = default_config()
        assert rail_noise(ArchitectureKind.WIRED, 1e12, cfg) == supply_noise(1e12, cfg.noise)

    def test_hv_improvement_is_voltage_ratio(self):
        cfg = default_config()
        f = 1e12  # far above both corner and spur
        ratio = rail_noise(ArchitectureKind.HV_WIRED, f, cfg) / rail_noise(ArchitectureKind.WIRED, f, cfg)
        assert abs(ratio - 0.1) <= 1e-12

    def test_wireless_floor(self):
        cfg = default_config()
        expected = cfg.noise.s_white * cfg.noise.wireless_floor_ratio
        for arch in (
            ArchitectureKind.RADIATIVE,
            ArchitectureKind.NON_RADIATIVE,
            ArchitectureKind.HV_NON_RADIATIVE,
        ):
            assert rail_noise(arch, 1.0, cfg) == expected
            # flat: no frequency dependence
            assert rail_noise(arch, 1e9, cfg) == rail_noise(arch, 10.0, cfg)

    def test_switching_spur_is_localized(self):
        cfg = default_config()
        f_sw = cfg.converter.f_sw
        on_spur = rail_noise(ArchitectureKind.HV_WIRED, f_sw, cfg)
        off_spur = rail_noise(ArchitectureKind.HV_WIRED, f_sw * 1.2, cfg)
        spur_free = replace(cfg, noise=replace(cfg.noise, switching_spur=0.0))
        assert on_spur > rail_noise(ArchitectureKind.HV_WIRED, f_sw, spur_free)
        assert off_spur == rail_noise(ArchitectureKind.HV_WIRED, f_sw * 1.2, spur_free)

    def test_ranking_above_corner(self):
        # wireless < HV wired (spur excluded) < wired for f > 10*f_corner
        cfg = default_config()
        cfg = replace(cfg, noise=replace(cfg.noise, switching_spur=0.0))
        for f in (1e4 + 1.0, 1e5, 1e6, 1e9, 1e12):
            wireless = rail_noise(ArchitectureKind.NON_RADIATIVE, f, cfg)
            hv = rail_noise(ArchitectureKind.HV_WIRED, f, cfg)
            wired = rail_noise(ArchitectureKind.WIRED, f, cfg)
            assert wireless < hv < wired

    def test_domain_error(self):
        with pytest.raises(ValueError):
            rail_noise(ArchitectureKind.RADIATIVE, 0.0, default_config())

    @pytest.mark.parametrize("arch", ARCHITECTURES, ids=lambda arch: arch.label)
    def test_nan_frequency_rejected(self, arch):
        with pytest.raises(ValueError, match="frequency must be > 0, got nan"):
            rail_noise(arch, math.nan, default_config())


class TestWhiteFloorRatio:
    def test_values(self):
        cfg = default_config()
        assert white_floor_ratio(ArchitectureKind.WIRED, cfg) == 1.0
        assert white_floor_ratio(ArchitectureKind.HV_WIRED, cfg) == 0.1
        for arch in (
            ArchitectureKind.RADIATIVE,
            ArchitectureKind.NON_RADIATIVE,
            ArchitectureKind.HV_NON_RADIATIVE,
        ):
            assert white_floor_ratio(arch, cfg) == cfg.noise.wireless_floor_ratio

    def test_tracks_voltage_ratio(self):
        cfg = default_config()
        cfg = replace(cfg, load=replace(cfg.load, v_rx_hv=40.0))
        assert white_floor_ratio(ArchitectureKind.HV_WIRED, cfg) == 0.05
