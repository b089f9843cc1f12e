"""Loss formulas: point values frozen from hand evaluation, plus dispatch."""

import math
from dataclasses import replace

import pytest

from cryopower.losses import (
    architecture_loss,
    architecture_loss_at,
    converter_loss,
    dcdc_efficiency,
    hv_nonradiative_loss,
    hv_wired_loss,
    nonradiative_loss,
    radiative_loss,
    wired_loss,
)
from cryopower.model import ARCHITECTURES, ArchitectureKind, ConverterSpec, default_config


def rel_close(value: float, expected: float, tol: float = 1e-12) -> bool:
    return abs(value - expected) <= tol * abs(expected)


class TestWiredLoss:
    def test_zero_load(self):
        assert wired_loss(0.0, 2.0, 16.0, 1) == 0.0

    def test_hand_value(self):
        # (1/2)^2 * 16
        assert wired_loss(1.0, 2.0, 16.0, 1) == 4.0

    def test_parallel_wires(self):
        assert wired_loss(1.0, 2.0, 16.0, 4) == 1.0

    def test_crossover_at_quarter_watt(self):
        # Loss exceeds delivered power exactly above p = v^2/r = 0.25 W.
        assert wired_loss(0.25, 2.0, 16.0, 1) == 0.25
        assert wired_loss(0.255, 2.0, 16.0, 1) > 0.255
        assert wired_loss(0.245, 2.0, 16.0, 1) < 0.245

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 0.0, 16.0, 1),
            (1.0, -2.0, 16.0, 1),
            (1.0, 2.0, 16.0, 0),
            (1.0, 2.0, 0.0, 1),
            (-1.0, 2.0, 16.0, 1),
            (math.nan, 2.0, 16.0, 1),
            (1.0, math.nan, 16.0, 1),
            (1.0, 2.0, math.nan, 1),
            (1.0, 2.0, 16.0, math.nan),
        ],
    )
    def test_domain_errors(self, args):
        with pytest.raises(ValueError):
            wired_loss(*args)


class TestHvWiredLoss:
    def test_hand_value(self):
        assert hv_wired_loss(1.0, 20.0, 16.0, 1) == 0.04

    def test_degenerates_to_wired_at_equal_voltage(self):
        assert hv_wired_loss(1.0, 2.0, 16.0, 1) == 4.0

    def test_quadratic_scaling(self):
        assert hv_wired_loss(2.0, 20.0, 16.0, 1) == 4 * hv_wired_loss(1.0, 20.0, 16.0, 1)
        assert hv_wired_loss(2.0, 20.0, 16.0, 1) == 0.16


class TestRadiativeLoss:
    def test_lossless_limit(self):
        assert radiative_loss(1.0, 1.0, 1.0) == 0.0

    def test_hand_value(self):
        # 1/(0.9*0.7) - 1
        assert rel_close(radiative_loss(1.0, 0.9, 0.7), 0.5873015873015872)

    def test_linearity(self):
        assert radiative_loss(2.0, 0.9, 0.7) == 2 * radiative_loss(1.0, 0.9, 0.7)

    @pytest.mark.parametrize("etas", [(0.0, 0.7), (0.9, 0.0), (1.1, 0.7), (0.9, 1.1), (-0.5, 0.7)])
    def test_domain_errors(self, etas):
        with pytest.raises(ValueError):
            radiative_loss(1.0, *etas)


class TestNonRadiativeLoss:
    def test_perfect_coupling(self):
        assert nonradiative_loss(1.0, 1.0) == 0.0

    def test_hand_value(self):
        assert nonradiative_loss(1.0, 0.8) == 0.25

    def test_half_coupling_loses_delivered_power(self):
        assert nonradiative_loss(1.0, 0.5) == 1.0

    @pytest.mark.parametrize("eta", [0.0, -0.1, 1.0001])
    def test_domain_errors(self, eta):
        with pytest.raises(ValueError):
            nonradiative_loss(1.0, eta)


class TestHvNonRadiativeLoss:
    def test_equals_nonradiative(self):
        assert hv_nonradiative_loss(1.0, 0.8) == nonradiative_loss(1.0, 0.8) == 0.25

    def test_zero_load(self):
        assert hv_nonradiative_loss(0.0, 0.8) == 0.0

    def test_linearity(self):
        assert hv_nonradiative_loss(3.0, 0.8) == 0.75


class TestDcdcEfficiency:
    def test_lossless_converter(self):
        spec = ConverterSpec(r_hs=0.0, r_ls=0.0, r_l=0.0, t_r=0.0, t_f=0.0)
        assert dcdc_efficiency(spec) == 1.0

    def test_default_spec(self):
        # conduction 0.5*0.15/3.3 = 1/44, switching 0.5*12*10ns*1MHz/3.3 = 1/55,
        # eta = 1/(1 + 9/220) = 220/229
        assert rel_close(dcdc_efficiency(default_config().converter), 220.0 / 229.0)

    def test_higher_input_voltage_costs_efficiency_but_stays_under_ten_percent(self):
        base = default_config().converter
        raised = replace(base, v_in=20.0, duty=base.v_out / 20.0)
        eta = dcdc_efficiency(raised)
        assert eta < dcdc_efficiency(base)
        assert 1.0 - eta < 0.10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            dcdc_efficiency(replace(default_config().converter, v_out=0.0))

    def test_nan_output_voltage_raises(self):
        with pytest.raises(ValueError, match="^converter output voltage must be > 0, got nan$"):
            dcdc_efficiency(replace(default_config().converter, v_out=math.nan))

    def test_converter_loss_rejects_nan_power(self):
        with pytest.raises(ValueError, match="^delivered power must be >= 0, got nan$"):
            converter_loss(default_config().converter, math.nan)

    def test_converter_loss_factor(self):
        spec = default_config().converter
        assert rel_close(converter_loss(spec, 1.0), 9.0 / 220.0)
        assert converter_loss(spec, 0.0) == 0.0


@pytest.mark.parametrize(
    "leaf, args",
    [
        (hv_wired_loss, (2.0, 16.0, 1)),
        (radiative_loss, (0.5, 0.5)),
        (nonradiative_loss, (0.5,)),
        (hv_nonradiative_loss, (0.5,)),
    ],
    ids=["hv_wired", "radiative", "non_radiative", "hv_non_radiative"],
)
def test_leaf_rejects_nan_delivered_power(leaf, args):
    with pytest.raises(ValueError, match="^delivered power must be >= 0, got nan$"):
        leaf(math.nan, *args)


class TestArchitectureLoss:
    def test_wired_at_default_operating_point(self):
        breakdown = architecture_loss(ArchitectureKind.WIRED, default_config())
        assert breakdown.delivered_power == 1.0
        assert breakdown.transmission_loss == 4.0
        assert breakdown.converter_loss == 0.0
        assert breakdown.loss_at_cold_stage == 4.0

    def test_hv_nonradiative_carries_no_converter_by_default(self):
        breakdown = architecture_loss(ArchitectureKind.HV_NON_RADIATIVE, default_config())
        assert breakdown.transmission_loss == 0.25
        assert breakdown.converter_loss == 0.0

    def test_radiative(self):
        breakdown = architecture_loss(ArchitectureKind.RADIATIVE, default_config())
        assert rel_close(breakdown.transmission_loss, 0.5873015873015872)

    def test_hv_wired_converter_attribution(self):
        breakdown = architecture_loss(ArchitectureKind.HV_WIRED, default_config())
        assert breakdown.transmission_loss == 0.04
        assert rel_close(breakdown.converter_loss, 9.0 / 220.0)
        assert breakdown.loss_at_cold_stage == breakdown.transmission_loss + breakdown.converter_loss

    def test_converter_can_be_excluded(self):
        cfg = default_config()
        cfg = replace(cfg, converter=replace(cfg.converter, include_loss=False))
        breakdown = architecture_loss(ArchitectureKind.HV_WIRED, cfg)
        assert breakdown.converter_loss == 0.0
        assert breakdown.loss_at_cold_stage == 0.04

    def test_converter_can_attach_to_hv_nonradiative(self):
        cfg = default_config()
        cfg = replace(cfg, converter=replace(cfg.converter, attach_hv_nonradiative=True))
        breakdown = architecture_loss(ArchitectureKind.HV_NON_RADIATIVE, cfg)
        hv_wired = architecture_loss(ArchitectureKind.HV_WIRED, cfg)
        assert breakdown.converter_loss == hv_wired.converter_loss > 0.0

    def test_cold_fraction_applies_to_wireless_only(self):
        cfg = default_config()
        cfg = replace(cfg, coupling=replace(cfg.coupling, loss_to_cold_fraction=0.5))
        wireless = architecture_loss(ArchitectureKind.NON_RADIATIVE, cfg)
        assert wireless.loss_at_cold_stage == 0.5 * wireless.transmission_loss
        wired = architecture_loss(ArchitectureKind.WIRED, cfg)
        assert wired.loss_at_cold_stage == wired.transmission_loss

    def test_resistance_mode_feeds_loss(self):
        cfg = default_config()
        cold = replace(cfg, wire=replace(cfg.wire, resistance_mode="cold"))
        assert architecture_loss(ArchitectureKind.WIRED, cold).transmission_loss == 3.0

    def test_total_over_all_architectures(self):
        for arch in ArchitectureKind:
            breakdown = architecture_loss_at(arch, default_config(), 0.5)
            assert breakdown.architecture is arch
            assert breakdown.transmission_loss >= 0.0

    @pytest.mark.parametrize("arch", ARCHITECTURES, ids=lambda arch: arch.label)
    def test_nan_delivered_power_raises(self, arch):
        with pytest.raises(ValueError, match="^delivered power must be >= 0, got nan$"):
            architecture_loss_at(arch, default_config(), math.nan)

    def test_explicit_power_overrides_config(self):
        breakdown = architecture_loss_at(ArchitectureKind.WIRED, default_config(), 2.0)
        assert breakdown.transmission_loss == 16.0
