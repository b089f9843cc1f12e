"""Heat budget composition and Carnot cooling-power tests."""

import math
from dataclasses import replace

import pytest

from cryopower.compare import sweep_loss
from cryopower.configio import set_value
from cryopower.model import ArchitectureKind, LoadSpec, StageSpec, WireSpec, default_config
from cryopower.thermal import _heat_cell, carnot_cop, heat_budget, heat_budget_at


def rel_close(value: float, expected: float, tol: float = 1e-12) -> bool:
    return abs(value - expected) <= tol * abs(expected)


class TestCarnotCop:
    def test_half_ambient_ideal(self):
        assert carnot_cop(150.0, 300.0, 1.0) == 1.0

    def test_four_kelvin_stage(self):
        assert rel_close(carnot_cop(4.0, 300.0, 0.1), 0.0013513513513513514)

    def test_eta_linearity(self):
        assert rel_close(carnot_cop(4.0, 300.0, 1.0), 10.0 * carnot_cop(4.0, 300.0, 0.1))

    @pytest.mark.parametrize(
        "args",
        [
            (300.0, 300.0, 1.0),
            (301.0, 300.0, 1.0),
            (0.0, 300.0, 1.0),
            (-4.0, 300.0, 1.0),
            (math.nan, 300.0, 0.1),
            (4.0, math.nan, 0.1),
            (math.nan, math.nan, 0.1),
        ],
    )
    def test_temperature_ordering_errors(self, args):
        with pytest.raises(ValueError, match="^temperatures must satisfy 0 < t_cold < t_ambient"):
            carnot_cop(*args)

    @pytest.mark.parametrize("eta", [0.0, -0.1, 1.5])
    def test_eta_bounds(self, eta):
        with pytest.raises(ValueError):
            carnot_cop(4.0, 300.0, eta)


class TestHeatBudget:
    def test_nan_rail_raises(self):
        cfg = replace(default_config(), load=replace(default_config().load, v_rx=math.nan))
        with pytest.raises(ValueError, match="^rail voltage must be > 0, got nan$"):
            heat_budget(ArchitectureKind.WIRED, cfg)

    @pytest.mark.parametrize("path", ["stage.q_ambient_leak", "stage.q_electronics", "wire.thermal_load_per_wire"])
    def test_nan_stage_heat_raises_naming_the_field(self, path):
        # The cell evaluator's build guards them, so the scalar path, sweeps and grids raise alike.
        cfg = set_value(default_config(), path, math.nan)
        message = f"^{path} must not be NaN, got nan$"
        with pytest.raises(ValueError, match=message):
            heat_budget(ArchitectureKind.WIRED, cfg)
        with pytest.raises(ValueError, match=message):
            sweep_loss(cfg, [1, 2])
        with pytest.raises(ValueError, match=message):
            _heat_cell(ArchitectureKind.WIRED, cfg, False)

    def test_nan_wire_load_is_unread_over_a_link(self):
        cfg = set_value(default_config(), "wire.thermal_load_per_wire", math.nan)
        assert heat_budget(ArchitectureKind.RADIATIVE, cfg) == heat_budget(ArchitectureKind.RADIATIVE, default_config())

    @pytest.mark.parametrize("path", ["stage.q_ambient_leak", "stage.q_electronics", "wire.thermal_load_per_wire"])
    def test_negative_stage_heat_still_computes(self, path):
        # Only NaN is guarded.
        budget = heat_budget(ArchitectureKind.WIRED, set_value(default_config(), path, -0.5))
        assert budget.q_total == budget.p_load + budget.p_loss_cold + budget.q_ambient + budget.q_electronics

    def test_nonradiative_at_default_operating_point(self):
        budget = heat_budget(ArchitectureKind.NON_RADIATIVE, default_config())
        assert budget.p_load == 0.0
        assert budget.q_total == 0.25
        assert budget.cooling_power == 185.0

    def test_wired_includes_thermal_load(self):
        cfg = default_config()
        budget = heat_budget(ArchitectureKind.WIRED, cfg)
        assert budget.q_total == 4.0 + cfg.wire.thermal_load_per_wire * cfg.wire.wire_count

    def test_zero_heat_means_zero_cooling(self):
        cfg = replace(
            default_config(),
            load=LoadSpec(device_count=0),
            wire=replace(default_config().wire, thermal_load_per_wire=0.0),
        )
        for arch in ArchitectureKind:
            budget = heat_budget(arch, cfg)
            assert budget.q_total == 0.0
            assert budget.cooling_power == 0.0

    def test_additivity_exact(self):
        cfg = replace(default_config(), stage=StageSpec(q_ambient_leak=0.017, q_electronics=0.29))
        for arch in ArchitectureKind:
            budget = heat_budget(arch, cfg)
            assert budget.q_total == (
                budget.p_load + budget.p_loss_cold + budget.q_ambient + budget.q_electronics
            )
            assert budget.cooling_power == budget.q_total / budget.cop

    def test_wireless_carry_no_wire_load(self):
        cfg = default_config()
        for arch in (
            ArchitectureKind.RADIATIVE,
            ArchitectureKind.NON_RADIATIVE,
            ArchitectureKind.HV_NON_RADIATIVE,
        ):
            assert heat_budget(arch, cfg).p_load == 0.0

    def test_wire_load_scales_with_wire_count(self):
        cfg = replace(default_config(), wire=WireSpec(wire_count=7))
        budget = heat_budget(ArchitectureKind.WIRED, cfg)
        assert budget.p_load == cfg.wire.thermal_load_per_wire * 7

    def test_stage_heat_enters_budget(self):
        cfg = replace(default_config(), stage=StageSpec(q_ambient_leak=1.0, q_electronics=0.0))
        budget = heat_budget_at(ArchitectureKind.NON_RADIATIVE, cfg, 0.0)
        assert budget.q_total == 1.0
        assert rel_close(budget.cooling_power, 740.0, tol=1e-9)

    def test_cooling_power_decreases_with_eta_c(self):
        cfg = default_config()
        better = replace(cfg, cooling=replace(cfg.cooling, eta_c=0.2))
        assert (
            heat_budget(ArchitectureKind.WIRED, better).cooling_power
            < heat_budget(ArchitectureKind.WIRED, cfg).cooling_power
        )

    def test_colder_stage_costs_more(self):
        cfg = default_config()
        colder = replace(cfg, cooling=replace(cfg.cooling, t_cold=1.0))
        assert (
            heat_budget(ArchitectureKind.WIRED, colder).cooling_power
            > heat_budget(ArchitectureKind.WIRED, cfg).cooling_power
        )

    @pytest.mark.parametrize("devices", [200, 250, 300, 500, 750, 1000])
    def test_heating_ordering_matches_qualitative_table(self, devices):
        # Very Low = Very Low <= Low <= Moderate <= High at scale.
        cfg = replace(default_config(), load=replace(default_config().load, device_count=devices))
        q = {arch: heat_budget(arch, cfg).q_total for arch in ArchitectureKind}
        assert q[ArchitectureKind.NON_RADIATIVE] == q[ArchitectureKind.HV_NON_RADIATIVE]
        assert q[ArchitectureKind.NON_RADIATIVE] <= q[ArchitectureKind.HV_WIRED]
        assert q[ArchitectureKind.HV_WIRED] <= q[ArchitectureKind.RADIATIVE]
        assert q[ArchitectureKind.RADIATIVE] <= q[ArchitectureKind.WIRED]
