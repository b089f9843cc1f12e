"""Randomized module-invariant suites (1000 cases per property via the profile)."""

import math
from dataclasses import replace

from hypothesis import assume, example, given
from hypothesis import strategies as st

from cryopower.compare import devices_under_budget, equivalent_wire_count
from cryopower.configio import parse_config, serialize_config
from cryopower.losses import (
    architecture_loss_at,
    dcdc_efficiency,
    hv_nonradiative_loss,
    nonradiative_loss,
    radiative_loss,
    wired_loss,
)
from cryopower.model import ARCHITECTURES, ArchitectureKind, validate
from cryopower.noise import rail_noise, supply_noise
from cryopower.thermal import carnot_cop, heat_budget

from strategies import (
    converter_specs,
    delivered_powers,
    efficiencies,
    finite,
    noise_specs,
    positive_powers,
    rail_voltages,
    resistances,
    system_configs,
    wire_counts,
)


@given(system_configs())
def test_generated_configs_are_valid(cfg):
    assert validate(cfg).ok


@given(system_configs())
def test_validate_is_pure(cfg):
    assert validate(cfg) == validate(cfg)


@given(delivered_powers, rail_voltages, resistances, wire_counts)
def test_wired_parallelism_is_exact_division(p, v, r, n):
    assert wired_loss(p, v, r, n) == wired_loss(p, v, r, 1) / n


@given(positive_powers, rail_voltages, resistances, wire_counts)
def test_wired_crossover_threshold(p, v, r, n):
    # loss > delivered  iff  p > v^2 * n / r (allow FP slop right at the knee)
    threshold = v * v * n / r
    loss = wired_loss(p, v, r, n)
    if p > threshold * (1.0 + 1e-9):
        assert loss > p
    elif p < threshold * (1.0 - 1e-9):
        assert loss < p


@given(system_configs(), st.sampled_from(ARCHITECTURES), delivered_powers)
def test_loss_breakdown_bounds(cfg, arch, p):
    breakdown = architecture_loss_at(arch, cfg, p)
    assert breakdown.transmission_loss >= 0.0
    assert breakdown.converter_loss >= 0.0
    assert breakdown.loss_at_cold_stage >= 0.0
    assert breakdown.loss_at_cold_stage <= breakdown.transmission_loss + breakdown.converter_loss


@given(system_configs(), st.sampled_from(ARCHITECTURES))
def test_heat_budget_additivity_is_exact(cfg, arch):
    budget = heat_budget(arch, cfg)
    assert budget.q_total == budget.p_load + budget.p_loss_cold + budget.q_ambient + budget.q_electronics
    assert budget.cooling_power == budget.q_total / budget.cop
    assert budget.cop > 0.0


@given(system_configs())
def test_wireless_budgets_carry_no_wire_load(cfg):
    for arch in ARCHITECTURES:
        budget = heat_budget(arch, cfg)
        if arch in (ArchitectureKind.RADIATIVE, ArchitectureKind.NON_RADIATIVE, ArchitectureKind.HV_NON_RADIATIVE):
            assert budget.p_load == 0.0
        else:
            assert budget.p_load == cfg.wire.thermal_load_per_wire * cfg.wire.wire_count


@given(system_configs(), st.sampled_from(ARCHITECTURES), finite(1.05, 10.0))
def test_cooling_power_monotone_in_eta_c(cfg, arch, factor):
    assume(cfg.stage.q_ambient_leak > 1e-6)
    better_eta = min(1.0, cfg.cooling.eta_c * factor)
    assume(better_eta >= cfg.cooling.eta_c * 1.01)  # strict inequality needs real headroom
    improved = replace(cfg, cooling=replace(cfg.cooling, eta_c=better_eta))
    assert heat_budget(arch, improved).cooling_power < heat_budget(arch, cfg).cooling_power


@given(system_configs(positive_load=True), finite(1.01, 5.0))
def test_devices_monotone_in_budget(cfg, factor):
    base = devices_under_budget(ArchitectureKind.WIRED, cfg, 1.0)
    more = devices_under_budget(ArchitectureKind.WIRED, cfg, factor)
    assert more >= base


@given(system_configs(positive_load=True), finite(0.05, 0.95))
def test_devices_monotone_in_efficiency_parameters(cfg, eta_scale):
    coup = cfg.coupling
    worse = replace(
        cfg,
        coupling=replace(
            coup,
            eta_coup_coil=max(0.01, coup.eta_coup_coil * eta_scale),
            eta_coup_ant=max(0.01, coup.eta_coup_ant * eta_scale),
            eta_rad_r=max(0.01, coup.eta_rad_r * eta_scale),
        ),
    )
    for arch in (
        ArchitectureKind.NON_RADIATIVE,
        ArchitectureKind.HV_NON_RADIATIVE,
        ArchitectureKind.RADIATIVE,
    ):
        assert devices_under_budget(arch, worse, 1.0) <= devices_under_budget(arch, cfg, 1.0)


@given(system_configs(positive_load=True), st.sampled_from(ARCHITECTURES), finite(0.01, 50.0))
def test_budget_solvers_agree(cfg, arch, budget):
    closed = devices_under_budget(arch, cfg, budget)
    bisect = devices_under_budget(arch, cfg, budget, method="bisection")
    assert closed == bisect


@given(system_configs(positive_load=True))
def test_equivalent_wire_count_scaling(cfg):
    assume(cfg.coupling.eta_coup_coil < 1.0)
    n = equivalent_wire_count(cfg, ArchitectureKind.NON_RADIATIVE)
    assert n > 0.0
    doubled_load = replace(cfg, load=replace(cfg.load, device_count=cfg.load.device_count * 2))
    assert equivalent_wire_count(doubled_load, ArchitectureKind.NON_RADIATIVE) == 2.0 * n
    doubled_v = replace(cfg, load=replace(cfg.load, v_rx=cfg.load.v_rx * 2.0, v_rx_hv=cfg.load.v_rx_hv * 2.0))
    assert equivalent_wire_count(doubled_v, ArchitectureKind.NON_RADIATIVE) == n / 4.0


@given(converter_specs(switching=True))
def test_converter_efficiency_monotonicities(spec):
    eta = dcdc_efficiency(spec)
    assert 0.0 < eta <= 1.0
    assert dcdc_efficiency(replace(spec, f_sw=spec.f_sw * 2.0)) < eta
    assert dcdc_efficiency(replace(spec, t_r=spec.t_r * 2.0 + 1e-12)) < eta
    assert dcdc_efficiency(replace(spec, t_f=spec.t_f * 2.0 + 1e-12)) < eta
    assert dcdc_efficiency(replace(spec, i_out=spec.i_out * 2.0)) < eta
    assert dcdc_efficiency(replace(spec, v_in=spec.v_in * 2.0)) < eta  # fixed duty
    assert dcdc_efficiency(replace(spec, v_out=spec.v_out * 2.0)) > eta


@given(noise_specs(), finite(1.0, 1e9), finite(2.0, 100.0))
def test_supply_noise_decreasing_toward_floor(spec, f, factor):
    assume(spec.f_corner > 0.0)
    low = supply_noise(f, spec)
    high = supply_noise(f * factor, spec)
    assert high < low
    far = supply_noise(spec.f_corner * 1e15, spec)
    assert abs(far - spec.s_white) <= 1e-12 * spec.s_white


@given(system_configs(), st.sampled_from(ARCHITECTURES), finite(1e-3, 1e12))
def test_rail_noise_nonnegative(cfg, arch, f):
    assert rail_noise(arch, f, cfg) >= 0.0


@given(finite(1e4, 1e12).map(lambda f: f + 1.0))
def test_noise_ranking_above_corner_at_defaults(f):
    from cryopower.model import default_config

    cfg = default_config()
    cfg = replace(cfg, noise=replace(cfg.noise, switching_spur=0.0))
    wireless = rail_noise(ArchitectureKind.NON_RADIATIVE, f, cfg)
    hv = rail_noise(ArchitectureKind.HV_WIRED, f, cfg)
    wired = rail_noise(ArchitectureKind.WIRED, f, cfg)
    assert wireless < hv < wired
    assert rail_noise(ArchitectureKind.RADIATIVE, f, cfg) == wireless
    assert rail_noise(ArchitectureKind.HV_NON_RADIATIVE, f, cfg) == wireless


@given(system_configs())
def test_config_text_round_trip(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


# carnot_cop rounds twice (eta_c * t_cold, then the quotient), each step
# monotone, so the COP is nondecreasing in eta_c but ties when eta_c moves by
# one ulp. With u = 2**-53, a strict rise is guaranteed only once
# boosted / eta_c > ((1 + u) / (1 - u))**2 ~= 1 + 4.4e-16; STRICT_HEADROOM
# clears that bound (and the rounding of the threshold itself).
STRICT_HEADROOM = 1e-15
# cop_b / cop against boosted / eta_c: about eight roundings between them.
LINEARITY_REL_TOL = 1e-14


@given(
    finite(0.1, 100.0),
    finite(1.05, 50.0),
    finite(0.01, 1.0),
    finite(1.05, 10.0),
)
@example(t_cold=1.0, spread=28.0, eta_c=0.9999999999999999, eta_boost=1.05)
@example(t_cold=13.132386889680369, spread=1.25, eta_c=0.9999999999999999, eta_boost=2.0)
def test_carnot_cop_linearity_and_shape(t_cold, spread, eta_c, eta_boost):
    t_ambient = t_cold * spread
    cop = carnot_cop(t_cold, t_ambient, eta_c)
    assert cop > 0.0
    boosted = min(1.0, eta_c * eta_boost)
    boosted_cop = carnot_cop(t_cold, t_ambient, boosted)
    assert boosted_cop >= cop
    if boosted > eta_c * (1.0 + STRICT_HEADROOM):
        assert boosted_cop > cop
    assert math.isclose(boosted_cop / cop, boosted / eta_c, rel_tol=LINEARITY_REL_TOL)


@given(positive_powers, efficiencies)
def test_hv_nonradiative_equality_holds_generically(p, eta):
    assert hv_nonradiative_loss(p, eta) == nonradiative_loss(p, eta)


@given(positive_powers, efficiencies, efficiencies)
def test_radiative_loss_linearity(p, eta_r, eta_a):
    assert radiative_loss(2.0 * p, eta_r, eta_a) == 2.0 * radiative_loss(p, eta_r, eta_a)
