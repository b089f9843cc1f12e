"""Differential test: the evaluators against the public leaf formulas.

Every loss in ``src/`` comes from one loss evaluator, ``losses._loss_cell``.
Three paths read it here: the scalar path (``architecture_loss_at``/
``heat_budget_at``) at the configured point, and the cell evaluator
``thermal._heat_cell`` on NumPy arrays through the kernel
``thermal._heat_grid`` and on Python floats; the cell also lets the
converter input track a varied rail. The leaf functions (``wired_loss``,
``radiative_loss``, ``converter_loss``, ``carnot_cop``, ...) read none of
them, so they are the independent reference here. ``resolve_parameters``
applies the converter coupling to the config the leaf functions read.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cryopower.compare import resolve_parameters
from cryopower.losses import (
    architecture_loss_at,
    converter_loss,
    hv_nonradiative_loss,
    hv_wired_loss,
    nonradiative_loss,
    radiative_loss,
    wired_loss,
)
from cryopower.model import ARCHITECTURES, ArchitectureKind, default_config
from cryopower.thermal import _HeatGrid, _heat_cell, _heat_grid, carnot_cop, heat_budget_at

from strategies import finite, system_configs

A = ArchitectureKind
# Written out, as the converter rule below is, rather than read from the code under test.
WIRELESS = (A.RADIATIVE, A.NON_RADIATIVE, A.HV_NON_RADIATIVE)

# The evaluators compute every term in its leaf function's operation
# order, so every value is compared by float.hex, subnormal powers included. Powers are
# drawn >= +0.0: at p = -0.0 a grid cell whose tracking converter dropped
# reads -0.0 * 0 = -0.0 where the scalar path, with no stage, reads 0.0.
powers = st.floats(0.0, 100.0)


def rail_voltages(cfg):
    """Rails from ``v_rx`` to past ``v_out``, with ``v_out`` itself (where the stage drops)."""
    top = max(cfg.load.v_rx, cfg.converter.v_out)
    return st.one_of(finite(cfg.load.v_rx, 20.0 * top), st.just(top))


def leaf_values(arch, point, p):
    """Transmission, converter loss, wire load and COP of ``arch`` from the leaf functions."""
    wire, load, coup, conv, cool = point.wire, point.load, point.coupling, point.converter, point.cooling
    r = wire.effective_resistance
    transmission = {
        A.WIRED: lambda: wired_loss(p, load.v_rx, r, wire.wire_count),
        A.HV_WIRED: lambda: hv_wired_loss(p, load.v_rx_hv, r, wire.wire_count),
        A.RADIATIVE: lambda: radiative_loss(p, coup.eta_rad_r, coup.eta_coup_ant),
        A.NON_RADIATIVE: lambda: nonradiative_loss(p, coup.eta_coup_coil),
        A.HV_NON_RADIATIVE: lambda: hv_nonradiative_loss(p, coup.eta_coup_coil),
    }[arch]()
    carried = conv.include_loss and (
        arch is A.HV_WIRED or (arch is A.HV_NON_RADIATIVE and conv.attach_hv_nonradiative)
    )
    return {
        "transmission_loss": transmission,
        "converter_loss": converter_loss(conv, p) if carried else 0.0,
        "p_load": 0.0 if arch in WIRELESS else wire.thermal_load_per_wire * wire.wire_count,
        "cop": carnot_cop(cool.t_cold, cool.t_ambient, cool.eta_c),
    }


def assert_matches(value, expected, where):
    for name, reference in expected.items():
        assert value[name].hex() == reference.hex(), (name, where, value[name], reference)


@given(system_configs(), st.sampled_from(ARCHITECTURES), st.booleans(), st.data())
def test_evaluators_match_leaf_formulas(cfg, arch, couple, data):
    if data.draw(st.booleans()):  # rails can then reach v_out, where a tracking converter drops
        cfg = replace(cfg, load=replace(cfg.load, v_rx=min(cfg.load.v_rx, cfg.converter.v_out)))
    p_list = data.draw(st.lists(powers, min_size=1, max_size=3))
    v_list = data.draw(st.lists(rail_voltages(cfg), min_size=1, max_size=3))
    n_list = data.draw(st.lists(st.integers(1, 64), min_size=1, max_size=3))
    grid = _heat_grid(
        arch, cfg, np.array(p_list)[:, None, None], np.array(v_list)[None, :, None],
        np.array(n_list)[None, None, :], couple,
    )
    shape = (len(p_list), len(v_list), len(n_list))
    fields = {name: np.broadcast_to(value, shape) for name, value in grid._asdict().items()}
    float_cell = _heat_cell(arch, cfg, couple)
    for i, j, k in np.ndindex(shape):
        p = p_list[i]
        point = resolve_parameters(cfg, arch, {"v_rx_hv": v_list[j], "wire_count": n_list[k]}, couple)
        expected = leaf_values(arch, point, p)
        cell = {name: float(fields[name][i, j, k]) for name in expected}
        assert_matches(cell, expected, ("grid", i, j, k))
        assert_matches(_HeatGrid(*float_cell(p, v_list[j], n_list[k]))._asdict(), expected, ("float", i, j, k))
        loss = architecture_loss_at(arch, point, p)
        budget = heat_budget_at(arch, point, p)
        scalar = {
            "transmission_loss": loss.transmission_loss,
            "converter_loss": loss.converter_loss,
            "p_load": budget.p_load,
            "cop": budget.cop,
        }
        assert_matches(scalar, expected, ("scalar", i, j, k))


@pytest.mark.parametrize("p", [0.0, 1e-10])
@pytest.mark.parametrize("arch", [A.WIRED, A.HV_WIRED])
def test_tiny_rail_joule_loss_matches_leaf(arch, p):
    # r / v**2 overflows at this rail; (p*p) / (v*v) * r / n does not.
    cfg = default_config()
    cfg = replace(cfg, load=replace(cfg.load, v_rx=1e-160, v_rx_hv=1e-160))
    r, n = cfg.wire.effective_resistance, cfg.wire.wire_count
    expected = wired_loss(p, 1e-160, r, n)
    assert math.isfinite(expected)
    assert architecture_loss_at(arch, cfg, p).transmission_loss.hex() == expected.hex()
    grid = _heat_grid(arch, cfg, np.array([p]), np.array([1e-160]), np.array([n]), False)
    assert float(grid.transmission_loss[0]).hex() == expected.hex()
