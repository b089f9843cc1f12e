"""Differential tests: the grid kernel against the single-point scalar path, bit for bit.

``optimize`` and ``sweep_loss`` evaluate their grids with
``thermal._heat_grid``; the scalar ``resolve_parameters`` +
``heat_budget``/``architecture_loss_at`` path stays as the reference. Floats
are compared by ``float.hex`` so that 0.0 and -0.0 count. ``system_configs()``
draws ``converter.include_loss`` and ``attach_hv_nonradiative``; the tests
draw converter coupling and rails on both sides of ``converter.v_out``.
"""

import dataclasses
import enum
import math
from dataclasses import replace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cryopower.compare import (
    ArchitectureEvaluation,
    OptimizationResult,
    SweepPoint,
    SweepResult,
    _golden_refine,
    optimize,
    resolve_parameters,
    sweep_loss,
)
from cryopower.losses import architecture_loss_at
from cryopower.model import ARCHITECTURES
from cryopower.thermal import _heat_grid, heat_budget, heat_budget_at

from strategies import finite, system_configs

# Grids stay at most 64 points a side so the 1000-example profile stays cheap.
MAX_SIDE = 64


def bits(value):
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    if isinstance(value, enum.Enum):
        return value
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (field.name, bits(getattr(value, field.name))) for field in dataclasses.fields(value)
        )
    if isinstance(value, dict):
        return tuple((key, bits(item)) for key, item in value.items())
    if isinstance(value, (tuple, list)):
        return tuple(bits(item) for item in value)
    return (type(value).__name__, value)


def _params_for(v, n):
    params = {}
    if v is not None:
        params["v_rx_hv"] = v
    if n is not None:
        params["wire_count"] = n
    return params


def reference_optimize(cfg, box, arch, resolution, couple):
    """Grid search one scalar evaluation per cell, then the same golden refine.

    Boxes here keep wire spans within ``resolution``, so every wire count is
    enumerated.
    """
    if "v_rx_hv" in box:
        lo, hi = box["v_rx_hv"]
        v_grid = [float(lo)] if lo == hi else [float(x) for x in np.linspace(lo, hi, resolution)]
    else:
        v_grid = [None]
    n_grid = list(range(box["wire_count"][0], box["wire_count"][1] + 1)) if "wire_count" in box else [None]
    evaluations = 0

    def objective(params):
        nonlocal evaluations
        evaluations += 1
        return heat_budget(arch, resolve_parameters(cfg, arch, params, couple)).cooling_power

    trace, best_params, best_value = [], None, math.inf
    for v in v_grid:
        for n in n_grid:
            params = _params_for(v, n)
            value = objective(params)
            if value < best_value:
                best_params, best_value = params, value
                trace.append((dict(params), value))
    if "v_rx_hv" in best_params and len(v_grid) > 1:
        index = v_grid.index(best_params["v_rx_hv"])
        lo, hi = v_grid[max(0, index - 1)], v_grid[min(len(v_grid) - 1, index + 1)]
        fixed_n = best_params.get("wire_count")
        x, fx = _golden_refine(
            lambda v: objective(_params_for(float(v), fixed_n)), lo, hi, 1e-10 * max(1.0, abs(hi))
        )
        if fx < best_value or (fx == best_value and x < best_params["v_rx_hv"]):
            best_params, best_value = _params_for(float(x), fixed_n), fx
            trace.append((dict(best_params), fx))
    return OptimizationResult(arch, best_params, "cooling_power", best_value, evaluations, tuple(trace))


@st.composite
def v_boxes(draw, cfg):
    """A ``v_rx_hv`` box from ``v_rx`` up, usually reaching past the converter's ``v_out``."""
    lo = cfg.load.v_rx * draw(finite(1.0, 2.0))
    hi = max(lo, cfg.converter.v_out) * draw(st.one_of(st.just(1.0), finite(1.0, 20.0)))
    return (lo, hi)


def rail_voltages(cfg):
    """Rails from ``v_rx`` to past ``v_out``, with ``v_out`` itself (where the stage drops)."""
    top = max(cfg.load.v_rx, cfg.converter.v_out)
    return st.one_of(finite(cfg.load.v_rx, 20.0 * top), st.just(top))


@st.composite
def boxes(draw, cfg):
    """A ``v_rx_hv``-only, ``wire_count``-only or 2-D box, and a resolution.

    Wire spans stay within the resolution, so ``optimize`` enumerates them;
    2-D grids stay at 16 x 16.
    """
    kind = draw(st.sampled_from(("v_rx_hv", "wire_count", "both")))
    resolution = draw(st.integers(2, 16 if kind == "both" else MAX_SIDE))
    box = {}
    if kind != "wire_count":
        box["v_rx_hv"] = draw(v_boxes(cfg))
    if kind != "v_rx_hv":
        lo = draw(st.integers(1, 8))
        box["wire_count"] = (lo, lo + draw(st.integers(0, resolution - 1)))
    return box, resolution


@given(system_configs(), st.sampled_from(ARCHITECTURES), st.booleans(), st.data())
def test_heat_grid_matches_scalar_cell_by_cell(cfg, arch, couple, data):
    powers = data.draw(st.lists(finite(0.0, 100.0), min_size=1, max_size=3))
    volts = data.draw(st.lists(rail_voltages(cfg), min_size=1, max_size=4))
    wires = data.draw(st.lists(st.integers(1, MAX_SIDE), min_size=1, max_size=3))
    p = np.array(powers)[:, None, None]
    v = np.array(volts)[None, :, None]
    n = np.array(wires)[None, None, :]
    grid = _heat_grid(arch, cfg, p, v, n, couple)
    shape = (len(powers), len(volts), len(wires))
    fields = {name: np.broadcast_to(value, shape) for name, value in grid._asdict().items()}
    for i, j, k in np.ndindex(shape):
        point = resolve_parameters(cfg, arch, {"v_rx_hv": volts[j], "wire_count": wires[k]}, couple)
        loss = architecture_loss_at(arch, point, powers[i])
        budget = heat_budget_at(arch, point, powers[i])
        expected = {
            "transmission_loss": loss.transmission_loss,
            "converter_loss": loss.converter_loss,
            "loss_at_cold_stage": loss.loss_at_cold_stage,
            "p_load": budget.p_load,
            "q_total": budget.q_total,
            "cop": budget.cop,
            "cooling_power": budget.cooling_power,
        }
        for name, value in expected.items():
            assert float(fields[name][i, j, k]).hex() == value.hex(), (name, i, j, k)


@given(system_configs(), st.sampled_from(ARCHITECTURES), st.booleans(), st.data())
def test_optimize_matches_scalar_grid(cfg, arch, couple, data):
    box, resolution = data.draw(boxes(cfg))
    result = optimize(cfg, box, arch, resolution=resolution, couple_converter_input=couple)
    assert bits(result) == bits(reference_optimize(cfg, box, arch, resolution, couple))


@given(system_configs(), st.sets(st.integers(1, 10**6), min_size=1, max_size=32))
def test_sweep_matches_per_point_evaluation(cfg, counts):
    counts = sorted(counts)
    reference = []
    for count in counts:
        point = replace(cfg, load=replace(cfg.load, device_count=count))
        evaluations = tuple(
            ArchitectureEvaluation(
                architecture_loss_at(arch, point, point.load.delivered_power), heat_budget(arch, point)
            )
            for arch in ARCHITECTURES
        )
        reference.append(SweepPoint(count, evaluations))
    result = sweep_loss(cfg, counts)
    assert bits(result) == bits(SweepResult("device_count", tuple(reference)))
