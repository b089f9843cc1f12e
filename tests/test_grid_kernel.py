"""Differential tests: the one grid evaluator against the single-point scalar path, bit for bit.

Every grid reads ``thermal._heat_cell``. ``sweep_loss`` and the grids of
``optimize`` with more than ``compare._PYTHON_GRID_CELLS`` cells call it on
NumPy arrays through the kernel ``thermal._heat_grid``, which adds NumPy's
error checks; the CLI's sweeps (``compare._sweep_cells``), smaller
``optimize`` grids (``compare._cell_trace``) and every golden-section probe
call it on Python floats. The cell and the scalar path read the same loss
evaluator, ``losses._loss_cell``: the scalar path at the configured point
of a config that ``resolve_parameters`` built, the cell with the varied
rail and wire count as call arguments and the converter coupling applied
inside it. So the scalar ``resolve_parameters`` +
``heat_budget``/``architecture_loss_at`` path stays the reference for the
coupling, the argument handling and the heat sum; the frozen copy in
``tests/architecture_reference.py`` and ``tests/test_coefficients.py``'s
leaf formulas check the loss arithmetic itself. Floats are compared by ``float.hex`` so that 0.0 and -0.0 count. ``system_configs()``
draws ``converter.include_loss`` and ``attach_hv_nonradiative``; the tests
draw converter coupling, rails on both sides of ``converter.v_out``, rails so
small that the Joule term overflows (1e-160) or divides by zero (1e-170,
whose square underflows to 0), and ``power_per_device = -0.0``.
"""

import enum
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cryopower import compare, losses, thermal
from cryopower.compare import (
    ArchitectureEvaluation,
    OptimizationResult,
    SweepPoint,
    SweepResult,
    _golden_refine,
    _sweep_cells,
    optimize,
    resolve_parameters,
    sweep_loss,
)
from cryopower.losses import architecture_loss_at, carries_converter
from cryopower.model import ARCHITECTURES, ArchitectureKind, default_config
from cryopower.thermal import _HeatGrid, _heat_cell, _heat_grid, heat_budget, heat_budget_at

from strategies import finite, system_configs

# Grids stay at most 64 points a side so the 1000-example profile stays cheap.
MAX_SIDE = 64


def bits(value):
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    if isinstance(value, enum.Enum):
        return value
    if hasattr(value, "_fields"):  # a NamedTuple record: keep its type and field names
        return (type(value).__name__,) + tuple((field, bits(item)) for field, item in zip(value._fields, value))
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
        x, fx, _ = _golden_refine(
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


def maybe_negative_zero_load(data, cfg):
    """``cfg``, or in about one draw in ten ``cfg`` at ``power_per_device = -0.0``."""
    if data.draw(st.integers(0, 9)) == 0:
        return replace(cfg, load=replace(cfg.load, power_per_device=-0.0))
    return cfg


@st.composite
def grid_axes(draw, cfg):
    """A config and the power, rail and wire axes of a grid.

    Powers include -0.0. A third of the draws lower ``load.v_rx`` to a rail
    whose Joule term overflows (1e-160) or divides by zero (1e-170) and put
    that rail on the axis.
    """
    tiny = draw(st.sampled_from((None, 1e-160, 1e-170)))
    if tiny is not None:
        cfg = replace(cfg, load=replace(cfg.load, v_rx=tiny))
    powers = draw(st.lists(st.one_of(finite(0.0, 100.0), st.just(-0.0)), min_size=1, max_size=3))
    volts = draw(st.lists(rail_voltages(cfg), min_size=1, max_size=4))
    if tiny is not None:
        volts = [tiny] + volts
    wires = draw(st.lists(st.integers(1, MAX_SIDE), min_size=1, max_size=3))
    return cfg, powers, volts, wires


def scalar_fields(cfg, arch, p, v, n, couple):
    """The grid fields at one cell from the single-point path; ``None`` keeps the configured rail or count."""
    point = resolve_parameters(cfg, arch, _params_for(v, n), couple)
    loss = architecture_loss_at(arch, point, p)
    budget = heat_budget_at(arch, point, p)
    return _HeatGrid(
        loss.transmission_loss,
        loss.converter_loss,
        loss.loss_at_cold_stage,
        budget.p_load,
        budget.q_total,
        budget.cop,
        budget.cooling_power,
    )


def scalar_cell(cfg, arch, p, v, n, couple):
    """:func:`scalar_fields`, or ``ZeroDivisionError`` where it raises."""
    try:
        return scalar_fields(cfg, arch, p, v, n, couple)
    except ZeroDivisionError:
        return ZeroDivisionError


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
    cfg, powers, volts, wires = data.draw(grid_axes(cfg))
    shape = (len(powers), len(volts), len(wires))
    expected = {
        (i, j, k): scalar_cell(cfg, arch, powers[i], volts[j], wires[k], couple) for i, j, k in np.ndindex(shape)
    }
    p = np.array(powers)[:, None, None]
    v = np.array(volts)[None, :, None]
    n = np.array(wires)[None, None, :]
    try:
        grid = _heat_grid(arch, cfg, p, v, n, couple)
    except FloatingPointError:
        # The kernel raises where a cell divides a nonzero value by zero.
        assert ZeroDivisionError in expected.values()
        return
    fields = [np.broadcast_to(value, shape) for value in grid]
    for (i, j, k), want in expected.items():
        got = _HeatGrid(*(float(field[i, j, k]) for field in fields))
        if want is ZeroDivisionError:
            # To NumPy 0/0 is NaN, not a division by zero: p * p is 0 on a rail whose square is 0.
            assert powers[i] * powers[i] == 0.0 and math.isnan(got.cooling_power)
            continue
        dropped = couple and carries_converter(arch, cfg.converter) and volts[j] <= cfg.converter.v_out
        if dropped and math.copysign(1.0, powers[i]) < 0:
            # Where the tracking converter drops, the kernel reads -0.0 * 0.0 = -0.0 of converter
            # loss and the scalar path, with no stage, 0.0; the sign reaches no other field.
            assert got.converter_loss == want.converter_loss == 0.0
            assert got.loss_at_cold_stage == want.loss_at_cold_stage
            got = got._replace(converter_loss=want.converter_loss, loss_at_cold_stage=want.loss_at_cold_stage)
        assert bits(got) == bits(want), (i, j, k)


def outcome(evaluate, *args):
    """``bits(evaluate(*args))``, or the type and message of the ``ZeroDivisionError`` it raises."""
    try:
        return bits(evaluate(*args))
    except ZeroDivisionError as exc:
        return (ZeroDivisionError, str(exc))


@given(system_configs(), st.sampled_from(ARCHITECTURES), st.booleans(), st.data())
def test_heat_cell_matches_scalar_cell_by_cell(cfg, arch, couple, data):
    # The float cells of the CLI's sweeps, optimize's Python grids and its golden-section probes.
    cfg = maybe_negative_zero_load(data, cfg)
    v_out = cfg.converter.v_out  # where a tracking converter stage drops, and one ulp either side
    if data.draw(st.booleans()):  # every rail from one ulp below v_out up is then a valid free value
        cfg = replace(cfg, load=replace(cfg.load, v_rx=min(cfg.load.v_rx, math.nextafter(v_out, 0.0))))
    cfg, powers, volts, wires = data.draw(grid_axes(cfg))
    edges = [v_out, math.nextafter(v_out, 0.0), math.nextafter(v_out, math.inf)]
    volts += [v for v in edges if v >= cfg.load.v_rx] + [None]
    fields = _heat_cell(arch, cfg, couple)
    for p in powers + [cfg.load.delivered_power]:
        for v in volts:
            for n in wires + [None]:
                got = outcome(lambda: _HeatGrid._make(fields(p, v, n)))
                assert got == outcome(scalar_fields, cfg, arch, p, v, n, couple), (p, v, n)


def test_float_cell_builds_no_result_record(monkeypatch):
    # A float cell computes on floats: no _HeatGrid and no LossBreakdown.
    cfg = default_config()
    cfg = replace(cfg, converter=replace(cfg.converter, attach_hv_nonradiative=True))
    v_out, p = cfg.converter.v_out, cfg.load.delivered_power
    cells = [(_heat_cell(arch, cfg, couple), arch) for arch in ARCHITECTURES for couple in (True, False)]

    def forbidden(*args, **kwargs):
        raise AssertionError("a cell built a record")

    monkeypatch.setattr(thermal, "_HeatGrid", forbidden)
    monkeypatch.setattr(losses, "LossBreakdown", forbidden)
    for fields, arch in cells:
        for v in (None, 2.0 * v_out, v_out, 0.5 * v_out):  # a tracking stage above, at and below v_out
            for n in (None, 3):
                assert math.isfinite(fields(p, v, n)[-1]), (arch, v, n)


@given(system_configs(), st.sampled_from(ARCHITECTURES), st.booleans(), st.data())
def test_optimize_matches_scalar_grid(cfg, arch, couple, data):
    cfg = maybe_negative_zero_load(data, cfg)
    box, resolution = data.draw(boxes(cfg))
    result = optimize(cfg, box, arch, resolution=resolution, couple_converter_input=couple)
    assert bits(result) == bits(reference_optimize(cfg, box, arch, resolution, couple))


@given(system_configs(), st.sampled_from(ARCHITECTURES), st.booleans(), st.data())
def test_kernel_optimize_matches_scalar_grid(cfg, arch, couple, data):
    # The boxes drawn here stay within _PYTHON_GRID_CELLS; with it at 0 every grid takes the kernel.
    # Blocks of a few cells split wire-count grids into several blocks, often with a short last one.
    cfg = maybe_negative_zero_load(data, cfg)
    box, resolution = data.draw(boxes(cfg))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compare, "_PYTHON_GRID_CELLS", 0)
        patch.setattr(compare, "_KERNEL_BLOCK_CELLS", data.draw(st.integers(1, 64)))
        result = optimize(cfg, box, arch, resolution=resolution, couple_converter_input=couple)
    assert bits(result) == bits(reference_optimize(cfg, box, arch, resolution, couple))


def test_large_grid_identical_at_every_block_size(monkeypatch):
    # 1000 x 1000 cells: 16 blocks at the shipped size, then one block, then one wire count a block.
    box = {"v_rx_hv": (2.0, 200.0), "wire_count": (1, 1000)}
    results = []
    for block_cells in (compare._KERNEL_BLOCK_CELLS, 10**6, 1000):
        monkeypatch.setattr(compare, "_KERNEL_BLOCK_CELLS", block_cells)
        results.append(bits(optimize(default_config(), box, ArchitectureKind.HV_WIRED, resolution=1000)))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("extra, evaluator", [(0, "_cell_trace"), (1, "_kernel_trace")])
def test_optimize_picks_evaluator_by_cell_count(extra, evaluator, monkeypatch):
    calls = []
    for name in ("_cell_trace", "_kernel_trace"):
        trace = getattr(compare, name)
        monkeypatch.setattr(compare, name, lambda *args, name=name, trace=trace: calls.append(name) or trace(*args))
    resolution = compare._PYTHON_GRID_CELLS + extra
    optimize(default_config(), {"v_rx_hv": (2.0, 60.0)}, ArchitectureKind.HV_WIRED, resolution=resolution)
    assert calls == [evaluator]


@given(system_configs(), st.sets(st.integers(1, 10**6), min_size=1, max_size=32), st.data())
def test_sweep_matches_per_point_evaluation(cfg, counts, data):
    cfg = maybe_negative_zero_load(data, cfg)
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
    cells = _sweep_cells(cfg, counts)
    for arch_index, column in enumerate(cells):
        for point, fields in zip(reference, column):
            loss, thermal = point.evaluations[arch_index].loss, point.evaluations[arch_index].thermal
            want = (
                loss.transmission_loss,
                loss.converter_loss,
                loss.loss_at_cold_stage,
                thermal.p_load,
                thermal.q_total,
                thermal.cop,
                thermal.cooling_power,
            )
            assert bits(fields) == bits(want), (point.value, ARCHITECTURES[arch_index])
