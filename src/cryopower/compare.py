"""Comparative analyses and design-space search over the architecture models.

Budget interpretation used by :func:`devices_under_budget`: a device count n
fits a total budget B when the delivered power p(n) plus the loss entering
the cold stage at p(n) (transmission share plus any converter dissipation)
does not exceed B. This is the reading under which architectures differ in
supported device count; delivered power alone would rank them identically.
"""

from __future__ import annotations

import functools
import gc
import math
from _thread import RLock
from dataclasses import replace
from itertools import repeat
from typing import Callable, Mapping, NamedTuple, Sequence

from .losses import LossBreakdown, _cost_terms, _loss_cell, architecture_loss_at, carries_converter
from .model import (
    ARCHITECTURES,
    FREE_PARAMETER_NAMES,
    ArchitectureKind,
    SystemConfig,
    _dataclass_compatible,
    _is_finite,
    _linspace,
)
from .noise import white_floor_ratio
from .thermal import ThermalBudget, _heat_cell, _records_at, heat_budget

# Relative slack absorbing last-ulp rounding when an operating point lands
# exactly on the budget boundary. The solvers cap it at half of what one
# more device adds there, so that it never admits a device that does not fit.
_BUDGET_SLACK = 1e-12

# Both budget solvers raise once this many devices fit.
_MAX_DEVICES = 1 << 60

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# optimize scans grids of up to this many cells on Python floats, about 2.5 us
# a cell, and larger ones with the NumPy kernel. Loading NumPy adds about
# 75 ms to a fresh `cryopower optimize` process; once it is loaded, the
# kernel is faster by about 0.6 ms at this size and 3 ms at 1000 cells
# (2-vCPU host, one core).
_PYTHON_GRID_CELLS = 256

# optimize's kernel evaluates at most this many cells per NumPy call, one
# call per block of whole v_rx_hv rows taken in scan order: a 1000 x 1000 grid
# takes 16 calls of 0.5 MB temporaries, where a single call grew RSS by about
# 32 MB. A row longer than this is one block.
_KERNEL_BLOCK_CELLS = 1 << 16

# NumPy's error policy around every array call of the cell evaluator (sweep_loss, optimize's kernel): a
# division by zero raises FloatingPointError, as a float cell raises ZeroDivisionError; the rest pass as on floats.
_ARRAY_ERRORS = {"divide": "raise", "over": "ignore", "under": "ignore", "invalid": "ignore"}

@_dataclass_compatible
class ArchitectureEvaluation(NamedTuple):
    """Loss and thermal results for one architecture at one operating point."""

    loss: LossBreakdown
    thermal: ThermalBudget

    @property
    def architecture(self) -> ArchitectureKind:
        return self.loss.architecture


@_dataclass_compatible
class SweepPoint(NamedTuple):
    """The five architectures' evaluations at one swept value, in :data:`ARCHITECTURES` order."""

    value: float
    evaluations: tuple[ArchitectureEvaluation, ...]


@_dataclass_compatible
class SweepResult(NamedTuple):
    """A sweep of one parameter: its name and one point per swept value, in input order."""

    parameter: str
    points: tuple[SweepPoint, ...]


@_dataclass_compatible
class ComparisonRow(NamedTuple):
    """One architecture's computed figures and bundled scores in a :func:`scorecard`."""

    architecture: ArchitectureKind
    transmission_loss: float
    cold_stage_heat: float
    cooling_power: float
    noise_floor_ratio: float
    power_density: str
    reliability: str


@_dataclass_compatible
class ComparisonReport(NamedTuple):
    """A :func:`scorecard` at one device count, rows sorted by cooling power ascending."""

    device_count: int
    rows: tuple[ComparisonRow, ...]


@_dataclass_compatible
class OptimizationResult(NamedTuple):
    """The best free parameters :func:`optimize` found, its objective value, and its search trace."""

    architecture: ArchitectureKind
    parameters: dict[str, float | int]
    objective: str
    objective_value: float
    evaluations: int
    trace: tuple[tuple[dict[str, float | int], float], ...]


def _with_device_count(config: SystemConfig, count: int) -> SystemConfig:
    return replace(config, load=replace(config.load, device_count=count))


def evaluate_architecture(arch: ArchitectureKind, config: SystemConfig) -> ArchitectureEvaluation:
    """Pair the loss breakdown with the thermal budget at the configured load."""
    return ArchitectureEvaluation(*_records_at(arch, config, config.load.delivered_power))


def _device_axis(config: SystemConfig, device_counts: Sequence[int]) -> list[int]:
    """The checked device counts of a sweep, as ints.

    A count must be a whole number; an integral float such as ``2.0`` is
    taken as that int. A call of the cell evaluator checks nothing, so the
    first count also runs through :func:`evaluate_architecture` and an
    invalid config raises the single-point path's error.
    """
    if len(device_counts) == 0:  # a NumPy axis has no truth value
        raise ValueError("device_counts must be nonempty")
    for prev, cur in zip(device_counts, list(device_counts)[1:]):
        if cur <= prev:
            raise ValueError(f"device_counts must be strictly increasing, got {prev} then {cur}")
    if device_counts[0] < 1:
        raise ValueError(f"device counts must be >= 1, got {device_counts[0]}")
    try:
        counts = list(map(int, device_counts))
    except (ValueError, OverflowError):  # int() of NaN or of an infinity
        counts = []
    if counts != list(device_counts):
        bad = next(count for count in device_counts if not _is_whole(count))
        raise ValueError(f"device counts must be whole numbers, got {bad}")
    if not _is_finite(counts[-1]):  # an int past float range
        raise ValueError(f"device counts must be finite, got {counts[-1]}")
    first = _with_device_count(config, counts[0])
    for arch in ARCHITECTURES:
        evaluate_architecture(arch, first)
    return counts


def _is_whole(count: float) -> bool:
    try:
        return int(count) == count
    except (ValueError, OverflowError):
        return False


# Thousands of tracked records start a young collection every few hundred allocations, and
# none can find garbage when every object is in the result, so a sweep pauses the collector
# while it builds. Sweeps build one at a time; a sweep run inside another's build reenters.
_SWEEP_BUILD = RLock()


def sweep_loss(config: SystemConfig, device_counts: Sequence[int]) -> SweepResult:
    """Evaluate all five architectures at each device count.

    The whole device axis goes through :func:`cryopower.thermal._heat_cell`,
    one array call per architecture under ``_ARRAY_ERRORS``; every value is
    bit-identical to :func:`evaluate_architecture`, one float call of it, at
    that count. The first count also runs through it, so an invalid config
    raises the same error.

    The cyclic garbage collector is paused while the result records are
    built, and the one collection it held back, if any, runs before the call
    returns. Concurrent calls build their records one at a time; code that
    toggles :mod:`gc` from another thread during a sweep may find it
    re-enabled.
    """
    counts = _device_axis(config, device_counts)

    import numpy as np  # loaded on first grid call, off the CLI cold path

    p_rx = [config.load.power_per_device * count for count in counts]
    p_axis = np.array(p_rx)
    stage = config.stage

    with np.errstate(**_ARRAY_ERRORS):
        grids = [_heat_cell(arch, config)(p_axis) for arch in ARCHITECTURES]
    # Records are built as tuple.__new__(cls, fields), without a Python-level __new__ per record.
    per_arch = []
    for arch, grid in zip(ARCHITECTURES, grids):
        # Fields the axis does not move (wire load, COP, a missing converter stage) are floats.
        trans, conv, cold, p_load, q_total, cop, cooling = (
            field.tolist() if isinstance(field, np.ndarray) else repeat(field) for field in grid
        )
        losses = map(tuple.__new__, repeat(LossBreakdown), zip(repeat(arch), p_rx, trans, conv, cold))
        budgets = map(
            tuple.__new__,
            repeat(ThermalBudget),
            zip(
                repeat(arch), p_load, cold, repeat(stage.q_ambient_leak),
                repeat(stage.q_electronics), q_total, cop, cooling,
            ),
        )
        per_arch.append(map(tuple.__new__, repeat(ArchitectureEvaluation), zip(losses, budgets)))
    points = map(tuple.__new__, repeat(SweepPoint), zip(counts, zip(*per_arch)))
    with _SWEEP_BUILD:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            points = tuple(points)
        finally:
            if was_enabled:
                gc.enable()
    # Where the pause held back a collection, the young generation is over its
    # threshold, so the next tracked allocation, the result record, starts it
    # (of the generations the collector finds due) and this call pays for it.
    # gc.collect(0) would never examine the older generations in a loop of
    # sweeps, and cyclic garbage promoted there would stay unfreed.
    return SweepResult(parameter="device_count", points=points)


def _last_fitting(fits: Callable[[int], bool], lo: int, hi: int) -> int:
    """Largest count in [lo, hi) that fits, given that ``lo`` fits and ``hi`` does not."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _closed_form_count(
    fits: Callable[[int], bool], b: float, discriminant: float, power_per_device: float, budget: float
) -> int:
    # The cost p + cold(p) is b p + c p^2 and discriminant = sqrt(b^2 + 4 c B);
    # solve cost(p*) = budget with the root form that does not cancel when
    # 4 c B << b^2 (and needs no branch for c = 0). Where b + discriminant <= 0
    # the cost never rises, so every count fits; a NaN root gallops from 0.
    if b + discriminant <= 0:
        raise ValueError("device count under budget is unbounded")
    devices = 2.0 * budget / (b + discriminant) / power_per_device
    estimate = 0 if math.isnan(devices) else int(min(devices, float(_MAX_DEVICES)))
    # Rounding and the slack put the answer near the estimate, not on it.
    # Most answers are the estimate or the next count, so try those first;
    # otherwise gallop away to a bracket and bisect, in O(log error) steps.
    # Zero devices always fit, as in the bisection solver.
    step = 1
    if fits(estimate + 1):
        lo, hi = estimate + 1, estimate + 2
        while hi <= _MAX_DEVICES and fits(hi):
            lo, hi, step = hi, hi + step, 2 * step
    elif estimate == 0 or fits(estimate):
        lo, hi = estimate, estimate + 1
    else:
        lo, hi = max(0, estimate - 1), estimate
        while lo > 0 and not fits(lo):
            lo, hi, step = max(0, lo - step), lo, 2 * step
    count = _last_fitting(fits, lo, hi)
    if count >= _MAX_DEVICES:
        raise ValueError("device count under budget is unbounded")
    return count


def _bisection_count(fits: Callable[[int], bool]) -> int:
    lo = 0
    hi = 1
    while fits(hi):
        lo = hi
        hi *= 2
        if hi > _MAX_DEVICES:
            raise ValueError("device count under budget is unbounded")
    return _last_fitting(fits, lo, hi)


def devices_under_budget(
    arch: ArchitectureKind,
    config: SystemConfig,
    total_budget: float,
    method: str = "closed_form",
) -> int:
    """Largest device count whose delivered power plus cold-entering loss fits the budget.

    ``method`` selects the solver: the closed form (quadratic for wired
    rails, linear for wireless links) or integer bisection on the monotone
    feasibility predicate. Both agree on every configuration, validated or
    not: the same count, or the same error. A count fits
    when its cost is within a slack of the budget that absorbs rounding:
    ``1e-12`` of the budget, capped at half the cost of one more device there.
    Each feasibility test is an :func:`architecture_loss_at` call on one
    loss evaluator (:func:`cryopower.losses._loss_cell`), built and checked
    once per solve; the closed form's coefficients come from
    :func:`cryopower.losses._cost_terms`, and a NaN one (from a field no
    check reads, such as ``converter.i_out``) raises before either method.
    """
    if not _is_finite(total_budget):
        raise ValueError(f"total_budget must be finite, got {total_budget!r}")
    if total_budget <= 0:
        raise ValueError(f"total_budget must be > 0, got {total_budget!r}")
    power_per_device = config.load.power_per_device
    if not power_per_device > 0:
        raise ValueError(
            f"power_per_device must be > 0 to bound the device count, got {power_per_device!r}"
        )
    if method not in ("closed_form", "bisection"):
        raise ValueError(f"method must be 'closed_form' or 'bisection', got {method!r}")
    loss = _loss_cell(arch, config)
    # The cost p + cold(p) is b p + c p^2. At the boundary cost(p*) = B one
    # more device adds power_per_device * (b + 2 c p*), which is
    # power_per_device * discriminant.
    b, c = _cost_terms(arch, config)
    if b != b or c != c:  # NaN: no count would fit, and 0 devices would hide it
        raise ValueError(f"{arch.label}: budget cost coefficients must not be NaN, got b={b!r}, c={c!r}")
    discriminant = math.sqrt(b * b + 4.0 * c * total_budget)
    limit = min(total_budget * (1.0 + _BUDGET_SLACK), total_budget + 0.5 * power_per_device * discriminant)

    def fits(count: int) -> bool:
        p_rx = count * power_per_device
        return p_rx + architecture_loss_at(arch, config, p_rx, loss).loss_at_cold_stage <= limit

    if method == "bisection":
        return _bisection_count(fits)
    return _closed_form_count(fits, b, discriminant, power_per_device, total_budget)


def equivalent_wire_count(config: SystemConfig, reference: ArchitectureKind) -> float:
    """Parallel wires a conventional rail needs to match a wireless link's loss.

    Solves wired_loss(p, v_rx, r, n) = transmission loss of ``reference`` at
    the configured delivered power; the result is a positive real (not
    rounded to an integer). The wired evaluator checks the configured rail,
    resistance and wire count as :func:`wired_loss` does, NaN included. A
    reference or single-wire loss that overflows to inf, a single-wire loss
    that underflows to 0, or a ratio out of float range raises ``ValueError``.
    """
    if not reference.is_wireless:
        raise ValueError(f"reference must be a wireless architecture, got {reference.label}")
    p_rx = config.load.delivered_power
    if not p_rx > 0:
        raise ValueError("configured delivered power must be > 0")
    reference_loss = architecture_loss_at(reference, config, p_rx).transmission_loss
    if reference_loss <= 0:
        raise ValueError(
            f"{reference.label} has zero transmission loss at this configuration; "
            "no finite wire count matches it"
        )
    single_wire_loss = _loss_cell(ArchitectureKind.WIRED, config)(p_rx, None, 1)[0]
    for term, loss in ((f"{reference.label} transmission loss", reference_loss), ("single-wire loss", single_wire_loss)):
        if not math.isfinite(loss):
            raise ValueError(f"{term} is not finite at this configuration, got {loss!r}")
    if single_wire_loss == 0:
        raise ValueError("single-wire loss underflows to 0.0 at this configuration; no positive wire count matches it")
    count = single_wire_loss / reference_loss
    if not 0 < count < math.inf:
        raise ValueError(
            f"wire count is out of float range at this configuration: single-wire loss {single_wire_loss!r} "
            f"over {reference.label} transmission loss {reference_loss!r} gives {count!r}"
        )
    return count


@functools.cache
def _bundled_score_table() -> dict[str, dict[str, str]]:
    """The bundled score table, read once per process; callers must not mutate it."""
    import json
    from importlib import resources

    text = resources.files("cryopower").joinpath("data/default_scores.json").read_text("utf-8")
    return json.loads(text)


def default_score_table() -> dict[str, dict[str, str]]:
    """Bundled qualitative scores for the non-computed comparison rows, as a fresh copy."""
    return {row: dict(scores) for row, scores in _bundled_score_table().items()}


def _check_score_table(table: Mapping[str, Mapping[str, str]]) -> None:
    for row in ("power_density", "reliability"):
        if row not in table:
            raise ValueError(f"score table is missing the {row!r} row")
        for arch in ARCHITECTURES:
            if arch.label not in table[row]:
                raise ValueError(f"score table row {row!r} is missing {arch.label!r}")


def scorecard(
    config: SystemConfig,
    operating_device_count: int,
    score_table: Mapping[str, Mapping[str, str]] | None = None,
) -> ComparisonReport:
    """Tabular comparison of all architectures at one operating point.

    Loss, heat, cooling power, and the high-frequency noise ratio are
    computed from the models; power density and reliability are ordinal
    scores taken from ``score_table`` (the bundled table by default). Rows
    are sorted by cooling power ascending. At a handful of devices the
    quadratic wire loss is smaller than every wireless link's linear loss
    (below 13 devices at the defaults), but the wire conduction load still
    dominates the cooling power: at the defaults and one device wired needs
    222.07 W of cooling against 0.925 W for the coil links and ranks 4th of 5.
    """
    if operating_device_count < 1:
        raise ValueError(f"operating_device_count must be >= 1, got {operating_device_count!r}")
    if not _is_whole(operating_device_count):
        raise ValueError(f"operating_device_count must be a whole number, got {operating_device_count!r}")
    if not _is_finite(operating_device_count):  # an int past float range
        raise ValueError(f"operating_device_count must be finite, got {operating_device_count!r}")
    table = _bundled_score_table() if score_table is None else score_table
    _check_score_table(table)
    point_config = _with_device_count(config, operating_device_count)
    rows = []
    for arch in ARCHITECTURES:
        evaluation = evaluate_architecture(arch, point_config)
        rows.append(
            ComparisonRow(
                architecture=arch,
                transmission_loss=evaluation.loss.transmission_loss,
                cold_stage_heat=evaluation.thermal.q_total,
                cooling_power=evaluation.thermal.cooling_power,
                noise_floor_ratio=white_floor_ratio(arch, point_config),
                power_density=table["power_density"][arch.label],
                reliability=table["reliability"][arch.label],
            )
        )
    rows.sort(key=lambda row: row.cooling_power)
    return ComparisonReport(device_count=operating_device_count, rows=tuple(rows))


def resolve_parameters(
    config: SystemConfig,
    arch: ArchitectureKind,
    params: Mapping[str, float | int],
    couple_converter_input: bool = True,
) -> SystemConfig:
    """Apply a free-parameter assignment to ``config``.

    When ``v_rx_hv`` varies on a converter-equipped architecture and
    coupling is on, the converter input tracks the delivered HV rail
    (duty follows the ideal buck relation v_out/v_in). Rail voltages at or
    below the converter output cannot be bucked down, so such points carry
    no converter stage. Each changed section is replaced once, then the
    config once; an empty assignment returns ``config`` itself.
    """
    for name in params:
        if name not in FREE_PARAMETER_NAMES:
            raise ValueError(
                f"unknown free parameter {name!r} (expected one of {FREE_PARAMETER_NAMES})"
            )
    sections = {}
    if "wire_count" in params:
        sections["wire"] = replace(config.wire, wire_count=int(params["wire_count"]))
    if "v_rx_hv" in params:
        v_hv = float(params["v_rx_hv"])
        if v_hv < config.load.v_rx:
            raise ValueError(f"v_rx_hv must be >= load.v_rx ({config.load.v_rx!r}), got {v_hv!r}")
        sections["load"] = replace(config.load, v_rx_hv=v_hv)
        conv = config.converter
        if couple_converter_input and carries_converter(arch, conv):
            if v_hv > conv.v_out:
                sections["converter"] = replace(conv, v_in=v_hv, duty=conv.v_out / v_hv)
            else:
                sections["converter"] = replace(conv, include_loss=False)
    return replace(config, **sections) if sections else config


def _golden_refine(
    objective: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
) -> tuple[float, float, int]:
    """Golden-section minimization on [lo, hi]; returns the best probed point and the number of probes."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    best_x, best_f = (c, fc) if (fc < fd or (fc == fd and c <= d)) else (d, fd)
    iterations = 0
    while (b - a) > tol and iterations < 200:
        if fc < fd or (fc == fd and c < d):  # ties shrink toward smaller values
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
        for x, fx in ((c, fc), (d, fd)):
            if fx < best_f or (fx == best_f and x < best_x):
                best_x, best_f = x, fx
        iterations += 1
    return best_x, best_f, 2 + iterations


def _free_params(v: float | None, n: int | None) -> dict[str, float | int]:
    params: dict[str, float | int] = {}
    if v is not None:
        params["v_rx_hv"] = v
    if n is not None:
        params["wire_count"] = n
    return params


def _kernel_trace(fields: Callable[..., tuple], p_rx: float, v_grid, n_grid: list) -> tuple[list, int | None]:
    """The grid's strict improvements over the running minimum (v-major) and the last one's v index.

    One array call of ``fields``, the array entry point
    :func:`cryopower.thermal._heat_cell` that ``optimize`` built, per block
    of whole ``v_rx_hv`` rows, taken in scan order: a column of rails (a
    slice of the array, or ``None``) by the row of wire counts, at most
    ``_KERNEL_BLOCK_CELLS`` cells or one row, all under ``_ARRAY_ERRORS``.
    The running minimum and its row index carry from block to block, so
    only one block's values are held at a time, and each block's
    improvements are built for the box's shape alone. NaN cells never
    improve, as ``value < best`` skips them. Where a cell divides by zero,
    :func:`_cell_trace` scans the grid instead.
    """
    import numpy as np  # loaded on first grid call, off the CLI cold path

    v_axis = None if v_grid[0] is None else np.asarray(v_grid, dtype=float)
    n_row = None if n_grid[0] is None else np.array(n_grid)
    width = len(n_grid)
    rows = max(1, _KERNEL_BLOCK_CELLS // width)
    trace, best, index = [], math.inf, None
    try:
        with np.errstate(**_ARRAY_ERRORS):
            for start in range(0, len(v_grid), rows):
                v_column = None if v_axis is None else v_axis[start : start + rows, None]
                cooling = fields(p_rx, v_column, n_row)[-1]
                values = np.broadcast_to(cooling, (min(rows, len(v_grid) - start), width)).ravel()
                running = np.fmin.accumulate(np.concatenate(([best], values)))
                improved = np.flatnonzero(values < running[:-1])
                if not improved.size:
                    continue
                costs = values[improved].tolist()
                if n_row is None:  # a rail axis alone
                    trace += [({"v_rx_hv": v}, cost) for v, cost in zip(v_axis[improved + start].tolist(), costs)]
                elif v_axis is None:  # a wire-count axis alone, in one block
                    trace += [({"wire_count": n}, cost) for n, cost in zip(n_row[improved].tolist(), costs)]
                else:
                    v_index, n_index = np.divmod(improved, width)
                    picked = zip(v_axis[v_index + start].tolist(), n_row[n_index].tolist(), costs)
                    trace += [({"v_rx_hv": v, "wire_count": n}, cost) for v, n, cost in picked]
                best, index = running[-1], start + int(improved[-1]) // width
    except FloatingPointError:
        # A cell divides by zero: the single-point path raises there too, or
        # the division sits in a converter branch that it never takes.
        return _cell_trace(fields, p_rx, [None] if v_axis is None else v_axis.tolist(), n_grid)
    return trace, index


def _cell_trace(fields: Callable[..., tuple], p_rx: float, v_grid: list, n_grid: list) -> tuple[list, int | None]:
    """:func:`_kernel_trace` on Python floats, one ``fields(p_rx, v, n)`` cell at a time, without NumPy.

    Each cell is bit-identical to the kernel's, and the kernel falls back to
    this where a cell divides by zero; such a cell raises
    ``ZeroDivisionError``, as the single-point path does.
    """
    trace = []
    best, best_index = math.inf, None
    for index, v in enumerate(v_grid):
        for n in n_grid:
            value = fields(p_rx, v, n)[-1]
            if value < best:
                trace.append((_free_params(v, n), value))
                best, best_index = value, index
    return trace, best_index


def optimize(
    config: SystemConfig,
    free_parameters: Mapping[str, tuple[float, float]],
    arch: ArchitectureKind,
    *,
    resolution: int = 1000,
    couple_converter_input: bool = True,
) -> OptimizationResult:
    """Minimize cooling power over a box of free parameters.

    Dense grid search (continuous axes discretized at ``resolution`` points,
    the integer wire-count axis enumerated) followed by golden-section
    refinement of the continuous axis around the best grid cell. Ties break
    toward smaller parameter values; the scan order makes that deterministic.

    The call builds one cell evaluator, :func:`cryopower.thermal._heat_cell`,
    and every grid cell and probe reads it. A grid of more than
    ``_PYTHON_GRID_CELLS`` cells goes through the kernel
    (:func:`_kernel_trace`): one array call per block of whole ``v_rx_hv``
    rows, each over every wire count and at most ``_KERNEL_BLOCK_CELLS``
    cells or one row, in scan order; its ``v_rx_hv`` axis comes from
    ``numpy.linspace``, which :func:`_linspace` equals bit for bit. A
    smaller grid is scanned on Python floats, one cell at a time, without
    loading NumPy, and so is each golden-section probe. Every value is
    bit-identical to the single-point path (:func:`resolve_parameters` and
    :func:`cryopower.thermal.heat_budget`); the first grid cell still runs
    through it, so an invalid config raises the same error; the evaluator's
    build checks the configured point, even a rail or count the box frees.
    """
    if not free_parameters:
        raise ValueError("at least one free parameter is required")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution!r}")
    if not _is_finite(resolution):  # an int past float range
        raise ValueError(f"resolution must be finite, got {resolution!r}")
    if not _is_whole(resolution):
        raise ValueError(f"resolution must be a whole number, got {resolution!r}")
    resolution = int(resolution)
    for name, (lo, hi) in free_parameters.items():
        if name not in FREE_PARAMETER_NAMES:
            raise ValueError(
                f"unknown free parameter {name!r} (expected one of {FREE_PARAMETER_NAMES})"
            )
        if not (_is_finite(lo) and _is_finite(hi)):
            raise ValueError(f"bounds for {name!r} must be finite, got [{lo!r}, {hi!r}]")
        if lo > hi:
            raise ValueError(f"inverted bounds for {name!r}: [{lo!r}, {hi!r}]")

    if "v_rx_hv" in free_parameters:
        v_lo, v_hi = free_parameters["v_rx_hv"]
        if v_lo < config.load.v_rx:
            raise ValueError(
                f"v_rx_hv lower bound must be >= load.v_rx ({config.load.v_rx!r}), got {v_lo!r}"
            )
        v_grid = [float(v_lo)] if v_lo == v_hi else None  # sampled below, once the cell count is known
    else:
        v_grid = [None]

    if "wire_count" in free_parameters:
        n_lo, n_hi = free_parameters["wire_count"]
        n_lo_i, n_hi_i = int(math.ceil(n_lo)), int(math.floor(n_hi))
        if n_lo_i < 1:
            raise ValueError(f"wire_count lower bound must be >= 1, got {n_lo!r}")
        if n_hi_i < n_lo_i:
            raise ValueError(f"empty wire_count range [{n_lo!r}, {n_hi!r}]")
        span = n_hi_i - n_lo_i + 1
        if span <= resolution:
            n_grid = list(range(n_lo_i, n_hi_i + 1))
        else:
            # Samples are rounded half-to-even in float64; counts stay within int64.
            if float(n_hi_i) >= 2.0**63:
                raise ValueError(f"wire_count upper bound must be < 2**63 to be sampled, got {n_hi!r}")
            n_grid = sorted(set(int(round(x)) for x in _linspace(n_lo_i, n_hi_i, resolution)))
    else:
        n_grid = [None]

    evaluations = (resolution if v_grid is None else 1) * len(n_grid)
    if v_grid is None and evaluations <= _PYTHON_GRID_CELLS:
        v_grid = _linspace(v_lo, v_hi, resolution)
    elif v_grid is None:
        import numpy as np  # the kernel loads it anyway

        v_grid = np.linspace(float(v_lo), float(v_hi), resolution)  # equals _linspace bit for bit

    # A grid call checks nothing; the single-point path checks the first cell here.
    heat_budget(arch, resolve_parameters(config, arch, _free_params(v_grid[0], n_grid[0]), couple_converter_input))
    fields, p_rx = _heat_cell(arch, config, couple_converter_input), config.load.delivered_power
    scan = _cell_trace if evaluations <= _PYTHON_GRID_CELLS else _kernel_trace
    trace, index = scan(fields, p_rx, v_grid, n_grid)
    if not trace:
        raise ValueError(f"{arch.label}: every grid cell's cooling power is inf or NaN")
    best_params, best_value = dict(trace[-1][0]), trace[-1][1]

    if "v_rx_hv" in best_params and len(v_grid) > 1:
        lo = float(v_grid[max(0, index - 1)])
        hi = float(v_grid[min(len(v_grid) - 1, index + 1)])
        fixed_n = best_params.get("wire_count")
        x, fx, probes = _golden_refine(lambda v: fields(p_rx, v, fixed_n)[-1], lo, hi, 1e-10 * max(1.0, abs(hi)))
        evaluations += probes
        refined = _free_params(float(x), fixed_n)
        if fx < best_value or (fx == best_value and x < best_params["v_rx_hv"]):
            best_params, best_value = refined, fx
            trace.append((dict(refined), fx))

    return OptimizationResult(
        architecture=arch,
        parameters=best_params,
        objective="cooling_power",
        objective_value=best_value,
        evaluations=evaluations,
        trace=tuple(trace),
    )
