"""A fixed stdlib kernel timed beside the tasks, to take the host's speed out.

The shared host this benchmark was built on runs the same code 1.0x to
2x its fastest time, in phases lasting from seconds to minutes, so a
30-second run of wall time reads whichever phase it fell in. The kernel
below does the kind of work the program does (frozen dataclasses copied
with ``dataclasses.replace``, enum tests, dict building, float maths) and
imports nothing from it, so a change to the program cannot change the
kernel's time. Timed right before and after each block of tasks, it says
how fast the host is running at that moment; the harness scales each task's
time by ``NOMINAL_S`` over the kernel's time, which reads the task on a
host where the kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import dataclasses
import enum
import gc
import math
import statistics
import time

# The kernel's time in the fast phases of the 2-vCPU host the baselines in
# README.md come from (0.9-1.1 ms there), so that scaled times read close to
# wall times in those phases.
NOMINAL_S = 1.0e-3
REPEATS = 3  # kernel runs behind each reading; the reading is their median


class _Kind(enum.Enum):
    WIRED = "wired"
    RADIATIVE = "radiative"


@dataclasses.dataclass(frozen=True)
class _Wire:
    resistance: float
    count: int


@dataclasses.dataclass(frozen=True)
class _Point:
    wire: _Wire
    v: float
    eta: float
    t_cold: float


def _kernel() -> float:
    base = _Point(_Wire(8.0, 4), 1.0, 0.9, 4.0)
    total = 0.0
    for k in range(240):
        point = dataclasses.replace(base, wire=dataclasses.replace(base.wire, count=1 + k % 8), v=1.0 + 0.01 * k)
        kind = _Kind.WIRED if k % 3 else _Kind.RADIATIVE
        p = 1e-3 * (1 + k % 50)
        if kind is _Kind.WIRED:
            loss = (p / point.v) ** 2 * point.wire.resistance / point.wire.count
        else:
            loss = p * (1.0 / point.eta - 1.0)
        cop = 0.1 * point.t_cold / (300.0 - point.t_cold)
        row = {"loss": loss, "q": p + loss, "cooling": (p + loss) / cop, "log": math.log(point.v)}
        total += row["cooling"] + math.sqrt(row["q"]) + row["log"]
    return total


def reading() -> float:
    """Seconds the kernel takes now: the median of ``REPEATS`` runs.

    The cyclic collector is off while the kernel runs, so a collection the
    program's garbage is due cannot land in the kernel's time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two readings to nominal speed."""
    return NOMINAL_S / ((before + after) / 2.0)
