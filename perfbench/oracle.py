"""Stdlib reference for the closed-form models the benchmark checks against.

Written from the formulas in README.md and PAPER.md, not from the package:
a config is a flat ``{"section.field": value}`` dict, and nothing here
imports ``cryopower``. Every check raises :class:`Mismatch` with a message
naming the quantity that disagrees.
"""

from __future__ import annotations

import math

ARCHS = ("wired", "hv_wired", "radiative", "non_radiative", "hv_non_radiative")
WIRELESS = frozenset(("radiative", "non_radiative", "hv_non_radiative"))

# Relative slack of the budget predicate (README, "Budget").
BUDGET_SLACK = 1e-12
# The reference's budget cost sums the same terms as the program's in another
# order, so at a count on the edge of the slack the two can fall on either
# side of it. They differ by at most 6.2e-16 of the cost over the pools of 61
# seeds; this allowance is above that and below the 2e-15 share of the
# budget that one device adds in the smallest power_per_device stratum.
BUDGET_ROUNDING = 1e-15
# Agreement demanded between the program and the reference: the two compute
# the same formulas in a different order, so they differ by a few ulps.
REL_TOL = 1e-9

DEFAULTS = {
    "wire.resistance_warm": 16.0,
    "wire.resistance_cold": 12.0,
    "wire.resistance_mode": "warm",
    "wire.thermal_load_per_wire": 0.3,
    "wire.wire_count": 1,
    "load.power_per_device": 0.005,
    "load.device_count": 200,
    "load.v_rx": 2.0,
    "load.v_rx_hv": 20.0,
    "coupling.eta_rad_r": 0.9,
    "coupling.eta_coup_ant": 0.7,
    "coupling.eta_coup_coil": 0.8,
    "coupling.loss_to_cold_fraction": 1.0,
    "converter.r_hs": 0.1,
    "converter.r_ls": 0.1,
    "converter.r_l": 0.05,
    "converter.v_in": 12.0,
    "converter.v_out": 3.3,
    "converter.i_out": 0.5,
    "converter.t_r": 5e-9,
    "converter.t_f": 5e-9,
    "converter.f_sw": 1e6,
    "converter.duty": 3.3 / 12.0,
    "converter.include_loss": True,
    "converter.attach_hv_nonradiative": False,
    "cooling.t_cold": 4.0,
    "cooling.t_ambient": 300.0,
    "cooling.eta_c": 0.1,
    "stage.q_ambient_leak": 0.0,
    "stage.q_electronics": 0.0,
    "noise.s_white": 1e-14,
    "noise.f_corner": 1e3,
    "noise.wireless_floor_ratio": 1e-3,
    "noise.switching_spur": 1e-12,
}


class Mismatch(AssertionError):
    """A program output disagrees with the reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def expect_close(what: str, got: float, want: float, rel: float = REL_TOL) -> None:
    if not math.isclose(got, want, rel_tol=rel, abs_tol=0.0):
        raise Mismatch(f"{what}: got {got!r}, reference {want!r}")


# --- formulas -------------------------------------------------------------


def effective_resistance(c: dict) -> float:
    mode = c["wire.resistance_mode"]
    if mode == "warm":
        return c["wire.resistance_warm"]
    if mode == "cold":
        return c["wire.resistance_cold"]
    return 0.5 * (c["wire.resistance_warm"] + c["wire.resistance_cold"])


def wire_loss(p: float, v: float, r: float, n: int) -> float:
    """I^2 R over n parallel wires, I = p / v."""
    return (p / v) ** 2 * r / n


def buck_efficiency(c: dict) -> float:
    conduction = c["converter.i_out"] * (
        c["converter.r_hs"] * c["converter.duty"]
        + c["converter.r_ls"] * (1.0 - c["converter.duty"])
        + c["converter.r_l"]
    )
    switching = 0.5 * c["converter.v_in"] * (c["converter.t_r"] + c["converter.t_f"]) * c["converter.f_sw"]
    return 1.0 / (1.0 + (conduction + switching) / c["converter.v_out"])


def has_converter(arch: str, c: dict) -> bool:
    if not c["converter.include_loss"]:
        return False
    return arch == "hv_wired" or (arch == "hv_non_radiative" and c["converter.attach_hv_nonradiative"])


def transmission_loss(arch: str, c: dict, p: float) -> float:
    if arch == "wired":
        return wire_loss(p, c["load.v_rx"], effective_resistance(c), c["wire.wire_count"])
    if arch == "hv_wired":
        return wire_loss(p, c["load.v_rx_hv"], effective_resistance(c), c["wire.wire_count"])
    if arch == "radiative":
        return p * (1.0 / (c["coupling.eta_rad_r"] * c["coupling.eta_coup_ant"]) - 1.0)
    eta = c["coupling.eta_coup_coil"]
    return p * (1.0 - eta) / eta


def converter_loss(arch: str, c: dict, p: float) -> float:
    return p * (1.0 / buck_efficiency(c) - 1.0) if has_converter(arch, c) else 0.0


def cold_loss(arch: str, c: dict, p: float) -> float:
    share = c["coupling.loss_to_cold_fraction"] if arch in WIRELESS else 1.0
    return transmission_loss(arch, c, p) * share + converter_loss(arch, c, p)


def carnot_cop(c: dict) -> float:
    t_cold = c["cooling.t_cold"]
    return c["cooling.eta_c"] * t_cold / (c["cooling.t_ambient"] - t_cold)


def delivered(c: dict) -> float:
    return c["load.power_per_device"] * c["load.device_count"]


def heat(arch: str, c: dict) -> dict:
    """Single-stage heat sum and cooling power at the configured load."""
    p = delivered(c)
    p_load = 0.0 if arch in WIRELESS else c["wire.thermal_load_per_wire"] * c["wire.wire_count"]
    cold = cold_loss(arch, c, p)
    q_total = p_load + cold + c["stage.q_ambient_leak"] + c["stage.q_electronics"]
    cop = carnot_cop(c)
    return {
        "delivered": p,
        "transmission": transmission_loss(arch, c, p),
        "converter": converter_loss(arch, c, p),
        "cold": cold,
        "p_load": p_load,
        "q_ambient": c["stage.q_ambient_leak"],
        "q_electronics": c["stage.q_electronics"],
        "q_total": q_total,
        "cop": cop,
        "cooling": q_total / cop,
    }


def floor_ratio(arch: str, c: dict) -> float:
    if arch == "wired":
        return 1.0
    if arch == "hv_wired":
        return c["load.v_rx"] / c["load.v_rx_hv"]
    return c["noise.wireless_floor_ratio"]


def equivalent_wires(c: dict, reference: str) -> float:
    p = delivered(c)
    single = wire_loss(p, c["load.v_rx"], effective_resistance(c), 1)
    return single / transmission_loss(reference, c, p)


def budget_cost(arch: str, c: dict, n: int) -> float:
    p = n * c["load.power_per_device"]
    return p + cold_loss(arch, c, p)


def design_point(c: dict, arch: str, v_rx_hv: float | None, wire_count: int | None) -> dict:
    """Free-parameter assignment with the converter input tied to the HV rail."""
    out = dict(c)
    if wire_count is not None:
        out["wire.wire_count"] = int(wire_count)
    if v_rx_hv is not None:
        out["load.v_rx_hv"] = v_rx_hv
        if has_converter(arch, out):
            if v_rx_hv > out["converter.v_out"]:
                out["converter.v_in"] = v_rx_hv
                out["converter.duty"] = out["converter.v_out"] / v_rx_hv
            else:
                out["converter.include_loss"] = False
    return out


def grid(lo: float, hi: float, num: int) -> list[float]:
    step = (hi - lo) / (num - 1)
    return [lo + i * step for i in range(num - 1)] + [hi]


# --- checks ---------------------------------------------------------------


def check_budget(arch: str, c: dict, budget: float, n_closed: int, n_bisect: int) -> None:
    expect(n_closed == n_bisect, f"{arch}: closed form {n_closed} != bisection {n_bisect}")
    expect(
        budget_cost(arch, c, n_closed) <= budget * (1.0 + BUDGET_SLACK + BUDGET_ROUNDING),
        f"{arch}: {n_closed} devices exceed the {budget!r} W budget",
    )
    expect(
        budget_cost(arch, c, n_closed + 1) > budget,
        f"{arch}: {n_closed + 1} devices still fit the {budget!r} W budget",
    )


def check_heat(what: str, arch: str, c: dict, fields: dict) -> None:
    """``fields`` maps reference keys of :func:`heat` to program values."""
    want = heat(arch, c)
    for key, got in fields.items():
        expect_close(f"{what} {arch} {key}", got, want[key])


def check_optimum(
    arch: str,
    c: dict,
    best: float,
    best_v: float | None,
    best_n: int | None,
    samples: list[tuple[float | None, int | None]],
) -> None:
    """The optimum is no worse than any sampled grid point, and is what it claims."""
    at_best = heat(arch, design_point(c, arch, best_v, best_n))["cooling"]
    expect_close(f"optimum {arch} cooling power", best, at_best)
    for v, n in samples:
        ref = heat(arch, design_point(c, arch, v, n))["cooling"]
        expect(
            best <= ref * (1.0 + REL_TOL),
            f"optimum {arch} {best!r} is worse than grid point v={v!r} n={n!r} at {ref!r}",
        )
