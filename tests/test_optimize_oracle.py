"""A closed-form oracle for ``optimize`` over ``hv_wired``'s rail, with converter coupling on.

At fixed wire count ``n`` and delivered power ``p``, the Joule loss on the
rail is ``A/v**2`` with ``A = p**2 * r / n``. Above ``v_out`` the tracking
buck stage adds ``p * (1/eta - 1)``, which with duty ``v_out/v`` is a
constant plus ``B/v + C*v``:

- ``B = p * i_out * (r_hs - r_ls)``;
- ``C = p * (t_r + t_f) * f_sw / (2 * v_out)``.

So cooling power is ``(K + A/v**2 + B/v + C*v) / COP`` there, and its only
stationary point on ``v > 0`` is the positive root of
``C*v**3 - B*v - 2*A = 0``, a minimum. At or below ``v_out`` no stage is
carried and cooling falls as ``A/v**2``, so the minimum over a box is at one
of three points: that root clamped to the box, ``min(v_out, hi)``, or a box
end. The oracle takes those points from the formula alone and evaluates them
through the single-point path; it shares no scan code with ``optimize``.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cryopower.compare import optimize, resolve_parameters
from cryopower.model import ArchitectureKind, default_config
from cryopower.thermal import heat_budget

from strategies import finite, system_configs

HV_WIRED = ArchitectureKind.HV_WIRED

# optimize's objective may read below the oracle's by rounding alone: near a
# flat minimum both sample the same closed form at points a few ulps apart.
# Most of that rounding is in the converter's ``1/eta - 1``, whose absolute
# error scales with the delivered power ``p``, not with the heat it adds; so
# the bound is ULP_BOUND ulps of the minimum, widened by ``1 + p/q_total``.
# Over 3,000 draws of the test below and the 200 seeded draws of README
# "Optimizer", the largest deficit was 2.1 of those widened ulps (40 plain
# ulps, at p = 22.2 W against q_total = 0.64 W).
ULP_BOUND = 8


def cooling_at(cfg, v):
    """Cooling power of ``hv_wired`` at rail ``v`` through the single-point path, coupling on."""
    return heat_budget(HV_WIRED, resolve_parameters(cfg, HV_WIRED, {"v_rx_hv": v})).cooling_power


def rounding_slack(cfg, best):
    """How far below the oracle's minimum ``best`` rounding alone may take an objective."""
    q_total = best * heat_budget(HV_WIRED, cfg).cop
    widen = 1.0 + (cfg.load.delivered_power / q_total if q_total else 0.0)
    return ULP_BOUND * math.ulp(best) * widen


def clamped_stationary_rail(a, b, c, lo, hi):
    """The positive root of ``c*v**3 - b*v - 2*a = 0`` clamped to ``[lo, hi]``, by bisection.

    Above ``v_out`` the slope of cooling power has the sign of that cubic,
    which is negative below the root and positive above it. With no positive
    root (``c = 0`` and ``b >= 0``, or ``a = 0`` and ``b <= 0``) the slope
    keeps one sign, and the clamp gives the box end where cooling is lowest.
    """

    def g(v):
        return c * v**3 - b * v - 2.0 * a

    if g(lo) >= 0.0:
        return lo
    if g(hi) <= 0.0:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        lo, hi = (mid, hi) if g(mid) < 0.0 else (lo, mid)


def analytic_minimum(cfg, lo, hi):
    """``(cooling, v)`` at the best of the three candidate points over ``[lo, hi]``."""
    conv = cfg.converter
    p = cfg.load.delivered_power
    lo, hi = float(lo), float(hi)
    candidates = {lo, hi}
    if lo <= conv.v_out:
        candidates.add(min(conv.v_out, hi))
    if conv.include_loss:
        a = p * p * cfg.wire.effective_resistance / cfg.wire.wire_count
        b = p * conv.i_out * (conv.r_hs - conv.r_ls)
        c = p * (conv.t_r + conv.t_f) * conv.f_sw / (2.0 * conv.v_out)
        candidates.add(clamped_stationary_rail(a, b, c, lo, hi))
    return min((cooling_at(cfg, v), v) for v in candidates)


@st.composite
def rail_boxes(draw, cfg):
    """A ``v_rx_hv`` box from ``v_rx`` up, usually reaching past the converter's ``v_out``."""
    lo = cfg.load.v_rx * draw(finite(1.0, 2.0))
    hi = max(lo, cfg.converter.v_out) * draw(st.one_of(st.just(1.0), finite(1.0, 50.0)))
    return lo, hi


@given(system_configs(), st.data())
def test_optimize_never_beats_the_analytic_minimum(cfg, data):
    lo, hi = data.draw(rail_boxes(cfg))
    resolution = data.draw(st.sampled_from((2, 17, 256, 1000)))
    result = optimize(cfg, {"v_rx_hv": (lo, hi)}, HV_WIRED, resolution=resolution)
    best, _ = analytic_minimum(cfg, lo, hi)
    assert result.objective_value >= best - rounding_slack(cfg, best), (result.parameters, best)


def test_oracle_matches_the_default_optimum():
    # The default config's optimum is the cubic root, well inside the box and above v_out.
    cfg = default_config()
    result = optimize(cfg, {"v_rx_hv": (2.0, 200.0)}, HV_WIRED)
    best, v = analytic_minimum(cfg, 2.0, 200.0)
    assert v > cfg.converter.v_out
    assert math.isclose(result.parameters["v_rx_hv"], v, rel_tol=1e-7)
    assert math.isclose(result.objective_value, best, rel_tol=1e-12)


def v_out_miss_config():
    """Draw 16 of README "Optimizer"'s seeded scan (``random.Random(1)``, box [2, 1e4]).

    Its minimum is at ``v_rx_hv = v_out``, where the tracking stage drops.
    """
    cfg = default_config()
    converter = replace(
        cfg.converter,
        r_hs=0.1377395195732005,
        r_ls=0.08078384323242636,
        f_sw=440543.6324506475,
        i_out=1.9146614001058515,
    )
    load = replace(cfg.load, device_count=47)
    return replace(cfg, converter=converter, load=load, wire=replace(cfg.wire, wire_count=25))


def test_v_out_miss_draw_has_its_minimum_at_v_out():
    cfg = v_out_miss_config()
    best, v = analytic_minimum(cfg, 2.0, 1e4)
    assert v == cfg.converter.v_out
    assert cooling_at(cfg, math.nextafter(v, math.inf)) > best  # one ulp up, the stage's loss jumps in


@pytest.mark.xfail(
    strict=True,
    reason="known miss: the grid does not sample v_out and the golden refine assumes one minimum in its bracket",
)
def test_optimize_finds_the_minimum_at_v_out():
    cfg = v_out_miss_config()
    result = optimize(cfg, {"v_rx_hv": (2.0, 1e4)}, HV_WIRED)
    best, _ = analytic_minimum(cfg, 2.0, 1e4)
    assert result.objective_value <= best * (1.0 + 1e-9), (result.parameters, result.objective_value, best)
