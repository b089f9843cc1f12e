"""Differential test: the architecture member table against the enum chains it replaced.

Each ``ArchitectureKind`` member declares its rail, link and converter flag,
and the loss, thermal and noise code reads those instead of comparing
members. ``architecture_reference`` holds the comparing form; every value is
compared by ``float.hex`` and every error by type and message. The point
records are also compared with a frozen copy of the heat sum they were once
composed from, before they read the one cell evaluator.
"""

import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import architecture_reference as reference
from cryopower.compare import evaluate_architecture
from cryopower.losses import architecture_loss_at, carries_converter
from cryopower.model import ARCHITECTURES, ArchitectureKind, ConverterSpec
from cryopower.noise import rail_noise, white_floor_ratio
from cryopower.thermal import carnot_cop, heat_budget_at

from strategies import finite, system_configs

A = ArchitectureKind

# Rail voltages that no valid config holds: each divides by zero, overflows
# or propagates a NaN somewhere in the noise and loss formulas.
bad_rails = st.sampled_from([0, 0.0, -0.0, -1.0, math.nan, math.inf, 10**400])


def outcome(fn, *args):
    """What ``fn(*args)`` gives: the type and exact value, or the type and message it raises."""
    try:
        value = fn(*args)
    except Exception as exc:  # the error itself is the compared outcome
        return "raises", type(exc), str(exc)
    if isinstance(value, tuple):
        return tuple(outcome(lambda v=v: v) for v in value)
    return type(value), value.hex() if isinstance(value, float) else value


@st.composite
def noise_configs(draw):
    """A valid config with its converter flags set either way and, sometimes, invalid rails."""
    cfg = draw(system_configs())
    converter = replace(cfg.converter, include_loss=draw(st.booleans()), attach_hv_nonradiative=draw(st.booleans()))
    load = cfg.load
    if draw(st.booleans()):
        load = replace(load, v_rx=draw(st.one_of(bad_rails, st.just(load.v_rx))))
        load = replace(load, v_rx_hv=draw(st.one_of(bad_rails, st.just(load.v_rx_hv))))
    return replace(cfg, converter=converter, load=load)


def frequencies(cfg):
    """On, near and off the switching frequency, and at or below zero."""
    f_sw = cfg.converter.f_sw
    return st.one_of(
        st.just(f_sw),
        st.builds(lambda x: f_sw * x, finite(0.85, 1.15)),
        st.sampled_from([0.0, -0.0, -1.0, -math.inf, math.inf, math.nan, 5e-324]),
        finite(1e-3, 1e9),
    )


class TestMembers:
    def test_public_face_is_unchanged(self):
        labels = ["wired", "hv_wired", "radiative", "non_radiative", "hv_non_radiative"]
        assert [arch.value for arch in A] == labels
        assert [arch.label for arch in A] == labels
        assert list(A) == list(ARCHITECTURES)
        for arch in A:
            assert repr(arch) == f"<ArchitectureKind.{arch.name}: {arch.value!r}>"
            assert A(arch.value) is arch and A.from_label(arch.value) is arch
            assert pickle.loads(pickle.dumps(arch)) is arch
            assert hash(arch) == hash(arch.name)
            assert {arch: 1}[A[arch.name]] == 1

    def test_declared_facts(self):
        assert [(arch._rail, arch._link, arch._converter_flag) for arch in A] == [
            ("v_rx", (), None),
            ("v_rx_hv", (), "include_loss"),
            (None, ("eta_rad_r", "eta_coup_ant"), None),
            (None, ("eta_coup_coil",), None),
            (None, ("eta_coup_coil",), "attach_hv_nonradiative"),
        ]

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_is_wireless(self, arch):
        assert arch.is_wireless is reference.is_wireless(arch)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("include_loss", [False, True])
    @pytest.mark.parametrize("attach", [False, True])
    def test_carries_converter(self, arch, include_loss, attach):
        spec = ConverterSpec(include_loss=include_loss, attach_hv_nonradiative=attach)
        assert carries_converter(arch, spec) is reference.carries_converter(arch, spec)


@given(noise_configs(), st.sampled_from(ARCHITECTURES), st.data())
def test_noise_matches_reference(cfg, arch, data):
    f = data.draw(frequencies(cfg))
    assert outcome(white_floor_ratio, arch, cfg) == outcome(reference.white_floor_ratio, arch, cfg)
    assert outcome(rail_noise, arch, f, cfg) == outcome(reference.rail_noise, arch, f, cfg)


# Inputs that each check of the loss path rejects, by config field path.
_BAD_INPUTS = {
    "wire.resistance_mode": st.just("hot"),
    "wire.resistance_warm": st.sampled_from([0.0, -1.0]),
    "wire.resistance_cold": st.sampled_from([0.0, -1.0]),
    "wire.wire_count": st.sampled_from([0, -3]),
    "load.v_rx": st.sampled_from([0.0, -1.0, math.nan]),
    "load.v_rx_hv": st.sampled_from([0.0, -1.0, math.nan]),
    "coupling.eta_rad_r": st.sampled_from([0.0, 1.5, math.nan]),
    "coupling.eta_coup_ant": st.sampled_from([0.0, 1.5, math.nan]),
    "coupling.eta_coup_coil": st.sampled_from([0.0, 1.5, math.nan]),
    "converter.v_out": st.sampled_from([0.0, -1.0]),
}


def with_bad_inputs(data, cfg, bad):
    """``cfg`` with up to five of the fields in ``bad`` set to a value their check rejects."""
    for path in data.draw(st.lists(st.sampled_from(sorted(bad)), unique=True, max_size=5)):
        section, leaf = path.split(".")
        value = bad[path]
        value = data.draw(value(cfg) if callable(value) else value)
        cfg = replace(cfg, **{section: replace(getattr(cfg, section), **{leaf: value})})
    return cfg


def delivered_powers(data):
    return data.draw(st.one_of(finite(0.0, 100.0), st.sampled_from([-1.0, -0.0])))


@given(system_configs(), st.sampled_from(ARCHITECTURES), st.data())
def test_loss_raises_the_same_first_error(cfg, arch, data):
    # Several inputs are bad at once, so the order of the checks decides the error.
    cfg = with_bad_inputs(data, cfg, _BAD_INPUTS)
    p = delivered_powers(data)
    loss = outcome(lambda: tuple(architecture_loss_at(arch, cfg, p))[2:])
    assert loss == outcome(reference.architecture_loss_at, arch, cfg, p)


def frozen_records(arch, cfg, p):
    """``budget_from_loss(cfg, architecture_loss_at(arch, cfg, p))`` as the scalar path composed it.

    The loss is the frozen ``reference.architecture_loss_at``; the heat sum,
    its COP and the order of their checks are copied from ``budget_from_loss``
    and ``_stage_terms`` before the scalar path read ``thermal._heat_cell``.
    Do not edit it to follow a change in ``cryopower``.
    """
    transmission, converter, cold = reference.architecture_loss_at(arch, cfg, p)
    stage, cooling = cfg.stage, cfg.cooling
    per_wire = None if reference.is_wireless(arch) else cfg.wire.thermal_load_per_wire
    cop = carnot_cop(cooling.t_cold, cooling.t_ambient, cooling.eta_c)
    p_load = 0.0 if per_wire is None else per_wire * cfg.wire.wire_count
    q_total = p_load + cold + stage.q_ambient_leak + stage.q_electronics
    budget = (p_load, cold, stage.q_ambient_leak, stage.q_electronics, q_total, cop, q_total / cop)
    return (p, transmission, converter, cold), budget


# Cooling sections that carnot_cop rejects, on top of the loss path's bad inputs.
_BAD_COOLING = {
    "cooling.eta_c": st.sampled_from([0.0, math.nan]),
    "cooling.t_cold": lambda cfg: st.sampled_from([cfg.cooling.t_ambient, 2.0 * cfg.cooling.t_ambient]),
}


@given(system_configs(), st.sampled_from(ARCHITECTURES), st.data())
def test_point_records_match_the_frozen_scalar_path(cfg, arch, data):
    # heat_budget_at and evaluate_architecture read one float call of thermal._heat_cell.
    cfg = with_bad_inputs(data, cfg, {**_BAD_INPUTS, **_BAD_COOLING})
    p = delivered_powers(data)
    budget = outcome(lambda: tuple(heat_budget_at(arch, cfg, p))[1:])
    assert budget == outcome(lambda: frozen_records(arch, cfg, p)[1])
    evaluation = outcome(lambda: tuple(tuple(record)[1:] for record in evaluate_architecture(arch, cfg)))
    assert evaluation == outcome(frozen_records, arch, cfg, cfg.load.delivered_power)
