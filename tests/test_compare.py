"""Comparison-engine tests: sweeps, budget solving, wire equivalence, scorecard, optimizer."""

import gc
import math
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cryopower import compare
from cryopower.compare import (
    devices_under_budget,
    default_score_table,
    equivalent_wire_count,
    evaluate_architecture,
    optimize,
    resolve_parameters,
    scorecard,
    sweep_loss,
)
from cryopower.losses import architecture_loss_at
from cryopower.model import ARCHITECTURES, ArchitectureKind, default_config
from cryopower.thermal import heat_budget

from strategies import system_configs

A = ArchitectureKind


def rel_close(value: float, expected: float, tol: float = 1e-12) -> bool:
    return abs(value - expected) <= tol * abs(expected)


def _without_converter(cfg):
    return replace(cfg, converter=replace(cfg.converter, include_loss=False))


def count_loss_evaluations(monkeypatch):
    """Count calls of every loss evaluator ``compare`` builds from now on; returns a reader of the count."""
    calls = 0
    build = compare._loss_cell

    def counting_cell(*args, **kwargs):
        loss = build(*args, **kwargs)

        def counting(*point):
            nonlocal calls
            calls += 1
            return loss(*point)

        return counting

    monkeypatch.setattr(compare, "_loss_cell", counting_cell)
    return lambda: calls


class TestSweepLoss:
    def test_default_operating_point(self):
        result = sweep_loss(default_config(), [200])
        (point,) = result.points
        trans = {e.architecture: e.loss.transmission_loss for e in point.evaluations}
        assert trans[A.WIRED] == 4.0
        assert trans[A.HV_WIRED] == 0.04
        assert rel_close(trans[A.RADIATIVE], 0.5873015873015872)
        assert trans[A.NON_RADIATIVE] == 0.25
        assert trans[A.HV_NON_RADIATIVE] == 0.25

    def test_crossover_point(self):
        result = sweep_loss(default_config(), [50])
        (point,) = result.points
        wired = next(e for e in point.evaluations if e.architecture is A.WIRED)
        assert wired.loss.transmission_loss == wired.loss.delivered_power == 0.25

    def test_small_scale_regime(self):
        result = sweep_loss(default_config(), [1])
        (point,) = result.points
        by_arch = {e.architecture: e.loss.transmission_loss for e in point.evaluations}
        assert rel_close(by_arch[A.WIRED], 1.0e-4)
        assert by_arch[A.NON_RADIATIVE] == 1.25e-3
        assert by_arch[A.WIRED] < by_arch[A.NON_RADIATIVE]

    def test_structure(self):
        counts = [1, 10, 100]
        result = sweep_loss(default_config(), counts)
        assert result.parameter == "device_count"
        assert [p.value for p in result.points] == counts
        for point in result.points:
            assert [e.architecture for e in point.evaluations] == list(ARCHITECTURES)

    def test_rejects_empty_and_unordered(self):
        for empty in ([], np.arange(0)):  # a NumPy axis has no truth value
            with pytest.raises(ValueError, match="^device_counts must be nonempty$"):
                sweep_loss(default_config(), empty)
        with pytest.raises(ValueError):
            sweep_loss(default_config(), [10, 10])
        with pytest.raises(ValueError):
            sweep_loss(default_config(), [10, 5])
        with pytest.raises(ValueError):
            sweep_loss(default_config(), [0, 5])

    def test_parallel_map_gives_identical_results(self):
        counts = list(range(1, 40))
        serial = sweep_loss(default_config(), counts)
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = sweep_loss(default_config(), counts, map_fn=pool.map)
        assert serial == parallel

    @pytest.mark.parametrize("sweep", [sweep_loss, compare._sweep_cells])
    @pytest.mark.parametrize(
        "counts, bad", [([1.2, 1.7], "1.2"), ([1, math.nan], "nan"), ([1, math.inf], "inf")]
    )
    def test_rejects_counts_that_are_not_whole_numbers(self, sweep, counts, bad):
        with pytest.raises(ValueError, match=f"^device counts must be whole numbers, got {bad}$"):
            sweep(default_config(), counts)

    def test_integral_float_counts_become_ints(self):
        values = [point.value for point in sweep_loss(default_config(), [1.0, 2.0]).points]
        assert values == [1, 2]
        assert all(type(value) is int for value in values)

    def test_numpy_axis_equals_range(self):
        result = sweep_loss(default_config(), np.arange(1, 1001))
        assert result == sweep_loss(default_config(), range(1, 1001))
        assert all(type(point.value) is int for point in result.points)

    @pytest.mark.parametrize("sweep", [sweep_loss, compare._sweep_cells])
    def test_rejects_count_past_float_range(self, sweep):
        with pytest.raises(ValueError, match=f"^device counts must be finite, got {10**400}$"):
            sweep(default_config(), [1, 10**400])


def _set_collector(enabled: bool) -> None:
    (gc.enable if enabled else gc.disable)()


def _fail_after_first_transmission_loss(fn, archs):
    """A ``map_fn`` whose transmission-loss columns raise after one value, while records are built."""

    def fail_after_first(column):
        yield column[0]
        raise RuntimeError("column read failed")

    return [[fail_after_first(columns[0]), *columns[1:]] for columns in map(fn, archs)]


class TestSweepCollectorPause:
    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        enabled = gc.isenabled()
        yield
        _set_collector(enabled)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_sweep_leaves_collector_as_it_found_it(self, enabled):
        _set_collector(enabled)
        sweep_loss(default_config(), range(1, 201))
        assert gc.isenabled() is enabled

    @staticmethod
    def _collections_started(sweep) -> list[int]:
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.callbacks.append(count)
        try:
            sweep()
        finally:
            gc.callbacks.remove(count)
        return started

    def test_warm_sweep_runs_at_most_two_collections(self):
        gc.enable()
        cfg = default_config()
        sweep_loss(cfg, range(1, 1001))
        started = self._collections_started(lambda: sweep_loss(cfg, range(1, 1001)))
        assert len(started) <= 2, started

    def test_sweep_that_fits_the_young_generation_starts_no_collection(self):
        gc.enable()
        cfg = default_config()
        sweep_loss(cfg, range(1, 11))
        gc.collect()
        assert self._collections_started(lambda: sweep_loss(cfg, range(1, 11))) == []

    def test_sweep_with_automatic_collection_off_starts_no_collection(self):
        gc.enable()
        cfg = default_config()
        sweep_loss(cfg, range(1, 1001))
        threshold = gc.get_threshold()
        gc.set_threshold(0)
        try:
            started = self._collections_started(lambda: sweep_loss(cfg, range(1, 1001)))
        finally:
            gc.set_threshold(*threshold)
        assert started == []

    def test_held_back_collection_runs_before_the_sweep_returns(self):
        # The result record is the first tracked allocation after the pause,
        # so the collection the pause held back starts inside sweep_loss.
        gc.enable()
        cfg = default_config()
        sweep_loss(cfg, range(1, 1001))
        inside = []

        def started(phase, info):
            if phase == "start":
                frame = sys._getframe(1)
                while frame is not None and frame.f_code is not sweep_loss.__code__:
                    frame = frame.f_back
                inside.append(frame is not None)

        gc.callbacks.append(started)
        try:
            sweep_loss(cfg, range(1, 1001))
            young = gc.get_count()[0]  # read before get_count allocates its result
        finally:
            gc.callbacks.remove(started)
        assert inside and inside[-1], inside
        assert young < gc.get_threshold()[0]

    def test_loop_of_sweeps_frees_cycles_that_outlive_a_sweep(self):
        gc.enable()
        cfg = default_config()
        threshold = gc.get_threshold()
        gc.set_threshold(700, 10, 10)
        try:
            gc.collect()
            held = None
            for _ in range(60):
                cycle = []
                cycle.append(cycle)
                sweep_loss(cfg, range(1, 201))
                held, cycle = cycle, held
                del cycle
            del held
        finally:
            gc.set_threshold(*threshold)
        # Each cycle survives one sweep's closing collection into the older
        # generations; about 60 remain if those are never examined.
        assert gc.collect() < 30

    @pytest.mark.parametrize("enabled", [True, False])
    def test_failure_while_building_restores_collector(self, enabled):
        _set_collector(enabled)
        with pytest.raises(RuntimeError, match="column read failed"):
            sweep_loss(default_config(), range(1, 201), map_fn=_fail_after_first_transmission_loss)
        assert gc.isenabled() is enabled

    def test_two_sweeps_never_interleave_their_collector_calls(self, monkeypatch):
        # A stand-in for the gc module that logs each call; its first
        # disable() starts a second thread's sweep and gives it 0.5 s to
        # reach the collector. The shipped sweep makes the second thread wait
        # for the first to re-enable; a form without the lock lets it read
        # the collector as disabled, and then nothing re-enables it.
        start_second = threading.Event()
        log = []

        class Collector:
            enabled = True
            first_disable = True

            def isenabled(self):
                log.append((threading.current_thread().name, "isenabled"))
                return self.enabled

            def enable(self):
                log.append((threading.current_thread().name, "enable"))
                self.enabled = True

            def disable(self):
                log.append((threading.current_thread().name, "disable"))
                self.enabled = False
                if self.first_disable:
                    self.first_disable = False
                    start_second.set()
                    time.sleep(0.5)

        collector = Collector()
        cfg = default_config()
        monkeypatch.setattr(compare, "gc", collector)

        def second_sweep():
            if start_second.wait(10):
                sweep_loss(cfg, range(1, 11))

        second = threading.Thread(target=second_sweep, name="second")
        second.start()
        try:
            sweep_loss(cfg, range(1, 11))
        finally:
            start_second.set()
            second.join(10)
        assert not second.is_alive()
        first = threading.current_thread().name
        calls = ["isenabled", "disable", "enable"]
        assert log == [(first, call) for call in calls] + [("second", call) for call in calls]
        assert collector.enabled, "collector left disabled after both sweeps"

    def test_sweep_from_inside_a_record_build_completes(self):
        enabled = gc.isenabled()
        cfg = default_config()
        counts = range(1, 21)
        expected = sweep_loss(cfg, counts)
        inner = []

        def sweep_while_read(column):
            inner.append(sweep_loss(cfg, counts))
            yield from column

        def map_fn(fn, archs):
            columns = [fn(arch) for arch in archs]
            columns[0] = [sweep_while_read(columns[0][0]), *columns[0][1:]]
            return columns

        # A daemon thread, so that a sweep that deadlocks fails the test instead of hanging the run.
        outer = []
        thread = threading.Thread(target=lambda: outer.append(sweep_loss(cfg, counts, map_fn=map_fn)), daemon=True)
        thread.start()
        thread.join(10)
        assert not thread.is_alive(), "sweep inside a record build did not complete"
        assert outer == inner == [expected]
        assert gc.isenabled() is enabled

    def test_concurrent_sweeps_leave_collector_enabled(self):
        gc.enable()
        cfg = default_config()
        counts = range(1, 201)
        expected = sweep_loss(cfg, counts)

        def sweeps():
            return all(sweep_loss(cfg, counts) == expected for _ in range(20))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(sweeps) for _ in range(4)]
                assert all(future.result(timeout=120) for future in futures)
        finally:
            sys.setswitchinterval(interval)
        assert gc.isenabled()


class TestDevicesUnderBudget:
    def test_documented_one_watt_budget(self):
        cfg = default_config()
        assert devices_under_budget(A.NON_RADIATIVE, cfg, 1.0) == 160
        assert devices_under_budget(A.HV_NON_RADIATIVE, cfg, 1.0) == 160
        assert devices_under_budget(A.WIRED, cfg, 1.0) == 78
        assert devices_under_budget(A.RADIATIVE, cfg, 1.0) == 126

    def test_hv_wired_converter_excluded(self):
        assert devices_under_budget(A.HV_WIRED, _without_converter(default_config()), 1.0) == 192

    def test_hv_wired_converter_included_supports_fewer(self):
        included = devices_under_budget(A.HV_WIRED, default_config(), 1.0)
        assert included == 185
        assert included < 192

    def test_methods_agree(self):
        cfg = default_config()
        for arch in ARCHITECTURES:
            for budget in (0.01, 0.25, 1.0, 7.5):
                closed = devices_under_budget(arch, cfg, budget)
                bisect = devices_under_budget(arch, cfg, budget, method="bisection")
                assert closed == bisect

    def test_monotone_in_budget(self):
        cfg = default_config()
        counts = [devices_under_budget(A.WIRED, cfg, b) for b in (0.1, 0.5, 1.0, 2.0, 10.0)]
        assert counts == sorted(counts)

    def test_monotone_in_coupling_efficiency(self):
        cfg = default_config()
        worse = replace(cfg, coupling=replace(cfg.coupling, eta_coup_coil=0.5))
        assert devices_under_budget(A.NON_RADIATIVE, worse, 1.0) <= devices_under_budget(
            A.NON_RADIATIVE, cfg, 1.0
        )

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_closed_form_bounded_at_tiny_device_power(self, arch, monkeypatch):
        # At 1e-12 W per device and B = 1000 W the root lies near 1e15 devices,
        # where one device adds about ten ulps of the budget; the search from
        # the root must still take O(log) loss evaluations and land where
        # bisection does.
        cfg = replace(default_config(), load=replace(default_config().load, power_per_device=1e-12))
        calls = count_loss_evaluations(monkeypatch)
        closed = devices_under_budget(arch, cfg, 1000.0)
        assert 0 < calls() <= 64
        assert closed == devices_under_budget(arch, cfg, 1000.0, method="bisection")

    @pytest.mark.parametrize("power_per_device", [1e-12, 0.005, 1e3])
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_bisection_tests_feasibility_through_the_loss_path(self, arch, power_per_device, monkeypatch):
        # Bisection doubles a bound until it does not fit, then halves the
        # bracket: for an answer n >= 1 that is 2 * n.bit_length() feasibility
        # tests (one test when n = 0), and each must be a loss evaluation
        # made through architecture_loss_at, where a trace of it sees them.
        cfg = replace(default_config(), load=replace(default_config().load, power_per_device=power_per_device))
        closed = devices_under_budget(arch, cfg, 1000.0)
        calls = count_loss_evaluations(monkeypatch)
        breakdowns = []
        loss_at = compare.architecture_loss_at

        def counting_loss_at(*args):
            breakdowns.append(loss_at(*args))
            return breakdowns[-1]

        monkeypatch.setattr(compare, "architecture_loss_at", counting_loss_at)
        assert devices_under_budget(arch, cfg, 1000.0, method="bisection") == closed
        assert calls() == max(1, 2 * closed.bit_length())
        assert len(breakdowns) == calls()

    @pytest.mark.parametrize(
        "arch, count",
        [
            (A.RADIATIVE, 630_000_000_000_000),
            (A.NON_RADIATIVE, 800_000_000_000_000),
            (A.HV_NON_RADIATIVE, 800_000_000_000_000),
        ],
    )
    def test_slack_admits_no_device_past_the_budget(self, arch, count):
        # 1e-12 of a 1000 W budget is the cost of hundreds of 1e-12 W devices;
        # the slack is capped at half of one device's cost at the boundary.
        cfg = replace(default_config(), load=replace(default_config().load, power_per_device=1e-12))
        assert devices_under_budget(arch, cfg, 1000.0) == count
        assert devices_under_budget(arch, cfg, 1000.0, method="bisection") == count

    @given(
        system_configs(positive_load=True),
        st.sampled_from(ARCHITECTURES),
        st.integers(10**9, 10**15),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_huge_counts_land_on_the_budget(self, cfg, arch, target, fraction):
        def cost(count):
            p_rx = count * cfg.load.power_per_device
            return p_rx + architecture_loss_at(arch, cfg, p_rx).loss_at_cold_stage

        # A budget `fraction` of the way from `target` devices to one more.
        budget = cost(target) + fraction * (cost(target + 1) - cost(target))
        count = devices_under_budget(arch, cfg, budget)
        assert count == devices_under_budget(arch, cfg, budget, method="bisection")
        assert target <= count <= target + 1
        # `count` fits: it is over the budget, if at all, by less than one device's cost.
        assert cost(count) - budget < cost(count + 1) - cost(count)
        # One more does not.
        assert cost(count + 1) > budget

    def test_tiny_budget_supports_zero_devices(self):
        assert devices_under_budget(A.WIRED, default_config(), 1e-9) == 0

    def test_domain_errors(self):
        cfg = default_config()
        with pytest.raises(ValueError, match=re.escape("total_budget must be > 0, got 0.0")):
            devices_under_budget(A.WIRED, cfg, 0.0)
        with pytest.raises(ValueError, match=re.escape("total_budget must be > 0, got -1.0")):
            devices_under_budget(A.WIRED, cfg, -1.0)
        zero_load = replace(cfg, load=replace(cfg.load, power_per_device=0.0))
        with pytest.raises(ValueError):
            devices_under_budget(A.WIRED, zero_load, 1.0)
        with pytest.raises(ValueError):
            devices_under_budget(A.WIRED, cfg, 1.0, method="sorcery")

    @pytest.mark.parametrize("method", ["closed_form", "bisection"])
    @pytest.mark.parametrize(
        "budget", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int_past_float_range")]
    )
    def test_non_finite_budget_rejected_by_both_methods(self, method, budget):
        with pytest.raises(ValueError, match=re.escape(f"total_budget must be finite, got {budget!r}")):
            devices_under_budget(A.WIRED, default_config(), budget, method)

    def test_wireless_ratio_to_wired(self):
        cfg = default_config()
        best_wireless = max(
            devices_under_budget(arch, cfg, 1.0)
            for arch in (A.RADIATIVE, A.NON_RADIATIVE, A.HV_NON_RADIATIVE)
        )
        ratio = best_wireless / devices_under_budget(A.WIRED, cfg, 1.0)
        assert 2.0 <= ratio <= 3.5


class TestEquivalentWireCount:
    def test_thousand_devices_warm_resistance(self):
        cfg = replace(default_config(), load=replace(default_config().load, device_count=1000))
        assert equivalent_wire_count(cfg, A.NON_RADIATIVE) == 80.0

    def test_thousand_devices_cold_resistance(self):
        cfg = default_config()
        cfg = replace(
            cfg,
            load=replace(cfg.load, device_count=1000),
            wire=replace(cfg.wire, resistance_mode="cold"),
        )
        assert equivalent_wire_count(cfg, A.NON_RADIATIVE) == 60.0

    def test_default_operating_point(self):
        assert equivalent_wire_count(default_config(), A.NON_RADIATIVE) == 16.0

    def test_radiative_reference(self):
        # 4.0 / (1/0.63 - 1)
        value = equivalent_wire_count(default_config(), A.RADIATIVE)
        assert rel_close(value, 6.810810810810811)

    def test_perfect_coupling_is_an_error(self):
        cfg = replace(default_config(), coupling=replace(default_config().coupling, eta_coup_coil=1.0))
        with pytest.raises(ValueError, match="zero transmission loss"):
            equivalent_wire_count(cfg, A.NON_RADIATIVE)

    def test_wired_reference_rejected(self):
        with pytest.raises(ValueError, match="wireless"):
            equivalent_wire_count(default_config(), A.WIRED)

    def test_zero_load_rejected(self):
        cfg = replace(default_config(), load=replace(default_config().load, device_count=0))
        with pytest.raises(ValueError):
            equivalent_wire_count(cfg, A.NON_RADIATIVE)

    def test_matches_wired_loss_when_applied(self):
        # With the (non-integer) count plugged back in, losses match.
        from cryopower.losses import nonradiative_loss

        cfg = replace(default_config(), load=replace(default_config().load, device_count=1000))
        n = equivalent_wire_count(cfg, A.NON_RADIATIVE)
        p = cfg.load.delivered_power
        wired = (p * p) / (cfg.load.v_rx * cfg.load.v_rx) * cfg.wire.effective_resistance / n
        assert rel_close(wired, nonradiative_loss(p, cfg.coupling.eta_coup_coil))


class TestScorecard:
    def test_five_rows_sorted_by_cooling_power(self):
        report = scorecard(default_config(), 200)
        assert len(report.rows) == 5
        cooling = [row.cooling_power for row in report.rows]
        assert cooling == sorted(cooling)
        assert [row.architecture for row in report.rows] == [
            A.NON_RADIATIVE,
            A.HV_NON_RADIATIVE,
            A.HV_WIRED,
            A.RADIATIVE,
            A.WIRED,
        ]

    @pytest.mark.parametrize("devices", [200, 350, 500, 750, 1000])
    def test_loss_ordering_matches_table_at_scale(self, devices):
        report = scorecard(default_config(), devices)
        trans = {row.architecture: row.transmission_loss for row in report.rows}
        assert trans[A.NON_RADIATIVE] == trans[A.HV_NON_RADIATIVE]
        assert trans[A.HV_WIRED] < trans[A.NON_RADIATIVE] < trans[A.RADIATIVE] < trans[A.WIRED]

    def test_heating_places_nonradiative_lowest(self):
        report = scorecard(default_config(), 200)
        heat = {row.architecture: row.cold_stage_heat for row in report.rows}
        assert heat[A.NON_RADIATIVE] == heat[A.HV_NON_RADIATIVE]
        assert heat[A.NON_RADIATIVE] <= heat[A.HV_WIRED] <= heat[A.RADIATIVE] <= heat[A.WIRED]

    def test_small_scale_ordering_differs(self):
        # A handful of devices: the quadratic wire loss undercuts every
        # wireless link, so the large-scale ordering does not apply.
        report = scorecard(default_config(), 1)
        trans = {row.architecture: row.transmission_loss for row in report.rows}
        assert trans[A.WIRED] < trans[A.NON_RADIATIVE]
        assert trans[A.WIRED] < trans[A.RADIATIVE]

    def test_numeric_cells_finite_nonnegative(self):
        for row in scorecard(default_config(), 200).rows:
            for cell in (row.transmission_loss, row.cold_stage_heat, row.cooling_power, row.noise_floor_ratio):
                assert math.isfinite(cell)
                assert cell >= 0.0

    def test_default_scores(self):
        report = scorecard(default_config(), 200)
        scores = {row.architecture: (row.power_density, row.reliability) for row in report.rows}
        assert scores[A.HV_NON_RADIATIVE] == ("Very High", "Low")
        assert scores[A.WIRED] == ("Low", "High")
        assert scores[A.HV_WIRED] == ("Low", "Moderate")

    def test_score_table_override(self):
        table = default_score_table()
        table["reliability"]["radiative"] = "Contested"
        report = scorecard(default_config(), 200, score_table=table)
        row = next(r for r in report.rows if r.architecture is A.RADIATIVE)
        assert row.reliability == "Contested"

    def test_incomplete_score_table_rejected(self):
        with pytest.raises(ValueError, match="power_density"):
            scorecard(default_config(), 200, score_table={"reliability": {}})
        broken = default_score_table()
        del broken["reliability"]["wired"]
        with pytest.raises(ValueError, match="wired"):
            scorecard(default_config(), 200, score_table=broken)

    def test_default_score_table_is_a_fresh_copy(self):
        before = scorecard(default_config(), 200)
        table = default_score_table()
        table["reliability"]["wired"] = "Edited"
        table["power_density"] = {}
        del table["reliability"]
        fresh = default_score_table()
        assert fresh["reliability"]["wired"] == "High"
        assert fresh["power_density"]["hv_non_radiative"] == "Very High"
        assert scorecard(default_config(), 200) == before

    def test_bundled_score_table_is_read_once(self, monkeypatch):
        from importlib import resources

        reads = 0
        files = resources.files

        def counting(*args):
            nonlocal reads
            reads += 1
            return files(*args)

        compare._bundled_score_table.cache_clear()
        monkeypatch.setattr(resources, "files", counting)
        for _ in range(3):
            default_score_table()
            scorecard(default_config(), 200)
        assert reads == 1

    def test_device_count_bound(self):
        with pytest.raises(ValueError, match="must be >= 1, got 0"):
            scorecard(default_config(), 0)

    @pytest.mark.parametrize("count", [1.5, math.nan, math.inf])
    def test_non_whole_device_count_rejected(self, count):
        with pytest.raises(ValueError, match=re.escape(f"must be a whole number, got {count!r}")):
            scorecard(default_config(), count)

    def test_device_count_past_float_range_rejected(self):
        with pytest.raises(ValueError, match=f"^operating_device_count must be finite, got {10**400}$"):
            scorecard(default_config(), 10**400)

    def test_integral_float_count_kept_as_given(self):
        report = scorecard(default_config(), 200.0)
        assert report.device_count == 200.0 and isinstance(report.device_count, float)
        assert report.rows == scorecard(default_config(), 200).rows


class TestResolveParameters:
    def test_couples_converter_input(self):
        cfg = default_config()
        resolved = resolve_parameters(cfg, A.HV_WIRED, {"v_rx_hv": 30.0})
        assert resolved.load.v_rx_hv == 30.0
        assert resolved.converter.v_in == 30.0
        assert resolved.converter.duty == cfg.converter.v_out / 30.0

    def test_rail_below_converter_output_drops_converter(self):
        resolved = resolve_parameters(default_config(), A.HV_WIRED, {"v_rx_hv": 3.0})
        assert resolved.converter.include_loss is False

    def test_no_coupling_leaves_converter_untouched(self):
        cfg = default_config()
        resolved = resolve_parameters(cfg, A.HV_WIRED, {"v_rx_hv": 30.0}, couple_converter_input=False)
        assert resolved.converter == cfg.converter

    def test_wireless_architecture_has_no_converter_to_couple(self):
        cfg = default_config()
        resolved = resolve_parameters(cfg, A.NON_RADIATIVE, {"v_rx_hv": 30.0})
        assert resolved.converter == cfg.converter

    def test_wire_count(self):
        resolved = resolve_parameters(default_config(), A.WIRED, {"wire_count": 9})
        assert resolved.wire.wire_count == 9

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown free parameter"):
            resolve_parameters(default_config(), A.WIRED, {"frequency": 1.0})
        with pytest.raises(ValueError, match="v_rx_hv"):
            resolve_parameters(default_config(), A.HV_WIRED, {"v_rx_hv": 1.0})


_SUBNORMAL = 5e-324


@st.composite
def _linspace_bounds(draw) -> tuple[float, float]:
    finite = st.floats(allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(["any", "equal", "subnormal", "overflow"]))
    if kind == "equal":
        x = draw(finite)
        return x, x
    if kind == "subnormal":  # a span of a few subnormals: numpy's step == 0 branch
        k = draw(st.integers(-(10**6), 10**6))
        return k * _SUBNORMAL, (k + draw(st.integers(0, 40))) * _SUBNORMAL
    if kind == "overflow":  # stop - start overflows to inf
        return draw(st.floats(-1.7e308, -1e308)), draw(st.floats(1e308, 1.7e308))
    a, b = draw(finite), draw(finite)
    return min(a, b), max(a, b)


class TestLinspace:
    @given(_linspace_bounds(), st.integers(1, 2000))
    def test_matches_numpy_bit_for_bit(self, bounds, num):
        start, stop = bounds
        with np.errstate(all="ignore"):
            expected = np.linspace(start, stop, num).tolist()
        assert [x.hex() for x in compare._linspace(start, stop, num)] == [x.hex() for x in expected]


class TestOptimize:
    def test_degenerate_box(self):
        cfg = default_config()
        result = optimize(cfg, {"v_rx_hv": (2.0, 2.0)}, A.HV_WIRED)
        assert result.parameters == {"v_rx_hv": 2.0}
        direct = heat_budget(A.HV_WIRED, resolve_parameters(cfg, A.HV_WIRED, result.parameters))
        assert result.objective_value == direct.cooling_power

    def test_monotone_objective_picks_upper_bound(self):
        cfg = _without_converter(default_config())
        result = optimize(cfg, {"v_rx_hv": (2.0, 20.0)}, A.HV_WIRED)
        assert result.parameters["v_rx_hv"] == 20.0

    def test_interior_optimum_matches_analysis(self):
        # d/dv [ (p^2 R) v^-2 + p B v ] = 0  =>  v* = (2 p R / B)^(1/3)
        cfg = default_config()
        conv = cfg.converter
        b = 0.5 * (conv.t_r + conv.t_f) * conv.f_sw / conv.v_out
        v_star = (2.0 * 1.0 * 16.0 / b) ** (1.0 / 3.0)
        result = optimize(cfg, {"v_rx_hv": (2.0, 200.0)}, A.HV_WIRED)
        assert abs(result.parameters["v_rx_hv"] - v_star) < 1e-4 * v_star

    def test_matches_brute_force_within_one_cell(self):
        cfg = default_config()
        lo, hi = 2.0, 200.0
        resolution = 1000
        result = optimize(cfg, {"v_rx_hv": (lo, hi)}, A.HV_WIRED, resolution=resolution)
        points = [lo + (hi - lo) * i / 99999 for i in range(100000)]
        brute = min(
            points,
            key=lambda v: heat_budget(
                A.HV_WIRED, resolve_parameters(cfg, A.HV_WIRED, {"v_rx_hv": v})
            ).cooling_power,
        )
        brute_value = heat_budget(
            A.HV_WIRED, resolve_parameters(cfg, A.HV_WIRED, {"v_rx_hv": brute})
        ).cooling_power
        cell = (hi - lo) / (resolution - 1)
        assert abs(result.parameters["v_rx_hv"] - brute) <= cell
        assert result.objective_value <= brute_value * (1.0 + 1e-12)

    def test_wire_count_trade_off(self):
        # Loss ~ 1/n against conduction load ~ n: minimum at n = sqrt(p^2 R / (v^2 q)).
        result = optimize(default_config(), {"wire_count": (1, 50)}, A.WIRED)
        assert result.parameters == {"wire_count": 4}
        assert result.objective_value == 1628.0

    def test_two_dimensional_box(self):
        result = optimize(
            default_config(),
            {"v_rx_hv": (2.0, 200.0), "wire_count": (1, 10)},
            A.HV_WIRED,
            resolution=200,
        )
        assert result.parameters["wire_count"] == 1
        assert 20.0 < result.parameters["v_rx_hv"] < 40.0

    def test_flat_objective_ties_break_small(self):
        # Wireless links ignore both free parameters.
        result = optimize(
            default_config(),
            {"v_rx_hv": (2.0, 20.0), "wire_count": (1, 50)},
            A.NON_RADIATIVE,
            resolution=50,
        )
        assert result.parameters == {"v_rx_hv": 2.0, "wire_count": 1}

    def test_recomputation_invariant(self):
        cfg = default_config()
        for free in ({"v_rx_hv": (2.0, 60.0)}, {"wire_count": (1, 12)}):
            result = optimize(cfg, free, A.HV_WIRED, resolution=64)
            resolved = resolve_parameters(cfg, A.HV_WIRED, result.parameters)
            assert heat_budget(A.HV_WIRED, resolved).cooling_power == result.objective_value

    def test_never_exceeds_coarser_grid(self):
        cfg = default_config()
        lo, hi = 2.0, 120.0
        result = optimize(cfg, {"v_rx_hv": (lo, hi)}, A.HV_WIRED, resolution=100)
        coarse = [lo + (hi - lo) * i / 9 for i in range(10)]
        coarse_min = min(
            heat_budget(A.HV_WIRED, resolve_parameters(cfg, A.HV_WIRED, {"v_rx_hv": v})).cooling_power
            for v in coarse
        )
        assert result.objective_value <= coarse_min * (1.0 + 1e-12)

    def test_trace_improves_monotonically(self):
        result = optimize(default_config(), {"v_rx_hv": (2.0, 200.0)}, A.HV_WIRED, resolution=128)
        values = [value for _, value in result.trace]
        assert values == sorted(values, reverse=True)
        assert values[-1] == result.objective_value
        assert result.evaluations >= 128

    def test_parallel_map_identical(self, monkeypatch):
        cfg = default_config()
        for box in ({"v_rx_hv": (2.0, 100.0)}, {"v_rx_hv": (2.0, 100.0), "wire_count": (1, 8)}):
            serial = optimize(cfg, box, A.HV_WIRED, resolution=64)
            with monkeypatch.context() as patch, ThreadPoolExecutor(max_workers=8) as pool:
                # The 64 x 8 grid maps over blocks of 3, 3 and 2 wire counts.
                patch.setattr(compare, "_KERNEL_BLOCK_CELLS", 3 * 64)
                parallel = optimize(cfg, box, A.HV_WIRED, resolution=64, map_fn=pool.map)
            assert serial == parallel

    @pytest.mark.parametrize("resolution", [8, 300])  # Python floats, then the NumPy kernel's fallback
    def test_cell_dividing_by_zero_raises_like_single_point_path(self, resolution):
        # Switching loss overflows to inf at the top of the rail range, so the
        # converter efficiency is 0 there and 1/eta divides by zero.
        cfg = default_config()
        cfg = replace(cfg, converter=replace(cfg.converter, f_sw=1e300))
        resolved = resolve_parameters(cfg, A.HV_WIRED, {"v_rx_hv": 1e300})
        with pytest.raises(ZeroDivisionError):
            heat_budget(A.HV_WIRED, resolved)
        with pytest.raises(ZeroDivisionError):
            optimize(cfg, {"v_rx_hv": (2.0, 1e300)}, A.HV_WIRED, resolution=resolution)

    @pytest.mark.parametrize("hi", [9.3e18, 1e30])
    def test_unsampleable_wire_count_bound_rejected(self, hi):
        # Sampled wire counts are rounded in float64 and cast to int64.
        with pytest.raises(ValueError, match=f"wire_count upper bound .*{re.escape(repr(hi))}"):
            optimize(default_config(), {"wire_count": (1, hi)}, A.WIRED, resolution=50)

    @pytest.mark.parametrize(
        "name, arch, bounds", [("v_rx_hv", A.HV_WIRED, (2, 10**400)), ("wire_count", A.WIRED, (1, 10**400))]
    )
    def test_bound_past_float_range_rejected(self, name, arch, bounds):
        message = re.escape(f"bounds for {name!r} must be finite, got [{bounds[0]}, {10**400}]")
        with pytest.raises(ValueError, match=f"^{message}$"):
            optimize(default_config(), {name: bounds}, arch)

    def test_largest_sampleable_wire_count_bound(self):
        top = 2.0**63 - 1024  # the float below 2**63
        result = optimize(default_config(), {"wire_count": (1, top)}, A.WIRED, resolution=50)
        assert result.parameters == {"wire_count": 1}
        assert result.evaluations == 50
        assert optimize(default_config(), {"wire_count": (1, 1e18)}, A.WIRED, resolution=50) == result

    @pytest.mark.parametrize("resolution", [10, 300])  # Python floats, then the NumPy kernel
    @pytest.mark.parametrize(
        "arch, load, free",
        [
            (A.WIRED, {"v_rx": 1e-160}, {"v_rx_hv": (1e-160, 1e-150)}),
            (A.HV_WIRED, {"power_per_device": 1e300}, {"v_rx_hv": (2.0, 20.0)}),
        ],
    )
    def test_all_infinite_grid_rejected(self, arch, load, free, resolution):
        assert (resolution > compare._PYTHON_GRID_CELLS) == (resolution == 300)
        cfg = replace(default_config(), load=replace(default_config().load, **load))
        message = f"^{arch.label}: every grid cell's cooling power is inf or NaN$"
        with pytest.raises(ValueError, match=message):
            optimize(cfg, free, arch, resolution=resolution)

    def test_errors(self):
        cfg = default_config()
        with pytest.raises(ValueError):
            optimize(cfg, {}, A.HV_WIRED)
        with pytest.raises(ValueError, match="inverted"):
            optimize(cfg, {"v_rx_hv": (20.0, 2.0)}, A.HV_WIRED)
        with pytest.raises(ValueError, match="unknown free parameter"):
            optimize(cfg, {"magic": (0.0, 1.0)}, A.HV_WIRED)
        with pytest.raises(ValueError, match="v_rx"):
            optimize(cfg, {"v_rx_hv": (0.5, 20.0)}, A.HV_WIRED)
        with pytest.raises(ValueError, match="wire_count"):
            optimize(cfg, {"wire_count": (0, 10)}, A.WIRED)
        with pytest.raises(ValueError, match="resolution"):
            optimize(cfg, {"v_rx_hv": (2.0, 20.0)}, A.HV_WIRED, resolution=1)
        with pytest.raises(ValueError, match="objective"):
            optimize(cfg, {"v_rx_hv": (2.0, 20.0)}, A.HV_WIRED, objective="noise")
        # A large finite resolution would allocate its grid, so only an int past float range is tried.
        for free in ({"v_rx_hv": (2.0, 20.0)}, {"wire_count": (1, 10)}):
            with pytest.raises(ValueError, match=f"^resolution must be finite, got {10**400}$"):
                optimize(cfg, free, A.HV_WIRED, resolution=10**400)


def test_loss_paths_never_read_the_cooling_section():
    # The loss evaluator never computes the COP: with t_cold = 0 every
    # heat-free entry point still works.
    cfg = default_config()
    cfg = replace(cfg, cooling=replace(cfg.cooling, t_cold=0.0))
    with pytest.raises(ValueError, match="temperatures"):
        heat_budget(A.WIRED, cfg)
    for arch in ARCHITECTURES:
        assert architecture_loss_at(arch, cfg, 0.5) == architecture_loss_at(arch, default_config(), 0.5)
        for method in ("closed_form", "bisection"):
            assert devices_under_budget(arch, cfg, 1.0, method) == devices_under_budget(arch, default_config(), 1.0)
    assert equivalent_wire_count(cfg, A.RADIATIVE) == equivalent_wire_count(default_config(), A.RADIATIVE)


class TestEvaluateArchitecture:
    def test_pairs_loss_and_thermal(self):
        evaluation = evaluate_architecture(A.NON_RADIATIVE, default_config())
        assert evaluation.architecture is A.NON_RADIATIVE
        assert evaluation.loss.transmission_loss == 0.25
        assert evaluation.thermal.q_total == 0.25
