"""CLI behavior: emission formats, exit codes, determinism, config round-trip."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cryopower.cli import (
    ARCH_LABELS,
    EXIT_BAD_INVOCATION,
    EXIT_INVALID_CONFIG,
    EXIT_IO_ERROR,
    EXIT_OK,
    _require_valid,
    _sweep_csv,
    _sweep_json,
    _sweep_rows,
    build_parser,
    main,
    parse_invocation,
    run,
)
from cryopower.compare import FREE_PARAMETER_NAMES, evaluate_architecture, optimize, sweep_loss
from cryopower.configio import get_value, parse_config, serialize_config, set_value
from cryopower.model import _FIELD_KINDS, ARCHITECTURES, ArchitectureKind, default_config

from strategies import finite, system_configs


def invoke(*args: str) -> tuple[int, str, str]:
    return run(parse_invocation(list(args)))


def usage_error(subcommand: str, message: str) -> str:
    """The stderr argparse writes when it rejects an argument of ``subcommand``."""
    (subparsers,) = build_parser()._subparsers._group_actions
    return subparsers.choices[subcommand].format_usage() + f"cryopower {subcommand}: error: {message}\n"


def read_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


class TestDefaultsSubcommand:
    def test_round_trips_to_default_config(self):
        code, out, err = invoke("defaults")
        assert code == EXIT_OK and err == ""
        assert parse_config(out) == default_config()

    def test_matches_serializer(self):
        _, out, _ = invoke("defaults")
        assert out == serialize_config(default_config())


class TestEvaluateSubcommand:
    def test_wired_at_200_devices(self):
        code, out, err = invoke("evaluate", "--arch", "wired", "--devices", "200")
        assert code == EXIT_OK
        (row,) = read_csv(out)
        assert row["transmission_loss_w"] == "4.0"
        assert row["architecture"] == "wired"
        assert row["device_count"] == "200"

    @pytest.mark.parametrize(
        "arch, transmission, converter, cold",
        [
            ("wired", "0.0", "0.0", "0.0"),
            ("hv_wired", "0.0", "-0.0", "0.0"),
            ("radiative", "-0.0", "0.0", "0.0"),
            ("non_radiative", "-0.0", "0.0", "0.0"),
            ("hv_non_radiative", "-0.0", "-0.0", "-0.0"),
        ],
    )
    def test_negative_zero_load_keeps_leaf_formula_signs(self, arch, transmission, converter, cold, tmp_path):
        # validate accepts power_per_device = -0.0. A rail's (p*p)/(v*v)*r/n
        # and an absent converter read 0.0; p*(1/eta - 1) keeps the sign of p.
        path = tmp_path / "system.cfg"
        path.write_text("load.power_per_device = -0.0\nconverter.attach_hv_nonradiative = true\n")
        code, out, _ = invoke("evaluate", "--arch", arch, "--config", str(path))
        assert code == EXIT_OK
        (row,) = read_csv(out)
        assert row["delivered_power_w"] == "-0.0"
        assert (row["transmission_loss_w"], row["converter_loss_w"], row["loss_at_cold_stage_w"]) == (
            transmission,
            converter,
            cold,
        )

    def test_devices_override_wins_over_config(self, tmp_path):
        path = tmp_path / "system.cfg"
        path.write_text("load.device_count = 50\n")
        _, out, _ = invoke("evaluate", "--arch", "wired", "--config", str(path), "--devices", "200")
        (row,) = read_csv(out)
        assert row["device_count"] == "200"
        _, out, _ = invoke("evaluate", "--arch", "wired", "--config", str(path))
        (row,) = read_csv(out)
        assert row["device_count"] == "50"

    def test_json_matches_csv_values(self):
        _, csv_out, _ = invoke("evaluate", "--arch", "hv_wired")
        _, json_out, _ = invoke("evaluate", "--arch", "hv_wired", "--format", "json")
        (row,) = read_csv(csv_out)
        payload = json.loads(json_out)
        assert float(row["transmission_loss_w"]) == payload["loss"]["transmission_loss_w"]
        assert float(row["converter_loss_w"]) == payload["loss"]["converter_loss_w"]
        assert float(row["q_total_w"]) == payload["thermal"]["q_total_w"]
        assert float(row["cooling_power_w"]) == payload["thermal"]["cooling_power_w"]
        assert float(row["noise_floor_ratio"]) == payload["noise_floor_ratio"]

    def test_matches_in_process_evaluation(self):
        _, out, _ = invoke("evaluate", "--arch", "radiative", "--format", "json")
        payload = json.loads(out)
        evaluation = evaluate_architecture(ArchitectureKind.RADIATIVE, default_config())
        assert payload["loss"]["transmission_loss_w"] == evaluation.loss.transmission_loss
        assert payload["thermal"]["cooling_power_w"] == evaluation.thermal.cooling_power


class TestCompareSubcommand:
    def test_documented_budget_row(self):
        code, out, _ = invoke("compare", "--devices", "200", "--budget", "1.0")
        assert code == EXIT_OK
        rows = {row["architecture"]: row for row in read_csv(out)}
        assert rows["non_radiative"]["devices_under_budget"] == "160"
        assert rows["wired"]["devices_under_budget"] == "78"
        assert rows["radiative"]["devices_under_budget"] == "126"

    def test_rows_sorted_by_cooling_power(self):
        _, out, _ = invoke("compare", "--devices", "200")
        rows = read_csv(out)
        assert len(rows) == 5
        cooling = [float(row["cooling_power_w"]) for row in rows]
        assert cooling == sorted(cooling)
        assert "devices_under_budget" not in rows[0]

    def test_json_matches_csv_values(self):
        _, csv_out, _ = invoke("compare", "--devices", "200", "--budget", "1.0")
        _, json_out, _ = invoke("compare", "--devices", "200", "--budget", "1.0", "--format", "json")
        payload = json.loads(json_out)
        csv_rows = read_csv(csv_out)
        assert payload["device_count"] == 200
        for csv_row, json_row in zip(csv_rows, payload["rows"]):
            assert csv_row["architecture"] == json_row["architecture"]
            assert float(csv_row["transmission_loss_w"]) == json_row["transmission_loss_w"]
            assert float(csv_row["cold_stage_heat_w"]) == json_row["cold_stage_heat_w"]
            assert float(csv_row["cooling_power_w"]) == json_row["cooling_power_w"]
            assert int(csv_row["devices_under_budget"]) == json_row["devices_under_budget"]
            assert csv_row["power_density"] == json_row["power_density"]


    @pytest.mark.parametrize(
        "power, message",
        [("0.0", "power_per_device must be > 0"), ("1e-300", "device count under budget is unbounded")],
    )
    def test_budget_solver_errors_are_malformed(self, power, message, tmp_path, capsys):
        path = tmp_path / "load.cfg"
        path.write_text(f"load.power_per_device = {power}\n")
        code = main(["compare", "--config", str(path), "--budget", "1.0"])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INVOCATION
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert message in captured.err


class TestSweepSubcommand:
    def test_device_count_long_format(self):
        code, out, _ = invoke("sweep", "--param", "device_count", "--from", "1", "--to", "5", "--steps", "5")
        assert code == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 25  # 5 points x 5 architectures
        assert [row["value"] for row in rows[:5]] == ["1"] * 5
        assert rows[0]["parameter"] == "device_count"
        archs = [row["architecture"] for row in rows[:5]]
        assert archs == ["wired", "hv_wired", "radiative", "non_radiative", "hv_non_radiative"]

    def test_default_param_is_device_count(self):
        _, out, _ = invoke("sweep", "--from", "10", "--to", "20", "--steps", "2")
        rows = read_csv(out)
        assert rows[0]["parameter"] == "device_count"
        assert [row["value"] for row in rows] == ["10"] * 5 + ["20"] * 5

    def test_generic_float_parameter(self):
        _, out, _ = invoke("sweep", "--param", "load.v_rx", "--from", "1", "--to", "2", "--steps", "3")
        rows = read_csv(out)
        assert rows[0]["parameter"] == "load.v_rx"
        values = sorted({float(row["value"]) for row in rows})
        assert values == [1.0, 1.5, 2.0]

    def test_json_matches_csv_values(self):
        args = ("sweep", "--from", "1", "--to", "100", "--steps", "4")
        _, csv_out, _ = invoke(*args)
        _, json_out, _ = invoke(*args, "--format", "json")
        payload = json.loads(json_out)
        csv_rows = read_csv(csv_out)
        flat = [
            (point["value"], arch["architecture"], arch["transmission_loss_w"], arch["q_total_w"], arch["cooling_power_w"])
            for point in payload["points"]
            for arch in point["architectures"]
        ]
        assert len(flat) == len(csv_rows)
        for csv_row, (value, arch, trans, q_total, cooling) in zip(csv_rows, flat):
            assert int(csv_row["value"]) == value
            assert csv_row["architecture"] == arch
            assert float(csv_row["transmission_loss_w"]) == trans
            assert float(csv_row["q_total_w"]) == q_total
            assert float(csv_row["cooling_power_w"]) == cooling

    def test_inverted_range_is_malformed(self):
        code, _, err = invoke("sweep", "--from", "10", "--to", "1", "--steps", "5")
        assert code == EXIT_BAD_INVOCATION
        assert "inverted" in err

    def test_unknown_parameter_is_malformed(self):
        code, _, err = invoke("sweep", "--param", "load.bogus", "--from", "1", "--to", "2", "--steps", "2")
        assert code == EXIT_BAD_INVOCATION
        assert "load.bogus" in err

    def test_non_numeric_parameter_is_malformed(self):
        code, _, _ = invoke("sweep", "--param", "wire.resistance_mode", "--from", "1", "--to", "2", "--steps", "2")
        assert code == EXIT_BAD_INVOCATION

    def test_zero_devices_is_malformed(self):
        code, _, _ = invoke("sweep", "--from", "0", "--to", "10", "--steps", "2")
        assert code == EXIT_BAD_INVOCATION

    @pytest.mark.parametrize("param", ["device_count", "converter.f_sw"])
    @pytest.mark.parametrize("start, stop", [("1", "1e400"), ("1", "inf"), ("nan", "10"), ("-inf", "inf")])
    def test_non_finite_bounds_are_malformed(self, param, start, stop, capsys):
        code = main(["sweep", "--param", param, f"--from={start}", f"--to={stop}", "--steps", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INVOCATION
        assert captured.out == ""
        bounds = f"[{float(start)!r}, {float(stop)!r}]"
        assert captured.err == f"error: bounds for {param!r} must be finite, got {bounds}\n"

    @pytest.mark.parametrize("param", ["device_count", "converter.f_sw"])
    @pytest.mark.parametrize("steps", ["1", "3"])
    def test_overflowing_span_is_malformed(self, param, steps, capsys):
        # Finite bounds whose difference overflows: the grid's first element is 0 * inf + start.
        code = main(["sweep", "--param", param, "--from=-1e308", "--to=1e308", "--steps", steps])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INVOCATION
        assert captured.out == ""
        assert captured.err == f"error: sweep span for {param!r} overflows: [-1e+308, 1e+308] gives non-finite values\n"


def reference_param_sweep_rows(config, path, values):
    """A parameter sweep's rows through the single-point path: validate, then evaluate_architecture."""
    rows = []
    for value in values:
        point = set_value(config, path, value)
        _require_valid(point)
        for arch in ARCHITECTURES:
            loss, thermal = evaluate_architecture(arch, point)
            rows.append(
                (value, arch.label, loss.transmission_loss, loss.converter_loss, loss.loss_at_cold_stage)
                + (thermal.q_total, thermal.cooling_power)
            )
    return rows


def sweep_outcome(sweep, config, path, values):
    """The rows with floats as ``float.hex``, or the type and message of what ``sweep`` raises."""
    try:
        rows = sweep(config, path, values)
    except Exception as exc:  # both paths must fail alike, whatever the error
        return type(exc), str(exc), getattr(exc, "code", None)
    return [tuple(cell.hex() if isinstance(cell, float) else cell for cell in row) for row in rows]


# Every numeric leaf a parameter sweep can move; a device-count sweep takes the other branch.
PARAM_SWEEP_PATHS = [
    path for path, kind in _FIELD_KINDS.items() if path != "load.device_count" and kind in ("a number", "an integer")
]


@st.composite
def param_sweeps(draw):
    """A valid config, a parameter path and sorted swept values, some past a bound that validate checks."""
    config = draw(st.one_of(st.just(default_config()), system_configs()))
    path = draw(st.sampled_from(PARAM_SWEEP_PATHS))
    leaf = get_value(config, path)
    if _FIELD_KINDS[path] == "an integer":
        values = st.one_of(st.integers(-2, 64), st.just(10**400))
    else:
        edges = [0.0, 1.0, 1e-170, 5e-324, 1e308, leaf, math.nextafter(leaf, -math.inf), math.nextafter(leaf, 1e308)]
        scaled = finite(-1.0, 3.0).map(lambda scale: scale * leaf)
        values = st.one_of(scaled, finite(-10.0, 10.0), st.sampled_from(edges))
    return config, path, sorted(draw(st.lists(values, min_size=1, max_size=4, unique=True)))


class TestParameterSweepRows:
    @given(param_sweeps())
    # Each sweeps the other side of a relation past it: a step fails a check that is not its field's own.
    @example((default_config(), "load.v_rx", [1.0, 30.0]))  # load.v_rx_hv is 20
    @example((default_config(), "converter.v_out", [3.3, 20.0]))  # converter.v_in is 12
    @example((default_config(), "cooling.t_cold", [4.0, 400.0]))  # cooling.t_ambient is 300
    @example((default_config(), "wire.resistance_cold", [12.0, 20.0]))  # wire.resistance_warm is 16
    def test_matches_single_point_path(self, sweep):
        # The CLI reads one cell evaluator per point on Python floats, and checks each step against
        # the checks that read the swept field; validate covers the scalar checks.
        config, path, values = sweep
        assert sweep_outcome(_sweep_rows, config, path, values) == sweep_outcome(
            reference_param_sweep_rows, config, path, values
        )


def reference_csv(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(cell) if isinstance(cell, float) else str(cell) for cell in row])
    return buffer.getvalue()


def reference_device_sweep(config, counts, output_format):
    """A device sweep document built from the library's sweep_loss, with json.dumps and csv."""
    result = sweep_loss(config, counts)
    if output_format == "json":
        payload = {
            "parameter": result.parameter,
            "points": [
                {
                    "value": point.value,
                    "architectures": [
                        {
                            "architecture": e.architecture.label,
                            "transmission_loss_w": e.loss.transmission_loss,
                            "converter_loss_w": e.loss.converter_loss,
                            "loss_at_cold_stage_w": e.loss.loss_at_cold_stage,
                            "q_total_w": e.thermal.q_total,
                            "cooling_power_w": e.thermal.cooling_power,
                        }
                        for e in point.evaluations
                    ],
                }
                for point in result.points
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    header = ["parameter", "value", "architecture", "transmission_loss_w", "q_total_w", "cooling_power_w"]
    rows = [
        [
            result.parameter,
            point.value,
            e.architecture.label,
            e.loss.transmission_loss,
            e.thermal.q_total,
            e.thermal.cooling_power,
        ]
        for point in result.points
        for e in point.evaluations
    ]
    return reference_csv(header, rows)


def reference_optimize(config, free, arch, resolution, couple, output_format):
    """An optimize document built from the library's optimize, with json.dumps and csv."""
    result = optimize(config, free, arch, resolution=resolution, couple_converter_input=couple)
    names = [name for name in FREE_PARAMETER_NAMES if name in result.parameters]
    if output_format == "json":
        payload = {
            "architecture": result.architecture.label,
            "objective": result.objective,
            "parameters": {name: result.parameters[name] for name in names},
            "cooling_power_w": result.objective_value,
            "evaluations": result.evaluations,
            "trace": [{"parameters": dict(params), "cooling_power_w": value} for params, value in result.trace],
        }
        return json.dumps(payload, indent=2) + "\n"
    row = [result.architecture.label] + [result.parameters[name] for name in names]
    row += [result.objective_value, result.evaluations]
    return reference_csv(["architecture"] + names + ["cooling_power_w", "evaluations"], [row])


# Configs whose documents carry negative zeros, overflowed cooling and a converter on the coil link.
GRID_CONFIGS = {
    "default": "",
    "negative_zero_load": "load.power_per_device = -0.0\nconverter.attach_hv_nonradiative = true\n",
    "overflowing_load": "load.power_per_device = 5e151\n",
    "hv_coil_converter": "converter.attach_hv_nonradiative = true\nwire.resistance_mode = mean\n",
}


class TestGridDocuments:
    """The CLI's NumPy-free grid path writes the documents the library's kernel results give."""

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    @pytest.mark.parametrize("name", GRID_CONFIGS)
    def test_device_sweep_matches_library(self, name, output_format, tmp_path):
        path = tmp_path / "system.cfg"
        path.write_text(GRID_CONFIGS[name])
        argv = ["sweep", "--from", "1", "--to", "300", "--steps", "41", "--config", str(path)]
        code, out, err = invoke(*argv, "--format", output_format)
        assert (code, err) == (EXIT_OK, "")
        counts = sorted({int(round(1 + i * (299 / 40))) for i in range(41)})
        assert out == reference_device_sweep(parse_config(GRID_CONFIGS[name]), counts, output_format)

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    @pytest.mark.parametrize("couple", [True, False])
    @pytest.mark.parametrize("arch", ["hv_wired", "hv_non_radiative"])
    @pytest.mark.parametrize("name", GRID_CONFIGS)
    def test_optimize_matches_library(self, name, arch, couple, output_format, tmp_path):
        path = tmp_path / "system.cfg"
        path.write_text(GRID_CONFIGS[name])
        argv = ["optimize", "--arch", arch, "--free", "v_rx_hv", "2", "80", "--free", "wire_count", "1", "4"]
        argv += ["--resolution", "25", "--config", str(path), "--format", output_format]
        if not couple:
            argv.append("--no-converter-coupling")
        code, out, err = invoke(*argv)
        assert (code, err) == (EXIT_OK, "")
        free = {"v_rx_hv": (2.0, 80.0), "wire_count": (1.0, 4.0)}
        config = parse_config(GRID_CONFIGS[name])
        expected = reference_optimize(config, free, ArchitectureKind.from_label(arch), 25, couple, output_format)
        assert out == expected


SWEEP_KEYS = (
    "architecture",
    "transmission_loss_w",
    "converter_loss_w",
    "loss_at_cold_stage_w",
    "q_total_w",
    "cooling_power_w",
)

json_leaves = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2e-308, 1e308, -1e-308, 1.7976931348623157e308]),
    st.integers(-(2**80), 2**80),
    st.sampled_from([2**53 + 1, -(2**63), 2**64]),
    st.text(),
)


class TestJsonWriter:
    @given(
        st.one_of(st.text(), st.just("device_count")),
        st.lists(
            st.tuples(st.one_of(st.integers(1, 2**64), st.floats()), st.text(), *[json_leaves] * 5),
            min_size=1,
            max_size=4,
        ),
    )
    def test_sweep_document_matches_json_dumps(self, parameter, points):
        # Five rows per swept value, as the sweep writes them.
        rows = [(value, label, *fields) for value, label, *fields in points for _ in range(5)]
        payload = {
            "parameter": parameter,
            "points": [
                {
                    "value": rows[start][0],
                    "architectures": [
                        dict(zip(SWEEP_KEYS, row[1:]))
                        for row in rows[start : start + 5]
                    ],
                }
                for start in range(0, len(rows), 5)
            ],
        }
        assert _sweep_json(parameter, rows) == json.dumps(payload, indent=2) + "\n"


csv_floats = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]),
)


class TestCsvWriter:
    @given(
        st.sampled_from(["device_count", *PARAM_SWEEP_PATHS]),
        st.lists(
            st.tuples(
                st.one_of(st.integers(-(2**80), 2**80), st.sampled_from([2**53 + 1, 2**64]), csv_floats),
                st.sampled_from(ARCH_LABELS),
                *[csv_floats] * 5,
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_sweep_csv_matches_csv_writer(self, parameter, rows):
        header = ["parameter", "value", "architecture", "transmission_loss_w", "q_total_w", "cooling_power_w"]
        expected = reference_csv(header, [(parameter, v, label, t, q, c) for v, label, t, _, _, q, c in rows])
        assert _sweep_csv(parameter, rows) == expected


class TestOptimizeSubcommand:
    def test_single_free_parameter(self):
        code, out, _ = invoke(
            "optimize", "--arch", "hv_wired", "--free", "v_rx_hv", "2", "200", "--resolution", "100"
        )
        assert code == EXIT_OK
        (row,) = read_csv(out)
        assert 20.0 < float(row["v_rx_hv"]) < 40.0
        assert int(row["evaluations"]) >= 100

    def test_json_matches_csv_values(self):
        args = ("optimize", "--arch", "hv_wired", "--free", "v_rx_hv", "2", "60", "--resolution", "50")
        _, csv_out, _ = invoke(*args)
        _, json_out, _ = invoke(*args, "--format", "json")
        (row,) = read_csv(csv_out)
        payload = json.loads(json_out)
        assert float(row["v_rx_hv"]) == payload["parameters"]["v_rx_hv"]
        assert float(row["cooling_power_w"]) == payload["cooling_power_w"]
        assert int(row["evaluations"]) == payload["evaluations"]
        assert payload["trace"][-1]["cooling_power_w"] == payload["cooling_power_w"]

    def test_two_free_parameters(self):
        _, out, _ = invoke(
            "optimize",
            "--arch",
            "hv_wired",
            "--free",
            "v_rx_hv",
            "2",
            "100",
            "--free",
            "wire_count",
            "1",
            "8",
            "--resolution",
            "50",
        )
        (row,) = read_csv(out)
        assert row["wire_count"] == "1"

    def test_unknown_free_parameter(self):
        code, _, err = invoke("optimize", "--arch", "wired", "--free", "magic", "0", "1")
        assert code == EXIT_BAD_INVOCATION
        assert "magic" in err

    @pytest.mark.parametrize("hi", ["9.3e18", "1e30"])
    def test_unsampleable_wire_count_bound(self, hi, capsys):
        code = main(["optimize", "--arch", "wired", "--free", "wire_count", "1", hi, "--resolution", "50"])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INVOCATION
        assert captured.out == ""
        assert captured.err.startswith("error: wire_count upper bound")
        assert repr(float(hi)) in captured.err

    @pytest.mark.parametrize("resolution", ["10", "300"])
    def test_all_infinite_grid_is_malformed(self, resolution, tmp_path, capsys):
        path = tmp_path / "system.cfg"
        path.write_text("load.v_rx = 1e-160\n")
        free = ["--free", "v_rx_hv", "1e-160", "1e-150"]
        code = main(["optimize", "--config", str(path), "--arch", "wired", *free, "--resolution", resolution])
        captured = capsys.readouterr()
        assert code == EXIT_BAD_INVOCATION
        assert captured.out == ""
        assert captured.err == "error: wired: every grid cell's cooling power is inf or NaN\n"

    def test_duplicate_free_parameter(self):
        code, _, err = invoke(
            "optimize", "--arch", "wired", "--free", "wire_count", "1", "5", "--free", "wire_count", "1", "9"
        )
        assert code == EXIT_BAD_INVOCATION
        assert "twice" in err

    def test_inverted_bounds(self):
        code, _, _ = invoke("optimize", "--arch", "hv_wired", "--free", "v_rx_hv", "50", "2")
        assert code == EXIT_BAD_INVOCATION

    def test_no_converter_coupling_flag(self):
        _, out, _ = invoke(
            "optimize",
            "--arch",
            "hv_wired",
            "--free",
            "v_rx_hv",
            "2",
            "20",
            "--resolution",
            "50",
            "--no-converter-coupling",
        )
        (row,) = read_csv(out)
        # with a fixed converter spec the HV loss is monotone in the rail voltage
        assert float(row["v_rx_hv"]) == 20.0


class TestExitCodes:
    def test_unknown_key_in_config(self, tmp_path, capsys):
        path = tmp_path / "typo.cfg"
        path.write_text("wire.resistanse_warm = 16\n")
        assert main(["evaluate", "--arch", "wired", "--config", str(path)]) == EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        assert "wire.resistanse_warm" in captured.err
        assert captured.out == ""

    def test_number_that_is_not_plain_ascii(self, tmp_path, capsys):
        path = tmp_path / "underscore.cfg"
        path.write_text("load.v_rx = 1_0.5\n", encoding="utf-8")
        assert main(["evaluate", "--arch", "wired", "--config", str(path)]) == EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "error: config error: load.v_rx: invalid value '1_0.5' (expected a plain ASCII number)\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            # Not plain ASCII: int() and float() take these, the config-file rule does not.
            (["evaluate", "--arch", "wired", "--devices", "1_000"], "argument --devices: expected an integer, got '1_000'"),
            (["evaluate", "--arch", "wired", "--devices", "١٢"], "argument --devices: expected an integer, got '١٢'"),
            (["compare", "--budget", "1_0"], "argument --budget: expected a number, got '1_0'"),
            (["compare", "--devices", "2_00"], "argument --devices: expected an integer, got '2_00'"),
            (["sweep", "--from", "1", "--to", "1_0", "--steps", "3"], "argument --to: invalid float value: '1_0'"),
            (["sweep", "--from", "1", "--to", "10", "--steps", "3_0"], "argument --steps: expected an integer, got '3_0'"),
            # Text that was already rejected keeps its message.
            (["sweep", "--from", "x", "--to", "10", "--steps", "3"], "argument --from: invalid float value: 'x'"),
            (["evaluate", "--arch", "wired", "--devices", "x"], "argument --devices: expected an integer, got 'x'"),
            (["compare", "--budget", "inf"], "argument --budget: expected a finite number, got 'inf'"),
            # A negative number in exponent form is a value, not an option, and follows the same rule.
            (["compare", "--budget", "-1e3"], "argument --budget: expected a value > 0, got '-1e3'"),
            (["sweep", "--from", "-1_0", "--to", "10", "--steps", "3"], "argument --from: invalid float value: '-1_0'"),
            (["evaluate", "--arch", "wired", "--devices", "-1e3"], "argument --devices: expected an integer, got '-1e3'"),
            # So is a negative non-finite number, in any case.
            (["compare", "--budget", "-inf"], "argument --budget: expected a finite number, got '-inf'"),
            (["compare", "--budget", "-Infinity"], "argument --budget: expected a finite number, got '-Infinity'"),
            (["compare", "--budget", "-NaN"], "argument --budget: expected a finite number, got '-NaN'"),
            (["evaluate", "--arch", "wired", "--devices", "-inf"], "argument --devices: expected an integer, got '-inf'"),
            (["evaluate", "--arch", "wired", "--devices", "-1"], "argument --devices: expected a value >= 0, got '-1'"),
        ],
    )
    def test_rejected_command_line_number(self, capsys, argv, message):
        assert main(argv) == EXIT_BAD_INVOCATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == usage_error(argv[0], message)

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["optimize", "--arch", "hv_wired", "--free", "v_rx_hv", "2", "2_0"], EXIT_BAD_INVOCATION,
             "invalid bounds for 'v_rx_hv': expected a plain ASCII number"),
            (["optimize", "--arch", "hv_wired", "--free", "v_rx_hv", "2", "x"], EXIT_BAD_INVOCATION,
             "invalid bounds for 'v_rx_hv': could not convert string to float: 'x'"),
            (["optimize", "--arch", "hv_wired", "--free", "v_rx_hv", "-1e0", "2"], EXIT_BAD_INVOCATION,
             "v_rx_hv lower bound must be >= load.v_rx (2.0), got -1.0"),
            (["optimize", "--arch", "hv_wired", "--free", "v_rx_hv", "-1", "2"], EXIT_BAD_INVOCATION,
             "v_rx_hv lower bound must be >= load.v_rx (2.0), got -1.0"),
            (["sweep", "--param", "load.v_rx", "--from", "-1e3", "--to", "2", "--steps", "3"], EXIT_INVALID_CONFIG,
             "config invalid: load.v_rx: must be > 0, got -1000.0"),
            (["sweep", "--param", "load.v_rx", "--from", "-1000", "--to", "2", "--steps", "3"], EXIT_INVALID_CONFIG,
             "config invalid: load.v_rx: must be > 0, got -1000.0"),
            (["sweep", "--param", "load.v_rx", "--from", "-inf", "--to", "2", "--steps", "3"], EXIT_BAD_INVOCATION,
             "bounds for 'load.v_rx' must be finite, got [-inf, 2.0]"),
            (["sweep", "--param", "load.v_rx", "--from", "-nan", "--to", "2", "--steps", "3"], EXIT_BAD_INVOCATION,
             "bounds for 'load.v_rx' must be finite, got [nan, 2.0]"),
            (["optimize", "--arch", "hv_wired", "--free", "v_rx_hv", "-inf", "2"], EXIT_BAD_INVOCATION,
             "bounds for 'v_rx_hv' must be finite, got [-inf, 2.0]"),
            (["optimize", "--arch", "hv_wired", "--free", "v_rx_hv", "-INF", "2"], EXIT_BAD_INVOCATION,
             "bounds for 'v_rx_hv' must be finite, got [-inf, 2.0]"),
            # An integer past float range is not finite either.
            pytest.param(["compare", "--devices", str(10**400)], EXIT_BAD_INVOCATION,
                         f"operating_device_count must be finite, got {10**400}",
                         id="compare_devices_past_float_range"),
            pytest.param(["sweep", "--from", "1", "--to", "5", "--steps", str(10**400)], EXIT_BAD_INVOCATION,
                         f"--steps must be finite, got {10**400}", id="device_sweep_steps_past_float_range"),
            pytest.param(["sweep", "--param", "converter.f_sw", "--from", "1", "--to", "5", "--steps", str(10**400)],
                         EXIT_BAD_INVOCATION, f"--steps must be finite, got {10**400}",
                         id="parameter_sweep_steps_past_float_range"),
            pytest.param(["optimize", "--arch", "hv_wired", "--free", "v_rx_hv", "2", "200",
                          "--resolution", str(10**400)], EXIT_BAD_INVOCATION,
                         f"resolution must be finite, got {10**400}", id="optimize_resolution_past_float_range"),
            pytest.param(["optimize", "--arch", "wired", "--free", "wire_count", "1", "10",
                          "--resolution", str(10**400)], EXIT_BAD_INVOCATION,
                         f"resolution must be finite, got {10**400}",
                         id="wire_count_optimize_resolution_past_float_range"),
            # A library ValueError raised inside optimize.
            (["optimize", "--arch", "wired", "--free", "wire_count", "1.2", "1.8"], EXIT_BAD_INVOCATION,
             "empty wire_count range [1.2, 1.8]"),
        ],
    )
    def test_command_line_bound_reaches_its_check(self, capsys, argv, code, message):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_compare_on_a_config_without_devices(self, tmp_path, capsys):
        path = tmp_path / "no_devices.cfg"
        path.write_text("load.device_count = 0\n")
        assert main(["compare", "--config", str(path)]) == EXIT_BAD_INVOCATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: compare needs a device count >= 1, got 0\n"

    def test_invariant_violation_in_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("coupling.eta_coup_coil = 0\n")
        assert main(["evaluate", "--arch", "wired", "--config", str(path)]) == EXIT_INVALID_CONFIG
        assert "coupling.eta_coup_coil" in capsys.readouterr().err

    def test_invalid_fields_in_several_sections(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "wire.resistance_warm = -inf\n"
            "wire.wire_count = 0\n"
            "load.device_count = -1\n"
            "load.v_rx_hv = 1.5\n"
            "coupling.eta_coup_coil = 1.5\n"
            "converter.v_out = 0\n"
            "converter.v_in = -1\n"
            "converter.duty = 1\n"
            "cooling.t_cold = 300\n"
            "cooling.t_ambient = 4\n"
            "noise.s_white = nan\n"
        )
        assert main(["evaluate", "--config", str(path), "--arch", "wired"]) == EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: config invalid: wire.resistance_warm: must be finite, got -inf\n"
            "config invalid: wire.resistance_warm: must be >= wire.resistance_cold (12.0), got -inf\n"
            "config invalid: wire.wire_count: must be >= 1, got 0\n"
            "config invalid: load.device_count: must be >= 0, got -1\n"
            "config invalid: load.v_rx_hv: must be >= load.v_rx (2.0), got 1.5\n"
            "config invalid: coupling.eta_coup_coil: must be in (0, 1], got 1.5\n"
            "config invalid: converter.v_out: must be > 0, got 0.0\n"
            "config invalid: converter.v_in: must be > converter.v_out (0.0), got -1.0\n"
            "config invalid: converter.duty: must be in (0, 1), got 1.0\n"
            "config invalid: cooling.t_ambient: must be > cooling.t_cold (300.0), got 4.0\n"
            "config invalid: noise.s_white: must be finite, got nan\n"
        )

    @pytest.mark.parametrize("subcommand", [["evaluate", "--arch", "wired"], ["compare"]])
    @pytest.mark.parametrize("path", ["load.device_count", "wire.wire_count"])
    def test_integer_past_float_range_is_invalid(self, tmp_path, capsys, subcommand, path):
        digits = "9" * 400
        config = tmp_path / "huge.cfg"
        config.write_text(f"{path} = {digits}\n")
        assert main([*subcommand, "--config", str(config)]) == EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config invalid: {path}: must be finite, got {digits}\n"

    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
    def test_non_finite_budget_is_malformed(self, budget, capsys):
        assert main(["compare", f"--budget={budget}"]) == EXIT_BAD_INVOCATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --budget: expected a finite number, got '{budget}'" in captured.err

    @pytest.mark.parametrize(
        "subcommand",
        [
            ["evaluate", "--arch", "{arch}"],
            ["compare"],
            ["compare", "--budget", "1.0"],
            ["sweep", "--from", "1", "--to", "10", "--steps", "3"],
            ["sweep", "--param", "converter.f_sw", "--from", "1e5", "--to", "2e6", "--steps", "3"],
            ["optimize", "--arch", "{arch}", "--free", "wire_count", "1", "4"],
            ["optimize", "--arch", "{arch}", "--free", "wire_count", "1", "400"],
        ],
    )
    @pytest.mark.parametrize(
        "text, arch",
        [
            ("load.v_rx = 1e-170\n", "wired"),  # the rail's square underflows to 0.0
            ("cooling.eta_c = 5e-324\n", "hv_wired"),  # the COP underflows to 0.0
            ("coupling.eta_rad_r = 1e-200\ncoupling.eta_coup_ant = 1e-200\n", "radiative"),  # the link's product
        ],
    )
    def test_valid_config_that_divides_by_zero(self, tmp_path, capsys, subcommand, text, arch):
        path = tmp_path / "underflow.cfg"
        path.write_text(text)
        argv = [part.format(arch=arch) for part in subcommand]
        assert main([*argv, "--config", str(path)]) == EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: configuration cannot be evaluated: float division by zero\n"

    def test_missing_config_file(self, tmp_path):
        code, _, err = invoke("evaluate", "--arch", "wired", "--config", str(tmp_path / "nope.cfg"))
        assert code == EXIT_IO_ERROR
        assert "cannot read" in err

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"load.v_rx = 2.0 # caf\xe9\n")
        assert main(["evaluate", "--arch", "wired", "--config", str(path)]) == EXIT_IO_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot read config file: 'utf-8' codec can't decode byte 0xe9 in position 21: "
            "invalid continuation byte\n"
        )

    def test_malformed_invocations(self, capsys):
        assert main([]) == EXIT_BAD_INVOCATION
        capsys.readouterr()
        assert main(["explode"]) == EXIT_BAD_INVOCATION
        capsys.readouterr()
        assert main(["evaluate", "--arch", "psychic"]) == EXIT_BAD_INVOCATION
        capsys.readouterr()
        assert main(["evaluate"]) == EXIT_BAD_INVOCATION  # missing --arch
        capsys.readouterr()
        assert main(["compare", "--budget", "-1"]) == EXIT_BAD_INVOCATION
        capsys.readouterr()
        assert main(["compare", "--devices", "0"]) == EXIT_BAD_INVOCATION
        capsys.readouterr()

    def test_success_exit(self, capsys):
        assert main(["evaluate", "--arch", "wired"]) == EXIT_OK
        assert "transmission_loss_w" in capsys.readouterr().out


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("defaults",),
            ("evaluate", "--arch", "hv_wired"),
            ("evaluate", "--arch", "non_radiative", "--format", "json"),
            ("compare", "--devices", "200", "--budget", "1.0"),
            ("sweep", "--from", "1", "--to", "500", "--steps", "7"),
            ("optimize", "--arch", "hv_wired", "--free", "v_rx_hv", "2", "100", "--resolution", "60"),
        ],
    )
    def test_byte_identical_reruns(self, args):
        assert invoke(*args) == invoke(*args)


class TestConfigRoundTripThroughCli:
    def test_defaults_piped_back_match_in_process(self, tmp_path):
        _, text, _ = invoke("defaults")
        path = tmp_path / "roundtrip.cfg"
        path.write_text(text)
        _, out, _ = invoke("evaluate", "--arch", "non_radiative", "--config", str(path), "--format", "json")
        payload = json.loads(out)
        evaluation = evaluate_architecture(ArchitectureKind.NON_RADIATIVE, default_config())
        assert payload["loss"]["transmission_loss_w"] == evaluation.loss.transmission_loss
        assert payload["thermal"]["q_total_w"] == evaluation.thermal.q_total
        assert payload["thermal"]["cooling_power_w"] == evaluation.thermal.cooling_power

    def test_config_values_drive_results(self, tmp_path):
        path = tmp_path / "cold.cfg"
        path.write_text("wire.resistance_mode = cold\n")
        _, out, _ = invoke("evaluate", "--arch", "wired", "--config", str(path), "--devices", "200")
        (row,) = read_csv(out)
        assert row["transmission_loss_w"] == "3.0"


_COLD_PATH_SCRIPT = """
import sys

if "numpy" in sys.modules:
    sys.exit(77)  # the interpreter preloads numpy; nothing to check
import cryopower
from cryopower import cli

for argv in (
    ["defaults"],
    ["evaluate", "--arch", "hv_wired"],
    ["evaluate", "--arch", "hv_wired", "--format", "json"],
    ["sweep", "--param", "converter.f_sw", "--from", "1e5", "--to", "2e6", "--steps", "4"],
    ["sweep", "--param", "converter.f_sw", "--from", "1e5", "--to", "2e6", "--steps", "4", "--format", "json"],
    ["sweep", "--from", "1", "--to", "500", "--steps", "7"],
    ["sweep", "--from", "1", "--to", "500", "--steps", "7", "--format", "json"],
):
    assert cli.main(argv) == 0, argv
assert "cryopower.compare" not in sys.modules, "compare loaded by a subcommand that does not read it"
for argv in (
    ["compare", "--devices", "200", "--budget", "1.0"],
    ["optimize", "--arch", "hv_wired", "--free", "v_rx_hv", "2", "100", "--resolution", "60"],
    ["optimize", "--arch", "hv_wired", "--free", "v_rx_hv", "2", "100", "--free", "wire_count", "1", "4",
     "--resolution", "50", "--format", "json"],
):
    assert cli.main(argv) == 0, argv
assert "cryopower.compare" in sys.modules, "compare and optimize ran without cryopower.compare"
assert "numpy" not in sys.modules, "numpy loaded by a CLI subcommand"
"""

_EXPORTS_SCRIPT = """
import sys

import cryopower

loaded = sorted(name for name in sys.modules if name.startswith("cryopower."))
assert not loaded, f"import cryopower loaded {loaded}"
missing = set(cryopower.__all__) - set(dir(cryopower))
assert not missing, f"dir(cryopower) misses {sorted(missing)}"
namespace = {}
exec("from cryopower import *", namespace)
unbound = [name for name in cryopower.__all__ if namespace.get(name) is not getattr(cryopower, name)]
assert not unbound, f"from cryopower import * does not bind {unbound}"
try:
    cryopower.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'cryopower' has no attribute 'no_such_name'", str(exc)
else:
    raise AssertionError("cryopower.no_such_name did not raise AttributeError")
"""


def run_fresh_interpreter(script: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)


class TestColdPath:
    # This process has loaded numpy and every module already, so the checks run in a fresh interpreter.
    def test_point_subcommands_never_load_numpy(self):
        # Only compare and optimize load cryopower.compare; no subcommand loads numpy.
        proc = run_fresh_interpreter(_COLD_PATH_SCRIPT)
        if proc.returncode == 77:
            pytest.skip("the interpreter loads numpy at start-up")
        assert proc.returncode == 0, proc.stderr

    def test_package_names_resolve_on_first_use(self):
        # import cryopower loads no submodule; dir, star import and attribute errors still see every name.
        proc = run_fresh_interpreter(_EXPORTS_SCRIPT)
        assert proc.returncode == 0, proc.stderr
