"""CLI behavior: emission formats, exit codes, determinism, config round-trip."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cryopower.cli import (
    EXIT_BAD_INVOCATION,
    EXIT_INVALID_CONFIG,
    EXIT_IO_ERROR,
    EXIT_OK,
    main,
    parse_invocation,
    run,
)
from cryopower.compare import evaluate_architecture
from cryopower.configio import parse_config, serialize_config
from cryopower.model import ArchitectureKind, default_config


def invoke(*args: str) -> tuple[int, str, str]:
    return run(parse_invocation(list(args)))


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

    def test_invariant_violation_in_config(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("coupling.eta_coup_coil = 0\n")
        assert main(["evaluate", "--arch", "wired", "--config", str(path)]) == EXIT_INVALID_CONFIG
        assert "coupling.eta_coup_coil" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code, _, err = invoke("evaluate", "--arch", "wired", "--config", str(tmp_path / "nope.cfg"))
        assert code == EXIT_IO_ERROR
        assert "cannot read" in err

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
    ["compare", "--devices", "200", "--budget", "1.0"],
    ["sweep", "--param", "converter.f_sw", "--from", "1e5", "--to", "2e6", "--steps", "4"],
):
    assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy loaded on the cold path"
assert cli.main(["sweep", "--from", "1", "--to", "500", "--steps", "7"]) == 0
assert cli.main(["optimize", "--arch", "hv_wired", "--free", "v_rx_hv", "2", "100", "--resolution", "60"]) == 0
"""


class TestColdPath:
    def test_point_subcommands_never_load_numpy(self):
        # This process has loaded numpy already, so the check runs in a fresh interpreter.
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_PATH_SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        if proc.returncode == 77:
            pytest.skip("the interpreter loads numpy at start-up")
        assert proc.returncode == 0, proc.stderr
