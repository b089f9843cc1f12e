"""Command-line interface: evaluate, sweep, compare, optimize, defaults.

Reads an optional config file (strict ``section.field = value`` format),
applies command-line overrides, and emits deterministic CSV or JSON on
stdout. Diagnostics go to stderr. Exit codes: 0 success, 1 invalid
configuration, 2 malformed invocation, 3 I/O failure. No environment
variables are consulted; a run is reproducible from its invocation and
config file alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Mapping

from .compare import (
    FREE_PARAMETER_NAMES,
    ArchitectureEvaluation,
    _linspace,
    evaluate_architecture,
    devices_under_budget,
    optimize,
    scorecard,
    sweep_loss,
)
from .configio import ConfigError, config_paths, parse_config, serialize_config, set_value
from .model import ARCHITECTURES, ArchitectureKind, SystemConfig, default_config, validate
from .noise import white_floor_ratio

EXIT_OK = 0
EXIT_INVALID_CONFIG = 1
EXIT_BAD_INVOCATION = 2
EXIT_IO_ERROR = 3

ARCH_LABELS = tuple(arch.label for arch in ARCHITECTURES)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class CliInvocation:
    """A fully parsed command line: subcommand plus its options."""

    subcommand: str
    config_path: str | None
    output_format: str
    options: Mapping[str, Any]


def _fmt(value: Any) -> str:
    # Shortest round-trip decimal representation for floats.
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_document(header: list[str], rows: list[list[Any]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    return buffer.getvalue()


def _json_document(payload: Any) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a value > 0, got {text!r}")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a value >= 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = _nonneg_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a value >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="system configuration file")
    common.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        dest="output_format",
        help="output document format (default: csv)",
    )

    parser = argparse.ArgumentParser(
        prog="cryopower",
        description="Compare and optimize power-delivery architectures for cryogenic systems.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("defaults", help="print the default configuration as a config file")

    p_eval = sub.add_parser("evaluate", parents=[common], help="evaluate one architecture")
    p_eval.add_argument("--arch", required=True, choices=ARCH_LABELS)
    p_eval.add_argument("--devices", type=_nonneg_int, help="override load.device_count")

    p_sweep = sub.add_parser("sweep", parents=[common], help="sweep a parameter over a range")
    p_sweep.add_argument(
        "--param",
        default="device_count",
        help="parameter to sweep: device_count or a dotted config path (default: device_count)",
    )
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=_positive_int, required=True)

    p_cmp = sub.add_parser("compare", parents=[common], help="tabulate all architectures")
    p_cmp.add_argument("--devices", type=_positive_int, help="operating device count")
    p_cmp.add_argument(
        "--budget",
        type=_positive_float,
        help="total power budget in watts; adds a devices_under_budget column",
    )

    p_opt = sub.add_parser("optimize", parents=[common], help="search the design space")
    p_opt.add_argument("--arch", required=True, choices=ARCH_LABELS)
    p_opt.add_argument(
        "--free",
        nargs=3,
        action="append",
        metavar=("NAME", "LO", "HI"),
        required=True,
        help=f"free parameter and bounds; NAME is one of {FREE_PARAMETER_NAMES}",
    )
    p_opt.add_argument("--resolution", type=_positive_int, default=1000)
    p_opt.add_argument(
        "--no-converter-coupling",
        action="store_true",
        help="do not tie converter.v_in to v_rx_hv while optimizing",
    )
    return parser


def parse_invocation(argv: list[str] | None = None) -> CliInvocation:
    namespace = build_parser().parse_args(argv)
    options = vars(namespace).copy()
    subcommand = options.pop("subcommand")
    config_path = options.pop("config", None)
    output_format = options.pop("output_format", "csv")
    return CliInvocation(
        subcommand=subcommand,
        config_path=config_path,
        output_format=output_format,
        options=options,
    )


def _load_config(invocation: CliInvocation) -> SystemConfig:
    if invocation.config_path is None:
        config = default_config()
    else:
        try:
            with open(invocation.config_path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise CliError(f"cannot read config file: {exc}", EXIT_IO_ERROR) from exc
        try:
            config = parse_config(text)
        except ConfigError as exc:
            raise CliError(f"config error: {exc}", EXIT_INVALID_CONFIG) from exc
    _require_valid(config)
    return config


def _require_valid(config: SystemConfig) -> None:
    result = validate(config)
    if not result.ok:
        lines = "\n".join(f"config invalid: {violation}" for violation in result.violations)
        raise CliError(lines, EXIT_INVALID_CONFIG)


def _evaluation_fields(evaluation: ArchitectureEvaluation) -> dict[str, Any]:
    loss, thermal = evaluation.loss, evaluation.thermal
    return {
        "delivered_power_w": loss.delivered_power,
        "transmission_loss_w": loss.transmission_loss,
        "converter_loss_w": loss.converter_loss,
        "loss_at_cold_stage_w": loss.loss_at_cold_stage,
        "p_load_w": thermal.p_load,
        "q_ambient_w": thermal.q_ambient,
        "q_electronics_w": thermal.q_electronics,
        "q_total_w": thermal.q_total,
        "cop": thermal.cop,
        "cooling_power_w": thermal.cooling_power,
    }


def _run_evaluate(invocation: CliInvocation) -> str:
    config = _load_config(invocation)
    if invocation.options.get("devices") is not None:
        config = set_value(config, "load.device_count", invocation.options["devices"])
        _require_valid(config)
    arch = ArchitectureKind.from_label(invocation.options["arch"])
    evaluation = evaluate_architecture(arch, config)
    fields = _evaluation_fields(evaluation)
    noise_ratio = white_floor_ratio(arch, config)
    if invocation.output_format == "json":
        payload = {
            "architecture": arch.label,
            "device_count": config.load.device_count,
            "loss": {
                "delivered_power_w": fields["delivered_power_w"],
                "transmission_loss_w": fields["transmission_loss_w"],
                "converter_loss_w": fields["converter_loss_w"],
                "loss_at_cold_stage_w": fields["loss_at_cold_stage_w"],
            },
            "thermal": {
                "p_load_w": fields["p_load_w"],
                "p_loss_cold_w": fields["loss_at_cold_stage_w"],
                "q_ambient_w": fields["q_ambient_w"],
                "q_electronics_w": fields["q_electronics_w"],
                "q_total_w": fields["q_total_w"],
                "cop": fields["cop"],
                "cooling_power_w": fields["cooling_power_w"],
            },
            "noise_floor_ratio": noise_ratio,
        }
        return _json_document(payload)
    header = ["architecture", "device_count"] + list(fields) + ["noise_floor_ratio"]
    row = [arch.label, config.load.device_count] + list(fields.values()) + [noise_ratio]
    return _csv_document(header, [row])


def _sweep_values(config: SystemConfig, param: str, start: float, stop: float, steps: int):
    path = "load.device_count" if param == "device_count" else param
    if path not in config_paths():
        raise CliError(f"unknown sweep parameter: {param!r}", EXIT_BAD_INVOCATION)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise CliError(f"bounds for {param!r} must be finite, got [{start!r}, {stop!r}]", EXIT_BAD_INVOCATION)
    if stop < start:
        raise CliError(f"sweep range is inverted: from {start!r} to {stop!r}", EXIT_BAD_INVOCATION)
    from .configio import get_value

    leaf = get_value(config, path)
    if isinstance(leaf, bool) or isinstance(leaf, str):
        raise CliError(f"sweep parameter must be numeric: {param!r}", EXIT_BAD_INVOCATION)
    raw = _linspace(start, stop, steps)
    if isinstance(leaf, int):
        values: list[Any] = sorted(set(int(round(x)) for x in raw))
    else:
        values = sorted(set(raw))
    if not values:
        raise CliError("sweep produced no values", EXIT_BAD_INVOCATION)
    return path, values


def _run_sweep(invocation: CliInvocation) -> str:
    config = _load_config(invocation)
    options = invocation.options
    path, values = _sweep_values(
        config, options["param"], options["start"], options["stop"], options["steps"]
    )

    if path == "load.device_count":
        if values[0] < 1:
            raise CliError(
                f"device_count sweep must start at >= 1, got {values[0]}", EXIT_BAD_INVOCATION
            )
        result = sweep_loss(config, values)
        points = [(point.value, point.evaluations) for point in result.points]
        parameter = result.parameter
    else:
        parameter = path
        points = []
        for value in values:
            point_config = set_value(config, path, value)
            _require_valid(point_config)
            points.append(
                (value, tuple(evaluate_architecture(arch, point_config) for arch in ARCHITECTURES))
            )

    if invocation.output_format == "json":
        payload = {
            "parameter": parameter,
            "points": [
                {
                    "value": value,
                    "architectures": [
                        {
                            "architecture": evaluation.architecture.label,
                            "transmission_loss_w": evaluation.loss.transmission_loss,
                            "converter_loss_w": evaluation.loss.converter_loss,
                            "loss_at_cold_stage_w": evaluation.loss.loss_at_cold_stage,
                            "q_total_w": evaluation.thermal.q_total,
                            "cooling_power_w": evaluation.thermal.cooling_power,
                        }
                        for evaluation in evaluations
                    ],
                }
                for value, evaluations in points
            ],
        }
        return _json_document(payload)
    header = ["parameter", "value", "architecture", "transmission_loss_w", "q_total_w", "cooling_power_w"]
    rows = [
        [
            parameter,
            value,
            evaluation.architecture.label,
            evaluation.loss.transmission_loss,
            evaluation.thermal.q_total,
            evaluation.thermal.cooling_power,
        ]
        for value, evaluations in points
        for evaluation in evaluations
    ]
    return _csv_document(header, rows)


def _run_compare(invocation: CliInvocation) -> str:
    config = _load_config(invocation)
    devices = invocation.options.get("devices") or config.load.device_count
    if devices < 1:
        raise CliError(f"compare needs a device count >= 1, got {devices}", EXIT_BAD_INVOCATION)
    budget = invocation.options.get("budget")
    report = scorecard(config, devices)
    counts = None
    if budget is not None:
        try:
            counts = {arch: devices_under_budget(arch, config, budget) for arch in ARCHITECTURES}
        except ValueError as exc:
            raise CliError(str(exc), EXIT_BAD_INVOCATION) from exc
    rows = []
    for row in report.rows:
        entry: dict[str, Any] = {
            "architecture": row.architecture.label,
            "transmission_loss_w": row.transmission_loss,
            "cold_stage_heat_w": row.cold_stage_heat,
            "cooling_power_w": row.cooling_power,
            "noise_floor_ratio": row.noise_floor_ratio,
            "power_density": row.power_density,
            "reliability": row.reliability,
        }
        if counts is not None:
            entry["devices_under_budget"] = counts[row.architecture]
        rows.append(entry)
    if invocation.output_format == "json":
        payload: dict[str, Any] = {"device_count": report.device_count, "rows": rows}
        if budget is not None:
            payload["budget_w"] = budget
        return _json_document(payload)
    return _csv_document(list(rows[0]), [list(entry.values()) for entry in rows])


def _run_optimize(invocation: CliInvocation) -> str:
    config = _load_config(invocation)
    arch = ArchitectureKind.from_label(invocation.options["arch"])
    free: dict[str, tuple[float, float]] = {}
    for name, lo_text, hi_text in invocation.options["free"]:
        if name in free:
            raise CliError(f"free parameter {name!r} given twice", EXIT_BAD_INVOCATION)
        try:
            lo, hi = float(lo_text), float(hi_text)
        except ValueError as exc:
            raise CliError(f"invalid bounds for {name!r}: {exc}", EXIT_BAD_INVOCATION) from exc
        free[name] = (lo, hi)
    try:
        result = optimize(
            config,
            free,
            arch,
            resolution=invocation.options["resolution"],
            couple_converter_input=not invocation.options["no_converter_coupling"],
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INVOCATION) from exc
    param_names = [name for name in FREE_PARAMETER_NAMES if name in result.parameters]
    if invocation.output_format == "json":
        payload = {
            "architecture": result.architecture.label,
            "objective": result.objective,
            "parameters": {name: result.parameters[name] for name in param_names},
            "cooling_power_w": result.objective_value,
            "evaluations": result.evaluations,
            "trace": [
                {"parameters": dict(params), "cooling_power_w": value}
                for params, value in result.trace
            ],
        }
        return _json_document(payload)
    header = ["architecture"] + param_names + ["cooling_power_w", "evaluations"]
    row = (
        [result.architecture.label]
        + [result.parameters[name] for name in param_names]
        + [result.objective_value, result.evaluations]
    )
    return _csv_document(header, [row])


def run(invocation: CliInvocation) -> tuple[int, str, str]:
    """Execute one invocation; returns (exit status, stdout document, stderr text)."""
    try:
        if invocation.subcommand == "defaults":
            return EXIT_OK, serialize_config(default_config()), ""
        if invocation.subcommand == "evaluate":
            return EXIT_OK, _run_evaluate(invocation), ""
        if invocation.subcommand == "sweep":
            return EXIT_OK, _run_sweep(invocation), ""
        if invocation.subcommand == "compare":
            return EXIT_OK, _run_compare(invocation), ""
        if invocation.subcommand == "optimize":
            return EXIT_OK, _run_optimize(invocation), ""
        return EXIT_BAD_INVOCATION, "", f"error: unknown subcommand {invocation.subcommand!r}\n"
    except CliError as exc:
        return exc.code, "", f"error: {exc}\n"


def main(argv: list[str] | None = None) -> int:
    try:
        invocation = parse_invocation(argv)
    except SystemExit as exc:
        # argparse exits 2 on malformed invocations and 0 on --help
        return int(exc.code or 0)
    code, out, err = run(invocation)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


def entry() -> None:  # pragma: no cover - console-script shim
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
