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
import math
import operator
import sys
from typing import Any, Sequence

from json.encoder import encode_basestring_ascii

from .compare import (
    FREE_PARAMETER_NAMES,
    ArchitectureEvaluation,
    _linspace,
    _sweep_cells,
    evaluate_architecture,
    devices_under_budget,
    optimize,
    scorecard,
)
from .configio import ConfigError, config_paths, get_value, parse_config, serialize_config, set_value
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


def _csv_document(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    # The csv module writes floats with repr, the shortest round-trip form.
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# The JSON writers below lay a document out as json.dumps(payload, indent=2)
# does, byte for byte, but build each object from a template whose keys are
# encoded once; the sweep writes thousands of objects of one shape.

_JSON_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_leaf(value: Any) -> str:
    """One JSON scalar as ``json.dumps`` writes it."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return text if math.isfinite(value) else _JSON_FLOAT_NAMES[text]
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_object(keys: Sequence[str], depth: int) -> str:
    """A ``%`` template of an object with ``keys`` at nesting ``depth``: one ``%s`` per value."""
    if not keys:
        return "{}"
    pad = "\n" + "  " * (depth + 1)
    members = (f"{pad}{encode_basestring_ascii(key).replace('%', '%%')}: %s" for key in keys)
    return "{" + ",".join(members) + "\n" + "  " * depth + "}"


def _json_array(items: Sequence[str], depth: int) -> str:
    """An array of already written ``items`` at nesting ``depth``."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _json_value(value: Any, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)`` for string-keyed dicts, lists, tuples and scalars."""
    if isinstance(value, dict):
        return _json_object(tuple(value), depth) % tuple(_json_value(item, depth + 1) for item in value.values())
    if isinstance(value, (list, tuple)):
        return _json_array([_json_value(item, depth + 1) for item in value], depth)
    return _json_leaf(value)


def _json_document(payload: Any) -> str:
    return _json_value(payload) + "\n"


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
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


def parse_invocation(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse a command line into the namespace :func:`run` executes."""
    return build_parser().parse_args(argv)


def _load_config(args: argparse.Namespace) -> SystemConfig:
    if args.config is None:
        config = default_config()
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
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


def _run_evaluate(args: argparse.Namespace) -> str:
    config = _load_config(args)
    if args.devices is not None:
        config = set_value(config, "load.device_count", args.devices)
        _require_valid(config)
    arch = ArchitectureKind.from_label(args.arch)
    evaluation = evaluate_architecture(arch, config)
    fields = _evaluation_fields(evaluation)
    noise_ratio = white_floor_ratio(arch, config)
    if args.output_format == "json":
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
    leaf = get_value(config, path)
    if isinstance(leaf, bool) or isinstance(leaf, str):
        raise CliError(f"sweep parameter must be numeric: {param!r}", EXIT_BAD_INVOCATION)
    raw = _linspace(start, stop, steps)
    if not all(map(math.isfinite, raw)):
        # stop - start overflows, so the grid's first element is 0 * inf + start
        raise CliError(
            f"sweep span for {param!r} overflows: [{start!r}, {stop!r}] gives non-finite values",
            EXIT_BAD_INVOCATION,
        )
    if isinstance(leaf, int):
        values: list[Any] = sorted(set(int(round(x)) for x in raw))
    else:
        values = sorted(set(raw))
    if not values:
        raise CliError("sweep produced no values", EXIT_BAD_INVOCATION)
    return path, values


# A sweep's rows: one per swept value and architecture, value-major. The CSV
# document shows a subset of the columns; the JSON document groups the rows
# by value.
_SWEEP_COLUMNS = (
    "value",
    "architecture",
    "transmission_loss_w",
    "converter_loss_w",
    "loss_at_cold_stage_w",
    "q_total_w",
    "cooling_power_w",
)
_SWEEP_CSV_COLUMNS = ("value", "architecture", "transmission_loss_w", "q_total_w", "cooling_power_w")


def _sweep_rows(config: SystemConfig, path: str, values: list[Any]) -> list[tuple]:
    rows = []
    if path == "load.device_count":
        # Python floats from one coefficient record per architecture: no NumPy, no result objects.
        columns = _sweep_cells(config, values)
        for i, count in enumerate(values):
            for label, column in zip(ARCH_LABELS, columns):
                transmission, converter, cold, _, q_total, _, cooling = column[i]
                rows.append((count, label, transmission, converter, cold, q_total, cooling))
        return rows
    for value in values:
        point_config = set_value(config, path, value)
        _require_valid(point_config)
        for arch in ARCHITECTURES:
            evaluation = evaluate_architecture(arch, point_config)
            loss, thermal = evaluation.loss, evaluation.thermal
            rows.append(
                (
                    value,
                    arch.label,
                    loss.transmission_loss,
                    loss.converter_loss,
                    loss.loss_at_cold_stage,
                    thermal.q_total,
                    thermal.cooling_power,
                )
            )
    return rows


def _sweep_json(parameter: str, rows: list[tuple]) -> str:
    """The sweep's JSON document: its rows grouped into one point per swept value."""
    leaf = _json_leaf
    architecture = _json_object(_SWEEP_COLUMNS[1:], 4)
    point = _json_object(("value", "architectures"), 2)
    width = len(ARCHITECTURES)
    points = []
    for start in range(0, len(rows), width):
        group = rows[start : start + width]
        objects = [architecture % tuple(map(leaf, row[1:])) for row in group]
        points.append(point % (leaf(group[0][0]), _json_array(objects, 3)))
    return _json_object(("parameter", "points"), 0) % (leaf(parameter), _json_array(points, 1)) + "\n"


def _run_sweep(args: argparse.Namespace) -> str:
    config = _load_config(args)
    path, values = _sweep_values(config, args.param, args.start, args.stop, args.steps)
    if path == "load.device_count" and values[0] < 1:
        raise CliError(f"device_count sweep must start at >= 1, got {values[0]}", EXIT_BAD_INVOCATION)
    parameter = "device_count" if path == "load.device_count" else path
    rows = _sweep_rows(config, path, values)
    if args.output_format == "json":
        return _sweep_json(parameter, rows)
    pick = operator.itemgetter(*(_SWEEP_COLUMNS.index(name) for name in _SWEEP_CSV_COLUMNS))
    return _csv_document(("parameter",) + _SWEEP_CSV_COLUMNS, [(parameter, *pick(row)) for row in rows])


def _run_compare(args: argparse.Namespace) -> str:
    config = _load_config(args)
    devices = args.devices or config.load.device_count
    if devices < 1:
        raise CliError(f"compare needs a device count >= 1, got {devices}", EXIT_BAD_INVOCATION)
    budget = args.budget
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
    if args.output_format == "json":
        payload: dict[str, Any] = {"device_count": report.device_count, "rows": rows}
        if budget is not None:
            payload["budget_w"] = budget
        return _json_document(payload)
    return _csv_document(list(rows[0]), [list(entry.values()) for entry in rows])


def _run_optimize(args: argparse.Namespace) -> str:
    config = _load_config(args)
    arch = ArchitectureKind.from_label(args.arch)
    free: dict[str, tuple[float, float]] = {}
    for name, lo_text, hi_text in args.free:
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
            resolution=args.resolution,
            couple_converter_input=not args.no_converter_coupling,
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INVOCATION) from exc
    param_names = [name for name in FREE_PARAMETER_NAMES if name in result.parameters]
    if args.output_format == "json":
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


def run(args: argparse.Namespace) -> tuple[int, str, str]:
    """Execute a parsed command line; returns (exit status, stdout document, stderr text)."""
    try:
        if args.subcommand == "defaults":
            return EXIT_OK, serialize_config(default_config()), ""
        if args.subcommand == "evaluate":
            return EXIT_OK, _run_evaluate(args), ""
        if args.subcommand == "sweep":
            return EXIT_OK, _run_sweep(args), ""
        if args.subcommand == "compare":
            return EXIT_OK, _run_compare(args), ""
        if args.subcommand == "optimize":
            return EXIT_OK, _run_optimize(args), ""
        return EXIT_BAD_INVOCATION, "", f"error: unknown subcommand {args.subcommand!r}\n"
    except CliError as exc:
        return exc.code, "", f"error: {exc}\n"


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_invocation(argv)
    except SystemExit as exc:
        # argparse exits 2 on malformed invocations and 0 on --help
        return int(exc.code or 0)
    code, out, err = run(args)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


def entry() -> None:  # pragma: no cover - console-script shim
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
