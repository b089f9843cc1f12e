"""Command-line interface: evaluate, sweep, compare, optimize, defaults.

Reads an optional config file (strict ``section.field = value`` format),
applies command-line overrides, and emits deterministic CSV or JSON on
stdout. Diagnostics go to stderr. Exit codes: 0 success, 1 invalid
configuration, 2 malformed invocation, 3 I/O failure (a config file that
cannot be read or is not UTF-8). No environment variables are consulted;
a run is reproducible from its invocation and config file alone.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import Any, Callable, Sequence

from .configio import ConfigError, _plain_number, parse_config, serialize_config, set_value
from .model import (
    _CHECKS,
    _FIELD_KINDS,
    _RULES,
    ARCHITECTURES,
    FREE_PARAMETER_NAMES,
    ArchitectureKind,
    SystemConfig,
    _is_finite,
    _linspace,
    _violations,
    default_config,
    validate,
)
from .noise import white_floor_ratio
from .thermal import _heat_cell, _records_at

# compare, json and csv are imported inside the subcommands and formats that
# read them, so that a process of any other starts without them.

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
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _json_document(payload: dict[str, Any]) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


# The sweep's JSON writers below lay a document out as json.dumps(payload, indent=2) does, byte for byte,
# but build each object from a template whose keys are encoded once; the sweep writes thousands of objects
# of one shape. They handle what a sweep holds: float, str and int leaves, no empty object or array.

_JSON_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_object(keys: Sequence[str], depth: int, encode: Callable[[str], str]) -> str:
    """A ``%`` template of an object with ``keys`` at nesting ``depth``: one ``%s`` per value."""
    pad = "\n" + "  " * (depth + 1)
    members = (f"{pad}{encode(key).replace('%', '%%')}: %s" for key in keys)
    return "{" + ",".join(members) + "\n" + "  " * depth + "}"


def _json_array(items: Sequence[str], depth: int) -> str:
    """An array of already written ``items`` at nesting ``depth``."""
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _number(text: str, convert=float, failure: str = "invalid float value: {!r}"):
    """``text`` read by the config-file number rule; argparse reports ``failure`` otherwise."""
    try:
        return _plain_number(text, convert)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(failure.format(text)) from exc


def _positive_float(text: str) -> float:
    value = _number(text, float, "expected a number, got {!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a value > 0, got {text!r}")
    return value


def _nonneg_int(text: str) -> int:
    value = _number(text, int, "expected an integer, got {!r}")
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

    p_defaults = sub.add_parser("defaults", help="print the default configuration as a config file")
    p_defaults.set_defaults(handler=lambda args: serialize_config(default_config()))

    p_eval = sub.add_parser("evaluate", parents=[common], help="evaluate one architecture")
    p_eval.set_defaults(handler=_run_evaluate)
    p_eval.add_argument("--arch", required=True, choices=ARCH_LABELS)
    p_eval.add_argument("--devices", type=_nonneg_int, help="override load.device_count")

    p_sweep = sub.add_parser("sweep", parents=[common], help="sweep a parameter over a range")
    p_sweep.set_defaults(handler=_run_sweep)
    p_sweep.add_argument(
        "--param",
        default="device_count",
        help="parameter to sweep: device_count or a dotted config path (default: device_count)",
    )
    p_sweep.add_argument("--from", dest="start", type=_number, required=True)
    p_sweep.add_argument("--to", dest="stop", type=_number, required=True)
    p_sweep.add_argument("--steps", type=_positive_int, required=True)

    p_cmp = sub.add_parser("compare", parents=[common], help="tabulate all architectures")
    p_cmp.set_defaults(handler=_run_compare)
    p_cmp.add_argument("--devices", type=_positive_int, help="operating device count")
    p_cmp.add_argument(
        "--budget",
        type=_positive_float,
        help="total power budget in watts; adds a devices_under_budget column",
    )

    p_opt = sub.add_parser("optimize", parents=[common], help="search the design space")
    p_opt.set_defaults(handler=_run_optimize)
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
    for subparser in sub.choices.values():
        # argparse's own pattern takes -1000 and -1.5 as negative numbers, but reads -1e3 and -inf as options.
        subparser._negative_number_matcher = re.compile(r"-\.?\d|-(?:inf|infinity|nan)$", re.IGNORECASE)
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
        except (OSError, UnicodeDecodeError) as exc:
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


def _run_evaluate(args: argparse.Namespace) -> str:
    config = _load_config(args)
    if args.devices is not None:
        config = set_value(config, "load.device_count", args.devices)
        _require_valid(config)
    arch = ArchitectureKind.from_label(args.arch)
    loss, thermal = _records_at(arch, config, config.load.delivered_power)
    loss_fields = {
        "delivered_power_w": loss.delivered_power,
        "transmission_loss_w": loss.transmission_loss,
        "converter_loss_w": loss.converter_loss,
        "loss_at_cold_stage_w": loss.loss_at_cold_stage,
    }
    thermal_fields = {
        "p_load_w": thermal.p_load,
        "p_loss_cold_w": thermal.p_loss_cold,
        "q_ambient_w": thermal.q_ambient,
        "q_electronics_w": thermal.q_electronics,
        "q_total_w": thermal.q_total,
        "cop": thermal.cop,
        "cooling_power_w": thermal.cooling_power,
    }
    noise_ratio = white_floor_ratio(arch, config)
    if args.output_format == "json":
        payload = {
            "architecture": arch.label,
            "device_count": config.load.device_count,
            "loss": loss_fields,
            "thermal": thermal_fields,
            "noise_floor_ratio": noise_ratio,
        }
        return _json_document(payload)
    del thermal_fields["p_loss_cold_w"]  # the CSV row has loss_at_cold_stage_w once
    fields = loss_fields | thermal_fields
    header = ["architecture", "device_count", *fields, "noise_floor_ratio"]
    row = [arch.label, config.load.device_count, *fields.values(), noise_ratio]
    return _csv_document(header, [row])


def _sweep_values(param: str, start: float, stop: float, steps: int):
    path = "load.device_count" if param == "device_count" else param
    if path not in _FIELD_KINDS:
        raise CliError(f"unknown sweep parameter: {param!r}", EXIT_BAD_INVOCATION)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise CliError(f"bounds for {param!r} must be finite, got [{start!r}, {stop!r}]", EXIT_BAD_INVOCATION)
    if stop < start:
        raise CliError(f"sweep range is inverted: from {start!r} to {stop!r}", EXIT_BAD_INVOCATION)
    kind = _FIELD_KINDS[path]
    if kind not in ("a number", "an integer"):
        raise CliError(f"sweep parameter must be numeric: {param!r}", EXIT_BAD_INVOCATION)
    if not _is_finite(steps):  # an integer past float range
        raise CliError(f"--steps must be finite, got {steps!r}", EXIT_BAD_INVOCATION)
    raw = _linspace(start, stop, steps)
    if not all(map(math.isfinite, raw)):
        # stop - start overflows, so the grid's first element is 0 * inf + start
        raise CliError(
            f"sweep span for {param!r} overflows: [{start!r}, {stop!r}] gives non-finite values",
            EXIT_BAD_INVOCATION,
        )
    if kind == "an integer":
        values: list[Any] = sorted(set(int(round(x)) for x in raw))
    else:
        values = sorted(set(raw))
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
    """The rows of a sweep of ``path`` over ``values`` from ``config``, a config that passed ``validate``."""
    # Python floats from one cell evaluator per architecture and point: no NumPy, no result objects.
    if path == "load.device_count":
        # Every count is a whole number >= 1.
        p_rx = [config.load.power_per_device * value for value in values]
        points = zip(*[list(map(_heat_cell(arch, config), p_rx)) for arch in ARCHITECTURES])
    else:
        # A step moves one field of a valid config, so only the checks that read that field can fail: its
        # own rules and any relation that names it as the other side. Passing them implies every check the
        # scalar path makes; a step that fails one gets validate's report, which finds the same violations.
        checks = tuple(
            check for check, (own, bound) in zip(_CHECKS, _RULES) if path in (own, str(bound).split(" ")[-1])
        )
        points = []
        for value in values:
            point = set_value(config, path, value)
            if _violations(point, checks):
                _require_valid(point)
            points.append([_heat_cell(arch, point)(point.load.delivered_power) for arch in ARCHITECTURES])
    rows = []
    for value, cells in zip(values, points):
        for label, (transmission, converter, cold, _, q_total, _, cooling) in zip(ARCH_LABELS, cells):
            rows.append((value, label, transmission, converter, cold, q_total, cooling))
    return rows


def _sweep_json(parameter: str, rows: list[tuple]) -> str:
    """The sweep's JSON document: its rows grouped into one point per swept value."""
    from json.encoder import encode_basestring_ascii as encode

    def leaf(value: Any) -> str:
        """One float, str or int as ``json.dumps`` writes it."""
        if isinstance(value, float):
            text = float.__repr__(value)
            return text if math.isfinite(value) else _JSON_FLOAT_NAMES[text]
        if isinstance(value, str):
            return encode(value)
        return int.__repr__(value)

    architecture = _json_object(_SWEEP_COLUMNS[1:], 4, encode)
    point = _json_object(("value", "architectures"), 2, encode)
    width = len(ARCHITECTURES)
    points = []
    for start in range(0, len(rows), width):
        group = rows[start : start + width]
        objects = [architecture % tuple(map(leaf, row[1:])) for row in group]
        points.append(point % (leaf(group[0][0]), _json_array(objects, 3)))
    return _json_object(("parameter", "points"), 0, encode) % (leaf(parameter), _json_array(points, 1)) + "\n"


def _sweep_csv(parameter: str, rows: list[tuple]) -> str:
    """The sweep's CSV document, as ``csv.writer`` writes it: one ``%`` template per row.

    No field needs quoting: ``parameter`` is ``device_count`` or a config
    path, labels are identifiers, and numbers print as their repr.
    """
    line = parameter + ",%r,%s,%r,%r,%r\n"
    lines = [line % (value, label, loss, q_total, cooling) for value, label, loss, _, _, q_total, cooling in rows]
    return ",".join(("parameter",) + _SWEEP_CSV_COLUMNS) + "\n" + "".join(lines)


def _run_sweep(args: argparse.Namespace) -> str:
    config = _load_config(args)
    path, values = _sweep_values(args.param, args.start, args.stop, args.steps)
    if path == "load.device_count" and values[0] < 1:
        raise CliError(f"device_count sweep must start at >= 1, got {values[0]}", EXIT_BAD_INVOCATION)
    parameter = "device_count" if path == "load.device_count" else path
    rows = _sweep_rows(config, path, values)
    if args.output_format == "json":
        return _sweep_json(parameter, rows)
    return _sweep_csv(parameter, rows)


def _run_compare(args: argparse.Namespace) -> str:
    from .compare import devices_under_budget, scorecard

    config = _load_config(args)
    devices = args.devices or config.load.device_count
    if devices < 1:
        raise CliError(f"compare needs a device count >= 1, got {devices}", EXIT_BAD_INVOCATION)
    budget = args.budget
    report = scorecard(config, devices)
    counts = None
    if budget is not None:
        counts = {arch: devices_under_budget(arch, config, budget) for arch in ARCHITECTURES}
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
    from .compare import optimize

    config = _load_config(args)
    arch = ArchitectureKind.from_label(args.arch)
    free: dict[str, tuple[float, float]] = {}
    for name, lo_text, hi_text in args.free:
        if name in free:
            raise CliError(f"free parameter {name!r} given twice", EXIT_BAD_INVOCATION)
        try:
            lo, hi = _plain_number(lo_text), _plain_number(hi_text)
        except ValueError as exc:
            raise CliError(f"invalid bounds for {name!r}: {exc}", EXIT_BAD_INVOCATION) from exc
        free[name] = (lo, hi)
    result = optimize(
        config,
        free,
        arch,
        resolution=args.resolution,
        couple_converter_input=not args.no_converter_coupling,
    )
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
    """Execute a parsed command line: (exit status, stdout document, stderr text); a library ValueError exits 2."""
    try:
        return EXIT_OK, args.handler(args), ""
    except CliError as exc:
        return exc.code, "", f"error: {exc}\n"
    except ValueError as exc:
        return EXIT_BAD_INVOCATION, "", f"error: {exc}\n"
    except ZeroDivisionError as exc:
        # validate accepts values whose products underflow to 0.0, such as a rail of 1e-170 V squared.
        return EXIT_INVALID_CONFIG, "", f"error: configuration cannot be evaluated: {exc}\n"


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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
