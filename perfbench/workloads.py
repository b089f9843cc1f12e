"""The three seeded workloads: inputs, one task, and the check of its output.

Each workload builds a pool of task inputs from its seed during set-up and
task ``i`` runs pool entry ``i % len(pool)``, so a run's inputs depend on the
seed alone. The program is reached only through attribute look-ups on the
``cryopower`` package or its modules at call time, so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import oracle
from oracle import ARCHS, expect, expect_close

# --- seeded configs ---------------------------------------------------------


def _log_uniform(rng: random.Random, lo: float, hi: float, stratum: int = 0, strata: int = 1) -> float:
    """Log-uniform in [lo, hi], or in the ``stratum``-th of ``strata`` equal slices of it."""
    u = (stratum + rng.random()) / strata
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def perturbed_config(rng: random.Random, k: int) -> dict:
    """A valid config near the defaults, varying every model input.

    The switches that change how much work an evaluation does (converter
    stage present, attached to the HV non-radiative link) follow the task
    index ``k``, not the seed, so every seed gives the same cost mix.
    """
    c = dict(oracle.DEFAULTS)
    r_cold = rng.uniform(4.0, 16.0)
    v_rx = rng.uniform(1.0, 3.0)
    v_out = rng.uniform(1.0, 3.3)
    v_in = v_out * rng.uniform(2.0, 6.0)
    c.update(
        {
            "wire.resistance_cold": r_cold,
            "wire.resistance_warm": r_cold * rng.uniform(1.0, 2.0),
            "wire.resistance_mode": rng.choice(("warm", "cold", "mean")),
            "wire.thermal_load_per_wire": rng.uniform(0.05, 0.5),
            "wire.wire_count": rng.randint(1, 8),
            "load.power_per_device": _log_uniform(rng, 1e-3, 2e-2),
            "load.device_count": rng.randint(50, 1000),
            "load.v_rx": v_rx,
            "load.v_rx_hv": v_rx * rng.uniform(5.0, 15.0),
            "coupling.eta_rad_r": rng.uniform(0.7, 0.98),
            "coupling.eta_coup_ant": rng.uniform(0.5, 0.95),
            "coupling.eta_coup_coil": rng.uniform(0.6, 0.95),
            "coupling.loss_to_cold_fraction": rng.uniform(0.2, 1.0),
            "converter.r_hs": rng.uniform(0.02, 0.2),
            "converter.r_ls": rng.uniform(0.02, 0.2),
            "converter.r_l": rng.uniform(0.01, 0.1),
            "converter.v_in": v_in,
            "converter.v_out": v_out,
            "converter.duty": v_out / v_in,
            "converter.i_out": rng.uniform(0.1, 1.0),
            "converter.t_r": rng.uniform(1e-9, 1e-8),
            "converter.t_f": rng.uniform(1e-9, 1e-8),
            "converter.f_sw": _log_uniform(rng, 1e5, 5e6),
            "converter.include_loss": k % 4 != 3,
            "converter.attach_hv_nonradiative": k % 2 == 0,
            "cooling.t_cold": rng.uniform(2.0, 80.0),
            "cooling.eta_c": rng.uniform(0.05, 0.3),
            "stage.q_ambient_leak": rng.uniform(0.0, 0.1),
            "stage.q_electronics": rng.uniform(0.0, 0.2),
            "noise.s_white": _log_uniform(rng, 1e-16, 1e-12),
            "noise.f_corner": rng.uniform(100.0, 1e4),
            "noise.wireless_floor_ratio": _log_uniform(rng, 1e-4, 1e-1),
            "noise.switching_spur": _log_uniform(rng, 1e-14, 1e-10),
        }
    )
    return c


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_text(rng: random.Random, c: dict) -> str:
    """Config-file text for ``c``, keys in seeded order."""
    keys = list(c)
    rng.shuffle(keys)
    return "# seeded benchmark config\n" + "".join(f"{k} = {format_value(c[k])}\n" for k in keys)


def to_config(cp, c: dict):
    base = cp.default_config()
    sections: dict[str, dict] = {}
    for path, value in c.items():
        section, leaf = path.split(".", 1)
        sections.setdefault(section, {})[leaf] = value
    return dataclasses.replace(
        base, **{s: dataclasses.replace(getattr(base, s), **leaves) for s, leaves in sections.items()}
    )


def _arch(cp, label: str):
    return cp.ArchitectureKind(label)


def _check_evaluation(what: str, c: dict, evaluation) -> None:
    loss, thermal = evaluation.loss, evaluation.thermal
    oracle.check_heat(
        what,
        evaluation.architecture.value,
        c,
        {
            "delivered": loss.delivered_power,
            "transmission": loss.transmission_loss,
            "converter": loss.converter_loss,
            "cold": loss.loss_at_cold_stage,
            "p_load": thermal.p_load,
            "q_ambient": thermal.q_ambient,
            "q_electronics": thermal.q_electronics,
            "q_total": thermal.q_total,
            "cop": thermal.cop,
            "cooling": thermal.cooling_power,
        },
    )


# --- design_search ----------------------------------------------------------


class DesignSearch:
    """Design questions on perturbed configs: 1-D and 2-D optimize, device sweep."""

    name = "design_search"
    POOL = 72
    KINDS = ("optimize_1d", "optimize_2d", "sweep")
    period = 24  # tasks after which the kind and switch mix repeats
    RES_1D = 1000
    RES_2D = 200
    WIRE_SPAN = 32
    SWEEP_MAX = 1000
    SAMPLES = 12
    trace_tasks = range(6)

    def __init__(self, cp, seed: int, workdir: Path):
        self.cp = cp
        rng = random.Random(f"{self.name}/{seed}")
        self.pool = [self._task(rng, k) for k in range(self.POOL)]

    def _task(self, rng: random.Random, k: int) -> dict:
        kind, j = self.KINDS[k % len(self.KINDS)], k // len(self.KINDS)
        c = perturbed_config(rng, j)
        task = {"kind": kind, "c": c, "config": to_config(self.cp, c)}
        v_lo = c["load.v_rx"]
        v_hi = v_lo * rng.uniform(10.0, 30.0)
        if kind == "optimize_1d":
            task["arch"] = ("hv_wired", "hv_non_radiative")[(j // 4) % 2]
            task["free"] = {"v_rx_hv": (v_lo, v_hi)}
            task["resolution"] = self.RES_1D
            v_grid = oracle.grid(v_lo, v_hi, self.RES_1D)
            task["samples"] = [(rng.choice(v_grid), None) for _ in range(self.SAMPLES)]
        elif kind == "optimize_2d":
            n_lo = rng.randint(1, 8)
            n_hi = n_lo + self.WIRE_SPAN - 1
            task["arch"] = "hv_wired"
            task["free"] = {"v_rx_hv": (v_lo, v_hi), "wire_count": (n_lo, n_hi)}
            task["resolution"] = self.RES_2D
            v_grid = oracle.grid(v_lo, v_hi, self.RES_2D)
            task["samples"] = [
                (rng.choice(v_grid), rng.randint(n_lo, n_hi)) for _ in range(self.SAMPLES)
            ]
        else:
            task["samples"] = sorted(rng.sample(range(1, self.SWEEP_MAX + 1), 20))
        return task

    def describe(self) -> dict:
        return {
            "pool": self.POOL,
            "mix": {kind: 1 / len(self.KINDS) for kind in self.KINDS},
            "optimize_1d": {"resolution": self.RES_1D, "archs": ["hv_wired", "hv_non_radiative"]},
            "optimize_2d": {"resolution": self.RES_2D, "wire_counts": self.WIRE_SPAN},
            "sweep": {"device_counts": f"1..{self.SWEEP_MAX}"},
        }

    def run(self, i: int):
        task = self.pool[i % self.POOL]
        cp = self.cp
        if task["kind"] == "sweep":
            return cp.sweep_loss(task["config"], range(1, self.SWEEP_MAX + 1))
        return cp.optimize(
            task["config"], task["free"], _arch(cp, task["arch"]), resolution=task["resolution"]
        )

    def check(self, i: int, result) -> None:
        task = self.pool[i % self.POOL]
        c = task["c"]
        if task["kind"] == "sweep":
            values = [point.value for point in result.points]
            expect(values == list(range(1, self.SWEEP_MAX + 1)), "sweep: wrong device counts")
            for count in task["samples"]:
                point = result.points[count - 1]
                expect(len(point.evaluations) == len(ARCHS), "sweep: missing architectures")
                at = dict(c, **{"load.device_count": count})
                for evaluation in point.evaluations:
                    _check_evaluation(f"sweep n={count}", at, evaluation)
            return
        expect(result.architecture.value == task["arch"], "optimize: wrong architecture")
        params = result.parameters
        for name, (lo, hi) in task["free"].items():
            expect(lo <= params[name] <= hi, f"optimize: {name}={params[name]!r} outside [{lo}, {hi}]")
        oracle.check_optimum(
            task["arch"],
            c,
            result.objective_value,
            params.get("v_rx_hv"),
            params.get("wire_count"),
            task["samples"],
        )

    def trace_run(self, i: int, span):
        return self.run(i)

    trace_check = check


# --- point_queries ----------------------------------------------------------


class PointQueries:
    """Operating-point questions on parsed config text, including budget solves."""

    name = "point_queries"
    STRATA = 20  # power_per_device x budget cells, one task each
    POOL = STRATA * STRATA
    period = POOL
    RECHECK = 16  # after the first pass, every 16th task gets the full check
    trace_tasks = range(300)

    def __init__(self, cp, seed: int, workdir: Path):
        self.cp = cp
        rng = random.Random(f"{self.name}/{seed}")
        self.pool = [self._task(rng, k) for k in range(self.POOL)]

    def _task(self, rng: random.Random, k: int) -> dict:
        # Stratified draws keep the share of slow budget solves (tiny
        # power_per_device against a large budget) the same on every seed.
        a, b = k % self.STRATA, k // self.STRATA
        c = perturbed_config(rng, k)
        c["load.power_per_device"] = _log_uniform(rng, 1e-12, 1e-1, a, self.STRATA)
        c["load.device_count"] = rng.randint(1, 1000)
        return {
            "c": c,
            "text": config_text(rng, c),
            "op_devices": rng.randint(1, 2000),
            "reference": rng.choice(sorted(oracle.WIRELESS)),
            "arch": ARCHS[(a + b) % len(ARCHS)],
            "budget": _log_uniform(rng, 1e-3, 1e3, b, self.STRATA),
        }

    def describe(self) -> dict:
        return {
            "pool": self.POOL,
            "steps": [
                "parse_config",
                "validate",
                "evaluate_architecture x5",
                "scorecard",
                "equivalent_wire_count",
                "devices_under_budget closed_form + bisection",
            ],
            "power_per_device_w": f"log-uniform 1e-12..1e-1 in {self.STRATA} strata",
            "budget_w": f"log-uniform 1e-3..1e3 in {self.STRATA} strata, crossed with power_per_device",
            "budget_arch": "each architecture on every stratum",
        }

    def run(self, i: int):
        task = self.pool[i % self.POOL]
        cp = self.cp
        config = cp.parse_config(task["text"])
        validation = cp.validate(config)
        evaluations = [cp.evaluate_architecture(arch, config) for arch in cp.ARCHITECTURES]
        report = cp.scorecard(config, task["op_devices"])
        wires = cp.equivalent_wire_count(config, _arch(cp, task["reference"]))
        arch = _arch(cp, task["arch"])
        closed = cp.devices_under_budget(arch, config, task["budget"], "closed_form")
        bisect = cp.devices_under_budget(arch, config, task["budget"], "bisection")
        return config, validation, evaluations, report, wires, closed, bisect

    def check(self, i: int, result) -> None:
        task = self.pool[i % self.POOL]
        c = task["c"]
        config, validation, evaluations, report, wires, closed, bisect = result
        oracle.check_budget(task["arch"], c, task["budget"], closed, bisect)
        if i >= self.POOL and i % self.RECHECK:
            return  # a repeat of an input already checked in full
        for path, want in c.items():
            section, leaf = path.split(".", 1)
            got = getattr(getattr(config, section), leaf)
            expect(got == want and type(got) is type(want), f"parse {path}: got {got!r}, want {want!r}")
        expect(validation.ok, f"validate rejected a valid config: {validation.violations}")
        expect([e.architecture.value for e in evaluations] == list(ARCHS), "evaluate: wrong architectures")
        for evaluation in evaluations:
            _check_evaluation("evaluate", c, evaluation)
        at = dict(c, **{"load.device_count": task["op_devices"]})
        _check_rows(
            "scorecard",
            at,
            [
                {
                    "architecture": row.architecture.value,
                    "transmission": row.transmission_loss,
                    "q_total": row.cold_stage_heat,
                    "cooling": row.cooling_power,
                    "noise": row.noise_floor_ratio,
                }
                for row in report.rows
            ],
        )
        expect_close("equivalent wire count", wires, oracle.equivalent_wires(c, task["reference"]))

    def trace_run(self, i: int, span):
        return self.run(i)

    trace_check = check


def _check_rows(what: str, c: dict, rows: list[dict]) -> None:
    """Scorecard-style rows: every architecture once, sorted by cooling power."""
    expect(sorted(row["architecture"] for row in rows) == sorted(ARCHS), f"{what}: wrong architectures")
    cooling = [row["cooling"] for row in rows]
    expect(cooling == sorted(cooling), f"{what}: rows not sorted by cooling power")
    for row in rows:
        arch = row["architecture"]
        oracle.check_heat(
            what, arch, c, {k: row[k] for k in ("transmission", "q_total", "cooling")}
        )
        expect_close(f"{what} {arch} noise floor ratio", row["noise"], oracle.floor_ratio(arch, c))


# --- cli_session ------------------------------------------------------------


class CliSession:
    """One fresh ``python -m cryopower`` process per task on seeded config files."""

    name = "cli_session"
    CONFIGS = 2
    KINDS = ("defaults", "evaluate", "compare", "sweep_devices", "sweep_fsw", "optimize")
    SWEEP_STEPS = 1000
    FSW_STEPS = 400
    RESOLUTION = 200
    SAMPLES = 12

    def __init__(self, cp, seed: int, workdir: Path):
        self.cp = cp
        self.root = Path(cp.__file__).resolve().parents[2]
        rng = random.Random(f"{self.name}/{seed}")
        self.configs = []
        for k in range(self.CONFIGS):
            c = perturbed_config(rng, k)
            path = workdir / f"config-{k}.cfg"
            path.write_text(config_text(rng, c), encoding="utf-8")
            self.configs.append((c, str(path)))
        self.pool = [
            self._task(rng, kind, fmt, k)
            for kind in self.KINDS
            for fmt in (("csv",) if kind == "defaults" else ("csv", "json"))
            for k in range(self.CONFIGS)
        ]
        self.period = len(self.pool)
        self.trace_tasks = range(self.period)
        self.expected: dict[int, str] = {}
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.workdir = workdir
        self.peak_rss_kib = 0  # largest ru_maxrss of any CLI process so far

    def _task(self, rng: random.Random, kind: str, fmt: str, k: int) -> dict:
        c, path = self.configs[k]
        task = {"kind": kind, "format": fmt, "c": c}
        if kind == "defaults":
            task["argv"] = ["defaults"]
            return task
        argv = [kind.split("_")[0], "--config", path, "--format", fmt]
        if kind == "evaluate":
            task["arch"] = rng.choice(ARCHS)
            task["devices"] = rng.randint(1, 2000)
            argv += ["--arch", task["arch"], "--devices", str(task["devices"])]
        elif kind == "compare":
            task["devices"] = rng.randint(1, 2000)
            task["budget"] = _log_uniform(rng, 1e-2, 1e2)
            argv += ["--devices", str(task["devices"]), "--budget", repr(task["budget"])]
        elif kind == "sweep_devices":
            argv += ["--from", "1", "--to", str(self.SWEEP_STEPS), "--steps", str(self.SWEEP_STEPS)]
        elif kind == "sweep_fsw":
            lo, hi = _log_uniform(rng, 5e4, 5e5), _log_uniform(rng, 1e6, 5e6)
            task["range"] = (lo, hi)
            argv += ["--param", "converter.f_sw", "--from", repr(lo), "--to", repr(hi)]
            argv += ["--steps", str(self.FSW_STEPS)]
        else:
            lo = c["load.v_rx"]
            hi = lo * rng.uniform(10.0, 30.0)
            task["arch"] = "hv_wired" if fmt == "csv" else "hv_non_radiative"
            v_grid = oracle.grid(lo, hi, self.RESOLUTION)
            task["samples"] = [(rng.choice(v_grid), None) for _ in range(self.SAMPLES)]
            task["range"] = (lo, hi)
            argv += ["--arch", task["arch"], "--free", "v_rx_hv", repr(lo), repr(hi)]
            argv += ["--resolution", str(self.RESOLUTION)]
        task["argv"] = argv
        return task

    def describe(self) -> dict:
        return {
            "pool": len(self.pool),
            "config_files": self.CONFIGS,
            "mix": {
                key: count / len(self.pool)
                for key, count in Counter(f"{t['kind']}/{t['format']}" for t in self.pool).items()
            },
            "sweep_steps": self.SWEEP_STEPS,
            "fsw_steps": self.FSW_STEPS,
            "optimize_resolution": self.RESOLUTION,
        }

    def run(self, i: int):
        """One CLI process; its own ``ru_maxrss`` raises ``peak_rss_kib``.

        The child is reaped with ``wait4`` so that its peak is its own, not
        that of every process the harness has waited for. Its stderr goes to
        a file, so reading stdout to the end cannot block it.
        """
        argv = self.pool[i % len(self.pool)]["argv"]
        with tempfile.TemporaryFile(dir=self.workdir) as stderr:
            child = subprocess.Popen(
                [sys.executable, "-m", "cryopower", *argv],
                cwd=self.root,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=stderr,
            )
            try:
                out = child.stdout.read()
            finally:
                child.stdout.close()
                _, status, usage = os.wait4(child.pid, 0)
                child.returncode = os.waitstatus_to_exitcode(status)
            stderr.seek(0)
            err = stderr.read()
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        return child.returncode, hashlib.sha256(out).hexdigest(), err

    def trace_run(self, i: int, span):
        """The same invocation in-process, through ``cli.main``.

        The ``cli.run`` span covers argument parsing, the subcommand and
        writing the document.
        """
        out = io.StringIO()
        with contextlib.redirect_stdout(out), span("cli.run"):
            code = self.cp.cli.main(list(self.pool[i % len(self.pool)]["argv"]))
        return code, out.getvalue()

    def check(self, i: int, result) -> None:
        code, digest, stderr = result
        expect(code == 0, f"exit status {code}: {stderr.decode(errors='replace').strip()}")
        key = i % len(self.pool)
        if key not in self.expected:
            # The reference document: the same argv through cli.run in-process.
            cli = self.cp.cli
            status, out, err = cli.run(cli.parse_invocation(list(self.pool[key]["argv"])))
            expect(status == 0, f"in-process exit status {status}: {err.strip()}")
            self.trace_check(i, (status, out))
            self.expected[key] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        expect(digest == self.expected[key], "stdout differs from the in-process cli.run document")

    def trace_check(self, i: int, result) -> None:
        code, out = result
        expect(code == 0, f"exit status {code}")
        task = self.pool[i % len(self.pool)]
        getattr(self, "_check_" + task["kind"])(task, out)

    # Output checks, one per subcommand, on csv or json documents.

    @staticmethod
    def _check_defaults(task: dict, out: str) -> None:
        lines = [line for line in out.splitlines() if line and not line.startswith("#")]
        seen = dict(line.split(" = ", 1) for line in lines)
        want = {k: format_value(v) for k, v in oracle.DEFAULTS.items()}
        expect(seen == want, "defaults: document differs from the README defaults")

    @staticmethod
    def _records(task: dict, out: str) -> list[dict]:
        return list(csv.DictReader(io.StringIO(out)))

    def _check_evaluate(self, task: dict, out: str) -> None:
        if task["format"] == "json":
            doc = json.loads(out)
            fields = {**doc["loss"], **doc["thermal"], "noise_floor_ratio": doc["noise_floor_ratio"]}
            count = doc["device_count"]
        else:
            (row,) = self._records(task, out)
            fields = {k: float(v) for k, v in row.items() if k not in ("architecture", "device_count")}
            count = int(row["device_count"])
        expect(count == task["devices"], "evaluate: wrong device count")
        c = dict(task["c"], **{"load.device_count": task["devices"]})
        arch = task["arch"]
        oracle.check_heat(
            "cli evaluate",
            arch,
            c,
            {
                "delivered": fields["delivered_power_w"],
                "transmission": fields["transmission_loss_w"],
                "converter": fields["converter_loss_w"],
                "cold": fields["loss_at_cold_stage_w"],
                "p_load": fields["p_load_w"],
                "q_ambient": fields["q_ambient_w"],
                "q_electronics": fields["q_electronics_w"],
                "q_total": fields["q_total_w"],
                "cop": fields["cop"],
                "cooling": fields["cooling_power_w"],
            },
        )
        expect_close("cli evaluate noise", fields["noise_floor_ratio"], oracle.floor_ratio(arch, c))

    def _check_compare(self, task: dict, out: str) -> None:
        if task["format"] == "json":
            doc = json.loads(out)
            expect(doc["device_count"] == task["devices"], "compare: wrong device count")
            expect(doc["budget_w"] == task["budget"], "compare: wrong budget")
            raw = doc["rows"]
        else:
            raw = self._records(task, out)
        rows = [
            {
                "architecture": row["architecture"],
                "transmission": float(row["transmission_loss_w"]),
                "q_total": float(row["cold_stage_heat_w"]),
                "cooling": float(row["cooling_power_w"]),
                "noise": float(row["noise_floor_ratio"]),
                "count": int(row["devices_under_budget"]),
            }
            for row in raw
        ]
        c = dict(task["c"], **{"load.device_count": task["devices"]})
        _check_rows("cli compare", c, rows)
        for row in rows:
            oracle.check_budget(row["architecture"], c, task["budget"], row["count"], row["count"])

    # Sweep document columns and the reference quantity each one holds.
    SWEEP_FIELDS = {
        "transmission_loss_w": "transmission",
        "converter_loss_w": "converter",
        "loss_at_cold_stage_w": "cold",
        "q_total_w": "q_total",
        "cooling_power_w": "cooling",
    }

    def _sweep_rows(self, task: dict, out: str) -> list[dict]:
        """One dict per (point, architecture) with parameter, value and numbers."""
        if task["format"] == "json":
            doc = json.loads(out)
            return [
                {"parameter": doc["parameter"], "value": point["value"], **entry}
                for point in doc["points"]
                for entry in point["architectures"]
            ]
        rows = self._records(task, out)
        for row in rows:
            row["value"] = float(row["value"])
            for column in self.SWEEP_FIELDS:
                if column in row:
                    row[column] = float(row[column])
        return rows

    def _check_sweep(self, task: dict, out: str, name: str, path: str, values: list) -> None:
        rows = self._sweep_rows(task, out)
        expect(len(rows) == len(values) * len(ARCHS), f"sweep {path}: {len(rows)} rows")
        for k, row in enumerate(rows):
            arch, value = row["architecture"], row["value"]
            expect(row["parameter"] == name, f"sweep: parameter {row['parameter']!r}")
            expect(arch == ARCHS[k % len(ARCHS)], f"sweep: architecture order at row {k}")
            expect(value == values[k // len(ARCHS)], f"sweep {path}: value {value!r} at row {k}")
            oracle.check_heat(
                f"cli sweep {path}={value!r}",
                arch,
                dict(task["c"], **{path: value}),
                {key: row[column] for column, key in self.SWEEP_FIELDS.items() if column in row},
            )

    def _check_sweep_devices(self, task: dict, out: str) -> None:
        self._check_sweep(task, out, "device_count", "load.device_count", list(range(1, self.SWEEP_STEPS + 1)))

    def _check_sweep_fsw(self, task: dict, out: str) -> None:
        lo, hi = task["range"]
        values = [row["value"] for row in self._sweep_rows(task, out)[:: len(ARCHS)]]
        expect(len(values) == self.FSW_STEPS, f"f_sw sweep: {len(values)} points")
        expect(values[0] == lo and values[-1] == hi, "f_sw sweep: wrong end points")
        expect(all(a < b for a, b in zip(values, values[1:])), "f_sw sweep: values not increasing")
        for value, want in zip(values, oracle.grid(lo, hi, self.FSW_STEPS)):
            expect_close("f_sw sweep value", value, want)
        self._check_sweep(task, out, "converter.f_sw", "converter.f_sw", values)

    def _check_optimize(self, task: dict, out: str) -> None:
        if task["format"] == "json":
            doc = json.loads(out)
            expect(doc["architecture"] == task["arch"], "optimize: wrong architecture")
            v, value = doc["parameters"]["v_rx_hv"], doc["cooling_power_w"]
        else:
            (row,) = self._records(task, out)
            expect(row["architecture"] == task["arch"], "optimize: wrong architecture")
            v, value = float(row["v_rx_hv"]), float(row["cooling_power_w"])
        lo, hi = task["range"]
        expect(lo <= v <= hi, f"optimize: v_rx_hv={v!r} outside [{lo}, {hi}]")
        oracle.check_optimum(task["arch"], task["c"], value, v, None, task["samples"])


WORKLOADS = {w.name: w for w in (DesignSearch, PointQueries, CliSession)}
