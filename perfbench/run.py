"""cryopower benchmark: three seeded closed-loop workloads and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload design_search --seed 1 --seconds 30 --trace 0

``--trace 0`` times one workload and prints its end-to-end metrics;
``--trace 1`` runs a fixed slice of every workload untraced and then traced
and prints the per-layer metrics. Human-readable lines come first; the last
line of stdout is the JSON result. The program is imported from ``src/`` of
the checkout; the harness only starts and waits for its own processes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_TASKS = 100  # so that at least ten samples lie beyond task_p90_ms
SETUP_SAMPLES = 9  # fresh-process set-ups behind the setup_s median
IMPORT_SAMPLES = 5  # fresh processes behind each import.* median
WARMUP_S = 1.0  # task time run and checked before timing starts
BLOCK_S = 0.25  # task time between two host-speed readings
HELD_OUT_SEED = 7919  # recorded, never used while tuning the benchmark

# Layers whose share of each workload's traced task wall the trace run prints.
SHARES = {
    "design_search": ("compare.resolve_parameters", "thermal.heat_budget"),
    "point_queries": ("configio.parse_config", "compare.scorecard", "compare.devices_under_budget"),
    "cli_session": ("compare.sweep_loss", "compare.optimize", "model.validate", "configio.parse_config"),
}

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "import.interp_ms": "ms",
    "import.cryopower_ms": "ms",
    "import.numpy_ms": "ms",
    "cli.run.calls": "count",
    "cli.run.self_ms": "ms",
    "configio.parse_config.busy_ms": "ms",
    "configio.serialize_config.busy_ms": "ms",
    "configio.set_value.calls": "count",
    "model.validate.calls": "count",
    "model.validate.busy_ms": "ms",
    "compare.resolve_parameters.calls": "count",
    "compare.resolve_parameters.busy_ms": "ms",
    "thermal.heat_budget.calls": "count",
    "thermal.heat_budget.busy_ms": "ms",
    "losses.architecture_loss_at.calls": "count",
    "losses.architecture_loss_at.busy_ms": "ms",
    "compare.optimize.evals": "count",
    "compare.optimize.self_ms": "ms",
    "compare.sweep_loss.points": "count",
    "compare.sweep_loss.self_ms": "ms",
    "compare.devices_under_budget.calls": "count",
    "compare.devices_under_budget.busy_ms": "ms",
    "compare.devices_under_budget.loss_evals_per_call": "ratio",
    "compare.scorecard.busy_ms": "ms",
    "noise.white_floor_ratio.calls": "count",
    "trace.overhead_frac": "ratio",
}


def load_program(with_cli: bool):
    """Import ``cryopower`` from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "cryopower"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the root of a cryopower checkout")
    sys.path.insert(0, str(SRC))
    import cryopower

    if with_cli:
        import cryopower.cli  # noqa: F401
    if Path(cryopower.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported cryopower from {cryopower.__file__}, not {package}")
    return cryopower


def set_up(name: str, seed: int, workdir: Path):
    """Import the program and build the seeded inputs.

    Returns (workload, seconds scaled to nominal host speed, wall seconds).
    """
    hostspeed.reading()  # warm the kernel, so the readings below are alike
    before = hostspeed.reading()
    start = time.perf_counter()
    cp = load_program(with_cli=name == "cli_session")
    workload = WORKLOADS[name](cp, seed, workdir)
    wall = time.perf_counter() - start
    return workload, wall * hostspeed.scale(before, hostspeed.reading()), wall


def setup_seconds(name: str, seed: int, first: float) -> list[float]:
    """``first`` plus the scaled set-up time of fresh processes doing the same set-up.

    The host-speed readings are taken here, around each process, so that
    they come from a process whose kernel is already warm.
    """
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        before = hostspeed.reading()
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        wall = float(done.stdout.strip().splitlines()[-1])
        samples.append(wall * hostspeed.scale(before, hostspeed.reading()))
    return samples


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on the CPU it runs on.

    The host-speed readings then come from the CPU the tasks run on; on a
    shared host two CPUs can run at different speeds at the same moment.
    Only this process's own affinity changes.
    """
    cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def record_failure(errors: list[str], i: int) -> None:
    """Keep the first few tracebacks of failed tasks for stderr."""
    if len(errors) < 5:
        errors.append(f"task {i}: {traceback.format_exc(limit=3)}")


def timed_run(workload, seconds: float):
    """Closed loop, one client: the next task starts when the last is checked.

    First, tasks worth WARMUP_S of task time run untimed, so that first-call
    costs stay out of the figures. Then the timed tasks run until their
    summed time reaches ``seconds``, at least MIN_TASKS tasks are done and
    the task count is a whole number of the workload's mix periods, so every
    run holds the same task mix. The host's speed is read before and after
    each block of tasks worth BLOCK_S, and each task's time is scaled by the
    block's factor (``hostspeed.scale``). A task fails if it raises or fails
    its check; checks run between tasks, outside the task's time.

    Returns (scaled times, wall times, attempted, failed, errors); warm-up
    tasks count as attempted and, if they fail, as failed.
    """
    errors: list[str] = []
    failed = 0
    clock = time.perf_counter

    def attempt(i: int) -> float:
        nonlocal failed
        start = clock()
        try:
            result = workload.run(i)
        except Exception:  # a raising task is a failed task
            elapsed = clock() - start
            record_failure(errors, i)
            failed += 1
            return elapsed
        elapsed = clock() - start
        try:
            workload.check(i, result)
        except Exception:  # so is one whose output fails its check
            record_failure(errors, i)
            failed += 1
        return elapsed

    warm = 0.0
    i = 0
    while warm < WARMUP_S:
        warm += attempt(i)
        i += 1
    start_index = i
    wall: list[float] = []
    scaled: list[float] = []
    block: list[float] = []
    busy = block_busy = 0.0
    before = hostspeed.reading()
    while busy < seconds or len(wall) < MIN_TASKS or len(wall) % workload.period:
        elapsed = attempt(start_index + len(wall))
        wall.append(elapsed)
        block.append(elapsed)
        busy += elapsed
        block_busy += elapsed
        if block_busy >= BLOCK_S:
            after = hostspeed.reading()
            factor = hostspeed.scale(before, after)
            scaled += [t * factor for t in block]
            before, block, block_busy = after, [], 0.0
    if block:
        factor = hostspeed.scale(before, hostspeed.reading())
        scaled += [t * factor for t in block]
    return scaled, wall, start_index + len(wall), failed, errors


def peak_rss_mb(workload) -> float:
    """Peak RSS of the program: the largest CLI child's where it runs in one."""
    kib = getattr(workload, "peak_rss_kib", None)
    if kib is None:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0  # Linux reports KiB


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cryopower").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, inputs: dict) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "min_tasks": MIN_TASKS,
        "trace": args.trace,
        "loop": "closed, one client, single process",
        "inputs": inputs,
        "environment": "acts only on its own processes: no cache drops, CPU governor or cgroup changes",
    }


def import_times() -> dict[str, float]:
    """Interpreter start and ``-X importtime`` figures from fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    interp, package, numpy = [], [], []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        interp.append(time.perf_counter() - start)
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cryopower"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
        package.append(cumulative["cryopower"])
        # numpy's share of the package import: 0 once it is loaded lazily.
        numpy.append(cumulative.get("numpy", 0.0))
    return {
        "import.interp_ms": statistics.median(interp) * 1e3,
        "import.cryopower_ms": statistics.median(package),
        "import.numpy_ms": statistics.median(numpy),
    }


def trace_run(seed: int, workdir: Path, errors: list[str]):
    """A fixed slice of every workload: a warm-up, then each task untraced and traced.

    Returns (metrics, attempted, failed, notes, inputs).
    """
    from tracing import Summary, Tracer

    cp = load_program(with_cli=True)
    workloads = [W(cp, seed, workdir) for W in WORKLOADS.values()]
    tracer = Tracer()
    attempted = failed = 0
    owner: dict[int, str] = {}

    def attempt(workload, i: int, span) -> float:
        """Run and check one task; returns the run's wall time."""
        nonlocal attempted, failed
        attempted += 1
        start = time.perf_counter()
        try:
            with span("task"):
                result = workload.trace_run(i, span)
            elapsed = time.perf_counter() - start
            workload.trace_check(i, result)
        except Exception:  # a raise or a failed check fails the task
            record_failure(errors, i)
            failed += 1
            elapsed = time.perf_counter() - start
        return elapsed

    for workload in workloads:  # warm-up: first-call costs stay out of the pairs
        for i in workload.trace_tasks:
            attempt(workload, i, _no_span)
    # Each task runs untraced and then traced, back to back, so that the
    # host's slow and fast phases (tens of seconds) fall on both alike.
    untraced = traced = 0.0
    for workload in workloads:
        for i in workload.trace_tasks:
            untraced += attempt(workload, i, _no_span)
            tracer.task = len(owner)
            owner[tracer.task] = workload.name
            tracer.install()
            try:
                traced += attempt(workload, i, tracer.span)
            finally:
                tracer.uninstall()

    s = Summary(tracer.spans)
    metrics = import_times()
    metrics["cli.run.calls"] = s.calls.get("cli.run", 0)
    metrics["cli.run.self_ms"] = s.self_time.get("cli.run", 0.0) * 1e3
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if name in metrics or layer in ("import", "trace", "cli.run"):
            continue
        if kind == "calls":
            metrics[name] = s.calls.get(layer, 0)
        elif kind == "busy_ms":
            metrics[name] = s.busy.get(layer, 0.0) * 1e3
        elif kind == "self_ms":
            metrics[name] = s.self_time.get(layer, 0.0) * 1e3
        elif kind in ("evals", "points"):
            metrics[name] = s.work.get(layer, 0)
    solves = s.calls.get("compare.devices_under_budget", 0)
    metrics["compare.devices_under_budget.loss_evals_per_call"] = (
        s.calls_under("losses.architecture_loss_at", "compare.devices_under_budget") / solves
        if solves
        else 0.0
    )
    metrics["trace.overhead_frac"] = traced / untraced - 1.0

    notes = [f"trace: {len(tracer.spans)} spans, traced {traced:.3f} s vs untraced {untraced:.3f} s"]
    for workload in workloads:
        tasks = {t for t, w in owner.items() if w == workload.name}
        wall = s.busy_in(("task",), tasks)
        layers = SHARES[workload.name]
        for layer in layers:
            notes.append(f"trace {workload.name}: {layer} {s.busy_in((layer,), tasks) / wall:.1%} of task wall")
        if len(layers) > 1:
            joint = s.busy_in(layers, tasks)
            notes.append(f"trace {workload.name}: {' + '.join(layers)} {joint / wall:.1%} of task wall")
        if workload.name == "cli_session":  # only its tasks have cli.run spans
            notes.append(f"trace cli_session: cli.run self {s.self_time['cli.run'] / wall:.1%} of task wall")
    tracer.write(OUT / "trace.jsonl")
    inputs = {workload.name: workload.describe() for workload in workloads}
    return metrics, attempted, failed, notes, inputs


def _no_span(name: str) -> contextlib.nullcontext:
    return contextlib.nullcontext()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            print(set_up(args.workload, args.seed, workdir)[2])
            return 0
        errors: list[str] = []
        if args.trace:
            metrics, attempted, failed, notes, inputs = trace_run(args.seed, workdir, errors)
            units = PER_LAYER
            counts = {name: IMPORT_SAMPLES for name in metrics if name.startswith("import.")}
        else:
            workload, first, _ = set_up(args.workload, args.seed, workdir)
            setup = setup_seconds(args.workload, args.seed, first)
            scaled, wall, attempted, failed, errors = timed_run(workload, args.seconds)
            metrics = {
                "setup_s": statistics.median(setup),
                "tasks_per_s": len(scaled) / sum(scaled),
                "task_p50_ms": statistics.median(scaled) * 1e3,
                "task_p90_ms": statistics.quantiles(scaled, n=10)[8] * 1e3,
                "peak_rss_mb": peak_rss_mb(workload),
            }
            units = END_TO_END
            counts = {name: len(scaled) for name in metrics}
            counts.update(setup_s=len(setup), peak_rss_mb=1)
            # Not a BENCHMARK.json metric: those must never be 0, and this one
            # is 0 on a correct program. It is the result's failed/attempted.
            notes = [
                f"{args.workload} failed_frac = {failed / attempted!r} ratio (n={attempted}, failed={failed})",
                # The same figures in unscaled wall time, and the mean scale factor.
                f"{args.workload} wall tasks_per_s = {len(wall) / sum(wall)!r} 1/s",
                f"{args.workload} wall task_p50_ms = {statistics.median(wall) * 1e3!r} ms",
                f"{args.workload} wall task_p90_ms = {statistics.quantiles(wall, n=10)[8] * 1e3!r} ms",
                f"{args.workload} host-speed scale = {sum(scaled) / sum(wall)!r} (scaled / wall task time)",
            ]
            inputs = workload.describe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in errors:
        print(error, file=sys.stderr)
    print("provenance " + json.dumps(provenance(args, inputs), sort_keys=True))
    for name, value in metrics.items():
        samples = f" (n={counts[name]})" if name in counts else ""
        print(f"{args.workload} {name} = {value!r} {units[name]}{samples}")
    for note in notes:
        print(note)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
