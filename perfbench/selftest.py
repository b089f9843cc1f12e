"""Self-test of the benchmark: the oracle catches wrong results.

    python3 perfbench/selftest.py

Injects wrong results into each workload's output check and into the
program itself, checks that BENCHMARK.json and run.py name the same
metrics, and that the traced run's counts repeat exactly at one seed.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import run
from oracle import Mismatch
from workloads import CliSession, DesignSearch, PointQueries


def caught(check, *args) -> bool:
    try:
        check(*args)
    except Mismatch:
        return True
    return False


def test_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_design_search(cp, workdir: Path) -> None:
    workload = DesignSearch(cp, 5, workdir)
    for i in range(3):  # one task of each kind
        result = workload.run(i)
        workload.check(i, result)
        if workload.pool[i]["kind"] == "sweep":
            point = result.points[workload.pool[i]["samples"][0] - 1]
            first = point.evaluations[0]
            thermal = dataclasses.replace(first.thermal, cooling_power=first.thermal.cooling_power * (1 + 1e-6))
            bad_point = dataclasses.replace(
                point, evaluations=(dataclasses.replace(first, thermal=thermal),) + point.evaluations[1:]
            )
            points = list(result.points)
            points[point.value - 1] = bad_point
            wrong = dataclasses.replace(result, points=tuple(points))
        else:
            # A claimed optimum 1 % above the true one, and one below every grid point.
            wrong = dataclasses.replace(result, objective_value=result.objective_value * 1.01)
            assert caught(workload.check, i, wrong), "raised optimum not caught"
            wrong = dataclasses.replace(result, objective_value=result.objective_value * 0.99)
        assert caught(workload.check, i, wrong), f"wrong {workload.pool[i]['kind']} result not caught"


def test_point_queries(cp, workdir: Path) -> None:
    workload = PointQueries(cp, 5, workdir)
    for i in range(10):
        result = workload.run(i)
        workload.check(i, result)
        config, validation, evaluations, report, wires, closed, bisect = result
        off_by_one = (config, validation, evaluations, report, wires, closed + 1, bisect + 1)
        assert caught(workload.check, i, off_by_one), "budget count one too high not caught"
        disagree = (config, validation, evaluations, report, wires, closed, bisect - 1)
        assert caught(workload.check, i, disagree), "solver disagreement not caught"
        shifted = (config, validation, evaluations, report, wires * (1 + 1e-6), closed, bisect)
        assert caught(workload.check, i, shifted), "wrong equivalent wire count not caught"


def bump_first_cooling_power(out: str) -> str:
    """The document with its first cooling power (or the defaults' eta_c) off by 1e-6."""
    if out.startswith("#"):
        return out.replace("cooling.eta_c = 0.1\n", "cooling.eta_c = 0.1000001\n")
    if out.startswith("{"):
        match = re.search(r'"cooling_power_w": ([^,\n}]+)', out)
        start, end = match.span(1)
    else:
        header, row = out.split("\n")[:2]
        column = header.split(",").index("cooling_power_w")
        start = len(header) + 1 + sum(len(cell) + 1 for cell in row.split(",")[:column])
        end = start + len(row.split(",")[column])
    return out[:start] + repr(float(out[start:end]) * (1 + 1e-6)) + out[end:]


def test_cli_session(cp, workdir: Path) -> None:
    workload = CliSession(cp, 5, workdir)
    kinds = {}
    for i, task in enumerate(workload.pool):
        kinds.setdefault(task["kind"], i)
    for i in kinds.values():
        code, out = workload.trace_run(i, run._no_span)
        workload.trace_check(i, (code, out))
        wrong = bump_first_cooling_power(out)
        assert wrong != out
        assert caught(workload.trace_check, i, (code, wrong)), f"{workload.pool[i]['kind']}: edited number not caught"
    i = kinds["evaluate"]
    result = workload.run(i)
    workload.check(i, result)
    assert caught(workload.check, i, (result[0], "0" * 64, result[2])), "stdout mismatch not caught"
    assert caught(workload.check, i, (1, result[1], b"boom")), "non-zero exit not caught"


def test_wrong_program(cp, workdir: Path) -> None:
    """A program whose cooling coefficient is 0.1 % off fails every design task."""
    thermal = cp.thermal
    original = thermal.carnot_cop
    thermal.carnot_cop = lambda *args: original(*args) * 1.001
    try:
        workload = DesignSearch(cp, 6, workdir)
        for i in range(3):
            assert caught(workload.check, i, workload.run(i)), f"task {i}: wrong program not caught"
    finally:
        thermal.carnot_cop = original


def test_trace_counts_repeat(workdir: Path) -> None:
    counts = []
    for _ in range(2):
        metrics, attempted, failed, _notes, _inputs = run.trace_run(3, workdir, [])
        assert failed == 0, f"{failed} of {attempted} traced tasks failed"
        counts.append({k: v for k, v in metrics.items() if run.PER_LAYER[k] == "count"})
        counts[-1]["loss_evals_per_call"] = metrics["compare.devices_under_budget.loss_evals_per_call"]
    assert counts[0] == counts[1], f"traced counts differ between runs: {counts}"
    assert all(value > 0 for value in counts[0].values()), counts[0]


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        cp = run.load_program(with_cli=True)
        test_metric_names()
        test_design_search(cp, workdir)
        test_point_queries(cp, workdir)
        test_cli_session(cp, workdir)
        test_wrong_program(cp, workdir)
        test_trace_counts_repeat(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
