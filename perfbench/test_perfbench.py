"""The benchmark's own test.

Runs every workload at tiny size, traced and untraced, and checks that
the result line carries exactly the metrics BENCHMARK.json declares, with
their units, and that the report carries the workload's own figures.
Also checks that corrupted allocations are counted as failures and that
the benchmark refuses to run without the program's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

pytest.importorskip("scipy")  # tiny instances have no cached reference optima

import run  # noqa: E402  (pytest puts this file's directory on sys.path)

run.reference.add_program_to_path()

import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

from ehcopt import presets  # noqa: E402
from ehcopt.etfg import transform  # noqa: E402
from ehcopt.model import make_system_model  # noqa: E402
from ehcopt.solver import solve  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

COMMON = {
    "setup_s": "s", "wall_setup_s": "s", "host_slowdown": "ratio", "peak_rss_mb": "MB", "failed_frac": "ratio",
    "requests": "count",
}
WORKLOAD_METRICS = {
    "design-requests": {"request_p50_ms": "ms", "wall_request_p50_ms": "ms", "request_p99_ms": "ms", "export_s": "s"},
    "exact-search": {"exact_total_s": "s", "exact_sgm_ms": "ms"},
    "large-1000": {"export_s": "s", "anytime_wall_s": "s", "reported_gap": "ratio", "true_gap": "ratio"},
}


def tiny(workload, tmp_path, capsys, trace=0):
    argv = ["--workload", workload, "--size", "tiny", "--seconds", "0.1", "--trace", str(trace),
            "--workdir", str(tmp_path)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, tmp_path, capsys):
    report, result = tiny(workload, tmp_path, capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, report["errors"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    expected = {**COMMON, **WORKLOAD_METRICS[workload]}
    printed = {name: m["unit"] for name, m in report["workload_metrics"].items()}
    assert {name: printed.get(name) for name in expected} == expected
    for key in ("commit", "seed", "outputs_sha256"):
        assert report[key] is not None
    assert {"nproc", "cpu_model", "python", "scipy", "highs"} <= set(report["machine"])


def test_solver_nodes_repeat_exactly(tmp_path, capsys):
    first = tiny("exact-search", tmp_path, capsys, trace=1)[1]["metrics"]["solver.nodes"]["value"]
    second = tiny("exact-search", tmp_path, capsys, trace=1)[1]["metrics"]["solver.nodes"]["value"]
    assert first == second > 0


def test_wrong_value_is_counted_as_failed(tmp_path, capsys, monkeypatch):
    real_solve = workloads.solve

    def off_by_one(*args, **kwargs):
        allocation = real_solve(*args, **kwargs)
        if allocation.objective_value is not None:
            allocation.objective_value += 1
        return allocation

    monkeypatch.setattr(workloads, "solve", off_by_one)
    report, result = tiny("exact-search", tmp_path, capsys)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("evaluates to" in error for error in report["errors"])


def test_infeasible_allocation_is_counted_as_failed():
    graph = presets.example_inspection_tfg()
    roomy = presets.system_model("C1", "run1")
    cramped = make_system_model(
        [dataclasses.replace(d, memory_budget=Fraction(1)) for d in roomy.devices.values()],
        presets.channels("run1"),
    )
    allocation = solve(transform(graph, roomy), "latency")
    verdict = workloads.check_allocation(
        transform(graph, cramped), allocation, "latency", None, allocation.objective_value, True, NullTracer()
    )
    assert any("infeasible" in problem for problem in verdict.problems)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design-requests"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
