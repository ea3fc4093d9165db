"""End-to-end cross-check against an independent ILP solver.

The exported MPS text is parsed back and handed to HiGHS (via scipy).
Agreement of the optimal objective with the built-in solvers validates
the whole chain: expansion -> model rows -> MPS emission -> external
optimization.
"""

import math

import numpy as np
import pytest

scipy_opt = pytest.importorskip("scipy.optimize")

from conftest import random_oracle_instance
from mps_text import read_mps
from ehcopt import presets
from ehcopt.etfg import transform
from ehcopt.milp import Objective, build_model
from ehcopt.mps import model_to_mps
from ehcopt.solver import SolveStatus, solve_bruteforce


def solve_parsed_mps(parsed):
    col_index = {name: i for i, name in enumerate(parsed.column_order)}
    n = len(parsed.column_order)
    c = np.zeros(n)
    for name, entries in parsed.columns.items():
        if parsed.objective_row in entries:
            c[col_index[name]] = entries[parsed.objective_row]
    rows = []
    lbs = []
    ubs = []
    for row_name in parsed.row_order:
        coeffs = np.zeros(n)
        for name, entries in parsed.columns.items():
            if row_name in entries:
                coeffs[col_index[name]] = entries[row_name]
        rhs = parsed.rhs.get(row_name, 0.0)
        sense = parsed.row_sense[row_name]
        rows.append(coeffs)
        lbs.append(rhs if sense in ("E", "G") else -np.inf)
        ubs.append(rhs if sense in ("E", "L") else np.inf)
    constraints = scipy_opt.LinearConstraint(np.array(rows), np.array(lbs), np.array(ubs))
    result = scipy_opt.milp(
        c=c,
        constraints=constraints,
        integrality=np.ones(n),
        bounds=scipy_opt.Bounds(0, 1),
    )
    return result


@pytest.mark.parametrize("objective", ["latency", "energy"])
def test_external_solver_agrees_on_small_instances(objective):
    for seed in (1, 4, 12, 33, 57):
        etfg, threshold = random_oracle_instance(seed, max_tasks=6)
        thr = threshold if objective == "energy" else None
        reference = solve_bruteforce(etfg, objective, thr)
        model = build_model(etfg, Objective(objective), thr)
        parsed = read_mps(model_to_mps(model))
        result = solve_parsed_mps(parsed)
        if reference.status is SolveStatus.INFEASIBLE:
            assert not result.success, f"seed {seed}: external solver found a solution"
        else:
            assert result.success, f"seed {seed}: external solver failed"
            assert math.isclose(
                result.fun, float(reference.objective_value), rel_tol=1e-7, abs_tol=1e-9
            ), f"seed {seed}"


def test_external_solver_on_bundled_example():
    etfg = transform(presets.example_inspection_tfg(), presets.system_model("C1", "run1"))
    model = build_model(etfg, "latency")
    result = solve_parsed_mps(read_mps(model_to_mps(model)))
    reference = solve_bruteforce(etfg, "latency")
    assert result.success
    assert math.isclose(result.fun, float(reference.objective_value), rel_tol=1e-7)
