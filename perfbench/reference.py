"""Independent reference optima from HiGHS (through scipy), and their cache.

Run as ``python3 perfbench/reference.py JOBS OUT``.  JOBS is a JSON list
of ``{"key", "graph", "system", "objective", "cap"}`` (input file paths,
``cap`` as ``"n/d"`` or null); OUT receives the cache format
``{"highs": version, "entries": {key: {"status", "value"}}}``.

The model is ``milp.build_model``'s with its three linking rows per
expanded arc replaced by the marginal rows of the local polytope: for
each dependency and each device of either end, the arc columns with that
end on that device sum to the end's node column.  For 0/1 node columns
both forms fix every arc column to the product of its ends, so the
optimum is the same, but the marginal form has a far tighter LP bound,
which lets HiGHS prove 1000-task optima in seconds.  The constraint
matrix is sparse.  HiGHS's assignment is evaluated again with exact
arithmetic (``milp.evaluate``) and that exact value is the reference.

Keys hash the canonical JSON of the task graph and system files together
with the objective and the latency cap, so a cached reference is reused
only for the same instance.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIP_REL_GAP = 1e-9


def add_program_to_path() -> None:
    """Import ehcopt from this checkout's ``src`` and nowhere else."""
    if not (SRC / "ehcopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no ehcopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ehcopt

    if Path(ehcopt.__file__).resolve().parent != SRC / "ehcopt":
        raise SystemExit(f"error: imported ehcopt from {ehcopt.__file__}, not from {SRC}")


def canonical_json(path: Path) -> bytes:
    return json.dumps(json.loads(Path(path).read_text()), sort_keys=True, separators=(",", ":")).encode()


def reference_key(graph_json: bytes, system_json: bytes, objective: str, cap: Fraction | None) -> str:
    digest = hashlib.sha256()
    for part in (graph_json, system_json, objective.encode(), str(cap).encode()):
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


def load_cache(path: Path) -> dict:
    if not path.is_file():
        return {"highs": None, "entries": {}}
    return json.loads(path.read_text())


def save_cache(path: Path, cache: dict) -> None:
    path.write_text(json.dumps(cache, indent=1, sort_keys=True) + "\n")


def highs_version() -> str:
    try:
        from scipy.optimize._highspy import _core
    except ImportError:
        return "unknown"
    return f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}.{_core.HIGHS_VERSION_PATCH}"


def solve_reference(etfg, objective: str, cap: Fraction | None) -> dict:
    import numpy as np
    from scipy import optimize, sparse

    from ehcopt.milp import build_model, evaluate, objective_value

    model = build_model(etfg, objective, cap)
    rows, lower, upper = [], [], []
    for row in model.rows:
        if row.label.startswith("lnk"):
            continue
        rows.append(row.coeffs)
        lower.append(float(row.rhs) if row.sense in "EG" else -np.inf)
        upper.append(float(row.rhs) if row.sense in "EL" else np.inf)
    for (i, j), group in etfg.arcs_by_dep.items():
        for task, end in ((i, 1), (j, 3)):  # EtfgArc fields 1/3: source/destination device
            by_device: dict = defaultdict(dict)
            for arc in group:
                by_device[arc[end]][model.arc_col[arc[:4]]] = 1
            for device, coeffs in by_device.items():
                coeffs[model.node_col[(task, device)]] = -1
                rows.append(coeffs)
                lower.append(0.0)
                upper.append(0.0)
    r_idx, c_idx, values = [], [], []
    for r, coeffs in enumerate(rows):
        for col, value in coeffs.items():
            r_idx.append(r)
            c_idx.append(col)
            values.append(float(value))
    n = model.num_variables
    matrix = sparse.csr_array((values, (r_idx, c_idx)), shape=(len(rows), n))
    cost = np.zeros(n)
    for col, value in model.objective.items():
        cost[col] = float(value)
    result = optimize.milp(
        cost,
        constraints=optimize.LinearConstraint(matrix, lower, upper),
        integrality=np.ones(n),
        bounds=optimize.Bounds(0, 1),
        options={"mip_rel_gap": MIP_REL_GAP},
    )
    if result.status == 2:
        return {"status": "infeasible"}
    if result.status != 0:
        raise RuntimeError(f"HiGHS stopped without a proven result: {result.message}")
    assignment = {
        v.tasks[0]: v.devices[0] for v in model.variables if v.kind == "node" and result.x[v.column] > 0.5
    }
    breakdown = evaluate(etfg, assignment, cap if objective == "energy" else None)
    value = objective_value(breakdown, objective)
    if not breakdown.feasible or abs(float(value) - result.fun) > 1e-6 * abs(float(value)):
        raise RuntimeError("HiGHS solution does not evaluate to its reported optimum")
    return {"status": "optimal", "value": f"{value.numerator}/{value.denominator}"}


def main(argv: list[str]) -> int:
    add_program_to_path()
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        print("error: scipy (HiGHS) is needed to compute uncached reference optima", file=sys.stderr)
        return 2
    from ehcopt.etfg import transform
    from ehcopt.model import load_system_model, load_task_graph

    jobs_path, out_path = map(Path, argv)
    entries = {}
    for job in json.loads(jobs_path.read_text()):
        etfg = transform(load_task_graph(job["graph"]), load_system_model(job["system"]))
        cap = None if job["cap"] is None else Fraction(job["cap"])
        entries[job["key"]] = solve_reference(etfg, job["objective"], cap)
    save_cache(out_path, {"highs": highs_version(), "entries": entries})
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
