"""The benchmark's workloads: instances made from the seed, requests, checks.

Every request starts from JSON files on disk and composes the public
ehcopt calls in the order ``cli.cmd_solve``, ``cli.cmd_baseline`` and
``cli.cmd_export`` use them, writing the same output files.  Each call
into a layer sits in a span named after it.  After a request, outside its
timed region, its outputs are checked: every allocation must evaluate
feasible to exactly its claimed value and agree with the HiGHS reference
optimum.

Why these workloads (each stresses a layer the others barely touch):

* ``design-requests``: a designer iterating on app-scale (15-task)
  graphs.  Per-request fixed costs dominate (load/validate, transform,
  the solver's integer tables, evaluate, output, small exports); the
  search itself takes a few milliseconds.
* ``exact-search``: small budgeted graphs solved to a proven result under
  latency and under energy with a binding latency cap.  Branch-and-bound
  node throughput and pruning dominate; ``build_model`` and the MPS/LP
  writers are never called, so export-side changes must not move it.
  Run by hand only: it is not in BENCHMARK.json (see README.md).
* ``large-1000``: the three 1000-task families of the ROADMAP baseline
  plus the mixed one with every budget removed.  Exact-``Fraction``
  model building and MPS/LP writing dominate the exports, and the
  time-limited latency solves measure anytime quality.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from ehcopt import analysis, presets
from ehcopt.etfg import transform
from ehcopt.generator import GenSpec, default_param_spec, generate_tfg, synthesize_params
from ehcopt.milp import build_model, evaluate, objective_value
from ehcopt.model import (
    load_system_model,
    load_task_graph,
    make_system_model,
    save_system_model,
    save_task_graph,
    validate_task_graph,
)
from ehcopt.mps import model_to_lp, model_to_mps
from ehcopt.solver import SolveConfig, SolveStatus, solve
from tracing import NullTracer

FAMILIES = ("mixed", "serial", "parallel")
FIXED_EDGE = Fraction(5, 100)
FIXED_HUB = Fraction(2, 100)
DEFAULT_CAP = presets.DEFAULT_LATENCY_THRESHOLD
REL_TOL = Fraction(1, 10**7)  # the tolerance tests/test_cross_solver.py uses

# Per-size shapes.  "full" is the benchmark; "tiny" runs every code path in
# seconds for the benchmark's own test.  ``pass_s`` is the wall time of one
# pass (requests, their checks and the host-speed calibrations) measured on
# a 2-core Xeon in its fast spells; a run serves ``--seconds`` over it,
# rounded, whole passes.
SIZES = {
    "full": {
        "design-requests": dict(
            systems=[(c, p) for c in ("C1", "C2", "C3") for p in ("run1", "run2")],
            tasks=15, per_family=4, pass_s=5.0,
        ),
        "exact-search": dict(tasks=16, per_family=84, pass_s=14.0),
        "large-1000": dict(tasks=1000, time_limit=2.0, pass_s=24.0),
    },
    "tiny": {
        "design-requests": dict(systems=[("C1", "run1"), ("C3", "run2")], tasks=6, per_family=1, pass_s=1.0),
        "exact-search": dict(tasks=7, per_family=1, pass_s=1.0),
        "large-1000": dict(tasks=40, time_limit=0.2, pass_s=1.0),
    },
}


@dataclass(frozen=True)
class Request:
    kind: str  # "solve", "baseline" or "export"
    graph: Path
    system: Path
    objectives: tuple[str, ...]  # solve: its objective; export: one model each
    cap: Fraction | None = None  # latency cap of the energy objective
    time_limit: float | None = None

    def reference_jobs(self) -> tuple[tuple[str, Fraction | None], ...]:
        """(objective, cap) pairs whose reference optimum the check needs."""
        if self.kind == "solve":
            return ((self.objectives[0], self.cap),)
        if self.kind == "baseline":
            return (("latency", None), ("energy", DEFAULT_CAP))
        return ()


def _graph(family: str, tasks: int, degree: int, seed: int, config: str, system) -> tuple:
    started = time.perf_counter()
    spec = GenSpec(family, tasks, degree, degree, FIXED_EDGE, FIXED_HUB, seed)
    graph = synthesize_params(generate_tfg(spec), default_param_spec(config), system, seed)
    return graph, time.perf_counter() - started


def _profile_cap(graph) -> Fraction:
    """Latency cap from the profiles alone: halfway between the summed
    fastest and summed slowest computation latencies."""
    fastest = sum(min(t.latency.values()) for t in graph.tasks)
    slowest = sum(max(t.latency.values()) for t in graph.tasks)
    return (fastest + slowest) / 2


def build(workload: str, size: str, seed: int, inputs: Path) -> tuple[list[Request], float]:
    """Write the workload's input files; return its requests (one pass)
    and the time spent generating graphs."""
    shape = SIZES[size][workload]
    rng = random.Random(seed)
    requests: list[Request] = []
    generating = 0.0

    def save(graph, name: str) -> Path:
        path = inputs / f"{name}.json"
        save_task_graph(graph, path)
        return path

    def save_system(system, name: str) -> Path:
        path = inputs / f"{name}.system.json"
        save_system_model(system, path)
        return path

    if workload == "design-requests":
        for config, profile in shape["systems"]:
            system = presets.system_model(config, profile)
            spath = save_system(system, f"{config}-{profile}")
            paths = [save(presets.example_inspection_tfg(), f"{config}-{profile}-uav_inspection_15")]
            for family in FAMILIES:
                for k in range(shape["per_family"]):
                    graph, spent = _graph(family, shape["tasks"], 3, rng.randrange(2**31), config, system)
                    generating += spent
                    paths.append(save(graph, f"{config}-{profile}-{family}-{k}"))
            for path in paths:
                requests += [
                    Request("solve", path, spath, ("latency",)),
                    Request("solve", path, spath, ("energy",), DEFAULT_CAP),
                    Request("baseline", path, spath, ("latency",)),
                    Request("export", path, spath, ("latency",)),
                ]
    elif workload == "exact-search":
        system = presets.system_model("C1", "run1")
        spath = save_system(system, "C1-run1")
        for family in FAMILIES:
            for k in range(shape["per_family"]):
                graph, spent = _graph(family, shape["tasks"], 4, rng.randrange(2**31), "C1", system)
                generating += spent
                path = save(graph, f"{family}-{k}")
                requests += [
                    Request("solve", path, spath, ("latency",)),
                    Request("solve", path, spath, ("energy",), _profile_cap(graph)),
                ]
    elif workload == "large-1000":
        budgeted = presets.system_model("C1", "run1")
        unbudgeted = make_system_model(
            [
                dataclasses.replace(presets.device(key), memory_budget=None, storage_budget=None, energy_budget=None)
                for key in presets.CONFIGURATIONS["C1"]
            ],
            presets.channels("run1"),
        )
        spath = save_system(budgeted, "C1-run1")
        instances = []
        for family in FAMILIES:
            # the workload seed is the GenSpec seed, so seed 8 gives the
            # ROADMAP baseline instances
            graph, spent = _graph(family, shape["tasks"], 4, seed, "C1", budgeted)
            generating += spent
            instances.append((save(graph, family), spath))
        instances.append((instances[0][0], save_system(unbudgeted, "C1-run1-unbudgeted")))
        for path, spath in instances:
            # one export per objective, as ``ehcopt export`` takes one
            requests += [
                Request("export", path, spath, ("latency",)),
                Request("export", path, spath, ("energy",), DEFAULT_CAP),
                Request("solve", path, spath, ("latency",), time_limit=shape["time_limit"]),
            ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return requests, generating


def warm_up(directory: Path) -> None:
    """Serve one request of each kind on the bundled app, untimed, so that
    lazy imports and first-call costs are paid before measuring."""
    directory.mkdir(parents=True)
    graph, system = directory / "uav_inspection_15.json", directory / "C1-run1.system.json"
    save_task_graph(presets.example_inspection_tfg(), graph)
    save_system_model(presets.system_model("C1", "run1"), system)
    for kind in ("solve", "baseline", "export"):
        serve(Request(kind, graph, system, ("latency",)), directory, NullTracer())


# --- requests -----------------------------------------------------------------


def _load(req: Request, tracer):
    with tracer.span("model.load"):
        graph = load_task_graph(req.graph)
        report = validate_task_graph(graph)
        if not report.ok:
            raise ValueError(f"invalid task graph: {report}")
        system = load_system_model(req.system)
    with tracer.span("etfg.transform"):
        etfg = transform(graph, system)
    tracer.add("etfg.arcs", etfg.arc_count)
    return etfg


def serve(req: Request, out: Path, tracer) -> dict:
    """Run one request; return what its check and the output digest need."""
    etfg = _load(req, tracer)
    result = {"etfg": etfg}
    if req.kind == "solve":
        objective = req.objectives[0]
        started = time.perf_counter()
        with tracer.span("solver.solve"):
            allocation = solve(etfg, objective, req.cap, SolveConfig(time_limit=req.time_limit), method="auto")
        result["solve_s"] = time.perf_counter() - started
        with tracer.span("cli.output"):
            text = json.dumps(allocation.to_dict(), indent=2, sort_keys=True) + "\n"
            (out / "allocation.json").write_text(text)
            (out / "solver_stats.json").write_text(
                json.dumps(allocation.stats, indent=2, sort_keys=True, default=str) + "\n"
            )
        result.update(allocation=allocation, outputs=[text])
    elif req.kind == "baseline":
        config = SolveConfig(time_limit=req.time_limit)
        with tracer.span("analysis.baseline"):
            cases = analysis.run_baselines(etfg, req.objectives[0], DEFAULT_CAP, config)
        with tracer.span("cli.output"):
            csv_text = analysis.cases_to_csv(cases)
            json_text = analysis.cases_to_json(cases)
            (out / "baseline.csv").write_text(csv_text)
            (out / "baseline.json").write_text(json_text)
        result.update(cases=cases, outputs=[csv_text, json_text])
    else:
        models, outputs = [], []
        for objective in req.objectives:
            cap = req.cap if objective == "energy" else None
            with tracer.span("milp.build_model"):
                model = build_model(etfg, objective, cap)
            if tracer.enabled:
                tracer.add("milp.nonzeros", len(model.objective) + sum(len(r.coeffs) for r in model.rows))
            with tracer.span("mps.mps"):
                mps_text = model_to_mps(model)
            with tracer.span("mps.lp"):
                lp_text = model_to_lp(model)
            tracer.add("mps.bytes", len(mps_text) + len(lp_text))
            with tracer.span("cli.output"):
                (out / f"model_{objective}.mps").write_text(mps_text)
                (out / f"model_{objective}.lp").write_text(lp_text)
            models.append((model.num_variables, len(model.rows), mps_text, lp_text))
            outputs += [mps_text, lp_text]
        result.update(models=models, outputs=outputs)
    return result


def digest_parts(req: Request, result: dict) -> list[str]:
    """The request's outputs as the run's output digest takes them."""
    if req.kind == "solve" and req.time_limit is not None:
        # how far the search got before the time limit depends on the
        # machine's speed; these are checked against the reference instead
        return []
    return result["outputs"]


# --- checks -------------------------------------------------------------------


@dataclass
class Verdict:
    problems: list[str]
    value_ratio: Fraction | None = None  # returned value / reference optimum
    bound_ratio: Fraction | None = None  # reported lower bound / reference optimum
    evaluate_s: float = 0.0


def _reference(refs: dict, key: str) -> Fraction | None:
    entry = refs[key]
    return None if entry["status"] == "infeasible" else Fraction(entry["value"])


def check_allocation(etfg, allocation, objective: str, cap, ref: Fraction | None, exact: bool, tracer) -> Verdict:
    """Feasible, exactly its claimed value, and consistent with the
    reference: equal to it when ``exact``, otherwise an incumbent no better
    than it with a reported bound no worse than it."""
    problems: list[str] = []
    if allocation.status is SolveStatus.INFEASIBLE:
        if ref is not None:
            problems.append("claims infeasible but the reference has an optimum")
        return Verdict(problems)
    if allocation.assignment is None or allocation.objective_value is None:
        return Verdict(["no allocation returned"])
    started = time.perf_counter()
    with tracer.span("milp.evaluate"):
        breakdown = evaluate(etfg, allocation.assignment, cap if objective == "energy" else None)
    verdict = Verdict(problems, evaluate_s=time.perf_counter() - started)
    value = allocation.objective_value
    if not breakdown.feasible:
        problems.append(f"allocation infeasible: {breakdown.violations or 'latency cap exceeded'}")
    if objective_value(breakdown, objective) != value:
        problems.append(f"claimed value {float(value)} but evaluates to {float(objective_value(breakdown, objective))}")
    if ref is None:
        problems.append("returned an allocation but the reference proves the instance infeasible")
        return verdict
    bound = value if allocation.status is SolveStatus.OPTIMAL else value * (1 - Fraction(allocation.gap))
    if exact:
        if allocation.status is not SolveStatus.OPTIMAL:
            problems.append(f"status {allocation.status.value}, expected a proven result")
        if abs(value - ref) > REL_TOL * ref:
            problems.append(f"value {float(value)} differs from reference {float(ref)}")
    else:
        if value < ref * (1 - REL_TOL):
            problems.append(f"incumbent {float(value)} below the reference optimum {float(ref)}")
        if bound > ref * (1 + REL_TOL):
            problems.append(f"reported bound {float(bound)} above the reference optimum {float(ref)}")
    verdict.value_ratio = value / ref
    verdict.bound_ratio = bound / ref
    return verdict


def check(req: Request, result: dict, refs: dict, keys: tuple[str, ...], tracer) -> Verdict:
    etfg = result["etfg"]
    if req.kind == "solve":
        return check_allocation(
            etfg, result["allocation"], req.objectives[0], req.cap,
            _reference(refs, keys[0]), req.time_limit is None, tracer,
        )
    if req.kind == "baseline":
        problems: list[str] = []
        evaluate_s = 0.0
        optima = {"O_L": _reference(refs, keys[0]), "O_E": _reference(refs, keys[1])}
        for case in result["cases"]:
            if case.assignment is None:
                if case.kind in optima and optima[case.kind] is not None:
                    problems.append(f"{case.kind}: reported infeasible but the reference has an optimum")
                continue
            started = time.perf_counter()
            with tracer.span("milp.evaluate"):
                breakdown = evaluate(etfg, case.assignment, DEFAULT_CAP if case.kind == "O_E" else None)
            evaluate_s += time.perf_counter() - started
            objective = "energy" if case.kind == "O_E" else "latency"
            if objective_value(breakdown, objective) != case.objective_value:
                problems.append(f"{case.kind}: claimed value differs from its evaluation")
            if breakdown.feasible != case.feasible:
                problems.append(f"{case.kind}: feasibility flag differs from its evaluation")
            ref = optima.get(case.kind)
            if case.kind in optima and (ref is None or abs(case.objective_value - ref) > REL_TOL * ref):
                problems.append(f"{case.kind}: value differs from the reference optimum")
        return Verdict(problems, evaluate_s=evaluate_s)
    problems = []
    expected_columns = etfg.node_count + etfg.arc_count
    for columns, rows, mps_text, lp_text in result["models"]:
        if columns != expected_columns:
            problems.append(f"model has {columns} columns, expected {expected_columns}")
        if mps_text.count("\n BV BND ") != columns or not mps_text.endswith("ENDATA\n"):
            problems.append("MPS text does not declare every column binary")
        if sum(mps_text.count(f"\n {sense}  R") for sense in "LEG") != rows:
            problems.append("MPS text does not declare every row")
        if not lp_text.endswith("End\n") or lp_text.count("\n ") < rows + columns:
            problems.append("LP text is truncated")
    return Verdict(problems)
