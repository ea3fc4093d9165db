"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  The solver-equivalence suites are the heavyweight part; the whole
module takes a few minutes, dominated by the deliberate 60-second
time-limited run in the scalability check.
"""

import random
import time
from fractions import Fraction

from conftest import (
    ALL,
    BENCHMARK_SIZES,
    C,
    E,
    H,
    random_oracle_instance,
    random_tree_instance,
    simple_task,
    sized_task_graph,
    solve_dp,
    solve_searched,
    two_task_chain,
)
from mps_text import read_mps
from ehcopt import presets
from ehcopt.analysis import run_baselines
from ehcopt.etfg import transform
from ehcopt.generator import GenSpec, default_param_spec, generate_tfg, synthesize_params
from ehcopt.milp import build_model, evaluate
from ehcopt.model import TaskGraph
from ehcopt.mps import model_to_mps
from ehcopt.solver import (
    SolveConfig,
    SolveStatus,
    solve,
    solve_bruteforce,
)

C1 = presets.system_model("C1", "run1")


def report(number, name, detail=""):
    print(f"\nACCEPTANCE {number} ({name}): PASS {detail}".rstrip())


def test_criterion_1_variable_count_reproduction():
    """Models over expansions sized like the 18 published benchmarks carry
    exactly the published variable counts, and ``build_model`` runs in
    linear time: the per-variable build cost of the 1000-task class
    (P3.x, S3.x, M3.x) is at most 1.5x that of the 100-task class (P2.x,
    S2.x, M2.x).  Each build is timed like timeit: best of 3, with GC off
    so pauses from the test harness's unrelated heap are excluded.  The
    repeats are outer loops over all 18 models, so a slow spell of the
    host hits every size class alike."""
    import gc

    expansions = []
    for name, n_tasks, n_arcs, exp_nodes, exp_arcs, expect_vars in BENCHMARK_SIZES:
        graph = sized_task_graph(n_tasks, n_arcs, exp_nodes, exp_arcs)
        etfg = transform(graph, C1)
        assert (etfg.node_count, etfg.arc_count) == (exp_nodes, exp_arcs), name
        expansions.append((name, etfg, expect_vars))

    best = {}
    for _ in range(3):
        for name, etfg, expect_vars in expansions:
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                model = build_model(etfg, "latency")
                elapsed = time.perf_counter() - start
            finally:
                if gc_was_enabled:
                    gc.enable()
            assert model.num_variables == expect_vars, f"{name}: {model.num_variables} != {expect_vars}"
            assert model.num_variables == etfg.node_count + etfg.arc_count
            best[name] = min(elapsed, best.get(name, elapsed))

    def us_per_variable(size_class):
        members = [(name, v) for name, _, v in expansions if name[1] == size_class]
        assert len(members) == 6
        return 1e6 * sum(best[name] for name, _ in members) / sum(v for _, v in members)

    small, large = us_per_variable("2"), us_per_variable("3")
    ratio = large / small
    assert ratio <= 1.5, (
        f"build cost per variable grows with size: {large:.1f} us (1000-task class) "
        f"vs {small:.1f} us (100-task class), ratio {ratio:.2f} > 1.5"
    )
    report(
        1,
        "variable-count reproduction",
        f"18/18 exact, builds {sum(best.values()):.2f}s (best of 3), "
        f"{small:.1f} us/var at 100 tasks, {large:.1f} us/var at 1000 tasks, ratio {ratio:.2f}",
    )


def test_criterion_2_transformation_example():
    """The two-task expansion reproduces both documented scenarios down to
    the exact indirect-arc sets."""
    free = transform(two_task_chain(), C1)
    assert free.node_count == 6 and free.arc_count == 9
    assert {a[:4] for a in free.iter_arcs() if a.indirect} == {(1, E, 2, C), (1, C, 2, E)}

    fixed = transform(two_task_chain(allowed_first=(E,)), C1)
    assert fixed.node_count == 4 and fixed.arc_count == 3
    assert {a[:4] for a in fixed.iter_arcs() if a.indirect} == {(1, E, 2, C)}
    report(2, "transformation example", "6/9 and 4/3 with exact indirect sets")


def test_criterion_3_oracle_equivalence(monkeypatch):
    """Branch and bound equals exhaustive enumeration (objective value and
    feasibility verdict) on 500 random budgeted instances under both
    objectives and both channel profiles.  The DP is switched off, so
    that the search answers every instance and its tie-break shows."""
    started = time.perf_counter()
    checked = 0
    infeasible_seen = 0
    for seed in range(500):
        etfg, threshold = random_oracle_instance(seed, max_tasks=10)
        objective = ("latency", "energy")[seed % 2]
        thr = threshold if objective == "energy" else None
        bf = solve_bruteforce(etfg, objective, thr)
        bb = solve_searched(monkeypatch, etfg, objective, thr)
        assert bf.status == bb.status, f"seed {seed}: {bf.status} != {bb.status}"
        if bf.status is SolveStatus.INFEASIBLE:
            infeasible_seen += 1
        else:
            assert bf.objective_value == bb.objective_value, f"seed {seed}"
            assert bf.assignment == bb.assignment, f"seed {seed} tie-break"
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 500
    assert infeasible_seen > 10, "budget draws should produce infeasible cases"
    assert elapsed < 300, f"suite took {elapsed:.0f}s"
    report(3, "oracle equivalence", f"{checked} instances ({infeasible_seen} infeasible) in {elapsed:.0f}s")


def test_criterion_4_tree_dp_equivalence():
    """The tree dynamic program matches exhaustive enumeration exactly on
    200 random unbudgeted forests."""
    started = time.perf_counter()
    for seed in range(200):
        etfg = random_tree_instance(seed, max_tasks=12)
        objective = ("latency", "energy")[seed % 2]
        dp = solve_dp(etfg, objective)
        bf = solve_bruteforce(etfg, objective)
        assert dp.objective_value == bf.objective_value, f"seed {seed}"
        assert dp.status is bf.status is SolveStatus.OPTIMAL
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"suite took {elapsed:.0f}s"
    report(4, "tree-DP equivalence", f"200 instances in {elapsed:.0f}s")


def test_criterion_5_dominance_over_extremes():
    """The optimum never loses to a feasible extreme allocation."""
    compared = 0
    for seed in range(100):
        etfg, threshold = random_oracle_instance(seed, max_tasks=8)
        for objective in ("latency", "energy"):
            thr = threshold if objective == "energy" else None
            cases = run_baselines(etfg, objective, thr)
            by_kind = {case.kind: case for case in cases}
            optimum = by_kind["O_L"] if objective == "latency" else by_kind["O_E"]
            if not optimum.feasible:
                continue
            for kind in ("E", "H", "C"):
                case = by_kind[kind]
                if case.feasible:
                    metric = (
                        case.breakdown.total_latency
                        if objective == "latency"
                        else case.breakdown.total_energy
                    )
                    own = (
                        optimum.breakdown.total_latency
                        if objective == "latency"
                        else optimum.breakdown.total_energy
                    )
                    assert own <= metric, f"seed {seed} {objective} vs {kind}"
                    compared += 1
    assert compared > 50
    report(5, "dominance over extremes", f"{compared} comparisons")


def test_criterion_6_cross_objective_sanity():
    """latency(O_L) <= latency(O_E), energy(O_E) <= energy(O_L); with the
    8 s threshold active, every energy-optimal allocation honors it."""
    checked = 0
    instances = []
    for config in ("C1", "C2", "C3"):
        for profile in ("run1", "run2"):
            system = presets.system_model(config, profile)
            instances.append(transform(presets.example_inspection_tfg(), system))
    for seed in range(20):
        etfg, _ = random_oracle_instance(seed + 1000, max_tasks=8)
        instances.append(etfg)
    threshold = Fraction(8)
    for etfg in instances:
        o_l = solve(etfg, "latency")
        o_e = solve(etfg, "energy", threshold)
        if o_l.status is SolveStatus.INFEASIBLE or o_e.status is SolveStatus.INFEASIBLE:
            continue
        assert o_l.breakdown.total_latency <= o_e.breakdown.total_latency
        assert o_e.breakdown.total_energy <= o_l.breakdown.total_energy
        assert o_e.breakdown.total_latency <= threshold
        assert o_e.breakdown.latency_ok is True
        checked += 1
    assert checked >= 10
    report(6, "cross-objective sanity", f"{checked} instances incl. 6 bundled-app variants")


def test_criterion_7_energy_budget_row_fidelity():
    """On a three-task pipeline with a relayed hop the hub's energy row
    carries the relay term and the evaluator's budget usage matches hand
    arithmetic."""
    data1, data2 = Fraction(2 * 10**6), Fraction(5 * 10**5)
    tasks = (
        simple_task(1, (E,), latency=2, power=3, data=data1),
        simple_task(2, ALL, latency=1, power=2, data=data2),
        simple_task(3, (C,), latency=Fraction(1, 2), power=10),
    )
    graph = TaskGraph(tasks=tasks, arcs=((1, 2), (2, 3)))
    etfg = transform(graph, C1)
    model = build_model(etfg, "latency")
    rows = {row.label: row for row in model.rows}

    row_h = rows["enr_h"]
    # relay share for task 1's output crossing e->c via the hub:
    # D1 * (rx(e->h) + tx(h->c)) = 2 Mbit * (0.70 + 2.5) uJ/bit = 6.4 J
    col = model.arc_col[(1, E, 2, C)]
    assert row_h.coeffs[col] == Fraction(64, 10)
    # same structure for task 2's output when it crosses e->c
    col2 = model.arc_col[(2, E, 3, C)]
    assert row_h.coeffs[col2] == data2 * (Fraction(7, 10**7) + Fraction(25, 10**7))

    row_e = rows["enr_e"]
    assert row_e.coeffs[col] == Fraction(2)  # tx share 2 Mbit * 1.0 uJ/bit

    # evaluator agrees with the same arithmetic at a concrete point
    b = evaluate(etfg, {1: E, 2: C, 3: C})
    expected_hub = Fraction(64, 10)  # relay only; nothing executes on h
    assert b.device_energy[H] == expected_hub
    expected_edge = tasks[0].latency[E] * tasks[0].power[E] + Fraction(2)
    assert b.device_energy[E] == expected_edge
    on_cloud = {node.task: node for task in (2, 3) for node in etfg.nodes_by_task[task] if node.device is C}
    expected_cloud = (
        on_cloud[2].energy
        + on_cloud[3].energy
        + data1 * Fraction(125, 10**8)  # rx(h->c) for the relayed transfer
    )
    assert b.device_energy[C] == expected_cloud
    assert abs(b.device_energy[H] - expected_hub) <= expected_hub * Fraction(1, 10**9)
    report(7, "energy-budget row fidelity", "relay coefficients exact")


def test_criterion_8_scalability():
    """End-to-end on a 1000-node mixed benchmark: expansion plus model
    build under 5 s, a 60 s-limited search returns an incumbent with a
    reported gap, and the exported MPS survives a parse round-trip."""
    spec = GenSpec(
        "mixed", 1000, 4, 4,
        fixed_edge_fraction=Fraction(5, 100),
        fixed_hub_fraction=Fraction(2, 100),
        seed=8,
    )
    graph = synthesize_params(generate_tfg(spec), default_param_spec("C1"), C1, 8)

    started = time.perf_counter()
    etfg = transform(graph, C1)
    model = build_model(etfg, "latency")
    build_time = time.perf_counter() - started
    assert build_time < 5.0, f"transform+build took {build_time:.2f}s"
    assert model.num_variables == etfg.node_count + etfg.arc_count

    result = solve(etfg, "latency", config=SolveConfig(time_limit=60))
    assert result.status in (SolveStatus.FEASIBLE, SolveStatus.OPTIMAL)
    assert result.assignment is not None
    if result.status is SolveStatus.FEASIBLE:
        assert result.gap is not None and 0 <= result.gap <= 1
    detail = (
        f"build {build_time:.2f}s, {model.num_variables} vars, "
        f"{result.status.value}"
        + (f" gap {result.gap:.3f}" if result.gap is not None else "")
    )

    text = model_to_mps(model)
    parsed = read_mps(text)
    assert parsed.num_columns == model.num_variables
    assert parsed.num_rows == len(model.rows)
    assert parsed.binaries == set(parsed.column_order)
    report(8, "scalability", detail)


def test_criterion_9_substituted_breakdown_invariants():
    """Absolute figure-level results are not reproducible (the profiled
    inputs are unpublished), so the substitute is structural: exact
    conservation of the latency/energy breakdowns on random instances,
    on top of criteria 3-7."""
    rng = random.Random(99)
    checked = 0
    for seed in range(40):
        etfg, _ = random_oracle_instance(seed + 2000, max_tasks=9)
        assignment = {t.id: rng.choice(t.allowed) for t in etfg.graph.tasks}
        b = evaluate(etfg, assignment)
        assert sum(b.comp_latency.values()) + sum(b.comm_latency.values()) == b.total_latency
        assert sum(b.comp_energy.values()) + sum(b.comm_energy.values()) == b.total_energy
        assert sum(b.device_energy.values()) == b.total_energy
        single = {t.id: assignment[1] for t in etfg.graph.tasks}
        if all(assignment[1] in t.allowed for t in etfg.graph.tasks):
            bs = evaluate(etfg, single)
            assert all(v == 0 for v in bs.comm_latency.values())
            assert all(v == 0 for v in bs.comm_energy.values())
        checked += 1
    assert checked == 40
    report(9, "substituted breakdown invariants", f"{checked} random instances, exact conservation")
