import dataclasses
import hashlib
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    ALL,
    C,
    E,
    H,
    complete_dag,
    make_device,
    random_oracle_instance,
    random_tree_instance,
    serial_200_graph,
    simple_task,
    solve_dp,
    solve_searched,
    two_task_chain,
    uav_forest_without_budgets,
    unbudgeted_system,
    with_cloud_relay,
    with_direct_edge_cloud,
)
from ehcopt import presets, solver
from ehcopt.etfg import transform
from ehcopt.milp import build_model, evaluate, objective_value
from ehcopt.model import ROLES, TaskGraph, make_system_model, topological_order
from ehcopt.solver import (
    InstanceTooLarge,
    SolveConfig,
    SolveStatus,
    solve,
    solve_bruteforce,
)

PLAIN = unbudgeted_system("run1")


def test_single_task_argmin(monkeypatch):
    g = TaskGraph(
        tasks=(simple_task(1, ALL, latency={E: 3, H: 2, C: 1}),),
        arcs=(),
    )
    etfg = transform(g, PLAIN)
    for result in (solve_bruteforce(etfg), solve_searched(monkeypatch, etfg), solve_dp(etfg)):
        assert result.status is SolveStatus.OPTIMAL
        assert result.assignment == {1: C}
        assert result.objective_value == 1


def test_degenerate_tie_breaks_lexicographically(monkeypatch):
    # identical costs everywhere and no data flow: first assignment wins
    g = two_task_chain(data=0)
    g = TaskGraph(
        tasks=tuple(simple_task(t.id, ALL, latency=1, power=1) for t in g.tasks),
        arcs=g.arcs,
    )
    etfg = transform(g, PLAIN)
    bf = solve_bruteforce(etfg, "latency")
    bb = solve_searched(monkeypatch, etfg, "latency")
    dp = solve_dp(etfg, "latency")
    assert bf.assignment == bb.assignment == dp.assignment == {1: E, 2: E}


def test_chain_optimum_matches_enumeration(monkeypatch):
    # conflicting preferences with a 1 Mbit transfer between the tasks
    g = TaskGraph(
        tasks=(
            simple_task(1, ALL, latency={E: 1, H: 10, C: 10}, data=10**6),
            simple_task(2, ALL, latency={E: 10, H: 10, C: 1}),
        ),
        arcs=((1, 2),),
    )
    etfg = transform(g, PLAIN)
    bf = solve_bruteforce(etfg, "latency")
    bb = solve_searched(monkeypatch, etfg, "latency")
    assert bb.stats["nodes_explored"] > 0
    assert bf.objective_value == bb.objective_value
    assert bf.assignment == bb.assignment
    # optimum must beat staying on one device
    assert bf.objective_value <= Fraction(11)


def test_budget_infeasible_instance():
    devices = [make_device(E, memory=Fraction(10)), make_device(H), make_device(C)]
    system = make_system_model(devices, presets.channels("run1"))
    g = TaskGraph(
        tasks=(simple_task(1, (E,), latency=1, memory=100),),
        arcs=(),
    )
    etfg = transform(g, system)
    assert solve_bruteforce(etfg, "latency").status is SolveStatus.INFEASIBLE
    assert solve(etfg, "latency").status is SolveStatus.INFEASIBLE


def test_bruteforce_guard():
    tasks = tuple(simple_task(i) for i in range(1, 16))  # 3^15 > 10^7
    etfg = transform(TaskGraph(tasks=tasks, arcs=()), PLAIN)
    with pytest.raises(InstanceTooLarge):
        solve_bruteforce(etfg, "latency")


@pytest.mark.parametrize("objective", ["latency", "energy"])
def test_bruteforce_is_the_first_feasible_minimum_by_evaluate(objective):
    """The oracle against ``evaluate`` alone: every assignment in task-id
    order (devices e < h < c) scored by the breakdown, the first strict
    minimum among the feasible ones kept."""
    for seed in range(30):
        etfg, threshold = random_oracle_instance(seed, max_tasks=6)
        cap = threshold if objective == "energy" else None
        tasks = sorted(etfg.graph.tasks, key=lambda t: t.id)
        best = best_value = None
        for devices in itertools.product(*(t.allowed for t in tasks)):
            assignment = {t.id: d for t, d in zip(tasks, devices)}
            breakdown = evaluate(etfg, assignment, cap)
            value = objective_value(breakdown, objective)
            if breakdown.feasible and (best_value is None or value < best_value):
                best, best_value = assignment, value
        oracle = solve_bruteforce(etfg, objective, cap)
        expected = SolveStatus.INFEASIBLE if best is None else SolveStatus.OPTIMAL
        assert (oracle.status, oracle.objective_value, oracle.assignment) == (expected, best_value, best), seed


TREE_DP_TIE_DIGEST = "b7d23e8ba4085b9216b7d897ab990bba239a607f68b78b0b89ae18a25046b586"


def _tie_rich_forest(seed: int):
    """Unbudgeted random forest with small integer profiles and mostly
    zero or repeated output sizes, so that equal-cost optima abound."""
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    subsets = (ALL, ALL, (E, H), (H, C), (E, C), (E,), (C,))
    tasks = []
    for tid in range(1, n + 1):
        allowed = rng.choice(subsets)
        tasks.append(
            simple_task(
                tid,
                allowed,
                latency={r: rng.randint(0, 2) for r in allowed},
                power={r: rng.randint(1, 2) for r in allowed},
                data=rng.choice((0, 0, 10**5, 2 * 10**5)),
            )
        )
    arcs = []
    for tid in range(2, n + 1):
        if rng.random() < 0.8:
            other = rng.randint(1, tid - 1)
            arcs.append((other, tid) if rng.random() < 0.6 else (tid, other))
    return transform(TaskGraph(tasks=tuple(tasks), arcs=tuple(arcs)), PLAIN)


class TestTreeDp:
    def test_chain_of_three_matches_bruteforce(self):
        etfg = random_tree_instance(101)
        dp = solve_dp(etfg, "latency")
        bf = solve_bruteforce(etfg, "latency")
        assert dp.objective_value == bf.objective_value

    def test_star_matches_bruteforce(self):
        tasks = tuple(
            simple_task(i, ALL, latency={E: i, H: 2 * i, C: 3}, data=10**5) for i in range(1, 6)
        )
        arcs = tuple((1, j) for j in range(2, 6))
        etfg = transform(TaskGraph(tasks=tasks, arcs=arcs), PLAIN)
        dp = solve_dp(etfg, "energy")
        bf = solve_bruteforce(etfg, "energy")
        assert dp.objective_value == bf.objective_value

    def test_rejects_finite_budgets(self):
        system = make_system_model(
            [make_device(E, memory=Fraction(10**9)), make_device(H), make_device(C)],
            presets.channels("run1"),
        )
        etfg = transform(two_task_chain(), system)
        # the DP cannot honour a budget: an untimed solve of a kernel with
        # rows searches without the dual, and there is no method that forces the DP
        stats = solve(etfg, "latency").stats
        assert stats["nodes_explored"] > 0 and "dual_passes" not in stats
        with pytest.raises(ValueError, match="unknown solver method 'tree-dp'"):
            solve(etfg, "latency", method="tree-dp")

    def test_solves_a_triangle_like_brute_force(self):
        tasks = tuple(simple_task(i, data=10**4) for i in range(1, 4))
        arcs = ((1, 2), (1, 3), (2, 3))  # undirected triangle
        etfg = transform(TaskGraph(tasks=tasks, arcs=arcs), PLAIN)
        for objective in ("latency", "energy"):
            dp = solve_dp(etfg, objective)
            bf = solve_bruteforce(etfg, objective)
            assert dp.status is SolveStatus.OPTIMAL
            assert dp.objective_value == bf.objective_value
            assert dp.stats["treewidth"] == 2

    def test_tie_breaks_match_the_golden_digest(self):
        # the DP roots each tree at its smallest task id, visits neighbours
        # by task id and breaks ties by e < h < c; the digest pins the
        # assignments that rule picks among equal-cost optima
        digest = hashlib.sha256()
        for seed in range(300):
            etfg = _tie_rich_forest(seed)
            for objective in ("latency", "energy"):
                assignment = solve_dp(etfg, objective).to_dict()["assignment"]
                digest.update(json.dumps([seed, objective, assignment]).encode())
        assert digest.hexdigest() == TREE_DP_TIE_DIGEST

    def test_applicability_probe(self):
        solve_dp(transform(two_task_chain(), PLAIN), "latency")
        budgeted = transform(two_task_chain(), presets.system_model("C1"))
        assert "dual_passes" not in solve(budgeted, "latency").stats


def _random_k_tree(seed: int, width: int):
    """Unbudgeted random k-tree of the given width (treewidth exactly
    ``width``) on up to 9 tasks, arcs from smaller to larger task id."""
    rng = random.Random(seed)
    n = rng.randint(width + 1, 9)
    cliques = [tuple(range(1, width + 2))]
    edges = {(a, b) for a in cliques[0] for b in cliques[0] if a < b}
    for tid in range(width + 2, n + 1):
        base = rng.choice(cliques)
        keep = tuple(sorted(rng.sample(base, width)))
        edges |= {(u, tid) for u in keep}
        cliques.append(keep + (tid,))
    subsets = (ALL, ALL, ALL, (E, H), (H, C), (E, C), (E,), (C,))
    tasks = []
    for tid in range(1, n + 1):
        allowed = rng.choice(subsets)
        tasks.append(
            simple_task(
                tid,
                allowed,
                latency={r: rng.randint(0, 5) for r in allowed},
                power={r: rng.randint(1, 3) for r in allowed},
                data=rng.choice((0, 10**5, 3 * 10**5, 10**6)),
            )
        )
    return transform(TaskGraph(tasks=tuple(tasks), arcs=tuple(sorted(edges))), PLAIN)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
@pytest.mark.parametrize("objective", ["latency", "energy"])
def test_elimination_dp_matches_bruteforce(width, objective):
    for seed in range(25):
        etfg = _random_k_tree(1000 * width + seed, width)
        dp = solve_dp(etfg, objective)
        bf = solve_bruteforce(etfg, objective)
        assert dp.status is SolveStatus.OPTIMAL, f"seed {seed}"
        assert dp.stats["treewidth"] == width, f"seed {seed}"
        assert dp.objective_value == bf.objective_value, f"seed {seed}"
        breakdown = evaluate(etfg, dp.assignment)
        assert objective_value(breakdown, objective) == dp.objective_value, f"seed {seed}"


def _diamond():
    tasks = tuple(simple_task(i, latency={E: i, H: 2, C: 3}, data=10**5) for i in range(1, 5))
    return TaskGraph(tasks=tasks, arcs=((1, 2), (1, 3), (2, 4), (3, 4)))


def _fill_edges(graph, order) -> int:
    """Edges that eliminating the tasks in ``order`` adds to the skeleton."""
    adj = {t.id: set() for t in graph.tasks}
    for i, j in graph.arcs:
        adj[i].add(j)
        adj[j].add(i)
    fill = 0
    for v in order:
        neighbours = adj.pop(v)
        for a in neighbours:
            adj[a].discard(v)
            for b in neighbours:
                if a < b and b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    fill += 1
    return fill


def _dp_matches_bruteforce(etfg, objective):
    dp = solve_dp(etfg, objective)
    bf = solve_bruteforce(etfg, objective)
    assert dp.status is SolveStatus.OPTIMAL
    assert dp.objective_value == bf.objective_value
    assert objective_value(evaluate(etfg, dp.assignment), objective) == dp.objective_value
    return dp


@pytest.mark.parametrize("objective", ["latency", "energy"])
def test_elimination_dp_with_fill_edges_matches_bruteforce(objective):
    # k-trees, forests and complete DAGs are chordal: their orders add no fill
    etfg = transform(_diamond(), PLAIN)
    assert _fill_edges(etfg.graph, solver._compile(*solver._skeleton(etfg.graph)).order) == 1
    # the fill edge 2-3 leaves a triangle after the first step: 27 + 27 + 9 + 3 states
    stats = _dp_matches_bruteforce(etfg, objective).stats
    assert (stats["treewidth"], stats["dp_states"]) == (2, 66)
    filled = 0
    for seed in range(40):
        graph = random_oracle_instance(seed)[0].graph
        etfg = transform(graph, PLAIN)
        filled += _fill_edges(graph, solver._compile(*solver._skeleton(graph)).order) > 0
        _dp_matches_bruteforce(etfg, objective)
    assert filled >= 10


def test_one_schedule_runs_both_objectives_tables():
    for etfg in [transform(_diamond(), PLAIN)] + [_random_k_tree(7000 + seed, 3) for seed in range(5)]:
        schedule = solver._compile(*solver._skeleton(etfg.graph))
        for objective in ("latency", "energy"):
            kernel = solver._Kernel(etfg, solver.Objective(objective), None)
            tables = kernel.obj.node + kernel.obj.arc
            total, chosen = solver._eliminate(schedule, tables)
            dp = solve_dp(etfg, objective)
            assert Fraction(total, kernel.obj_den) == dp.objective_value
            assert kernel.assignment(chosen) == dp.assignment


def test_the_pass_minimises_any_tables():
    rng = random.Random(11)
    graphs = [_diamond()] + [random_oracle_instance(seed)[0].graph for seed in range(40)]
    for graph in graphs:
        schedule = solver._compile(*solver._skeleton(graph))
        tasks = [graph.task(tid) for tid in topological_order(graph)]
        pos_of = {t.id: p for p, t in enumerate(tasks)}
        sizes = [len(t.allowed) for t in tasks]
        arcs = [(pos_of[i], pos_of[j]) for i, j in graph.arcs]
        nodes = [[rng.randint(0, 9) for _ in range(size)] for size in sizes]
        tables = nodes + [[rng.randint(0, 9) for _ in range(sizes[a] * sizes[b])] for a, b in arcs]

        def cost(choice):
            arc_costs = (tables[k][choice[a] * sizes[b] + choice[b]] for k, (a, b) in enumerate(arcs, len(nodes)))
            return sum(row[c] for row, c in zip(nodes, choice)) + sum(arc_costs)

        total, chosen = solver._eliminate(schedule, tables)
        assert total == min(map(cost, itertools.product(*map(range, sizes))))
        assert cost(chosen) == total


def test_auto_routes_an_unbudgeted_triangle_to_the_dp():
    tasks = tuple(simple_task(i, data=10**4) for i in range(1, 4))
    etfg = transform(TaskGraph(tasks=tasks, arcs=((1, 2), (1, 3), (2, 3))), PLAIN)
    assert solver._compile(*solver._skeleton(etfg.graph)) is not None
    result = solve(etfg, "latency")
    assert (result.stats["treewidth"], result.stats["dp_states"]) == (2, 27 + 9 + 3)
    assert (result.stats["dual_passes"], result.stats["nodes_explored"]) == (1, 0)
    assert (result.stats["root_bound"], result.stats["incumbent_source"]) == ("lagrangian", "dual")
    assert result.status is SolveStatus.OPTIMAL


def test_dp_over_the_state_limit_is_refused():
    # a 15-task clique: eliminating its first task alone needs 3^15 states
    etfg = transform(complete_dag(15), PLAIN)
    assert 3**15 > solver.DP_STATE_LIMIT
    assert solver._compile(*solver._skeleton(etfg.graph)) is None
    assert solver._dual(solver._Kernel(etfg, solver.Objective.LATENCY, None), math.inf) is None
    with pytest.raises(ValueError, match="unknown solver method 'tree-dp'"):
        solve(etfg, "latency", method="tree-dp")
    auto = solve(etfg, "latency")
    assert auto.stats["dual_passes"] == 0 and auto.stats["root_bound"] == "additive"
    assert "treewidth" not in auto.stats and auto.stats["nodes_explored"] > 0
    assert auto.status is SolveStatus.OPTIMAL
    assert set(auto.assignment.values()) == {E}


@pytest.mark.parametrize("objective", ["latency", "energy"])
def test_oracle_equivalence_sample(objective):
    """Branch and bound agrees with exhaustive enumeration on value,
    feasibility verdict, and (being lexicographic on ties) assignment."""
    for seed in range(40):
        etfg, threshold = random_oracle_instance(seed, max_tasks=8)
        thr = threshold if objective == "energy" else None
        bf = solve_bruteforce(etfg, objective, thr)
        bb = solve(etfg, objective, thr)
        assert bf.status == bb.status, f"seed {seed}"
        if bf.status is SolveStatus.OPTIMAL:
            assert bf.objective_value == bb.objective_value, f"seed {seed}"
            assert bf.assignment == bb.assignment, f"seed {seed}"


def test_solves_match_the_oracle_when_the_cloud_relays():
    """On systems that relay e<->h through the cloud, the solve agrees
    with exhaustive enumeration, which reads the system's channels and
    relays itself."""
    through_cloud = 0
    for seed in range(6):
        generated, threshold = random_oracle_instance(seed, max_tasks=7)
        etfg = transform(generated.graph, with_cloud_relay(generated.system))
        for objective, thr in (("latency", None), ("energy", threshold)):
            bf = solve_bruteforce(etfg, objective, thr)
            got = solve(etfg, objective, thr)
            assert got.status == bf.status, f"seed {seed} {objective}"
            if bf.status is SolveStatus.OPTIMAL:
                assert (got.objective_value, got.assignment) == (bf.objective_value, bf.assignment), f"seed {seed}"
            if bf.status is SolveStatus.OPTIMAL:
                a = bf.assignment
                through_cloud += any({a[i], a[j]} == {E, H} for i, j in etfg.graph.arcs)
    assert through_cloud > 0


def _additive_root(etfg, objective):
    """Per-task minima plus per-arc minima of the objective, in SI units."""
    cost = operator.attrgetter(objective)  # candidate nodes and arcs both carry .latency and .energy
    groups = itertools.chain(etfg.nodes_by_task.values(), etfg.arcs_by_dep.values())
    return sum(min(map(cost, group)) for group in groups)


def test_root_bound_is_admissible():
    for seed in (3, 7, 21):
        etfg, _ = random_oracle_instance(seed, max_tasks=6)
        bf = solve_bruteforce(etfg, "latency")
        if bf.status is not SolveStatus.OPTIMAL:
            continue
        assert _additive_root(etfg, "latency") <= bf.objective_value


def test_determinism_across_runs():
    etfg, threshold = random_oracle_instance(5)
    a = solve(etfg, "energy", threshold, SolveConfig())
    b = solve(etfg, "energy", threshold, SolveConfig())
    c = solve(etfg, "energy", threshold, SolveConfig())
    assert a.assignment == b.assignment == c.assignment
    assert a.objective_value == b.objective_value == c.objective_value
    assert a.stats["nodes_explored"] == b.stats["nodes_explored"] == c.stats["nodes_explored"]


def _unbudgeted_300():
    from ehcopt.generator import GenSpec, generate_tfg, synthesize_params, default_param_spec

    spec = GenSpec("mixed", 300, 4, 4, Fraction(1, 20), Fraction(1, 50), seed=9)
    graph = synthesize_params(generate_tfg(spec), default_param_spec("C1"), PLAIN, 9)
    return transform(graph, PLAIN)


def test_time_limit_proves_an_unbudgeted_optimum_through_the_dual():
    # the search alone used to time out on this graph with a gap of 0.02;
    # without budgets the dual's first pass is the optimum, and its
    # assignment meets every row
    etfg = _unbudgeted_300()
    # the proof takes about 0.3 s
    result = solve(etfg, "latency", config=SolveConfig(time_limit=2))
    assert result.status is SolveStatus.OPTIMAL
    assert result.gap is None and not result.stats["time_limit_hit"]
    assert result.objective_value == solve_dp(etfg, "latency").objective_value
    assert result.stats["incumbent_source"] == "dual"
    assert result.stats["root_bound"] == "lagrangian"
    assert result.stats["binding_rows"] == [] and result.stats["multipliers"] == {}
    assert result.breakdown.feasible


def test_energy_solutions_respect_threshold():
    etfg = transform(presets.example_inspection_tfg(), presets.system_model("C1"))
    result = solve(etfg, "energy", Fraction(8))
    assert result.status is SolveStatus.OPTIMAL
    assert result.breakdown.total_latency <= 8
    assert result.breakdown.latency_ok is True
    # a hopeless threshold makes the instance infeasible
    tight = solve(etfg, "energy", Fraction(1, 10**6))
    assert tight.status is SolveStatus.INFEASIBLE


def test_solve_front_door_picks_methods():
    solve_dp(random_tree_instance(3), "latency")
    budgeted = transform(presets.example_inspection_tfg(), presets.system_model("C1"))
    assert solve(budgeted, "latency").stats["solver"] == "branch-and-bound"
    small, _ = random_oracle_instance(3, max_tasks=6)  # budgeted, 4 tasks
    assert solve(small, "latency", method="bruteforce").stats["solver"] == "bruteforce"
    with pytest.raises(ValueError):
        solve(budgeted, "latency", method="magic")


def test_bnb_is_no_method():
    # bnb forced branch and bound past the DP, which is now the dual's
    # first pass inside branch and bound: auto is that one route
    with pytest.raises(ValueError, match="unknown solver method 'bnb'"):
        solve(uav_forest_without_budgets(), "latency", method="bnb")


def test_branch_and_bound_replaces_an_incumbent_on_a_tie(monkeypatch):
    # cheapest-first branching finds (h, e) at 3 s first, then (e, e) at
    # 3 s; the tie goes to the smaller assignment by task id, as in the
    # oracle, also when memory rows share the packed bound with the
    # objective: a leaf equal to the incumbent is not pruned
    tasks = (
        simple_task(1, latency={E: 2, H: 1, C: 5}, memory=1, data=20 * 10**6),
        simple_task(2, latency={E: 1, H: 5, C: 5}, memory=1),
    )
    devices = [make_device(E), make_device(H, memory=1), make_device(C, memory=1)]
    budgeted = make_system_model(devices, PLAIN.channels.values())
    for system, labels in ((PLAIN, []), (budgeted, ["mem_h", "mem_c"])):
        etfg = transform(TaskGraph(tasks=tasks, arcs=((1, 2),)), system)
        kernel = solver._Kernel(etfg, solver.Objective.LATENCY, None)
        assert [row.label for row in solver._search_tables(kernel)[0]] == labels
        bb = solve_searched(monkeypatch, etfg, "latency")
        bf = solve_bruteforce(etfg, "latency")
        assert bb.stats["nodes_explored"] > 0
        assert bb.objective_value == bf.objective_value == 3
        assert bb.assignment == bf.assignment == {1: E, 2: E}


def test_a_latency_cap_not_above_zero_is_rejected():
    # a zero cap used to yield a proven "infeasible"
    etfg = transform(two_task_chain(), PLAIN)
    for cap in (Fraction(0), Fraction(-5)):
        with pytest.raises(ValueError, match="latency threshold must be > 0"):
            solve(etfg, "energy", cap)


def test_a_latency_cap_under_the_latency_objective_is_rejected(example_app):
    # the cap used to be dropped: "proven-optimal" at 1.793 s on the bundled app
    cap = Fraction(1, 100)
    with pytest.raises(ValueError, match="energy objective"):
        solve(example_app, "latency", cap)
    with pytest.raises(ValueError, match="energy objective"):
        solve_bruteforce(example_app, "latency", cap)
    assert solve(example_app, "energy", cap).status is SolveStatus.INFEASIBLE


def test_solve_config_validation():
    # an infinite limit used to pass and take the timed route: on the
    # bundled app one dual pass and no search node, against 3502 untimed
    for limit in (0, -1, math.inf, math.nan):
        with pytest.raises(ValueError, match="time limit must be > 0"):
            SolveConfig(time_limit=limit)


def test_every_route_builds_one_kernel(monkeypatch):
    # an unbudgeted graph over the DP's state limit used to build a second
    # kernel when auto fell back to branch and bound, and to compile its
    # schedule a second time when a time limit ran the dual search
    build, compile_schedule = solver._Kernel.__init__, solver._compile
    built, compiled = [], []

    def counted_build(self, *args):
        built.append(args)
        build(self, *args)

    def counted_compile(*args):
        compiled.append(args)
        return compile_schedule(*args)

    monkeypatch.setattr(solver._Kernel, "__init__", counted_build)
    monkeypatch.setattr(solver, "_compile", counted_compile)
    budgeted, cap = random_oracle_instance(1)
    free = uav_forest_without_budgets()
    clique = transform(complete_dag(15), PLAIN)
    limited = SolveConfig(time_limit=5)
    runs = [  # each run and how many schedules it compiles: one whenever the dual runs
        (lambda: solve(budgeted, "energy", cap), 0),
        (lambda: solve(free, "latency"), 1),
        (lambda: solve(clique, "latency"), 1),
        (lambda: solve(clique, "latency", None, limited), 1),
        (lambda: solve(budgeted, "latency"), 0),
        (lambda: solve(budgeted, "latency", None, limited), 1),
        (lambda: solve(free, "energy"), 1),
    ]
    for run, compiles in runs:
        built.clear()
        compiled.clear()
        assert run().stats["solver"] == "branch-and-bound"
        assert len(built) == 1
        assert len(compiled) == compiles
    built.clear()
    assert solve(budgeted, "latency", method="bruteforce").stats["solver"] == "bruteforce"
    with pytest.raises(ValueError, match="unknown solver method 'tree-dp'"):
        solve(free, "energy", method="tree-dp")
    assert built == []


def test_nan_time_limit_is_rejected():
    # a NaN limit used to pass, and B&B never stopped: started + nan is never exceeded
    with pytest.raises(ValueError, match="time limit"):
        SolveConfig(time_limit=float("nan"))


def test_forced_bruteforce_rejects_a_time_limit():
    # brute force used to drop the limit: 1,594,323 assignments, then "proven-optimal"
    etfg = transform(presets.example_inspection_tfg(), presets.system_model("C1"))
    with pytest.raises(ValueError, match="time limit"):
        solve(etfg, "latency", None, SolveConfig(time_limit=0.001), method="bruteforce")
    with pytest.raises(ValueError, match="time limit"):
        solve(etfg, "energy", Fraction(8), SolveConfig(time_limit=60), method="bruteforce")


def test_forced_tree_dp_rejects_a_latency_cap():
    # a forced tree DP used to drop the cap and claim a proven optimum at
    # 6.0 s; there is no such method now, and auto honours the cap
    etfg = uav_forest_without_budgets()
    solve_dp(etfg, "energy")
    cap = Fraction(1, 2)
    with pytest.raises(ValueError, match="unknown solver method 'tree-dp'"):
        solve(etfg, "energy", cap, method="tree-dp")
    assert solve_bruteforce(etfg, "energy", cap).status is SolveStatus.INFEASIBLE
    auto = solve(etfg, "energy", cap)
    assert auto.status is SolveStatus.INFEASIBLE
    assert "dual_passes" not in auto.stats
    # refused without a cap too; under the latency objective the cap is refused first
    with pytest.raises(ValueError, match="unknown solver method 'tree-dp'"):
        solve(etfg, "energy", method="tree-dp")
    with pytest.raises(ValueError):
        solve(etfg, "latency", cap, method="tree-dp")


def test_forced_tree_dp_rejects_a_time_limit():
    # a forced tree DP used to drop the limit and claim a proven optimum;
    # there is no such method now.  Auto used to run the DP after the
    # deadline had passed; now the dual starts no pass past it, and the
    # search proves the optimum before it first looks at the clock
    tree = random_tree_instance(3)
    limit = SolveConfig(time_limit=1e-9)
    with pytest.raises(ValueError, match="unknown solver method 'tree-dp'"):
        solve(tree, "latency", None, limit, method="tree-dp")
    auto = solve(tree, "latency", None, limit)
    assert auto.status is SolveStatus.OPTIMAL and not auto.stats["time_limit_hit"]
    assert (auto.stats["dual_passes"], auto.stats["root_bound"]) == (0, "additive")
    assert auto.stats["incumbent_source"] == "search" and 0 < auto.stats["nodes_explored"] < 1024
    assert "treewidth" not in auto.stats
    assert auto.objective_value == solve_dp(tree, "latency").objective_value


def test_time_limit_without_incumbent_has_no_gap():
    etfg = transform(serial_200_graph(), presets.system_model("C1", "run1"))
    result = solve(etfg, "energy", Fraction(8), SolveConfig(time_limit=0.05))
    assert result.status is SolveStatus.FEASIBLE
    assert result.stats["time_limit_hit"]
    assert result.assignment is None and result.objective_value is None
    assert result.gap is None and result.stats["gap"] is None
    assert result.to_dict()["gap"] is None


def test_a_timed_search_ends_once_its_incumbent_meets_the_dual_bound(monkeypatch):
    # the dual's bound is the optimum but it brings no assignment, so the
    # search finds the optimum itself and stops at its next clock check,
    # before it has proven the optimum by exhausting the tree
    etfg = transform(presets.example_inspection_tfg(), presets.system_model("C1", "run1"))
    untimed = solve(etfg, "latency")
    optimum = untimed.objective_value * solver._Kernel(etfg, solver.Objective.LATENCY, None).obj_den
    dual = solver._dual

    def bound_only(kernel, deadline):
        return dual(kernel, deadline)._replace(bound=int(optimum), chosen=None, value=None)

    monkeypatch.setattr(solver, "_dual", bound_only)
    timed = solve(etfg, "latency", config=SolveConfig(time_limit=60))
    assert timed.status is SolveStatus.OPTIMAL and not timed.stats["time_limit_hit"]
    assert timed.objective_value == untimed.objective_value
    assert timed.stats["incumbent_source"] == "search"
    nodes = timed.stats["nodes_explored"]
    assert nodes % 1024 == 0 and 0 < nodes < untimed.stats["nodes_explored"]


def test_time_limit_counts_the_table_build(monkeypatch):
    # the limit used to start after the tables were built, so a slow build
    # was not counted and the search ran for the full limit on top of it
    build = solver._Kernel.__init__

    def slow_build(self, *args):
        build(self, *args)
        time.sleep(0.1)

    monkeypatch.setattr(solver._Kernel, "__init__", slow_build)
    etfg = transform(serial_200_graph(), presets.system_model("C1", "run1"))
    result = solve(etfg, "energy", Fraction(8), SolveConfig(time_limit=0.05))
    assert result.stats["time_limit_hit"]
    assert result.stats["nodes_explored"] <= 1024
    assert result.stats["tables_s"] >= 0.1


def _without_budgets(system):
    unbounded = dict(memory_budget=None, storage_budget=None, energy_budget=None)
    devices = [dataclasses.replace(d, **unbounded) for d in system.devices.values()]
    return make_system_model(devices, system.channels.values())


@pytest.mark.parametrize("objective, cap", [("latency", None), ("energy", Fraction(8))])
def test_timed_out_gap_is_measured_against_the_relaxation_dp(objective, cap):
    system = presets.system_model("C1", "run1")
    etfg = transform(serial_200_graph(), system)
    relaxed = solve_dp(transform(etfg.graph, _without_budgets(system)), objective).objective_value
    # the dual's λ = 0 pass is the relaxation, and its bound is at least that
    kernel = solver._Kernel(etfg, solver.Objective(objective), cap)
    total, _ = solver._eliminate(solver._compile(*kernel.skeleton), kernel.obj.node + kernel.obj.arc)
    assert Fraction(total, kernel.obj_den) == relaxed
    assert solver._dual(kernel, time.monotonic() + 1.0).bound >= total
    # under energy the dual's bound proves the instance infeasible, so no
    # search node runs; the latency search runs the whole limit
    result = solve(etfg, objective, cap, SolveConfig(time_limit=3 if cap is None else 1.5))
    bound = result.stats["lower_bound"]
    assert bound >= float(_additive_root(etfg, objective))
    assert result.stats["dual_passes"] >= 1
    if objective == "latency":
        assert result.stats["root_bound"] == "lagrangian"
        assert result.stats["binding_rows"] == ["mem_h"]
        assert bound >= float(relaxed)
    if result.status is SolveStatus.OPTIMAL:  # proven by the dual's bound
        assert float(result.objective_value) == pytest.approx(bound, rel=1e-12)
    elif result.assignment is None:  # energy under the 8 s cap is infeasible here
        assert objective == "energy" and result.gap is None
        assert result.stats["nodes_explored"] == 0
    else:
        assert result.stats["time_limit_hit"]
        assert float(result.objective_value) * (1 - result.gap) == pytest.approx(bound, rel=1e-12)


def test_relaxation_dp_bounds_the_oracle():
    for seed in range(40):
        etfg, threshold = random_oracle_instance(seed)
        schedule = solver._compile(*solver._skeleton(etfg.graph))
        for objective, cap in [("latency", None), ("energy", None), ("energy", threshold)]:
            kernel = solver._Kernel(etfg, solver.Objective(objective), cap)
            total, _ = solver._eliminate(schedule, kernel.obj.node + kernel.obj.arc)
            best = solve_bruteforce(etfg, objective, cap)
            if best.status is SolveStatus.OPTIMAL:
                assert Fraction(total, kernel.obj_den) <= best.objective_value, f"seed {seed}"


def test_additive_root_stays_when_the_dp_is_over_its_limit(monkeypatch):
    etfg = transform(serial_200_graph(), _without_budgets(presets.system_model("C1", "run1")))
    kernel = solver._Kernel(etfg, solver.Objective.LATENCY, None)
    monkeypatch.setattr(solver, "DP_STATE_LIMIT", 0)
    assert solver._dual(kernel, time.monotonic() + 10.0) is None  # the dual has no schedule to run
    result = solve(etfg, "latency", config=SolveConfig(time_limit=0.3))
    assert result.stats["time_limit_hit"]
    assert result.stats["root_bound"] == "additive"
    assert result.stats["dual_passes"] == 0 and result.stats["incumbent_source"] == "search"
    root = _additive_root(etfg, "latency")
    value = result.objective_value
    assert result.stats["lower_bound"] == float(root)
    assert result.gap == float((value - root) / value)


def test_no_dp_bound_once_the_deadline_has_passed():
    etfg = transform(serial_200_graph(), presets.system_model("C1", "run1"))
    result = solve(etfg, "latency", config=SolveConfig(time_limit=1e-6))
    assert result.stats["root_bound"] == "additive"
    assert result.stats["dual_passes"] == 0 and result.stats["binding_rows"] == []


def test_a_run_without_a_time_limit_builds_no_dp_bound():
    etfg, _ = random_oracle_instance(5)
    stats = solve(etfg, "latency").stats
    assert not {"root_bound", "lower_bound", "dual_passes", "incumbent_source", "dual_s"} & stats.keys()


def test_no_solve_starts_a_process_or_leaves_a_thread(monkeypatch):
    import multiprocessing
    import threading

    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    threads = set(threading.enumerate())
    etfg = transform(presets.example_inspection_tfg(), presets.system_model("C1"))
    assert solve(etfg, "energy", Fraction(8)).status is SolveStatus.OPTIMAL
    assert solve(etfg, "latency").stats["solver"] == "branch-and-bound"
    assert solve(etfg, "latency", config=SolveConfig(time_limit=5)).status is SolveStatus.OPTIMAL
    serial = transform(serial_200_graph(), presets.system_model("C1", "run1"))
    timed = solve(serial, "latency", config=SolveConfig(time_limit=0.5))
    assert timed.stats["dual_passes"] >= 1
    assert set(threading.enumerate()) == threads


def _daemonic_solve(conn):
    import multiprocessing

    etfg = transform(serial_200_graph(), presets.system_model("C1", "run1"))
    result = solve(etfg, "latency", config=SolveConfig(time_limit=1))
    conn.send((multiprocessing.current_process().daemon, result.stats))
    conn.close()


def test_a_daemonic_process_gets_the_lagrangian_bound():
    # a daemonic process may not start children; a pool's worker is one
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    conn, child = context.Pipe()
    process = context.Process(target=_daemonic_solve, args=(child,), daemon=True)
    process.start()
    child.close()
    with conn:
        assert conn.poll(60), "the daemonic process sent nothing"
        daemon, stats = conn.recv()
    process.join(60)
    assert daemon and process.exitcode == 0
    assert stats["root_bound"] == "lagrangian" and stats["dual_passes"] >= 1
    assert stats["multipliers"]["mem_h"] > 0


_GUARDLESS_SCRIPT = """
import json
from fractions import Fraction

from ehcopt import presets
from ehcopt.etfg import transform
from ehcopt.generator import GenSpec, default_param_spec, generate_tfg, synthesize_params
from ehcopt.solver import SolveConfig, solve

system = presets.system_model("C1", "run1")
spec = GenSpec("serial", 200, 4, 4, Fraction(5, 100), Fraction(2, 100), seed=1)
graph = synthesize_params(generate_tfg(spec), default_param_spec("C1"), system, spec.seed)
result = solve(transform(graph, system), "latency", config=SolveConfig(time_limit=1))
print(json.dumps(result.stats))
"""


def test_a_guardless_script_gets_the_dual_without_a_warning(tmp_path):
    # a time-limited solve at a script's top level, without an
    # 'if __name__ == "__main__":' guard, runs the dual like any other
    script = tmp_path / "guardless.py"
    script.write_text(_GUARDLESS_SCRIPT)
    src = Path(solver.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-W", "always", str(script)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert "RuntimeWarning" not in run.stderr
    stats = json.loads(run.stdout)
    assert stats["dual_passes"] >= 1 and stats["root_bound"] == "lagrangian"


def test_a_time_limited_solve_keeps_its_limit():
    etfg = transform(serial_200_graph(), presets.system_model("C1", "run1"))
    started = time.perf_counter()
    result = solve(etfg, "latency", config=SolveConfig(time_limit=0.5))
    elapsed = time.perf_counter() - started
    stats = result.stats
    assert stats["time_limit_hit"] and result.assignment is not None
    assert elapsed < 0.5 + 1.0  # the limit plus one dual pass, 1024 nodes and evaluate, generously
    assert 0 <= stats["dual_s"] <= stats["wall_time_s"]


def test_a_root_that_breaks_a_row_skips_the_dual():
    # the latency row's additive root is over a 1 us cap, so the search
    # prunes every placement at once; the dual would only delay that proof
    etfg = transform(serial_200_graph(), presets.system_model("C1", "run1"))
    result = solve(etfg, "energy", Fraction(1, 10**6), SolveConfig(time_limit=5))
    assert result.status is SolveStatus.INFEASIBLE
    assert result.stats["dual_passes"] == 0 and result.stats["root_bound"] == "additive"
    assert not result.stats["time_limit_hit"]


_SEARCH_TABLES = solver._search_tables


@pytest.mark.parametrize("case", ["untimed-forest", "timed-certificate"])
def test_a_solve_that_the_dual_proves_builds_no_search_tables(case, monkeypatch):
    # the search tables used to be built before the dual ran, and went
    # unused whenever the dual's bound ended the solve
    built = []

    def counted_search_tables(kernel):
        built.append(kernel)
        return _SEARCH_TABLES(kernel)

    monkeypatch.setattr(solver, "_search_tables", counted_search_tables)
    if case == "untimed-forest":
        result = solve(uav_forest_without_budgets(), "latency")
        assert result.status is SolveStatus.OPTIMAL
    else:  # serial-200 energy under the 8 s cap has no feasible placement
        etfg = transform(serial_200_graph(), presets.system_model("C1", "run1"))
        result = solve(etfg, "energy", Fraction(8), SolveConfig(time_limit=5))
        assert result.status is SolveStatus.INFEASIBLE
    assert result.stats["nodes_explored"] == 0 and result.stats["dual_passes"] >= 1
    assert built == []


class _FailingBranch(tuple):
    def __len__(self):
        raise RuntimeError("the search failed")


def _failing_search_tables(kernel):
    """The search tables with a branching order that fails at depth 5."""
    *tables, branch = _SEARCH_TABLES(kernel)
    return (*tables, branch[:5] + [_FailingBranch()] + branch[6:])


@pytest.mark.parametrize("case", ["timed-out", "proven", "no-time-left", "search-raises"])
def test_no_process_outlives_a_time_limited_solve(case, monkeypatch):
    import multiprocessing
    import threading

    threads = set(threading.enumerate())

    etfg = transform(serial_200_graph(), presets.system_model("C1", "run1"))
    if case == "timed-out":  # the latency search on this graph cannot finish
        result = solve(etfg, "latency", config=SolveConfig(time_limit=0.5))
        assert result.stats["time_limit_hit"]
    elif case == "proven":
        result = solve(_unbudgeted_300(), "latency", config=SolveConfig(time_limit=10))
        assert result.status is SolveStatus.OPTIMAL and not result.stats["time_limit_hit"]
    elif case == "no-time-left":
        result = solve(etfg, "latency", config=SolveConfig(time_limit=1e-6))
        assert result.stats["time_limit_hit"]
    else:
        monkeypatch.setattr(solver, "_search_tables", _failing_search_tables)
        with pytest.raises(RuntimeError, match="the search failed"):
            solve(etfg, "latency", config=SolveConfig(time_limit=2))
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) == threads


_ROW_KIND = {"memory": "mem", "storage": "sto", "energy": "enr"}


def test_kernel_rows_are_the_models_side_constraints():
    """The kernel's rows are build_model's budget and cap rows, in order, and
    a row is over its budget exactly when evaluate reports it broken, so
    branch and bound, which prunes on these rows alone, prunes on nothing else."""
    rng = random.Random(15)
    broken_rows = 0
    for seed in range(40):
        etfg, threshold = random_oracle_instance(seed)
        kernel = solver._Kernel(etfg, solver.Objective.ENERGY, threshold)
        labels = [row.label for row in build_model(etfg, "energy", threshold).rows]
        assert [row.label for row in kernel.rows] == [
            label for label in labels if label.startswith(("mem_", "sto_", "enr_")) or label == "lthr"
        ], f"seed {seed}"
        for _ in range(20):
            chosen = [rng.randrange(len(roles)) for roles in kernel.role_of]
            broken = {row.label for row in kernel.rows if kernel.total(row, chosen) > row.budget}
            breakdown = evaluate(etfg, kernel.assignment(chosen), threshold)
            # each violation reads "<quantity> budget exceeded on <device>"
            expected = {f"{_ROW_KIND[v.split()[0]]}_{v.split()[-1]}" for v in breakdown.violations}
            if breakdown.latency_ok is False:
                expected.add("lthr")
            assert broken == expected, f"seed {seed}"
            broken_rows += len(broken)
    assert broken_rows >= 100


@pytest.mark.parametrize("objective, capped", [("latency", False), ("energy", False), ("energy", True)])
def test_the_dual_search_bounds_the_oracle(objective, capped, monkeypatch):
    """The dual's highest bound is at most the optimum, so every bound it
    reached is; a bound above the objective's largest sum occurs only where
    the oracle finds no feasible assignment, and only on the dual's last
    pass; its assignment is feasible at the value it claims; and its
    broken rows are those the λ = 0 pass's assignment breaks."""
    penalised = solver._penalised
    tried = []  # the objective the dual penalises, in its own units, and the multipliers of each pass

    def recorded(cost, rows, weights):
        tried.append((cost, weights))
        return penalised(cost, rows, weights)

    monkeypatch.setattr(solver, "_penalised", recorded)

    def bound(kernel, cost, weights):
        """A pass's bound in the dual's units, those of ``cost``."""
        total, _ = solver._eliminate(solver._compile(*kernel.skeleton), penalised(cost, kernel.rows, weights))
        return total - sum(weight * row.budget for weight, row in zip(weights, kernel.rows))

    found = binding = certified = 0
    for seed in range(42):
        etfg, threshold = random_oracle_instance(seed)
        cap = threshold if capped else None
        kernel = solver._Kernel(etfg, solver.Objective(objective), cap)
        tried.clear()
        largest = kernel.obj.most
        result = solver._dual(kernel, time.monotonic() + 10.0)
        assert result is not None and result.passes >= 1, f"seed {seed}"
        assert list(result.multipliers) == [row.label for row in kernel.rows], f"seed {seed}"
        best = solve_bruteforce(etfg, objective, cap)
        if best.status is SolveStatus.OPTIMAL:
            assert Fraction(result.bound, kernel.obj_den) <= best.objective_value, f"seed {seed}"
        if result.bound > largest:  # a certificate that no assignment meets every row
            assert best.status is SolveStatus.INFEASIBLE, f"seed {seed}"
            assert all(bound(kernel, cost, weights) <= cost.most for cost, weights in tried[:-1]), f"seed {seed}"
            certified += 1
        assert (result.chosen is None) == (result.value is None), f"seed {seed}"
        if result.chosen is not None:
            found += 1
            breakdown = evaluate(etfg, kernel.assignment(result.chosen), cap)
            assert breakdown.feasible, f"seed {seed}"
            assert objective_value(breakdown, objective) == Fraction(result.value, kernel.obj_den), f"seed {seed}"
        _, chosen = solver._eliminate(solver._compile(*kernel.skeleton), kernel.obj.node + kernel.obj.arc)
        broken = tuple(row.label for row in kernel.rows if kernel.total(row, chosen) > row.budget)
        assert result.broken == broken, f"seed {seed}"
        binding += bool(broken)
    assert found >= 20 and binding >= 5 and certified >= 1


@pytest.mark.parametrize("objective, capped, seed", [
    *[("latency", False, seed) for seed in (41, 205, 246)],
    *[("energy", True, seed) for seed in (40, 41, 68, 76, 90, 145, 221, 246)],
])
def test_the_dual_proves_infeasibility_before_the_search(objective, capped, seed):
    """Where the dual's bound climbs above the objective's largest sum, the
    dual ends, the solve returns infeasible without a search node and long
    before its limit, ``lower_bound`` is that finite bound, and the oracle
    agrees.  Seed 221 under energy at its cap is infeasible although each
    row can be met on its own."""
    etfg, threshold = random_oracle_instance(seed)
    cap = threshold if capped else None
    kernel = solver._Kernel(etfg, solver.Objective(objective), cap)
    largest = kernel.obj.most
    started = time.monotonic()
    result = solve(etfg, objective, cap, SolveConfig(time_limit=3))
    assert time.monotonic() - started < 1.0
    assert result.status is SolveStatus.INFEASIBLE and not result.stats["time_limit_hit"]
    assert result.stats["nodes_explored"] == 0 and math.isfinite(result.stats["lower_bound"])
    assert result.stats["lower_bound"] > Fraction(largest, kernel.obj_den)
    assert solve_bruteforce(etfg, objective, cap).status is SolveStatus.INFEASIBLE
    assert solver._dual(kernel, time.monotonic() + 3600).bound > largest


@pytest.mark.parametrize("objective, capped", [("latency", False), ("energy", True)])
def test_dual_passes_counts_every_pass(monkeypatch, objective, capped):
    """``dual_passes`` is the number of DP passes the dual ran, including
    those that neither raised its bound nor found a cheaper assignment."""
    calls = []
    eliminate_pass = solver._eliminate

    def eliminate(*args):
        calls.append(None)
        return eliminate_pass(*args)

    monkeypatch.setattr(solver, "_eliminate", eliminate)
    several = 0
    for seed in range(60):
        etfg, threshold = random_oracle_instance(seed)
        calls.clear()
        result = solve(etfg, objective, threshold if capped else None, SolveConfig(time_limit=10))
        assert result.stats["dual_passes"] == len(calls), f"seed {seed}"
        several += len(calls) > 1
    assert several >= 10


# --- the packed bound ---------------------------------------------------------


def _edge_memory_instance(budget):
    """Tasks 1 and 2 (5/3 memory units each) prefer the edge, task 3 (1/3)
    the cloud; the edge's memory budget is ``budget``.  The optimum without
    it, (e, e, c), uses 10/3 of the edge's memory, and (e, e, e) uses more."""
    tasks = (
        simple_task(1, latency={E: 1, H: 2, C: 3}, memory=Fraction(5, 3)),
        simple_task(2, latency={E: 1, H: 2, C: 3}, memory=Fraction(5, 3)),
        simple_task(3, latency={E: 5, H: 5, C: 1}, memory=Fraction(1, 3)),
    )
    devices = [make_device(E, memory=budget), make_device(H), make_device(C)]
    return transform(TaskGraph(tasks=tasks, arcs=()), make_system_model(devices, PLAIN.channels.values()))


def _latency_cap_instance():
    """A chain whose energy optimum is not its latency optimum, and that
    optimum's total latency."""
    first = {E: Fraction(3, 7), H: Fraction(1, 7), C: Fraction(1, 9)}
    second = {E: Fraction(2, 7), H: Fraction(1, 5), C: Fraction(1, 11)}
    tasks = (
        simple_task(1, latency=first, power={E: 1, H: 3, C: 9}, data=Fraction(10**6, 3)),
        simple_task(2, latency=second, power={E: 1, H: 4, C: 8}),
    )
    etfg = transform(TaskGraph(tasks=tasks, arcs=((1, 2),)), PLAIN)
    return etfg, solve_bruteforce(etfg, "energy").breakdown.total_latency


@pytest.mark.parametrize("over", [0, 1])
@pytest.mark.parametrize("label", ["mem_e", "lthr"])
def test_a_row_at_its_budget_is_not_pruned_and_one_unit_over_is(label, over):
    """Branch and bound keeps a placement whose row use equals the row's
    budget and prunes it once the budget is one kernel unit smaller."""
    if label == "mem_e":
        # the kernel's memory denominator is 3: one unit is 1/3
        etfg, cap = _edge_memory_instance(Fraction(10, 3) - over * Fraction(1, 3)), None
        objective, free = "latency", _edge_memory_instance(None)
    else:
        free, used = _latency_cap_instance()
        objective, etfg = "energy", free
        # one unit of the kernel's latency denominator: the cap over its integer form
        unit = used / solver._Kernel(free, solver.Objective.ENERGY, used).rows[0].budget
        cap = used - over * unit
    kernel = solver._Kernel(etfg, solver.Objective(objective), cap)
    rows = solver._search_tables(kernel)[0]
    (row,) = [row for row in rows if row.label == label]  # some assignment breaks it
    unconstrained = solve_bruteforce(free, objective)
    chosen = [kernel.tasks[p].allowed.index(unconstrained.assignment[kernel.tasks[p].id]) for p in range(kernel.n)]
    assert kernel.total(row, chosen) == row.budget + over

    result = solve(etfg, objective, cap)
    oracle = solve_bruteforce(etfg, objective, cap)
    assert (result.objective_value, result.assignment) == (oracle.objective_value, oracle.assignment)
    assert (result.assignment == unconstrained.assignment) is (over == 0)


@pytest.mark.parametrize("budgets, counts", [
    (False, {"pruned_by_bound": 1, "pruned_by_budget": 0, "pruned_by_threshold": 1}),
    (True, {"pruned_by_bound": 1, "pruned_by_budget": 1, "pruned_by_threshold": 0}),
])
def test_the_first_row_over_its_budget_takes_the_prune(budgets, counts):
    """One task, branched h, c, e: h is the incumbent, c is over it, and e
    is over it and over the latency cap and, with budgets, over the edge's
    memory and energy budgets too.  A prune counts against the first row
    over its budget in kernel order (budgets before the cap), and against
    the objective only when no row is over."""
    task = simple_task(1, latency={E: 10, H: 1, C: 2}, power={E: Fraction(3, 10), H: 1, C: 1}, memory=10)
    devices = [make_device(E, memory=5, energy=2) if budgets else make_device(E), make_device(H), make_device(C)]
    etfg = transform(TaskGraph(tasks=(task,), arcs=()), make_system_model(devices, PLAIN.channels.values()))
    kernel = solver._Kernel(etfg, solver.Objective.ENERGY, Fraction(5))
    labels = ["mem_e", "enr_e", "lthr"] if budgets else ["lthr"]
    assert [row.label for row in solver._search_tables(kernel)[0]] == labels
    assert solver._search_tables(kernel)[-1] == [(1, 2, 0)]  # h, c, e
    result = solve(etfg, "energy", Fraction(5))
    assert result.assignment == {1: H}
    assert {key: result.stats[key] for key in counts} == counts
    assert result.stats["nodes_explored"] == 4  # three placements and the frame's exhaustion


# Mersenne primes: per-bit energies over them make the kernel's energy
# denominator, and so its packed fields, hundreds of bits wide
_LARGE_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)


def test_fields_wider_than_128_bits_match_the_oracle():
    wide = 0
    for seed in range(40):
        generated, threshold = random_oracle_instance(seed)
        channels = [
            dataclasses.replace(
                channel,
                tx_energy=channel.tx_energy + Fraction(1, _LARGE_PRIMES[k % 4]),
                rx_energy=channel.rx_energy + Fraction(1, _LARGE_PRIMES[(k + 1) % 4]),
            )
            for k, channel in enumerate(generated.system.channels.values())
        ]
        etfg = transform(generated.graph, make_system_model(generated.system.devices.values(), channels))
        kernel = solver._Kernel(etfg, solver.Objective.ENERGY, threshold)
        if etfg.graph.arcs:
            assert solver._search_tables(kernel)[1] > 128, f"seed {seed}"
            wide += 1
        bb = solve(etfg, "energy", threshold)
        bf = solve_bruteforce(etfg, "energy", threshold)
        assert bb.status is bf.status, f"seed {seed}"
        assert (bb.objective_value, bb.assignment) == (bf.objective_value, bf.assignment), f"seed {seed}"
    assert wide >= 30


def _scaled(coeffs, den, columns):
    """Per group of model columns, their coefficients times ``den``."""
    return [[coeffs.get(col, 0) * den for col in group] for group in columns]


def _least_denominator(rows) -> int:
    """The least common denominator of model rows' coefficients and right-hand sides."""
    return math.lcm(*[x.denominator for row in rows for x in [*row.coeffs.values(), row.rhs]])


@pytest.mark.parametrize("direct", [False, True], ids=["relayed", "direct"])
def test_kernel_tables_are_the_models_rows_times_least_denominators(direct):
    """With non-integer output sizes and every device's energy metered, the
    kernel's objective and its energy and latency-cap rows are the model's
    rows times one denominator per quantity, and that denominator is the
    least common one of the model's coefficients and right-hand sides."""
    rng = random.Random(20)
    for seed in range(30):
        generated, threshold = random_oracle_instance(seed, max_tasks=8)
        tasks = tuple(
            dataclasses.replace(t, output_data=t.output_data * Fraction(rng.randint(1, 99), rng.choice((3, 7, 1024))))
            for t in generated.graph.tasks
        )  # non-integer output sizes
        devices = [make_device(r, energy=Fraction(rng.randint(1, 99), rng.choice((1, 3, 7)))) for r in ALL]
        system = make_system_model(devices, generated.system.channels.values())
        if direct:
            system = with_direct_edge_cloud(system)
        etfg = transform(TaskGraph(tasks=tasks, arcs=generated.graph.arcs), system)
        for objective, cap in (("latency", None), ("energy", threshold or Fraction(8))):
            kernel = solver._Kernel(etfg, solver.Objective(objective), cap)
            model = build_model(etfg, objective, cap)
            columns = [
                [model.node_col[(tid, ROLES[r])] for r in roles]
                for tid, roles in zip(kernel.skeleton[0], kernel.role_of)
            ]
            columns += [[model.arc_col[arc[:4]] for arc in etfg.arcs_by_dep[dep]] for dep in etfg.graph.arcs]
            model_rows = {row.label: row for row in model.rows}
            dens = {}
            for row in kernel.rows:
                expected = model_rows[row.label]
                den = dens[row.label] = row.budget / expected.rhs
                assert den.denominator == 1, f"seed {seed} {row.label}"
                assert row.node + row.arc == _scaled(expected.coeffs, den, columns), f"seed {seed} {row.label}"
            assert list(dens)[:3] == ["enr_e", "enr_h", "enr_c"], f"seed {seed}"
            energy_den = _least_denominator([model_rows[label] for label in ("enr_e", "enr_h", "enr_c")])
            assert dens["enr_e"] == dens["enr_h"] == dens["enr_c"] == energy_den, f"seed {seed}"
            assert kernel.obj.node + kernel.obj.arc == _scaled(model.objective, kernel.obj_den, columns), f"seed {seed}"
            if objective == "latency":
                assert kernel.obj_den == math.lcm(*[x.denominator for x in model.objective.values()]), seed
            else:
                assert kernel.obj_den == energy_den, f"seed {seed}"
                assert dens["lthr"] == _least_denominator([model_rows["lthr"]]), f"seed {seed}"
