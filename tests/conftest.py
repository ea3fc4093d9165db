"""Shared builders for the test suite.

Everything here is deterministic given an explicit seed so that failures
reproduce exactly.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, islice

import pytest

from ehcopt import presets, solver
from ehcopt.etfg import transform
from ehcopt.generator import GenSpec, ParamSpec, default_param_spec, generate_tfg, synthesize_params
from ehcopt.milp import evaluate
from ehcopt.model import (
    Channel,
    Device,
    DeviceRole,
    SystemModel,
    Task,
    TaskGraph,
    make_system_model,
)
from ehcopt.solver import solve

E, H, C = DeviceRole.EDGE, DeviceRole.HUB, DeviceRole.CLOUD
ALL = (E, H, C)


def make_device(role, memory=None, storage=None, energy=None, idle="0.1", max_power="10000"):
    return Device(
        role=role,
        name=f"test-{role.value}",
        memory_budget=None if memory is None else Fraction(memory),
        storage_budget=None if storage is None else Fraction(storage),
        energy_budget=None if energy is None else Fraction(energy),
        idle_power=Fraction(idle),
        max_power=Fraction(max_power),
    )


def unbudgeted_system(profile="run1") -> SystemModel:
    return make_system_model([make_device(r) for r in ALL], presets.channels(profile))


def simple_task(tid, allowed=ALL, latency=1, power=1, memory=0, storage=0, data=0):
    lat = latency if isinstance(latency, dict) else {r: Fraction(latency) for r in allowed}
    pw = power if isinstance(power, dict) else {r: Fraction(power) for r in allowed}
    return Task(
        id=tid,
        memory=Fraction(memory),
        storage=Fraction(storage),
        output_data=Fraction(data),
        allowed=tuple(allowed),
        latency={r: Fraction(v) for r, v in lat.items()},
        power={r: Fraction(v) for r, v in pw.items()},
    )


def with_direct_edge_cloud(system: SystemModel) -> SystemModel:
    """``system`` plus direct e->c and c->e channels (1 Mbit/s, 1 uJ/bit
    tx and rx), so that no pair is relayed."""
    direct = [Channel(k, l, Fraction(10**6), Fraction(1, 10**6), Fraction(1, 10**6)) for k, l in ((E, C), (C, E))]
    return make_system_model(system.devices.values(), [*system.channels.values(), *direct])


def with_cloud_relay(system: SystemModel) -> SystemModel:
    """``system`` with e<->h relayed through the cloud: its e<->h channels
    give way to the direct e<->c ones of :func:`with_direct_edge_cloud`."""
    channels = [ch for pair, ch in with_direct_edge_cloud(system).channels.items() if set(pair) != {E, H}]
    return make_system_model(system.devices.values(), channels, relay={(E, H): C, (H, E): C})


def two_task_chain(allowed_first=ALL, allowed_second=ALL, data=10**6) -> TaskGraph:
    # profiles picked so every device is distinct but unremarkable
    lat1 = {r: Fraction(12, 100) * (i + 1) for i, r in enumerate(allowed_first)}
    lat2 = {r: Fraction(9, 100) * (i + 1) for i, r in enumerate(allowed_second)}
    t1 = simple_task(1, allowed_first, latency=lat1, power={r: Fraction(2) for r in allowed_first}, data=data)
    t2 = simple_task(2, allowed_second, latency=lat2, power={r: Fraction(3) for r in allowed_second})
    return TaskGraph(tasks=(t1, t2), arcs=((1, 2),))


def complete_dag(n: int) -> TaskGraph:
    """Arcs between every pair of n tasks, which prefer e, h, c in that
    order and send no data: treewidth n - 1, and one optimum, all on e."""
    tasks = tuple(simple_task(i, ALL, latency={E: 1, H: 2, C: 3}) for i in range(1, n + 1))
    arcs = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return TaskGraph(tasks=tasks, arcs=arcs)


def solve_dp(etfg, objective="latency"):
    """``solve`` on an instance that the elimination DP must answer: the
    dual's one pass, which proves the optimum before any search node.
    Over ``DP_STATE_LIMIT`` the search answers without a word, so this
    checks that the DP did."""
    result = solve(etfg, objective)
    assert result.stats["nodes_explored"] == 0 and result.stats["dual_passes"] == 1
    return result


def solve_searched(monkeypatch, etfg, *args, **kwargs):
    """``solve`` with the elimination DP switched off, so that the dual
    runs no pass and branch and bound searches, also on a kernel
    without rows."""
    with monkeypatch.context() as patched:
        patched.setattr(solver, "DP_STATE_LIMIT", 0)
        return solve(etfg, *args, **kwargs)


@pytest.fixture(scope="session")
def example_app():
    graph = presets.example_inspection_tfg()
    system = presets.system_model("C1", "run1")
    return transform(graph, system)


def serial_200_graph() -> TaskGraph:
    """Generated 200-task serial graph on C1/run1.  Under the energy
    objective with the default 8 s cap, B&B proves it infeasible only
    after about 140k nodes, so a short time limit ends the search with
    no incumbent."""
    spec = GenSpec("serial", 200, 4, 4, Fraction(5, 100), Fraction(2, 100), seed=1)
    return synthesize_params(
        generate_tfg(spec), default_param_spec("C1"), presets.system_model("C1", "run1"), spec.seed
    )


def uav_forest_without_budgets():
    """The bundled app without arc (14,15) on C1/run1 with every budget
    removed: a forest, so tree DP's preconditions hold."""
    c1 = presets.system_model("C1", "run1")
    devices = [
        replace(d, memory_budget=None, storage_budget=None, energy_budget=None)
        for d in c1.devices.values()
    ]
    graph = presets.example_inspection_tfg()
    graph = TaskGraph(tasks=graph.tasks, arcs=tuple(a for a in graph.arcs if a != (14, 15)))
    return transform(graph, make_system_model(devices, presets.channels("run1")))


# --- seeded random instances for solver cross-checks ------------------------

_TEST_RATIOS = {E: Fraction(1), H: Fraction("7.5"), C: Fraction("21.25")}


def _small_param_spec() -> ParamSpec:
    return ParamSpec(
        reference_latency=(Fraction(1, 100), Fraction(1, 2)),
        reference_power=(Fraction(1), Fraction(5)),
        memory_range=(Fraction(2**20), Fraction(2**26)),
        storage_range=(Fraction(2**18), Fraction(2**24)),
        data_range=(Fraction(10**4), Fraction(2 * 10**6)),
        perf_ratios=_TEST_RATIOS,
    )


def random_oracle_instance(seed: int, max_tasks: int = 10):
    """Budgeted random instance: structure, parameters, channel profile and
    per-device budgets all drawn from the seed.  Budgets are scaled around
    the resource usage of a reference assignment so that feasible, tight,
    and infeasible cases all occur."""
    rng = random.Random(seed)
    structure = rng.choice(("parallel", "serial", "mixed"))
    n = rng.randint(3, max_tasks)
    spec = GenSpec(
        structure=structure,
        node_count=n,
        max_in_degree=rng.randint(2, 4),
        max_out_degree=rng.randint(2, 4),
        fixed_edge_fraction=Fraction(rng.choice((0, 1, 2)), 10),
        fixed_hub_fraction=Fraction(rng.choice((0, 1)), 10),
        seed=rng.randrange(2**32),
    )
    skeleton = generate_tfg(spec)
    profile = rng.choice(("run1", "run2"))
    plain = unbudgeted_system(profile)
    graph = synthesize_params(skeleton, _small_param_spec(), plain, rng.randrange(2**32))

    reference = evaluate(transform(graph, plain), {t.id: t.allowed[0] for t in graph.tasks})
    total_mem = sum(t.memory for t in graph.tasks)
    total_sto = sum(t.storage for t in graph.tasks)

    def draw_budget(kind, role):
        if rng.random() < 0.5:
            return None
        factor = Fraction(rng.randint(60, 300), 100)
        if kind == "memory":
            base = max(reference.memory_use[role], total_mem / 3, Fraction(1))
        elif kind == "storage":
            base = max(reference.storage_use[role], total_sto / 3, Fraction(1))
        else:
            base = max(reference.device_energy[role], reference.total_energy / 3, Fraction(1, 10))
        return factor * base

    devices = [
        make_device(
            r,
            memory=draw_budget("memory", r),
            storage=draw_budget("storage", r),
            energy=draw_budget("energy", r),
        )
        for r in ALL
    ]
    system = make_system_model(devices, presets.channels(profile))
    etfg = transform(graph, system)
    if rng.random() < 0.5:
        threshold = None
    else:
        threshold = reference.total_latency * Fraction(rng.randint(40, 200), 100)
    return etfg, threshold


def random_tree_instance(seed: int, max_tasks: int = 12):
    """Unbudgeted instance whose undirected skeleton is a random tree
    (each task attaches to an earlier one with a random arc direction)."""
    rng = random.Random(seed)
    n = rng.randint(2, max_tasks)
    arcs = []
    for i in range(2, n + 1):
        other = rng.randint(1, i - 1)
        arcs.append((other, i) if rng.random() < 0.7 else (i, other))
    tasks = tuple(simple_task(i, ALL, latency=1) for i in range(1, n + 1))
    skeleton = TaskGraph(tasks=tasks, arcs=tuple(arcs))
    plain = unbudgeted_system("run1")
    graph = synthesize_params(skeleton, _small_param_spec(), plain, rng.randrange(2**32))
    return transform(graph, plain)


# --- synthetic instances with prescribed expansion sizes ---------------------

BENCHMARK_SIZES = [
    # (name, tfg nodes, tfg arcs, expanded nodes, expanded arcs, variables)
    ("P1.1", 10, 11, 28, 93, 121),
    ("P1.2", 9, 10, 27, 90, 117),
    ("P2.1", 100, 129, 288, 1077, 1365),
    ("P2.2", 99, 136, 289, 1170, 1459),
    ("P3.1", 999, 1232, 2857, 10078, 12935),
    ("P3.2", 1001, 1553, 2889, 12913, 15802),
    ("S1.1", 10, 17, 30, 153, 183),
    ("S1.2", 11, 40, 33, 360, 393),
    ("S2.1", 100, 197, 286, 1605, 1891),
    ("S2.2", 101, 490, 295, 4170, 4465),
    ("S3.1", 1000, 1997, 2840, 16089, 18929),
    ("S3.2", 998, 4975, 2914, 42415, 45329),
    ("M1.1", 22, 33, 64, 261, 325),
    ("M1.2", 55, 65, 161, 561, 722),
    ("M2.1", 109, 141, 319, 1210, 1529),
    ("M2.2", 122, 147, 358, 1252, 1610),
    ("M3.1", 1000, 1224, 2864, 10055, 12919),
    ("M3.2", 1017, 1181, 2993, 10218, 13211),
]


def sized_task_graph(n_tasks: int, n_arcs: int, exp_nodes: int, exp_arcs: int) -> TaskGraph:
    """Task graph whose expansion has exactly (exp_nodes, exp_arcs).

    Allowed-set sizes contribute |F_i| nodes and |F_i|*|F_j| arcs, so we
    solve for a mix of one-device, two-device and three-device tasks and
    an arc composition hitting the targets, then lay the arcs out forward
    (low id -> high id) to guarantee acyclicity.
    """
    delta = 3 * n_tasks - exp_nodes  # each single costs 2 nodes, each pair costs 1
    even_arcs = (n_arcs - exp_arcs) % 2  # arcs with an even product (one two-device end)
    pairs = delta % 2
    if even_arcs == 1 and pairs == 0:
        pairs = 2
    singles = (delta - pairs) // 2
    assert singles >= 0 and (delta - pairs) % 2 == 0

    odd_arcs = n_arcs - even_arcs
    s = (exp_arcs - 6 * even_arcs - odd_arcs) // 2  # = 4a + b
    a = max(0, -(-(s - odd_arcs) // 3))  # free-free arcs (product 9)
    b = s - 4 * a  # single-free arcs (product 3)
    c = odd_arcs - a - b  # single-single arcs (product 1)
    assert a >= 0 and b >= 0 and c >= 0

    single_ids = range(1, singles + 1)
    pair_ids = range(singles + 1, singles + pairs + 1)
    free_ids = range(singles + pairs + 1, n_tasks + 1)

    lat = {r: Fraction(1, 100) for r in ALL}
    pw = {r: Fraction(1) for r in ALL}
    tasks = []
    for tid in range(1, n_tasks + 1):
        if tid <= singles:
            allowed = (E,) if tid % 2 else (H,)
        elif tid <= singles + pairs:
            allowed = (E, H)
        else:
            allowed = ALL
        tasks.append(
            Task(
                id=tid,
                memory=Fraction(0),
                storage=Fraction(0),
                output_data=Fraction(10**6),
                allowed=allowed,
                latency={r: lat[r] for r in allowed},
                power={r: pw[r] for r in allowed},
            )
        )

    arcs = list(islice(combinations(single_ids, 2), c))
    arcs += list(islice(((x, y) for x in single_ids for y in free_ids), b))
    if even_arcs:
        arcs.append((pair_ids[0], free_ids[0]))
    arcs += list(islice(combinations(free_ids, 2), a))
    assert len(arcs) == n_arcs and len(set(arcs)) == n_arcs
    return TaskGraph(tasks=tuple(tasks), arcs=tuple(sorted(arcs)))
