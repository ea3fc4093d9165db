"""Exact solvers for the task-allocation problem.

Three routes to a provably optimal assignment:

* :func:`solve_bruteforce` enumerates every assignment.  It is the
  reference oracle for the other solvers, so it extracts its costs from
  the expanded graph independently and keeps no shared pruning logic.
* :func:`solve_tree_dp` is a fast path for instances whose undirected
  dependency skeleton is a forest and that carry no budgets: a bottom-up
  dynamic program over (task, device) states.
* :func:`solve_branch_and_bound` handles the general case: depth-first
  search over tasks in topological order with an additive lower bound
  (assigned cost + per-task minima + per-arc minima consistent with the
  partial assignment) plus budget and latency-threshold pruning.

All arithmetic runs on integers after exact rescaling of the rational
inputs, so equal objective values compare equal regardless of the path
that produced them, and tie-breaking is reproducible: among equally good
assignments the one that is lexicographically smallest by (task id,
device order e < h < c) wins.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .etfg import Etfg, arc_shares
from .milp import Objective, ObjectiveBreakdown, evaluate
from .model import ROLES, DeviceRole, topological_order
from .units import si_number, without_cyclic_gc

BRUTE_FORCE_LIMIT = 10**7


class InstanceTooLarge(ValueError):
    """Enumeration guard tripped: too many assignments to brute-force."""


class SolveStatus(str, Enum):
    OPTIMAL = "proven-optimal"
    FEASIBLE = "incumbent-with-gap"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolveConfig:
    time_limit: float | None = None  # seconds of wall time, None = unlimited

    def __post_init__(self):
        if self.time_limit is not None and not self.time_limit > 0:  # NaN included
            raise ValueError("time limit must be > 0")


@dataclass
class Allocation:
    status: SolveStatus
    objective_kind: Objective
    assignment: dict[int, DeviceRole] | None
    objective_value: Fraction | None
    breakdown: ObjectiveBreakdown | None
    gap: float | None = None
    stats: dict = field(default_factory=dict)

    @property
    def optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "objective": self.objective_kind.value,
            "assignment": (
                None
                if self.assignment is None
                else {str(t): d.value for t, d in sorted(self.assignment.items())}
            ),
            "objective_value": (
                None if self.objective_value is None else si_number(self.objective_value)
            ),
            "gap": self.gap,
            "breakdown": None if self.breakdown is None else self.breakdown.to_dict(),
        }


def _common_denominator(values) -> int:
    den = 1
    for v in values:
        den = math.lcm(den, v.denominator)
    return den


def _as_int(value: Fraction, den: int) -> int:
    return value.numerator * (den // value.denominator)  # exact: den is a multiple of it


def _finish(etfg, objective, assignment_roles, value, latency_threshold, stats, status, gap=None):
    threshold = latency_threshold if Objective(objective) is Objective.ENERGY else None
    breakdown = evaluate(etfg, assignment_roles, threshold)
    return Allocation(
        status=status,
        objective_kind=Objective(objective),
        assignment=assignment_roles,
        objective_value=value,
        breakdown=breakdown,
        gap=gap,
        stats=stats,
    )


# --- exhaustive oracle ----------------------------------------------------


def solve_bruteforce(
    etfg: Etfg,
    objective: Objective | str = Objective.LATENCY,
    latency_threshold: Fraction | None = None,
) -> Allocation:
    """Enumerate every assignment; keep the best feasible one.

    The latency threshold participates only under the energy objective,
    matching the optimization model.  Guarded to ``BRUTE_FORCE_LIMIT``
    assignments.
    """
    objective = Objective(objective)
    graph, system = etfg.graph, etfg.system
    tasks = graph.tasks
    n = len(tasks)
    total = 1
    for t in tasks:
        total *= len(t.allowed)
        if total > BRUTE_FORCE_LIMIT:
            raise InstanceTooLarge(
                f"assignment space exceeds {BRUTE_FORCE_LIMIT}; use branch and bound"
            )

    use_threshold = objective is Objective.ENERGY and latency_threshold is not None
    role_idx = {r: i for i, r in enumerate(ROLES)}
    pos_of = {t.id: p for p, t in enumerate(tasks)}

    cand_roles = [t.allowed for t in tasks]
    node_obj_f = [
        [(t.latency[r] if objective is Objective.LATENCY else t.latency[r] * t.power[r]) for r in t.allowed]
        for t in tasks
    ]
    node_enr_f = [[t.latency[r] * t.power[r] for r in t.allowed] for t in tasks]
    node_lat_f = [[t.latency[r] for r in t.allowed] for t in tasks]

    # transfer cost and per-device energy shares for one arc, by device pair
    def pair_costs(data, k, l):
        if k == l:
            return Fraction(0), Fraction(0), ()
        if (k, l) in system.channels:
            ch = system.channels[(k, l)]
            lat = data / ch.bandwidth
            enr = data * (ch.tx_energy + ch.rx_energy)
            parts = ((role_idx[k], data * ch.tx_energy), (role_idx[l], data * ch.rx_energy))
            return lat, enr, parts
        m = system.relay[(k, l)]
        first, second = system.channels[(k, m)], system.channels[(m, l)]
        lat = data * (1 / first.bandwidth + 1 / second.bandwidth)
        enr = data * (first.tx_energy + first.rx_energy + second.tx_energy + second.rx_energy)
        parts = (
            (role_idx[k], data * first.tx_energy),
            (role_idx[m], data * (first.rx_energy + second.tx_energy)),
            (role_idx[l], data * second.rx_energy),
        )
        return lat, enr, parts

    arc_specs = []  # (earlier_pos, later_pos, oriented src is earlier?, tables)
    for (i, j) in graph.arcs:
        a, b = pos_of[i], pos_of[j]
        earlier, later = (a, b) if a < b else (b, a)
        data = graph.task(i).output_data
        table = {}
        for ce, re_ in enumerate(cand_roles[earlier]):
            for cl, rl in enumerate(cand_roles[later]):
                k, l = (re_, rl) if earlier == a else (rl, re_)
                table[(ce, cl)] = pair_costs(data, k, l)
        arc_specs.append((earlier, later, table))

    # integer grids so that equal values compare exactly
    obj_den = _common_denominator(
        [c for row in node_obj_f for c in row]
        + [t[0] if objective is Objective.LATENCY else t[1] for _, _, tb in arc_specs for t in tb.values()]
    )
    lat_den = _common_denominator(
        [c for row in node_lat_f for c in row]
        + [t[0] for _, _, tb in arc_specs for t in tb.values()]
        + ([latency_threshold] if use_threshold else [])
    )
    enr_values = [c for row in node_enr_f for c in row]
    for _, _, tb in arc_specs:
        for _, _, parts in tb.values():
            enr_values.extend(amount for _, amount in parts)
    budgets = [system.device(r) for r in ROLES]
    enr_den = _common_denominator(
        enr_values + [d.energy_budget for d in budgets if d.energy_budget is not None]
    )
    mem_den = _common_denominator(
        [t.memory for t in tasks] + [d.memory_budget for d in budgets if d.memory_budget is not None]
    )
    sto_den = _common_denominator(
        [t.storage for t in tasks] + [d.storage_budget for d in budgets if d.storage_budget is not None]
    )

    node_obj = [[_as_int(c, obj_den) for c in row] for row in node_obj_f]
    node_enr = [[_as_int(c, enr_den) for c in row] for row in node_enr_f]
    node_lat = [[_as_int(c, lat_den) for c in row] for row in node_lat_f]
    mem = [_as_int(t.memory, mem_den) for t in tasks]
    sto = [_as_int(t.storage, sto_den) for t in tasks]
    mem_bgt = [None if d.memory_budget is None else _as_int(d.memory_budget, mem_den) for d in budgets]
    sto_bgt = [None if d.storage_budget is None else _as_int(d.storage_budget, sto_den) for d in budgets]
    enr_bgt = [None if d.energy_budget is None else _as_int(d.energy_budget, enr_den) for d in budgets]
    thr = _as_int(latency_threshold, lat_den) if use_threshold else None

    # flat per-level tables: arc cost indexed by earlier_choice * width + ci
    arcs_at: list[list[tuple]] = [[] for _ in range(n)]
    for earlier, later, table in arc_specs:
        width = len(cand_roles[later])
        size = len(cand_roles[earlier]) * width
        obj_flat = [0] * size
        lat_flat = [0] * size
        parts_flat: list[tuple] = [()] * size
        for (ce, cl), (lat_f, enr_f, parts) in table.items():
            idx = ce * width + cl
            obj_flat[idx] = _as_int(lat_f if objective is Objective.LATENCY else enr_f, obj_den)
            lat_flat[idx] = _as_int(lat_f, lat_den)
            parts_flat[idx] = tuple((r, _as_int(amount, enr_den)) for r, amount in parts)
        arcs_at[later].append((earlier, width, obj_flat, lat_flat, parts_flat))

    # odometer enumeration; the deepest level is unrolled for speed
    choice = [0] * n
    added_obj = [0] * n
    added_lat = [0] * n
    added_parts: list[tuple] = [()] * n
    acc = 0
    lat_acc = 0
    mem_use = [0, 0, 0]
    sto_use = [0, 0, 0]
    enr_use = [0, 0, 0]

    best_value = None
    best_choice = None
    leaves = 0

    def apply(level: int, ci: int):
        nonlocal acc, lat_acc
        d_obj = node_obj[level][ci]
        if unconstrained:
            for earlier, width, obj_flat, _lat_flat, _parts_flat in arcs_at[level]:
                d_obj += obj_flat[choice[earlier] * width + ci]
            acc += d_obj
            added_obj[level] = d_obj
            added_lat[level] = 0
            added_parts[level] = ()
            choice[level] = ci
            return
        r = role_idx[cand_roles[level][ci]]
        d_lat = node_lat[level][ci]
        parts = [(r, mem[level], sto[level], node_enr[level][ci])]
        for earlier, width, obj_flat, lat_flat, parts_flat in arcs_at[level]:
            idx = choice[earlier] * width + ci
            d_obj += obj_flat[idx]
            d_lat += lat_flat[idx]
            for pr, amount in parts_flat[idx]:
                parts.append((pr, 0, 0, amount))
        acc += d_obj
        lat_acc += d_lat
        for pr, dm, ds, de in parts:
            mem_use[pr] += dm
            sto_use[pr] += ds
            enr_use[pr] += de
        added_obj[level] = d_obj
        added_lat[level] = d_lat
        added_parts[level] = tuple(parts)
        choice[level] = ci

    def undo(level: int):
        nonlocal acc, lat_acc
        acc -= added_obj[level]
        lat_acc -= added_lat[level]
        for pr, dm, ds, de in added_parts[level]:
            mem_use[pr] -= dm
            sto_use[pr] -= ds
            enr_use[pr] -= de

    unconstrained = (
        thr is None
        and all(b is None for b in mem_bgt)
        and all(b is None for b in sto_bgt)
        and all(b is None for b in enr_bgt)
    )

    def check_leaf(level: int, ci: int):
        """Evaluate the final task's choice without mutating the state."""
        nonlocal best_value, best_choice, leaves
        leaves += 1
        d_obj = node_obj[level][ci]
        if unconstrained:
            for earlier, width, obj_flat, _lat_flat, _parts_flat in arcs_at[level]:
                d_obj += obj_flat[choice[earlier] * width + ci]
            value = acc + d_obj
            if best_value is not None and value >= best_value:
                return  # ties keep the earlier, lexicographically smaller find
            best_value = value
            choice[level] = ci
            best_choice = tuple(choice)
            return
        r = role_idx[cand_roles[level][ci]]
        d_lat = node_lat[level][ci]
        d_enr = [0, 0, 0]
        d_enr[r] = node_enr[level][ci]
        for earlier, width, obj_flat, lat_flat, parts_flat in arcs_at[level]:
            idx = choice[earlier] * width + ci
            d_obj += obj_flat[idx]
            d_lat += lat_flat[idx]
            for pr, amount in parts_flat[idx]:
                d_enr[pr] += amount
        value = acc + d_obj
        if best_value is not None and value >= best_value:
            return
        if thr is not None and lat_acc + d_lat > thr:
            return
        for x in range(3):
            if mem_bgt[x] is not None and mem_use[x] + (mem[level] if x == r else 0) > mem_bgt[x]:
                return
            if sto_bgt[x] is not None and sto_use[x] + (sto[level] if x == r else 0) > sto_bgt[x]:
                return
            if enr_bgt[x] is not None and enr_use[x] + d_enr[x] > enr_bgt[x]:
                return
        best_value = value
        choice[level] = ci
        best_choice = tuple(choice)

    last = n - 1
    if n == 1:
        for ci in range(len(cand_roles[0])):
            check_leaf(0, ci)
    else:
        level = 0
        ci = [0] * n
        while True:
            if level == last:
                for c in range(len(cand_roles[last])):
                    check_leaf(last, c)
                level -= 1
                undo(level)
                ci[level] += 1
                continue
            if ci[level] == len(cand_roles[level]):
                ci[level] = 0
                level -= 1
                if level < 0:
                    break
                undo(level)
                ci[level] += 1
                continue
            apply(level, ci[level])
            level += 1

    stats = {"assignments_enumerated": leaves, "solver": "bruteforce"}
    if best_value is None:
        return Allocation(
            status=SolveStatus.INFEASIBLE,
            objective_kind=objective,
            assignment=None,
            objective_value=None,
            breakdown=None,
            stats=stats,
        )
    assignment = {tasks[p].id: cand_roles[p][c] for p, c in enumerate(best_choice)}
    value = Fraction(best_value, obj_den)
    return _finish(etfg, objective, assignment, value, latency_threshold, stats, SolveStatus.OPTIMAL)


# --- tree-structured fast path ---------------------------------------------


def solve_tree_dp(etfg: Etfg, objective: Objective | str = Objective.LATENCY) -> Allocation:
    """Dynamic program over a forest-shaped dependency skeleton.

    Requires every device budget to be unbounded (node and arc costs then
    decompose over the tree).  Raises ValueError otherwise or when the
    undirected skeleton contains a cycle.
    """
    objective = Objective(objective)
    obstacle = _tree_dp_obstacle(etfg)
    if obstacle is not None:
        raise ValueError(obstacle)
    graph = etfg.graph
    tasks = graph.tasks
    n = len(tasks)
    pos_of = {t.id: p for p, t in enumerate(tasks)}

    neighbors: list[list[int]] = [[] for _ in range(n)]
    arc_cost: dict[tuple[int, int], dict] = {}
    for (i, j) in graph.arcs:
        a, b = pos_of[i], pos_of[j]
        neighbors[a].append(b)
        neighbors[b].append(a)
        group = etfg.arcs_by_dep[(i, j)]
        arc_cost[(a, b)] = {
            (arc.src_device, arc.dst_device): (
                arc.latency if objective is Objective.LATENCY else arc.energy
            )
            for arc in group
        }

    node_cost = [
        {
            node.device: node.latency if objective is Objective.LATENCY else node.energy
            for node in etfg.nodes_by_task[t.id]
        }
        for t in tasks
    ]

    def edge_cost(u: int, v: int, ru: DeviceRole, rv: DeviceRole) -> Fraction:
        if (u, v) in arc_cost:
            return arc_cost[(u, v)][(ru, rv)]
        return arc_cost[(v, u)][(rv, ru)]

    visited = [False] * n
    cost: list[dict[DeviceRole, Fraction]] = [dict(node_cost[p]) for p in range(n)]
    chosen: dict[int, DeviceRole] = {}
    total = Fraction(0)

    for root in range(n):
        if visited[root]:
            continue
        # BFS layering rooted at the smallest unvisited task id
        bfs = [root]
        visited[root] = True
        parent = {root: None}
        for u in bfs:
            for v in sorted(neighbors[u]):
                if not visited[v]:
                    visited[v] = True
                    parent[v] = u
                    bfs.append(v)
        # leaves upward: fold each child's best response into its parent
        for v in reversed(bfs[1:]):
            u = parent[v]
            for ru in cost[u]:
                cost[u][ru] += min(cost[v][rv] + edge_cost(u, v, ru, rv) for rv in cost[v])
        best_root = min(cost[root], key=lambda r: (cost[root][r], ROLES.index(r)))
        total += cost[root][best_root]
        chosen[tasks[root].id] = best_root
        # downward pass fixes each child given its parent's device
        for v in bfs[1:]:
            u = parent[v]
            ru = chosen[tasks[u].id]
            best = min(
                cost[v],
                key=lambda rv: (cost[v][rv] + edge_cost(u, v, ru, rv), ROLES.index(rv)),
            )
            chosen[tasks[v].id] = best

    stats = {"solver": "tree-dp"}
    return _finish(etfg, objective, chosen, total, None, stats, SolveStatus.OPTIMAL)


# --- branch and bound -------------------------------------------------------


class _Instance:
    """Integer-rescaled search tables in topological task order."""

    @without_cyclic_gc
    def __init__(self, etfg: Etfg, objective: Objective, latency_threshold: Fraction | None):
        graph, system = etfg.graph, etfg.system
        self.etfg = etfg
        self.objective = objective
        order = topological_order(graph)
        self.order = order
        self.n = len(order)
        pos_of = {tid: p for p, tid in enumerate(order)}
        tasks = [graph.task(tid) for tid in order]
        self.tasks = tasks
        role_idx = {r: i for i, r in enumerate(ROLES)}

        self.use_threshold = objective is Objective.ENERGY and latency_threshold is not None

        cand = [t.allowed for t in tasks]
        self.cand = cand
        nodes = [etfg.nodes_by_task[tid] for tid in order]  # candidates in t.allowed order
        node_obj_f = [
            [n.latency if objective is Objective.LATENCY else n.energy for n in row]
            for row in nodes
        ]
        node_lat_f = [[n.latency for n in row] for row in nodes]
        node_enr_f = [[n.energy for n in row] for row in nodes]

        # per-device transfer-energy shares, one shared tuple per (data size, device pair)
        shares_by_dep = arc_shares(etfg)
        arcs = []
        for (i, j) in graph.arcs:
            sp, dp = pos_of[i], pos_of[j]
            obj_tb: dict[tuple[int, int], Fraction] = {}
            lat_tb: dict[tuple[int, int], Fraction] = {}
            parts_tb: dict[tuple[int, int], tuple] = {}
            src_allowed, dst_allowed = cand[sp], cand[dp]
            src_index = {r: ci for ci, r in enumerate(src_allowed)}
            dst_index = {r: ci for ci, r in enumerate(dst_allowed)}
            for arc, shares in zip(etfg.arcs_by_dep[(i, j)], shares_by_dep[(i, j)]):
                key = (src_index[arc.src_device], dst_index[arc.dst_device])
                obj_tb[key] = arc.latency if objective is Objective.LATENCY else arc.energy
                lat_tb[key] = arc.latency
                parts_tb[key] = shares
            arcs.append((sp, dp, obj_tb, lat_tb, parts_tb))

        budgets = [system.device(r) for r in ROLES]
        obj_values = [c for row in node_obj_f for c in row]
        lat_values = [c for row in node_lat_f for c in row]
        enr_values = [c for row in node_enr_f for c in row]
        for _, _, obj_tb, lat_tb, _ in arcs:
            obj_values.extend(obj_tb.values())
            lat_values.extend(lat_tb.values())
        distinct = {id(shares): shares for row in shares_by_dep.values() for shares in row}
        for shares in distinct.values():
            enr_values.extend(amount for _, amount in shares)
        obj_den = _common_denominator(obj_values)
        lat_den = _common_denominator(
            lat_values + ([latency_threshold] if self.use_threshold else [])
        )
        enr_den = _common_denominator(
            enr_values + [d.energy_budget for d in budgets if d.energy_budget is not None]
        )
        mem_den = _common_denominator(
            [t.memory for t in tasks]
            + [d.memory_budget for d in budgets if d.memory_budget is not None]
        )
        sto_den = _common_denominator(
            [t.storage for t in tasks]
            + [d.storage_budget for d in budgets if d.storage_budget is not None]
        )
        self.obj_den = obj_den

        self.node_obj = [[_as_int(c, obj_den) for c in row] for row in node_obj_f]
        self.node_lat = [[_as_int(c, lat_den) for c in row] for row in node_lat_f]
        self.node_enr = [[_as_int(c, enr_den) for c in row] for row in node_enr_f]
        self.mem = [_as_int(t.memory, mem_den) for t in tasks]
        self.sto = [_as_int(t.storage, sto_den) for t in tasks]
        self.mem_bgt = [
            None if d.memory_budget is None else _as_int(d.memory_budget, mem_den) for d in budgets
        ]
        self.sto_bgt = [
            None if d.storage_budget is None else _as_int(d.storage_budget, sto_den)
            for d in budgets
        ]
        self.enr_bgt = [
            None if d.energy_budget is None else _as_int(d.energy_budget, enr_den) for d in budgets
        ]
        self.lat_thr = _as_int(latency_threshold, lat_den) if self.use_threshold else None
        self.role_of = [[role_idx[r] for r in row] for row in cand]

        self.arcs = []
        self.in_arcs: list[list[int]] = [[] for _ in range(self.n)]
        self.out_arcs: list[list[int]] = [[] for _ in range(self.n)]
        parts_int: dict[int, tuple] = {}  # each shared tuple converted once, keyed by id()
        for aidx, (sp, dp, obj_tb, lat_tb, parts_tb) in enumerate(arcs):
            obj_i = {k: _as_int(v, obj_den) for k, v in obj_tb.items()}
            lat_i = {k: _as_int(v, lat_den) for k, v in lat_tb.items()}
            parts_i = {}
            for k, parts in parts_tb.items():
                if id(parts) not in parts_int:
                    parts_int[id(parts)] = tuple((role_idx[r], _as_int(a, enr_den)) for r, a in parts)
                parts_i[k] = parts_int[id(parts)]
            min_pair = min(obj_i.values())
            n_src = len(cand[sp])
            min_src = [
                min(v for (ks, _), v in obj_i.items() if ks == ci) for ci in range(n_src)
            ]
            lat_min_pair = min(lat_i.values())
            lat_min_src = [
                min(v for (ks, _), v in lat_i.items() if ks == ci) for ci in range(n_src)
            ]
            self.arcs.append(
                {
                    "src": sp,
                    "dst": dp,
                    "obj": obj_i,
                    "lat": lat_i,
                    "parts": parts_i,
                    "min_pair": min_pair,
                    "min_src": min_src,
                    "lat_min_pair": lat_min_pair,
                    "lat_min_src": lat_min_src,
                }
            )
            self.in_arcs[dp].append(aidx)
            self.out_arcs[sp].append(aidx)

        self.min_node = [min(row) for row in self.node_obj]
        self.lat_min_node = [min(row) for row in self.node_lat]
        # branch devices cheapest-first; ties by canonical device order
        self.branch = [
            tuple(sorted(range(len(cand[p])), key=lambda ci: (self.node_obj[p][ci], self.role_of[p][ci])))
            for p in range(self.n)
        ]


def solve_branch_and_bound(
    etfg: Etfg,
    objective: Objective | str = Objective.LATENCY,
    latency_threshold: Fraction | None = None,
    config: SolveConfig | None = None,
) -> Allocation:
    """Depth-first branch and bound over task->device assignments.

    Proves optimality when the search completes; under a time limit it
    returns the incumbent with a relative gap computed against the best
    open lower bound, or no assignment and a gap of None when no incumbent
    was found.  Deterministic for fixed inputs and configuration.
    """
    objective = Objective(objective)
    config = config or SolveConfig()
    inst = _Instance(etfg, objective, latency_threshold)
    n = inst.n
    started = time.monotonic()
    deadline = None if config.time_limit is None else started + config.time_limit

    if n == 0:
        raise ValueError("empty task graph")

    # mutable search state
    choice = [-1] * n
    acc = 0
    rem_node = sum(inst.min_node)
    rem_arc = sum(a["min_pair"] for a in inst.arcs)
    lat_acc = 0
    lat_rem_node = sum(inst.lat_min_node) if inst.use_threshold else 0
    lat_rem_arc = sum(a["lat_min_pair"] for a in inst.arcs) if inst.use_threshold else 0
    mem_use = [0, 0, 0]
    sto_use = [0, 0, 0]
    enr_use = [0, 0, 0]
    forced_mem = [0, 0, 0]
    forced_sto = [0, 0, 0]
    forced_enr = [0, 0, 0]
    for p in range(n):
        if len(inst.cand[p]) == 1:
            r = inst.role_of[p][0]
            forced_mem[r] += inst.mem[p]
            forced_sto[r] += inst.sto[p]
            forced_enr[r] += inst.node_enr[p][0]

    best_value = None
    best_choice = None
    nodes = 0
    pruned_bound = 0
    pruned_budget = 0
    pruned_threshold = 0
    hit_time_limit = False

    arcs = inst.arcs

    def apply(p: int, ci: int):
        nonlocal acc, rem_node, rem_arc, lat_acc, lat_rem_node, lat_rem_arc
        r = inst.role_of[p][ci]
        d_acc = inst.node_obj[p][ci]
        d_rem_node = inst.min_node[p]
        d_rem_arc = 0
        d_lat_acc = inst.node_lat[p][ci] if inst.use_threshold else 0
        d_lat_rem_node = inst.lat_min_node[p] if inst.use_threshold else 0
        d_lat_rem_arc = 0
        usage = [(r, inst.mem[p], inst.sto[p], inst.node_enr[p][ci])]
        for aidx in inst.in_arcs[p]:
            a = arcs[aidx]
            key = (choice[a["src"]], ci)
            d_acc += a["obj"][key]
            d_rem_arc += a["min_src"][key[0]]
            if inst.use_threshold:
                d_lat_acc += a["lat"][key]
                d_lat_rem_arc += a["lat_min_src"][key[0]]
            for pr, amount in a["parts"][key]:
                usage.append((pr, 0, 0, amount))
        for aidx in inst.out_arcs[p]:
            a = arcs[aidx]
            d_rem_arc -= a["min_src"][ci] - a["min_pair"]
            if inst.use_threshold:
                d_lat_rem_arc -= a["lat_min_src"][ci] - a["lat_min_pair"]
        forced = None
        if len(inst.cand[p]) == 1:
            forced = (r, inst.mem[p], inst.sto[p], inst.node_enr[p][0])
            forced_mem[r] -= inst.mem[p]
            forced_sto[r] -= inst.sto[p]
            forced_enr[r] -= inst.node_enr[p][0]
        acc += d_acc
        rem_node -= d_rem_node
        rem_arc -= d_rem_arc
        lat_acc += d_lat_acc
        lat_rem_node -= d_lat_rem_node
        lat_rem_arc -= d_lat_rem_arc
        for pr, dm, ds, de in usage:
            mem_use[pr] += dm
            sto_use[pr] += ds
            enr_use[pr] += de
        choice[p] = ci
        return (d_acc, d_rem_node, d_rem_arc, d_lat_acc, d_lat_rem_node, d_lat_rem_arc, usage, forced)

    def undo(p: int, rec):
        nonlocal acc, rem_node, rem_arc, lat_acc, lat_rem_node, lat_rem_arc
        d_acc, d_rem_node, d_rem_arc, d_lat_acc, d_lat_rem_node, d_lat_rem_arc, usage, forced = rec
        acc -= d_acc
        rem_node += d_rem_node
        rem_arc += d_rem_arc
        lat_acc -= d_lat_acc
        lat_rem_node += d_lat_rem_node
        lat_rem_arc += d_lat_rem_arc
        for pr, dm, ds, de in usage:
            mem_use[pr] -= dm
            sto_use[pr] -= ds
            enr_use[pr] -= de
        if forced is not None:
            r, fm, fs, fe = forced
            forced_mem[r] += fm
            forced_sto[r] += fs
            forced_enr[r] += fe
        choice[p] = -1

    def violates_budget() -> bool:
        for r in range(3):
            if inst.mem_bgt[r] is not None and mem_use[r] + forced_mem[r] > inst.mem_bgt[r]:
                return True
            if inst.sto_bgt[r] is not None and sto_use[r] + forced_sto[r] > inst.sto_bgt[r]:
                return True
            if inst.enr_bgt[r] is not None and enr_use[r] + forced_enr[r] > inst.enr_bgt[r]:
                return True
        return False

    by_id = sorted(range(n), key=lambda p: inst.tasks[p].id)

    def id_ordered(choice_vec) -> tuple[int, ...]:
        return tuple(inst.role_of[p][choice_vec[p]] for p in by_id)

    # frames: [pos, device list, next index, undo record or None, entry bound]
    frames: list[list] = [[0, inst.branch[0], 0, None, acc + rem_node + rem_arc]]
    while frames:
        nodes += 1
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            hit_time_limit = True
            break
        f = frames[-1]
        if f[3] is not None:
            undo(f[0], f[3])
            f[3] = None
        if f[2] == len(f[1]):
            frames.pop()
            continue
        ci = f[1][f[2]]
        f[2] += 1
        p = f[0]
        rec = apply(p, ci)
        if violates_budget():
            pruned_budget += 1
            undo(p, rec)
            continue
        if inst.use_threshold and lat_acc + lat_rem_node + lat_rem_arc > inst.lat_thr:
            pruned_threshold += 1
            undo(p, rec)
            continue
        bound = acc + rem_node + rem_arc
        if best_value is not None and bound > best_value:
            pruned_bound += 1
            undo(p, rec)
            continue
        if p == n - 1:
            value = acc
            if best_value is None or value < best_value:
                best_value = value
                best_choice = (id_ordered(choice), tuple(choice))
            elif value == best_value:
                vec = id_ordered(choice)
                if vec < best_choice[0]:
                    best_choice = (vec, tuple(choice))
            undo(p, rec)
            continue
        f[3] = rec
        frames.append([p + 1, inst.branch[p + 1], 0, None, acc + rem_node + rem_arc])

    wall = time.monotonic() - started
    stats = {
        "solver": "branch-and-bound",
        "nodes_explored": nodes,
        "pruned_by_bound": pruned_bound,
        "pruned_by_budget": pruned_budget,
        "pruned_by_threshold": pruned_threshold,
        "wall_time_s": wall,
        "time_limit_hit": hit_time_limit,
    }

    if not hit_time_limit:
        if best_value is None:
            return Allocation(
                status=SolveStatus.INFEASIBLE,
                objective_kind=objective,
                assignment=None,
                objective_value=None,
                breakdown=None,
                stats=stats,
            )
        assignment = {
            inst.tasks[p].id: ROLES[inst.role_of[p][ci]] for p, ci in enumerate(best_choice[1])
        }
        value = Fraction(best_value, inst.obj_den)
        return _finish(
            etfg, objective, assignment, value, latency_threshold, stats, SolveStatus.OPTIMAL
        )

    # timed out: report the incumbent with its optimality gap
    open_bounds = [f[4] for f in frames if f[2] <= len(f[1])]
    lower = min(open_bounds) if open_bounds else best_value
    if best_value is None:  # no incumbent, so no gap either
        stats["gap"] = None
        return Allocation(
            status=SolveStatus.FEASIBLE,
            objective_kind=objective,
            assignment=None,
            objective_value=None,
            breakdown=None,
            stats=stats,
        )
    gap = 0.0 if best_value == 0 else float(Fraction(best_value - lower, best_value))
    gap = max(gap, 0.0)
    stats["gap"] = gap
    assignment = {
        inst.tasks[p].id: ROLES[inst.role_of[p][ci]] for p, ci in enumerate(best_choice[1])
    }
    value = Fraction(best_value, inst.obj_den)
    return _finish(
        etfg,
        objective,
        assignment,
        value,
        latency_threshold,
        stats,
        SolveStatus.FEASIBLE,
        gap=gap,
    )


def _tree_dp_obstacle(etfg: Etfg) -> str | None:
    """Why :func:`solve_tree_dp` cannot take this instance, or None."""
    for role in ROLES:
        dev = etfg.system.device(role)
        if any(b is not None for b in (dev.memory_budget, dev.storage_budget, dev.energy_budget)):
            return "tree DP requires all device budgets to be unbounded"
    graph = etfg.graph
    pos_of = {t.id: p for p, t in enumerate(graph.tasks)}
    parent = list(range(len(graph.tasks)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j) in graph.arcs:
        ra, rb = find(pos_of[i]), find(pos_of[j])
        if ra == rb:
            return "dependency skeleton is not a forest"
        parent[ra] = rb
    return None


def tree_dp_applicable(etfg: Etfg) -> bool:
    return _tree_dp_obstacle(etfg) is None


def solve(
    etfg: Etfg,
    objective: Objective | str = Objective.LATENCY,
    latency_threshold: Fraction | None = None,
    config: SolveConfig | None = None,
    method: str = "auto",
) -> Allocation:
    """Front door: pick a solver (``auto`` uses the tree fast path when
    its preconditions hold, branch and bound otherwise).

    A time limit bounds branch and bound only.  ``auto`` still takes the
    tree DP under a time limit, since the DP is linear-time and always
    finishes; a forced ``bruteforce`` or ``tree-dp`` with a time limit
    raises ValueError instead of ignoring it.
    """
    objective = Objective(objective)
    use_threshold = objective is Objective.ENERGY and latency_threshold is not None
    time_limited = config is not None and config.time_limit is not None
    if method == "auto":
        if not use_threshold and tree_dp_applicable(etfg):
            return solve_tree_dp(etfg, objective)
        method = "bnb"
    if method == "bruteforce":
        if time_limited:
            raise ValueError("brute force cannot honour a time limit; use bnb")
        return solve_bruteforce(etfg, objective, latency_threshold)
    if method == "tree-dp":
        if use_threshold:
            raise ValueError("tree DP cannot honour a latency threshold; use bnb or bruteforce")
        if time_limited:
            raise ValueError("tree DP cannot honour a time limit; use bnb or auto")
        return solve_tree_dp(etfg, objective)
    if method == "bnb":
        return solve_branch_and_bound(etfg, objective, latency_threshold, config)
    raise ValueError(f"unknown solver method {method!r}")
