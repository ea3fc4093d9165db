"""Exact solvers for the task-allocation problem.

:func:`solve` is the one front door.  It validates the request, starts
the time-limit clock, builds the integer kernel once and takes one of
two routes to a provably optimal assignment by its ``method``:

* ``auto`` is branch and bound: depth-first search over tasks in
  topological order with one additive lower bound per quantity, the
  objective and each of the kernel's rows.  Each starts at its root
  bound, per-task minima plus per-arc minima, and placing a task adds
  how far each term it settles lies above the minimum it replaced.  The
  bounds sit side by side in one integer, so one addition updates all
  of them and one mask test compares them all with their caps.  It
  prunes on the first row over its budget, then on the objective against
  the incumbent.  Under a time limit, and on every kernel without rows
  (no budget and no latency cap), a Lagrangian multiplier search over
  the kernel's rows (:func:`_dual`) runs first.  Each of its passes
  is one run of the elimination DP: tasks are eliminated along a
  min-fill order of the undirected dependency skeleton (bucket
  elimination), compiled into a schedule once per solve, whose work is
  the order's state count, at most ``DP_STATE_LIMIT``; forests are its
  width-1 case.  The dual returns its best bound and its best feasible
  assignment.  Branch and bound takes the bound for the gap and starts
  from the assignment.  It returns that assignment as proven optimal,
  without building its search tables, once its cost meets the bound, and
  returns infeasible, without searching, once the bound exceeds the
  largest value the objective can take.  On a kernel without rows the
  dual's one pass, at λ = 0, is exact: the cost is a sum of per-task and
  per-dependency terms, so the DP's optimum is the bound and its
  assignment meets it.
* ``bruteforce`` runs :func:`solve_bruteforce`, which enumerates every
  assignment in one odometer walk over a list of exact integer sums:
  the objective, each finite budget and the latency cap.  Placing a
  task adds its candidate's and its settled arcs' amounts to their
  sums, and backing up subtracts them; a complete assignment is kept
  when its objective beats the incumbent and every other sum is within
  its limit.  It is the reference oracle for the other route, so it
  extracts its costs from the expanded graph's task graph and system
  model independently and keeps no shared pruning logic.

The dual and branch and bound read one integer kernel, :class:`_Kernel`:
the expanded graph's objective and its side constraints, each budget and
the latency cap, each as one linear row (:class:`_Row`), rescaled
exactly to integers once per (graph, objective, cap).  Branch and bound
derives its bounds from the kernel, and the dual penalises its rows.
The oracle does not read it, so that a fault in the kernel shows up as a
disagreement with the oracle.

All arithmetic runs on integers after exact rescaling of the rational
inputs, so equal objective values compare equal regardless of the path
that produced them, and tie-breaking is reproducible: among equally good
assignments the search and the oracle return the one that is
lexicographically smallest by (task id, device order e < h < c), except
that a solve that the dual's bound ends returns the dual's assignment,
and a time-limited search ended by that bound the optimum it holds at
that moment.  On a kernel without rows the dual's assignment is the
DP's: it takes the device earliest in e < h < c at each step of its
back-substitution, which on a forest roots each tree at its smallest
task id; elsewhere its ties may differ from that order.  Values never
do.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain, count, repeat
from operator import add, lshift, sub
from typing import NamedTuple

from .etfg import Etfg
from .milp import Objective, ObjectiveBreakdown, check_latency_threshold, evaluate
from .model import ROLE_INDEX, ROLES, DeviceRole, topological_order
from .units import si_number, without_cyclic_gc

BRUTE_FORCE_LIMIT = 10**7
# The elimination DP's work bound.  The DP takes about 0.2-0.35 us per
# state on a 2-core 2.0 GHz Xeon (CPython 3.11; 0.17 s for the 430k states
# of the serial 1000-task benchmark graph, 0.28 s and 70 MB peak for the
# 797k of a 12-task clique), so the largest DP allowed costs about as much
# as a short branch-and-bound run.
DP_STATE_LIMIT = 10**6
# The dual scales the objective by this, so its integer multipliers are in
# units of 1/2**20 of an objective kernel unit per row kernel unit: under
# the energy objective a latency cap's kernel unit is far finer than the
# objective's, and a multiplier of 1 objective unit would overshoot.
_DUAL_SCALE = 1 << 20


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
        # NaN fails both tests; an infinite limit would take the timed route
        if self.time_limit is not None and not 0 < self.time_limit < math.inf:
            raise ValueError("time limit must be > 0 and finite")


@dataclass
class Allocation:
    status: SolveStatus
    objective_kind: Objective
    assignment: dict[int, DeviceRole] | None
    objective_value: Fraction | None
    breakdown: ObjectiveBreakdown | None
    gap: float | None = None
    stats: dict = field(default_factory=dict)

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
    return math.lcm(*[v.denominator for v in values])


def _as_int(value: Fraction, den: int) -> int:
    return value.numerator * (den // value.denominator)  # exact: den is a multiple of it


def _finish(etfg, objective, assignment, value, latency_threshold, stats, status, gap=None):
    """Every solver's result; without an assignment there is no value or breakdown."""
    breakdown = None if assignment is None else evaluate(etfg, assignment, latency_threshold)
    return Allocation(status, objective, assignment, value, breakdown, gap, stats)


# --- exhaustive oracle ----------------------------------------------------


def solve_bruteforce(
    etfg: Etfg,
    objective: Objective | str = Objective.LATENCY,
    latency_threshold: Fraction | None = None,
) -> Allocation:
    """Enumerate every assignment; keep the best feasible one.

    One odometer walk over the tasks keeps a list of integer sums: sum 0
    is the objective, and each finite memory, storage and energy budget
    (devices e, h, c in turn) and then the latency cap has a sum of its
    own, each on its own exact integer grid with its limit.  Placing a
    task adds its candidate's ``(sum, amount)`` pairs and those of the
    arcs it settles; removing it subtracts them.  A complete assignment
    becomes the incumbent when its objective is below the best so far
    and every other sum is within its limit, so ties keep the first
    found, the smallest by (task id, e < h < c).  The latency threshold
    caps the energy objective only, as in the optimization model.
    Guarded to ``BRUTE_FORCE_LIMIT`` assignments.
    """
    objective = Objective(objective)
    check_latency_threshold(objective, latency_threshold)
    graph, system = etfg.graph, etfg.system
    tasks = graph.tasks
    if math.prod(len(t.allowed) for t in tasks) > BRUTE_FORCE_LIMIT:
        raise InstanceTooLarge(f"assignment space exceeds {BRUTE_FORCE_LIMIT}; use branch and bound")

    # side sums: each finite budget per device, then the latency cap
    limits = [None]
    sum_of = {}
    for r in ROLES:
        device = system.device(r)
        for kind, budget in (("mem", device.memory_budget), ("sto", device.storage_budget),
                             ("enr", device.energy_budget)):
            if budget is not None:
                sum_of[kind, r] = len(limits)
                limits.append(budget)
    if latency_threshold is not None:
        sum_of["lat"] = len(limits)
        limits.append(latency_threshold)

    def pairs(latency, shares, memory=0, storage=0, role=None):
        """(sum, amount) pairs of one candidate or one arc entry, as Fractions."""
        energy = sum([amount for _, amount in shares])
        found = [(0, latency if objective is Objective.LATENCY else energy), (sum_of.get("lat"), latency),
                 (sum_of.get(("mem", role)), memory), (sum_of.get(("sto", role)), storage)]
        found += [(sum_of.get(("enr", d)), amount) for d, amount in shares]
        return [(k, amount) for k, amount in found if k is not None and amount]

    def transfer(data, k, l):
        """Latency and per-device energy of sending ``data`` bits from k to l."""
        if k == l:
            return 0, ()
        channel = system.channels.get((k, l))
        if channel is not None:
            return data / channel.bandwidth, ((k, data * channel.tx_energy), (l, data * channel.rx_energy))
        m = system.relay[(k, l)]
        first, second = system.channels[(k, m)], system.channels[(m, l)]
        shares = ((k, data * first.tx_energy), (m, data * (first.rx_energy + second.tx_energy)),
                  (l, data * second.rx_energy))
        return data * (1 / first.bandwidth + 1 / second.bandwidth), shares

    roles = [t.allowed for t in tasks]
    nodes = [[pairs(t.latency[r], ((r, t.latency[r] * t.power[r]),), t.memory, t.storage, r) for r in t.allowed]
             for t in tasks]
    # each arc's entries, indexed earlier choice * width + later choice, join the later task's level
    pos_of = {t.id: p for p, t in enumerate(tasks)}
    arcs_at = [[] for _ in tasks]
    for i, j in graph.arcs:
        earlier, later = sorted((pos_of[i], pos_of[j]))
        data = graph.task(i).output_data
        table = [pairs(*(transfer(data, a, b) if pos_of[i] == earlier else transfer(data, b, a)))
                 for a in roles[earlier] for b in roles[later]]
        arcs_at[later].append((earlier, len(roles[later]), table))

    # one exact integer grid per sum
    amounts = [[limit] if limit is not None else [] for limit in limits]
    for entries in chain(*nodes, *(table for at in arcs_at for _, _, table in at)):
        for k, amount in entries:
            amounts[k].append(amount)
    dens = [_common_denominator(values) for values in amounts]

    def exact(entries):
        return tuple([(k, _as_int(amount, dens[k])) for k, amount in entries])

    nodes = [[exact(entries) for entries in level] for level in nodes]
    arcs_at = [[(e, w, [exact(entries) for entries in table]) for e, w, table in at] for at in arcs_at]
    caps = [(k, _as_int(limit, dens[k])) for k, limit in enumerate(limits) if limit is not None]

    sums = [0] * len(limits)
    last = len(tasks) - 1
    widths = [len(r) for r in roles]
    choice = [0] * len(tasks)
    placed = [()] * len(tasks)
    best_sum, best_choice, leaves = math.inf, None, 0
    level, ci = 0, 0
    while level >= 0:
        if ci == widths[level]:  # every candidate of this level tried: back up one level
            level -= 1
            if level >= 0:
                for k, amount in placed[level]:
                    sums[k] -= amount
                ci = choice[level] + 1
            continue
        added = nodes[level][ci]
        for earlier, width, table in arcs_at[level]:
            added += table[choice[earlier] * width + ci]
        for k, amount in added:
            sums[k] += amount
        choice[level] = ci
        if level < last:
            placed[level] = added
            level, ci = level + 1, 0
            continue
        leaves += 1
        if sums[0] < best_sum and all([sums[k] <= cap for k, cap in caps]):
            best_sum, best_choice = sums[0], tuple(choice)
        for k, amount in added:
            sums[k] -= amount
        ci += 1

    stats = {"assignments_enumerated": leaves, "solver": "bruteforce"}
    if best_choice is None:
        return _finish(etfg, objective, None, None, latency_threshold, stats, SolveStatus.INFEASIBLE)
    assignment = {t.id: roles[p][c] for p, (t, c) in enumerate(zip(tasks, best_choice))}
    value = Fraction(best_sum, dens[0])
    return _finish(etfg, objective, assignment, value, latency_threshold, stats, SolveStatus.OPTIMAL)


# --- the integer kernel -----------------------------------------------------


class _Row(NamedTuple):
    """One linear quantity over the node and arc binaries, labelled as the
    model labels its row: the objective (``obj``, without a budget), a
    budget row (``mem_h``, ``enr_e``, ...) or the latency cap (``lthr``).
    ``node`` holds per position its candidates' coefficients and ``arc``
    per arc (in ``graph.arcs`` order) its flat coefficient table, empty
    when no arc adds to the row, so ``node + arc`` are the row's tables as
    the elimination DP numbers them; ``budget`` is the right-hand side.
    ``least`` and ``most`` are the sums of its tables' minima and maxima:
    no assignment's sum lies outside them."""

    label: str
    node: list[list[int]]
    arc: list[list[int]]
    budget: int | None
    least: int
    most: int


def _row(label: str, node: list[list[int]], arc: list[list[int]], budget: int | None = None) -> _Row:
    """The :class:`_Row` of these tables, with its range."""
    tables = node + arc
    return _Row(label, node, arc, budget, sum(map(min, tables)), sum(map(max, tables)))


def _skeleton(graph) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """The undirected skeleton the DP is compiled from, numbered as the
    kernel numbers tasks: task ids in topological order, each task's
    candidate count, and each dependency (in ``graph.arcs`` order) as a
    pair of positions."""
    ids = topological_order(graph)
    pos_of = {tid: p for p, tid in enumerate(ids)}
    return ids, [len(graph.task(tid).allowed) for tid in ids], [(pos_of[i], pos_of[j]) for i, j in graph.arcs]


class _Kernel:
    """The instance's costs and constraints as integers, in topological
    task order.

    Per task ``p``: ``role_of[p]`` lists its candidates' indices into
    ROLES in ``Task.allowed`` order, which the candidate index ``ci``
    follows everywhere.  ``skeleton`` is the graph's :func:`_skeleton`:
    the task ids by position, each position's candidate count and each
    dependency (in ``graph.arcs`` order) as a ``(src, dst)`` pair of
    positions, from which the dual compiles its elimination DP.  Every
    quantity is a :class:`_Row`, whose arc tables are indexed ``src_ci *
    width + dst_ci``, where ``width`` is the number of candidates of
    ``dst`` (the order of ``Etfg.arcs_by_dep``): ``obj`` is the objective,
    and ``rows`` holds every side constraint, each finite memory, storage
    and energy budget (devices e, h, c in turn), then the latency cap.
    Latency, energy, memory and storage each have one fixed denominator,
    shared by their budgets and the latency cap; the objective is latency
    or energy on that quantity's denominator, ``obj_den``.  ``objective``
    and ``latency_threshold`` record the request it was built for.

    The kernel reads the expanded graph's candidate nodes and its one-bit
    pair costs (``Etfg.per_bit``), never its arcs: an arc's costs are the
    source's output size times its device pair's one-bit costs, computed
    in integers once per distinct size and pair.
    """

    def __init__(self, etfg: Etfg, objective: Objective, latency_threshold: Fraction | None):
        graph, system = etfg.graph, etfg.system
        self.objective, self.latency_threshold = objective, latency_threshold
        self.skeleton = _skeleton(graph)
        order = self.skeleton[0]
        self.tasks = tasks = [graph.task(tid) for tid in order]
        self.n = len(order)
        nodes = [etfg.nodes_by_task[tid] for tid in order]  # candidates in Task.allowed order
        self.role_of = role_of = [[ROLE_INDEX[node.device] for node in row] for row in nodes]
        budgets = [system.device(r) for r in ROLES]
        latency = objective is Objective.LATENCY
        metered = [r for r, d in enumerate(budgets) if d.energy_budget is not None]

        # A transfer's costs are its source's output size times its device
        # pair's one-bit costs (``Etfg.per_bit``, pair k -> l numbered
        # k * 3 + l).  Dependencies with the same size and the same
        # candidates at both ends have the same tables, so each table is
        # built once per (size numerator, size denominator, candidates).
        # Per pair, g = gcd(size numerators) / lcm(size denominators) over
        # the sizes that use it divides every such size and is an integer
        # combination of them, so an integer makes every size times a
        # one-bit cost integral exactly when it makes g times that cost
        # integral: the least common denominator of the pair's costs is
        # that of g times its one-bit cost.
        candidates = [tuple(roles) for roles in role_of]
        sizes = [(t.output_data.numerator, t.output_data.denominator) for t in tasks]
        keys = [(*sizes[s], candidates[s], candidates[d]) for s, d in self.skeleton[2]]
        distinct = dict.fromkeys(keys)
        cells = {}  # per candidates at both ends: the table's device pairs, in table order
        used = {}  # per size: the device pairs of its dependencies' tables
        for a, b, src, dst in distinct:
            pairs = cells.get((src, dst))
            if pairs is None:
                pairs = cells[src, dst] = [k * 3 + l for k in src for l in dst]
            used.setdefault((a, b), set()).update(pairs)
        gcd_num, lcm_den = [0] * 9, [1] * 9
        for (a, b), pairs in used.items():
            for p in pairs:
                gcd_num[p] = math.gcd(gcd_num[p], a)
                lcm_den[p] = math.lcm(lcm_den[p], b)

        def least(values) -> list[int]:
            """Per pair: the least common denominator of its sizes times its one-bit value."""
            return [
                m * v.denominator // math.gcd(g * v.numerator, m * v.denominator)
                for g, m, v in zip(gcd_num, lcm_den, values)
            ]

        def tables(values, den: int) -> list[list[int]]:
            """Per dependency, its flat table of size times one-bit value, in units of 1 / den."""
            scale = [(v.numerator * den, v.denominator) for v in values]
            at_size = {}
            for (a, b), pairs in used.items():
                at_size[a, b] = row = [0] * 9
                for p in pairs:
                    c, d = scale[p]
                    row[p] = a * c // (b * d)  # exact: den clears the size times the value
            table = {}
            for key in distinct:
                row = at_size[key[:2]]
                table[key] = [row[p] for p in cells[key[2:]]]
            return [table[key] for key in keys]

        units = list(etfg.per_bit.values())  # in product(ROLES, ROLES) order
        unit_lat = [unit.latency for unit in units]
        unit_enr = [unit.energy for unit in units]
        unit_share = [[dict(unit.shares).get(role, Fraction(0)) for unit in units] for role in ROLES]

        if latency or latency_threshold is not None:
            lat_den = math.lcm(
                *[node.latency.denominator for row in nodes for node in row],
                *least(unit_lat),
                *([] if latency_threshold is None else [latency_threshold.denominator]),
            )
            node_lat = [[_as_int(node.latency, lat_den) for node in row] for row in nodes]
            arc_lat = tables(unit_lat, lat_den)
        if not latency or metered:
            # an arc's energy is the sum of its shares, so its denominator
            # divides theirs and counts only when no row reads them
            enr_den = math.lcm(
                *[node.energy.denominator for row in nodes for node in row],
                *(chain.from_iterable(map(least, unit_share)) if metered else least(unit_enr)),
                *[d.energy_budget.denominator for d in budgets if d.energy_budget is not None],
            )
            node_enr = [[_as_int(node.energy, enr_den) for node in row] for row in nodes]
        if latency:
            self.obj, self.obj_den = _row("obj", node_lat, arc_lat), lat_den
        else:
            self.obj, self.obj_den = _row("obj", node_enr, tables(unit_enr, enr_den)), enr_den

        self.rows = rows = []
        for kind, quantity in (("mem", "memory"), ("sto", "storage")):
            caps = [getattr(d, f"{quantity}_budget") for d in budgets]
            demand = [getattr(t, quantity) for t in tasks]
            den = _common_denominator(demand + [c for c in caps if c is not None])
            demand = [_as_int(amount, den) for amount in demand]
            for r, cap in enumerate(caps):
                if cap is not None:
                    node = [[a if role == r else 0 for role in roles] for a, roles in zip(demand, role_of)]
                    rows.append(_row(f"{kind}_{ROLES[r].value}", node, [], _as_int(cap, den)))
        for r in metered:
            node = [[e if role == r else 0 for e, role in zip(*pair)] for pair in zip(node_enr, role_of)]
            budget = _as_int(budgets[r].energy_budget, enr_den)
            rows.append(_row(f"enr_{ROLES[r].value}", node, tables(unit_share[r], enr_den), budget))
        if latency_threshold is not None:
            rows.append(_row("lthr", node_lat, arc_lat, _as_int(latency_threshold, lat_den)))

    def assignment(self, choice) -> dict[int, DeviceRole]:
        """The task -> device map of one candidate index per position."""
        return {self.tasks[p].id: ROLES[self.role_of[p][ci]] for p, ci in enumerate(choice)}

    def total(self, row: _Row, chosen) -> int:
        """One assignment's sum over ``row``, for one candidate index per position."""
        _, domain, arcs = self.skeleton
        arc = sum([table[chosen[s] * domain[d] + chosen[d]] for table, (s, d) in zip(row.arc, arcs)])
        return sum(map(list.__getitem__, row.node, chosen)) + arc


# --- bounded-treewidth elimination DP ----------------------------------------


class _Schedule(NamedTuple):
    """The DP for one skeleton: the min-fill order (task ids), its width
    and state count (summed candidate combinations of each task and the
    neighbours it has left), and per step the task's kernel position, its
    scope (those neighbours, in elimination order) and, per bucket axis
    (the task, then the scope), its candidate count and the (table number,
    index layout) pairs to add.  Tables are numbered node tables by
    position, arc tables in ``graph.arcs`` order, then messages."""

    order: tuple[int, ...]
    width: int
    states: int
    steps: tuple[tuple[int, tuple[int, ...], tuple], ...]


def _compile(ids, domain, arcs) -> _Schedule | None:
    """The min-fill order of a skeleton (see :func:`_skeleton`) compiled
    into the DP's steps, or None once the DP would need more than
    ``DP_STATE_LIMIT`` states.

    Each step eliminates the task whose neighbours miss the fewest edges
    among themselves (its fill), then the one of smaller degree, then the
    larger task id.  A task's fill is C(degree, 2) minus the edges among
    its neighbours, which are counted incrementally, so that a step
    re-scores only the tasks whose neighbourhood it changed.  On a forest
    this removes leaves, largest id first, so each tree keeps its smallest
    task id to the end.  A table sits in its first eliminated task's
    bucket; an index layout is built once per shape."""
    adj = [set() for _ in ids]
    for i, j in arcs:
        adj[i].add(j)
        adj[j].add(i)
    inner = [0] * len(ids)  # per task: edges among its neighbours
    for a, neighbours in enumerate(adj):
        for b in neighbours:
            if a < b:
                for w in neighbours & adj[b]:
                    inner[w] += 1

    def score(v):
        d = len(adj[v])
        return (d * (d - 1) // 2 - inner[v], d, -ids[v], v)

    current = {v: score(v) for v in range(len(ids))}
    heap = list(current.values())
    heapq.heapify(heap)
    walk = []  # per step: (task, its neighbours)
    rank = [0] * len(ids)
    states = 0
    while heap:
        entry = heapq.heappop(heap)
        v = entry[3]
        if current.get(v) != entry:
            continue  # eliminated, or re-scored since it was pushed
        del current[v]
        neighbours, adj[v] = adj[v], set()
        states += domain[v] * math.prod([domain[u] for u in neighbours])
        if states > DP_STATE_LIMIT:
            return None
        rank[v] = len(walk)
        walk.append((v, neighbours))
        touched = set(neighbours)
        for u in neighbours:
            adj[u].discard(v)
            inner[u] -= len(adj[u] & neighbours)
        for a in neighbours:  # the neighbours become a clique
            for b in neighbours:
                if a < b and b not in adj[a]:
                    common = adj[a] & adj[b]
                    inner[a] += len(common)
                    inner[b] += len(common)
                    for w in common:
                        inner[w] += 1
                    touched |= common
                    adj[a].add(b)
                    adj[b].add(a)
        for u in touched:
            current[u] = score(u)
            heapq.heappush(heap, current[u])

    buckets = [[(p, (p,))] for p in range(len(ids))]
    for t, scope in enumerate(arcs, len(ids)):  # arc tables are row-major over (src, dst)
        buckets[min(scope, key=rank.__getitem__)].append((t, scope))
    message = count(len(ids) + len(arcs))
    layouts: dict[tuple, list[int]] = {}  # by shape: per axis, (candidates, stride in the table)
    steps = []
    for v, neighbours in walk:
        scope = tuple(sorted(neighbours, key=rank.__getitem__))
        axes = (v,) + scope  # the summed table is row-major over these, v outermost
        adds = [[] for _ in axes]
        for t, s in buckets[v]:
            stride = {w: math.prod([domain[x] for x in s[k + 1 :]]) for k, w in enumerate(s)}
            last = max(map(axes.index, s))  # added once its last axis is in
            shape = tuple([(domain[w], stride.get(w, 0)) for w in axes[: last + 1]])
            index = layouts.get(shape)
            if index is None:
                index = [0]
                for size, step in shape:  # each axis in turn becomes the innermost
                    shifted = [map(add, index, repeat(c * step)) for c in range(size)]
                    index = list(chain.from_iterable(zip(*shifted)))
                layouts[shape] = index
            adds[last].append((t, index))
        steps.append((v, scope, tuple(zip([domain[u] for u in axes], adds))))
        if scope:
            buckets[scope[0]].append((next(message), scope))
    width = max([len(scope) for _, scope, _ in steps], default=0)
    return _Schedule(tuple(ids[v] for v, _ in walk), width, states, tuple(steps))


def _eliminate(schedule: _Schedule, tables) -> tuple[int, list[int]]:
    """One pass of ``schedule`` over integer cost tables, numbered as it
    numbers them (flat lists, row-major over their scope): the minimum
    total cost, and one candidate index per kernel position reaching it.

    Eliminating a task sums its bucket axis by axis, keeps the minimum
    over the task's candidates as its message, and keeps the first
    minimising candidate (e < h < c) per scope assignment.
    Back-substitution runs in reverse order.
    """
    tables = list(tables)
    total = 0
    argmins = []
    for _v, scope, axes in schedule.steps:
        summed = [0]
        for size, adds in axes:
            if size > 1:  # the next axis: repeat each entry once per candidate
                summed = list(chain.from_iterable(zip(*[summed] * size)))
            for t, index in adds:
                summed = list(map(add, summed, map(tables[t].__getitem__, index)))
        block = len(summed) // axes[0][0]
        columns = [summed[c : c + block] for c in range(0, len(summed), block)]  # one per candidate
        best = list(map(min, zip(*columns)))
        argmins.append(bytes(map(tuple.index, zip(*columns), best)))
        if scope:
            tables.append(best)
        else:
            total += best[0]

    chosen = [0] * len(argmins)
    for (v, scope, axes), argmin in zip(reversed(schedule.steps), reversed(argmins)):
        at = 0
        for u, (size, _) in zip(scope, axes[1:]):
            at = at * size + chosen[u]
        chosen[v] = argmin[at]
    return total, chosen


# --- the Lagrangian dual -----------------------------------------------------


class _DualResult(NamedTuple):
    """What the dual search found: its highest bound on the optimum (above
    the objective's ``most`` when it proves that there is none) and the
    multipliers by row label of the first pass that reached it, the
    cheapest assignment that meets every row (one candidate index per
    position) and its objective value, or None for both, the passes run,
    the rows the λ = 0 pass's assignment breaks, and the width and state
    count of the DP's schedule.  The bound and the value are in the
    objective's kernel units, the multipliers in 1/``_DUAL_SCALE`` of one
    per row kernel unit."""

    bound: int
    multipliers: dict[str, int]
    chosen: list[int] | None
    value: int | None
    passes: int
    broken: tuple[str, ...]
    width: int
    states: int


class _Point(NamedTuple):
    multipliers: tuple[int, ...]
    bound: int
    excess: list[int]  # per row: its use minus its budget


def _penalised(cost: _Row, rows, multipliers) -> list[list[int]]:
    """``cost``'s tables with each row's coefficients added at its multiplier."""
    tables = cost.node + cost.arc
    for row, weight in zip(rows, multipliers):
        if weight:
            for t, coefficients in enumerate(row.node + row.arc):
                tables[t] = [c + weight * x for c, x in zip(tables[t], coefficients)]
    return tables


def _dual(kernel: _Kernel, deadline: float) -> _DualResult | None:
    """The Lagrangian dual of the kernel's budget rows and latency cap,
    searched by the elimination DP until ``deadline`` (a
    :func:`time.monotonic` reading): its bounds and feasible assignments,
    the best of them as one :class:`_DualResult`, or None when no pass ran
    (the deadline has passed, or the DP needs more than ``DP_STATE_LIMIT``
    states).  The DP's schedule is compiled once per call, after the
    deadline check, and every pass runs it.  Without rows the one pass, at
    λ = 0, is exact: the DP's optimum and its argmin.

    Every finite budget row and the latency cap gets an integer multiplier
    λ >= 0.  A pass runs the DP over the objective's tables, scaled by
    ``_DUAL_SCALE``, plus λ times each row's coefficients; its total minus
    the sum of λ times each budget is a lower bound on ``_DUAL_SCALE``
    times every feasible assignment's cost, for any λ (Fisher, "The
    Lagrangian relaxation method for solving integer programming problems",
    Management Science 1981).  Every cost is an integer, so the result's
    bound is that bound over ``_DUAL_SCALE``, rounded up.  The search
    starts at λ = 0 and then raises one multiplier at a time, that of the
    most violated row (relative to its budget): from L0 / (10 x its
    excess), where L0 is the scaled λ = 0 total, fourfold until the pass's
    assignment meets the row, then at the intersection of the two
    supporting lines of the bracket's ends (Kelley's cutting planes,
    J. SIAM 1960) until the bracket is one wide or those lines promise
    nothing better.  It continues from the best
    point of that line on whichever row its assignment breaks.  It keeps
    the first pass with the highest bound and the first assignment found
    at the lowest value among those that meet every row.  The search ends
    once that assignment meets the bound, once no row is broken or every
    broken row's line is exhausted, once a bound exceeds the objective's
    ``most`` (weak duality: then no assignment meets every row, the dual's
    one proof of that), or when the next pass would not finish by the
    deadline.
    """
    if time.monotonic() >= deadline:
        return None
    schedule = _compile(*kernel.skeleton)
    if schedule is None:
        return None
    obj, rows = kernel.obj, kernel.rows
    node, arc = ([[_DUAL_SCALE * c for c in table] for table in tables] for tables in (obj.node, obj.arc))
    cost = _row("obj", node, arc)
    best_bound = best_multipliers = best_value = best_chosen = None
    passes = 0
    pass_s = 0.0

    def run(multipliers) -> _Point:
        nonlocal best_bound, best_multipliers, best_value, best_chosen, passes, pass_s
        if time.monotonic() + pass_s > deadline:
            raise TimeoutError
        started = time.monotonic()
        total, chosen = _eliminate(schedule, _penalised(cost, rows, multipliers))
        pass_s = time.monotonic() - started
        passes += 1
        use = [kernel.total(row, chosen) for row in rows]
        bound = total - sum([weight * row.budget for weight, row in zip(multipliers, rows)])
        excess = [u - row.budget for u, row in zip(use, rows)]
        if best_bound is None or bound > best_bound:
            best_bound, best_multipliers = bound, multipliers
            if bound > cost.most:  # above _DUAL_SCALE times kernel.obj.most
                raise StopIteration  # a certificate: no assignment meets every row
        if max(excess, default=0) <= 0:
            value = (total - sum([weight * u for weight, u in zip(multipliers, use)])) // _DUAL_SCALE  # exact
            if best_value is None or value < best_value:
                best_value, best_chosen = value, chosen
        return _Point(multipliers, bound, excess)

    def line(i: int, start: _Point) -> _Point:
        """The best point on row ``i``'s line from ``start``, which breaks it."""

        def at(weight):
            return run(start.multipliers[:i] + (weight,) + start.multipliers[i + 1 :])

        lo = start
        weight = 4 * lo.multipliers[i] or max(1, scale // (10 * lo.excess[i]))
        hi = at(weight)
        while hi.excess[i] > 0:
            lo, hi = hi, at(4 * hi.multipliers[i])
        while hi.multipliers[i] - lo.multipliers[i] > 1:
            (t_lo, g_lo), (t_hi, g_hi) = (lo.multipliers[i], lo.excess[i]), (hi.multipliers[i], hi.excess[i])
            t = (hi.bound - lo.bound + g_lo * t_lo - g_hi * t_hi) // (g_lo - g_hi)
            t = min(max(t, t_lo + 1), t_hi - 1)
            if min(lo.bound + g_lo * (t - t_lo), hi.bound + g_hi * (t - t_hi)) <= max(lo.bound, hi.bound):
                break  # the cutting-plane model promises nothing better on this line
            point = at(t)
            if point.excess[i] > 0:
                lo = point
            else:
                hi = point
        return max((start, lo, hi), key=lambda p: p.bound)  # ties keep the start

    try:
        point = zero = run((0,) * len(rows))
        scale = point.bound
        exhausted = set()  # rows whose line from ``point`` gained nothing
        while best_value is None or best_value > -(-best_bound // _DUAL_SCALE):
            broken = [i for i, excess in enumerate(point.excess) if excess > 0 and i not in exhausted]
            if not broken:
                break
            i = max(broken, key=lambda i: Fraction(point.excess[i], rows[i].budget))
            better = line(i, point)
            if better is point:
                exhausted.add(i)
            else:
                point, exhausted = better, {i}
    except (TimeoutError, StopIteration):
        pass
    if not passes:
        return None
    multipliers = dict(zip([row.label for row in rows], best_multipliers))
    broken = tuple([row.label for row, excess in zip(rows, zero.excess) if excess > 0])
    width, states = schedule.width, schedule.states
    bound = -(-best_bound // _DUAL_SCALE)  # the optimum is an integer: the ceiling bounds it too
    return _DualResult(bound, multipliers, best_chosen, best_value, passes, broken, width, states)


# --- branch and bound -------------------------------------------------------


def _search_tables(kernel: _Kernel):
    """Branch and bound's additive bounds, packed into integers, and its
    branching order.

    One running bound per quantity, each built the same way from its
    :class:`_Row`: quantity 0 is the objective and quantity ``q > 0`` is
    ``rows[q - 1]``, the kernel's rows whose ``most`` is above their
    budget (a row that no assignment can break prunes nothing).  The root
    is each quantity's ``least``: the per-task minima plus the per-arc
    minima over all pairs (``lo``).
    Placing task ``p`` on candidate ``ci`` adds ``step[p][ci]``: how far
    the candidate's cost lies above the task's minimum plus, per arc out
    of ``p``, how far the minimum of that arc's row ``ci`` (``mins[ci]``)
    lies above ``lo``.  Per arc into ``p`` from a source on candidate
    ``s``, each quantity with arc costs adds ``table[s * width + ci] -
    mins[s]``.  At a leaf each bound is the assignment's exact sum.
    Devices are branched cheapest-first, ties by canonical device order.

    The quantities sit side by side in one integer, the "multiple byte
    processing" of Lamport (CACM 18(8), 1975): quantity ``q`` in the
    ``bits + 1`` bits from ``q * (bits + 1)`` up, where ``bits`` is the bit
    length of the largest ``most``, which is above every kept row's
    budget.  Every step and arc term is at least 0 and no bound exceeds
    its ``most``, so one integer addition updates every quantity, no field
    carries into the next, and each field's top bit is free for the prune
    test of :func:`_branch_and_bound`.  The root and each ``step[p][ci]``
    are packed integers; ``in_arcs[p]`` holds per arc into ``p`` its
    source, ``width`` (the candidates of ``p``) and its packed terms,
    indexed ``s * width + ci``.
    """
    n, role_of = kernel.n, kernel.role_of
    rows = [row for row in kernel.rows if row.most > row.budget]
    quantities = [kernel.obj, *rows]
    bits = max([row.most for row in quantities]).bit_length()
    field = bits + 1
    root = sum([row.least << (q * field) for q, row in enumerate(quantities)])
    widths = kernel.skeleton[1]
    offset = list(accumulate(widths, initial=0))  # of each position's candidates, flattened
    steps = []  # per quantity, flat over (position, candidate)
    for row in quantities:
        mins = list(map(min, row.node))
        each = chain.from_iterable(map(repeat, mins, widths))  # the task's minimum, once per candidate
        steps.append(list(map(sub, chain.from_iterable(row.node), each)))
    with_arcs = [(q * field, row.arc, steps[q]) for q, row in enumerate(quantities) if row.arc]
    in_arcs: list[list[tuple]] = [[] for _ in range(n)]
    for a, (src, dst) in enumerate(kernel.skeleton[2]):
        width = widths[dst]
        packed = None  # the objective's terms first, at shift 0
        for shift, arc, q_steps in with_arcs:
            table = arc[a]
            mins = list(map(min, zip(*[iter(table)] * width)))  # per source candidate: its row's minimum
            lo = min(mins)
            for at, m in enumerate(mins, offset[src]):
                q_steps[at] += m - lo
            terms = map(sub, table, chain.from_iterable(map(repeat, mins, repeat(width))))
            packed = list(terms) if packed is None else list(map(add, packed, map(lshift, terms, repeat(shift))))
        in_arcs[dst].append((src, width, packed))
    flat = steps[-1]
    for q_steps in reversed(steps[:-1]):
        flat = list(map(add, map(lshift, flat, repeat(field)), q_steps))
    step = [flat[offset[p] : offset[p + 1]] for p in range(n)]
    cost = kernel.obj.node
    branch = [tuple(sorted(range(widths[p]), key=lambda ci: (cost[p][ci], role_of[p][ci]))) for p in range(n)]
    return rows, bits, root, step, in_arcs, branch


def _branch_and_bound(etfg: Etfg, kernel: _Kernel, started: float, deadline: float | None) -> Allocation:
    """Depth-first branch and bound over task->device assignments, after
    the Lagrangian dual when it runs: the dual, then the search tables,
    then the search.

    The lower bound is one running sum per quantity: the objective and
    each of the kernel's rows (see :func:`_search_tables`).  It starts at
    the root bound, the per-task minima plus the per-arc minima, and
    placing a task adds how far each term it settles lies above the
    minimum it replaced, so at a leaf it is the assignment's sum.  A
    placement is pruned when the first row over its budget is the
    latency cap (``pruned_by_threshold``) or another row
    (``pruned_by_budget``), else when the objective's bound exceeds the
    incumbent (``pruned_by_bound``).  The sums are packed into one
    integer per depth, so a placement is one addition per term it
    settles and one test of the fields' top bits after adding each
    field's distance to its cap; only a prune looks up which row it was.
    Proves optimality when the search completes.  Deterministic for
    fixed inputs without a time limit.

    The dual search (:func:`_dual`) runs once when the solve
    is time-limited or the kernel has no rows, unless the root bounds
    already break a row.  Branch and bound keeps its highest bound, and
    adopts its cheapest assignment that meets every row as the first
    incumbent, once its own kernel confirms the assignment's value and
    every row.  It returns that incumbent as proven optimal once its cost
    meets the bound (on a kernel without rows the DP's optimum does), and
    infeasible once the bound exceeds the objective's ``most``, both
    without building the search tables.  Otherwise the search starts from
    the incumbent, with the time the dual left.  It looks at the clock
    every 1024 nodes, so it always runs its first 1023, and returns proven
    optimal as soon as the incumbent meets the bound: the first optimum
    found, not necessarily the smallest by task id.  At the limit it
    returns the incumbent with its relative gap to the bound, or no
    assignment and a gap of None.  Without a dual bound, the bound is the
    additive root.

    ``wall_time_s`` is the dual plus the search, and ``tables_s`` the rest
    since ``started``.  A solve that may run the dual adds ``root_bound``
    (``lagrangian`` once a pass ran, else ``additive``), ``lower_bound``
    (in s or J), ``dual_passes``, ``multipliers`` (by row label, at the
    best bound, in 1/``_DUAL_SCALE`` objective kernel units per row kernel
    unit), ``binding_rows`` (those the λ = 0 optimum
    breaks), ``incumbent_source`` (``dual`` or ``search``) and ``dual_s``
    (the dual's share of ``wall_time_s``); once a pass ran, also the DP's
    ``treewidth`` and ``dp_states``.

    ``started`` and ``deadline`` are :func:`time.monotonic` readings: the
    solve's start, and when the dual and the search stop (None: no limit).
    """
    n = kernel.n
    if n == 0:
        raise ValueError("empty task graph")
    role_of = kernel.role_of
    began = time.monotonic()
    found = None  # the dual's result
    # untimed, only a kernel without rows runs the dual, whose one pass is
    # the DP; not when the root already breaks a row: the search then
    # prunes every placement at once, and the dual could only delay that proof
    dual_runs = deadline is not None or not kernel.rows
    if dual_runs and all(row.least <= row.budget for row in kernel.rows):
        found = _dual(kernel, math.inf if deadline is None else deadline)
    dual_ended = time.monotonic()

    choice = [-1] * n
    best_value = None
    best_choice = None
    source = None  # of the incumbent: "search" or "dual"
    nodes = 0
    pruned = dict.fromkeys(("bound", "budget", "threshold"), 0)
    hit_time_limit = False

    by_id = sorted(range(n), key=lambda p: kernel.tasks[p].id)

    def id_ordered(choice_vec) -> tuple[int, ...]:
        return tuple(role_of[p][choice_vec[p]] for p in by_id)

    # the bound a timed-out run's gap is measured against: the additive
    # root, or the dual's, which its λ = 0 pass, the DP's optimum, puts at
    # or above it; a run without a time limit always ends in a proof
    root = kernel.obj.least if found is None else found.bound
    chosen = None if found is None else found.chosen
    if chosen is not None and kernel.total(kernel.obj, chosen) == found.value and all(
        kernel.total(row, chosen) <= row.budget for row in kernel.rows
    ):  # adopted only once the kernel confirms what the dual claims
        best_value = found.value
        best_choice, source = (id_ordered(chosen), tuple(chosen)), "dual"

    proven = best_value is not None and best_value <= root  # by the dual's bound
    # no search once the bound proves the optimum or that there is none
    p = -1 if proven or root > kernel.obj.most else 0
    if p == 0:
        rows, bits, roots, step, in_arcs, branch = _search_tables(kernel)
        # A field over its cap sets its top bit in ``bounds + offsets``: each
        # row's offset is ``top - budget``, the objective's ``top - incumbent``
        # once there is an incumbent and 0 before.  ``cause`` maps each row's
        # top bit to the count its prunes add to.
        field = bits + 1
        top = (1 << bits) - 1  # a field's largest value
        cause = {
            1 << (q * field + bits): "threshold" if row.label == "lthr" else "budget" for q, row in enumerate(rows, 1)
        }
        row_guards = sum(cause)
        guards = row_guards | (1 << bits)
        row_offsets = sum([(top - row.budget) << (q * field) for q, row in enumerate(rows, 1)])
        offsets = row_offsets if best_value is None else row_offsets + top - best_value
        # per depth p: the next index into branch[p], and the packed bounds
        # of the tasks placed before p
        at = [0] * n
        below = [roots] * n
    tables_built = time.monotonic()
    last = n - 1
    while p >= 0:
        nodes += 1
        if deadline is not None and nodes % 1024 == 0:
            if best_value is not None and best_value <= root:
                proven = True
                break
            if time.monotonic() > deadline:
                hit_time_limit = True
                break
        k = at[p]
        if k == len(branch[p]):
            p -= 1
            continue
        at[p] = k + 1
        choice[p] = ci = branch[p][k]
        bounds = below[p] + step[p][ci]
        for src, width, terms in in_arcs[p]:
            bounds += terms[choice[src] * width + ci]
        over = (bounds + offsets) & guards
        if over:  # by the first row over its budget, else by the objective
            over &= row_guards
            pruned[cause[over & -over] if over else "bound"] += 1
            continue
        if p == last:  # the bounds are now the assignment's sums
            value = bounds & top
            if best_value is None or value < best_value:
                best_value = value
                offsets = row_offsets + top - value
                best_choice = (id_ordered(choice), tuple(choice))
                source = "search"
            elif value == best_value:
                vec = id_ordered(choice)
                if vec < best_choice[0]:
                    best_choice = (vec, tuple(choice))
                    source = "search"
            continue
        p += 1
        at[p] = 0
        below[p] = bounds

    stats = {
        "solver": "branch-and-bound",
        "nodes_explored": nodes,
        "pruned_by_bound": pruned["bound"],
        "pruned_by_budget": pruned["budget"],
        "pruned_by_threshold": pruned["threshold"],
        "tables_s": began - started + tables_built - dual_ended,
        "wall_time_s": dual_ended - began + time.monotonic() - tables_built,  # the dual, then the search
        "time_limit_hit": hit_time_limit,
    }
    if dual_runs:
        stats.update({
            "root_bound": "additive" if found is None else "lagrangian",
            "lower_bound": float(Fraction(root, kernel.obj_den)),
            "dual_passes": 0 if found is None else found.passes,
            "multipliers": {} if found is None else found.multipliers,
            "binding_rows": [] if found is None else list(found.broken),
            "incumbent_source": source,
            "dual_s": dual_ended - began,
        })
        if found is not None:  # a pass ran, so the result carries the DP schedule's size
            stats.update({"treewidth": found.width, "dp_states": found.states})

    gap = None
    if proven:
        status = SolveStatus.OPTIMAL
    elif not hit_time_limit:
        status = SolveStatus.INFEASIBLE if best_value is None else SolveStatus.OPTIMAL
    else:
        # timed out: the incumbent's gap to the root bound, or none without one
        status = SolveStatus.FEASIBLE
        if best_value is not None:
            gap = 0.0 if best_value == 0 else float(Fraction(best_value - root, best_value))
        stats["gap"] = gap
    assignment = None if best_choice is None else kernel.assignment(best_choice[1])
    value = None if best_value is None else Fraction(best_value, kernel.obj_den)
    return _finish(etfg, kernel.objective, assignment, value, kernel.latency_threshold, stats, status, gap)


@without_cyclic_gc
def solve(
    etfg: Etfg,
    objective: Objective | str = Objective.LATENCY,
    latency_threshold: Fraction | None = None,
    config: SolveConfig | None = None,
    method: str = "auto",
) -> Allocation:
    """Front door: validate the request, start the clock, build the one
    :class:`_Kernel` and run the route ``method`` names (see the module
    docstring): ``auto`` takes branch and bound on the kernel, with the
    Lagrangian dual first when it is time-limited or the kernel has no
    rows; ``bruteforce`` runs the oracle, which never reads the kernel.
    Any other method raises ValueError.

    A time limit bounds ``auto``, counted from the solve's start, so the
    kernel build, the dual, the search-table build and the search are
    inside it (see :func:`_branch_and_bound`); the dual starts no pass
    once it has passed.  ``bruteforce`` with a time limit
    raises ValueError instead of ignoring it, and so does a latency
    threshold that is not above zero or comes without the energy
    objective.
    """
    objective = Objective(objective)
    check_latency_threshold(objective, latency_threshold)
    time_limit = None if config is None else config.time_limit
    if method == "bruteforce":
        if time_limit is not None:
            raise ValueError("brute force cannot honour a time limit")
        return solve_bruteforce(etfg, objective, latency_threshold)
    if method != "auto":
        raise ValueError(f"unknown solver method {method!r}")
    started = time.monotonic()
    kernel = _Kernel(etfg, objective, latency_threshold)
    return _branch_and_bound(etfg, kernel, started, None if time_limit is None else started + time_limit)
