"""0/1 integer program over an expanded task graph.

Decision columns are one binary per candidate node (run task i on device
k) and one per expanded arc (both endpoint choices selected).  The model
is solver-neutral: sparse rows with exact rational coefficients, exported
through :mod:`ehcopt.mps`.  :func:`build_model` numbers the node columns
(``node_col``) and keeps one link record per arc; the model holds those,
its objective and its explicit rows, and derives the rest from them: the
column count and names, and, as cached properties made on their first
read, the column :class:`Variable` tuples and the arc-column map.  The
writers never read the last two.

Row families, in emission order:
  asg      one per task: exactly one device is chosen.
  odeg     one per non-sink task: selected outgoing arcs match the
           task's child count (vacuous for sinks, so skipped).
  lnksrc/  three per expanded arc: the arc variable equals the logical
  lnkdst/  AND of its endpoint node variables.  They are kept as one
  lnkand   (arc, source, destination, tag) record per arc and made by
           :func:`link_rows` only when the rows are iterated (:class:`Rows`).
  mem/sto  one per device with a finite memory/storage budget.
  enr      one per device with a finite energy budget; charges executed
           tasks plus all traffic sent, received, or relayed by the device.
  lthr     total-latency cap, present only when minimizing energy with a
           finite threshold.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .etfg import Etfg
from .model import ROLES, DeviceRole
from .units import si_number, without_cyclic_gc

ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


class Objective(str, Enum):
    LATENCY = "latency"
    ENERGY = "energy"


_CHAR = {role: role.value for role in ROLES}  # Enum.value is a property call


def node_name(task: int, device: DeviceRole) -> str:
    """The name of the node column that runs ``task`` on ``device``."""
    return f"x_{task}_{_CHAR[device]}"


def arc_tag(src_task: int, src_device: DeviceRole, dst_task: int, dst_device: DeviceRole) -> str:
    """An arc as its column's name (``"y_" + tag``) and its link rows'
    labels spell it."""
    return f"{src_task}{_CHAR[src_device]}_{dst_task}{_CHAR[dst_device]}"


class Variable(NamedTuple):
    kind: str  # "node" or "arc"
    column: int
    tasks: tuple[int, ...]
    devices: tuple[DeviceRole, ...]

    @property
    def name(self) -> str:
        if self.kind == "node":
            return node_name(self.tasks[0], self.devices[0])
        return "y_" + arc_tag(self.tasks[0], self.devices[0], self.tasks[1], self.devices[1])


class ConstraintRow(NamedTuple):
    label: str
    coeffs: dict[int, Fraction]  # column index -> coefficient
    sense: str  # "L" (<=), "E" (=), "G" (>=)
    rhs: Fraction


def link_rows(a: int, s: int, d: int, tag: str) -> tuple[ConstraintRow, ConstraintRow, ConstraintRow]:
    """The three rows that make arc column ``a`` the AND of node columns
    ``s`` and ``d``: ``y <= x_s``, ``y <= x_d`` and ``x_s + x_d - y <= 1``.
    Their coefficients and right-hand sides are the module's constants, so
    rows made at different times share their value objects."""
    return (
        ConstraintRow("lnksrc_" + tag, {a: ONE, s: MINUS_ONE}, "L", ZERO),
        ConstraintRow("lnkdst_" + tag, {a: ONE, d: MINUS_ONE}, "L", ZERO),
        ConstraintRow("lnkand_" + tag, {a: MINUS_ONE, s: ONE, d: ONE}, "L", ONE),
    )


LINK_NONZEROS = sum(len(row.coeffs) for row in link_rows(0, 1, 2, ""))


class Rows:
    """A model's rows in emission order: the explicit ``head`` rows, three
    rows per record of ``links`` (``(arc, source, destination, tag)`` in
    arc-column order, made by :func:`link_rows` when iterated), then the
    explicit ``tail`` rows."""

    __slots__ = ("head", "links", "tail")

    def __init__(
        self,
        head: Sequence[ConstraintRow],
        links: Sequence[tuple[int, int, int, str]] = (),
        tail: Sequence[ConstraintRow] = (),
    ):
        self.head, self.links, self.tail = head, links, tail

    def __len__(self) -> int:
        return len(self.head) + 3 * len(self.links) + len(self.tail)

    def __iter__(self):
        yield from self.head
        for link in self.links:
            yield from link_rows(*link)
        yield from self.tail


def _variables(node_col, links) -> tuple[Variable, ...]:
    """The canonical columns as :class:`Variable` tuples.  They share their
    small tuples: one ``(task,)`` per task, one ``(device,)`` per device,
    one pair per dependency and per device pair."""
    keys = list(node_col)
    shared: dict[tuple, tuple] = {}

    def share(key: tuple) -> tuple:
        return shared.setdefault(key, key)

    variables = [Variable("node", i, share((task,)), share((device,))) for i, (task, device) in enumerate(keys)]
    variables += [
        Variable("arc", a, share((keys[s][0], keys[d][0])), share((keys[s][1], keys[d][1])))
        for a, s, d, _tag in links
    ]
    return tuple(variables)


def _arc_columns(node_col, links) -> dict[tuple[int, DeviceRole, int, DeviceRole], int]:
    """Each arc column by its ends' node keys, in column order."""
    keys = list(node_col)
    return {keys[s] + keys[d]: a for a, s, d, _tag in links}


@dataclass
class BilpModel:
    """A 0/1 program: one column per node key of ``node_col``, in its
    order, then one per link record of ``rows``; the objective and the rows.

    The column :class:`Variable` tuples (``variables``) and the arc columns
    by their ends' node keys (``arc_col``) are made from ``node_col`` and
    the link records on their first read, which the writers never do:
    they need only the column count and names.  The writers keep the text
    of every value object the model holds on the model (``texts``, by
    ``id``), so a model is not changed once written.
    """

    objective_kind: Objective
    latency_threshold: Fraction | None
    objective: dict[int, Fraction]
    rows: Rows
    node_col: dict[tuple[int, DeviceRole], int]
    etfg: Etfg = field(repr=False)
    texts: dict[int, str] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_variables(self) -> int:
        return len(self.node_col) + len(self.rows.links)

    def column_names(self) -> list[str]:
        """Each column's name, by column, without making a variable."""
        return [node_name(*key) for key in self.node_col] + ["y_" + link[3] for link in self.rows.links]

    @cached_property
    @without_cyclic_gc
    def variables(self) -> tuple[Variable, ...]:
        return _variables(self.node_col, self.rows.links)

    @cached_property
    @without_cyclic_gc
    def arc_col(self) -> Mapping[tuple[int, DeviceRole, int, DeviceRole], int]:
        return MappingProxyType(_arc_columns(self.node_col, self.rows.links))


def _column_costs(nodes, arcs, latency: bool) -> dict[int, Fraction]:
    """Latency (or energy) of each canonical column where it is nonzero:
    the objective under that quantity, and the ``lthr`` row's coefficients."""
    node_field, arc_field = (2, 4) if latency else (4, 5)  # CandidateNode / EtfgArc fields
    costs = [node[node_field] for node in nodes]
    costs += [arc[arc_field] for arc in arcs]
    return {col: cost for col, cost in enumerate(costs) if cost}


def _energy_coeffs(nodes, arcs, devices) -> dict[DeviceRole, dict[int, Fraction]]:
    """Energy-budget coefficients of each given device over the canonical
    columns: execution energy of its candidate nodes plus its share of
    every transfer it sends, receives, or relays."""
    coeffs: dict[DeviceRole, dict[int, Fraction]] = {d: {} for d in devices}
    for col, node in enumerate(nodes):
        row = coeffs.get(node.device)
        if row is not None and node.energy:
            row[col] = node.energy
    for col, arc in enumerate(arcs, len(nodes)):
        # a transfer touches each device at most once, so plain assignment is safe
        for device, amount in arc.shares:
            row = coeffs.get(device)
            if row is not None and amount:
                row[col] = amount
    return coeffs


def check_latency_threshold(objective: Objective, latency_threshold: Fraction | None) -> None:
    """A latency cap must be above zero, and only the energy objective has one."""
    if latency_threshold is not None and latency_threshold <= 0:
        raise ValueError("latency threshold must be > 0")
    if latency_threshold is not None and objective is not Objective.ENERGY:
        raise ValueError("a latency threshold caps the energy objective; the latency objective has none")


@without_cyclic_gc
def build_model(
    etfg: Etfg,
    objective: Objective | str = Objective.LATENCY,
    latency_threshold: Fraction | None = None,
) -> BilpModel:
    objective = Objective(objective)
    check_latency_threshold(objective, latency_threshold)

    nodes_list = list(etfg.iter_nodes())
    arcs_list = list(etfg.iter_arcs())
    node_col = {(node[0], node[1]): i for i, node in enumerate(nodes_list)}
    graph, system = etfg.graph, etfg.system
    arc_base = len(nodes_list)

    obj = _column_costs(nodes_list, arcs_list, objective is Objective.LATENCY)

    head: list[ConstraintRow] = []
    append = head.append

    for task in graph.tasks:
        coeffs = {node_col[(task.id, role)]: ONE for role in task.allowed}
        append(ConstraintRow(f"asg_{task.id}", coeffs, "E", ONE))

    # arc columns are laid out contiguously in dependency order
    dep_cols: dict[tuple[int, int], range] = {}
    col = arc_base
    for dep in graph.arcs:
        size = len(etfg.arcs_by_dep[dep])
        dep_cols[dep] = range(col, col + size)
        col += size

    for task in graph.tasks:
        children = graph.successors[task.id]
        if not children:
            continue  # empty sum: the row would be 0 = 0
        coeffs = {c: ONE for j in children for c in dep_cols[(task.id, j)]}
        append(ConstraintRow(f"odeg_{task.id}", coeffs, "E", Fraction(len(children))))

    # the link rows: one record per arc, in arc-column order (see link_rows)
    links = [
        (
            a,
            node_col[(src_task, src_device)],
            node_col[(dst_task, dst_device)],
            arc_tag(src_task, src_device, dst_task, dst_device),
        )
        for a, (src_task, src_device, dst_task, dst_device, _l, _e, _s, _v) in enumerate(arcs_list, arc_base)
    ]

    tail: list[ConstraintRow] = []
    append = tail.append
    for family, quantity in (("mem", "memory"), ("sto", "storage")):
        for role in ROLES:
            budget = getattr(system.device(role), f"{quantity}_budget")
            if budget is None:
                continue
            coeffs = {}
            for task in graph.tasks:
                amount = getattr(task, quantity)
                if role in task.allowed and amount:
                    coeffs[node_col[(task.id, role)]] = amount
            append(ConstraintRow(f"{family}_{role.value}", coeffs, "L", budget))
    energy_roles = [r for r in ROLES if system.device(r).energy_budget is not None]
    if energy_roles:
        coeffs_by_role = _energy_coeffs(nodes_list, arcs_list, energy_roles)
        for role in energy_roles:
            budget = system.device(role).energy_budget
            append(ConstraintRow(f"enr_{role.value}", coeffs_by_role[role], "L", budget))

    if latency_threshold is not None:
        append(ConstraintRow("lthr", _column_costs(nodes_list, arcs_list, True), "L", latency_threshold))

    return BilpModel(
        objective_kind=objective,
        latency_threshold=latency_threshold,
        objective=obj,
        rows=Rows(head, links, tail),
        node_col=node_col,
        etfg=etfg,
    )


def model_stats(model: BilpModel) -> dict:
    """Size report in two row-count conventions.

    ``algebraic_rows`` counts the rows as emitted (three per expanded
    arc).  ``logical_constraints`` counts each arc's AND-link once and
    only finite-budget rows.  ``logical_constraints_all_budgets``
    additionally counts a budget row for every device and resource even
    when unbounded, which is how off-the-shelf solver frontends that
    materialize every family report these models.
    """
    graph = model.etfg.graph
    n_tasks = len(graph.tasks)
    non_sink = sum(1 for t in graph.tasks if graph.successors[t.id])
    n_arcs = model.etfg.arc_count
    rows = model.rows
    explicit = [*rows.head, *rows.tail]  # the link rows are counted from their records
    finite_budget_rows = sum(1 for row in explicit if row.label.startswith(("mem_", "sto_", "enr_")))
    threshold_rows = 1 if model.latency_threshold is not None else 0
    logical = n_tasks + non_sink + n_arcs + finite_budget_rows + threshold_rows
    logical_all = n_tasks + non_sink + n_arcs + 3 * len(ROLES) + threshold_rows
    return {
        "variables": model.num_variables,
        "binary_variables": model.num_variables,
        "node_variables": model.etfg.node_count,
        "arc_variables": n_arcs,
        "algebraic_rows": len(rows),
        "logical_constraints": logical,
        "logical_constraints_all_budgets": logical_all,
        "nonzeros": sum(len(row.coeffs) for row in explicit) + LINK_NONZEROS * len(rows.links),
        "objective": model.objective_kind.value,
        "latency_threshold": (
            None if model.latency_threshold is None else si_number(model.latency_threshold)
        ),
    }


# --- point evaluation ----------------------------------------------------


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Latency/energy totals and their attribution for one full assignment."""

    assignment: dict[int, DeviceRole]
    total_latency: Fraction
    total_energy: Fraction
    comp_latency: dict[DeviceRole, Fraction]
    comm_latency: dict[tuple[DeviceRole, DeviceRole], Fraction]
    comp_energy: dict[DeviceRole, Fraction]
    comm_energy: dict[tuple[DeviceRole, DeviceRole], Fraction]
    device_energy: dict[DeviceRole, Fraction]  # comp + tx + rx + relayed
    memory_use: dict[DeviceRole, Fraction]
    storage_use: dict[DeviceRole, Fraction]
    violations: tuple[str, ...]
    latency_ok: bool | None  # None when no threshold applies

    @property
    def feasible(self) -> bool:
        return not self.violations and self.latency_ok is not False

    def to_dict(self) -> dict:
        return {
            "assignment": {str(t): d.value for t, d in sorted(self.assignment.items())},
            "total_latency": si_number(self.total_latency),
            "total_energy": si_number(self.total_energy),
            "comp_latency": {d.value: si_number(v) for d, v in self.comp_latency.items()},
            "comm_latency": {
                f"{k.value}->{l.value}": si_number(v) for (k, l), v in self.comm_latency.items()
            },
            "comp_energy": {d.value: si_number(v) for d, v in self.comp_energy.items()},
            "comm_energy": {
                f"{k.value}->{l.value}": si_number(v) for (k, l), v in self.comm_energy.items()
            },
            "device_energy": {d.value: si_number(v) for d, v in self.device_energy.items()},
            "memory_use": {d.value: si_number(v) for d, v in self.memory_use.items()},
            "storage_use": {d.value: si_number(v) for d, v in self.storage_use.items()},
            "violations": list(self.violations),
            "latency_ok": self.latency_ok,
            "feasible": self.feasible,
        }


def _exact_sum(values: list[Fraction]) -> Fraction:
    """The exact sum of Fractions, added as integers over their least
    common denominator."""
    if len(values) < 2:
        return values[0] if values else ZERO
    dens = [value.denominator for value in values]
    den = math.lcm(*dens)
    return Fraction(sum([value.numerator * (den // d) for value, d in zip(values, dens)]), den)


def evaluate(
    etfg: Etfg,
    assignment: Mapping[int, DeviceRole],
    latency_threshold: Fraction | None = None,
) -> ObjectiveBreakdown:
    """Totals, per-device/per-channel attribution and budget checks for a
    complete task->device assignment.

    Transfer costs are linear in the data size, so the data each device
    pair carries is summed first.  Each channel then takes the data
    routed over it times its one-bit latency and energy, and each pair's
    devices take the data times their one-bit shares, all read from
    :attr:`~ehcopt.etfg.Etfg.per_bit`.  The sums are exact, so the
    breakdown is the sum over the selected arcs, and node costs are
    likewise summed per device.
    """
    graph, system, nodes_by_task = etfg.graph, etfg.system, etfg.nodes_by_task
    chosen: dict[int, DeviceRole] = {}
    placed: dict[DeviceRole, list] = {r: [] for r in ROLES}  # per device: (task, candidate node)
    for task in graph.tasks:
        try:
            device = assignment[task.id]
        except KeyError:
            raise ValueError(f"assignment missing task {task.id}") from None
        device = DeviceRole(device)
        try:
            node = nodes_by_task[task.id][task.allowed.index(device)]
        except ValueError:
            raise ValueError(f"task {task.id} may not run on device {device.value}") from None
        chosen[task.id] = device
        placed[device].append((task, node))
    comp_latency = {r: _exact_sum([node.latency for _, node in placed[r]]) for r in ROLES}
    comp_energy_by = {r: _exact_sum([node.energy for _, node in placed[r]]) for r in ROLES}
    memory_use = {r: _exact_sum([task.memory for task, _ in placed[r]]) for r in ROLES}
    storage_use = {r: _exact_sum([task.storage for task, _ in placed[r]]) for r in ROLES}

    sent: dict[tuple[DeviceRole, DeviceRole], list] = {}  # per device pair k != l: the data sizes
    task_map = graph.task_map
    for (i, j) in graph.arcs:
        pair = (chosen[i], chosen[j])
        if pair[0] != pair[1]:
            sent.setdefault(pair, []).append(task_map[i].output_data)
    per_bit = etfg.per_bit
    carried = {hop: [] for hop in system.channels}  # per channel: the data of each pair routed over it
    spent = {r: [comp_energy_by[r]] for r in ROLES}  # per device: execution, tx, rx and relay energy
    for (k, l), sizes in sent.items():
        data = _exact_sum(sizes)
        unit = per_bit[(k, l)]
        for hop in ((k, unit.via), (unit.via, l)) if unit.indirect else ((k, l),):
            carried[hop].append(data)
        for device, amount in unit.shares:
            spent[device].append(data * amount)
    comm_latency_by, comm_energy_by = {}, {}
    for hop, amounts in carried.items():
        unit, data = per_bit[hop], _exact_sum(amounts)
        comm_latency_by[hop] = data * unit.latency
        comm_energy_by[hop] = data * unit.energy
    device_energy = {r: _exact_sum(spent[r]) for r in ROLES}

    total_latency = _exact_sum([*comp_latency.values(), *comm_latency_by.values()])
    total_energy = _exact_sum([*comp_energy_by.values(), *comm_energy_by.values()])

    violations = []
    for role in ROLES:
        dev = system.device(role)
        if dev.memory_budget is not None and memory_use[role] > dev.memory_budget:
            violations.append(f"memory budget exceeded on {role.value}")
        if dev.storage_budget is not None and storage_use[role] > dev.storage_budget:
            violations.append(f"storage budget exceeded on {role.value}")
        if dev.energy_budget is not None and device_energy[role] > dev.energy_budget:
            violations.append(f"energy budget exceeded on {role.value}")
    latency_ok = None if latency_threshold is None else total_latency <= latency_threshold

    return ObjectiveBreakdown(
        assignment=chosen,
        total_latency=total_latency,
        total_energy=total_energy,
        comp_latency=comp_latency,
        comm_latency=comm_latency_by,
        comp_energy=comp_energy_by,
        comm_energy=comm_energy_by,
        device_energy=device_energy,
        memory_use=memory_use,
        storage_use=storage_use,
        violations=tuple(violations),
        latency_ok=latency_ok,
    )


def objective_value(breakdown: ObjectiveBreakdown, objective: Objective | str) -> Fraction:
    objective = Objective(objective)
    if objective is Objective.LATENCY:
        return breakdown.total_latency
    return breakdown.total_energy
