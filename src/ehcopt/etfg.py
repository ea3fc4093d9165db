"""Expansion of a task graph over the candidate devices.

Every task becomes one candidate node per device it may run on, and every
dependency becomes one arc per device pair.  Candidate nodes carry the
profiled execution latency/power and the derived energy (power x time);
arcs carry the transfer latency and energy for the device pair and the
energy's per-device shares, which are zero on the same device and routed
through the intermediate device for pairs without a direct channel.

:func:`_pair_cost` is the one place that computes a transfer's latency,
its energy and how that energy is split over the devices it touches
(sender tx, receiver rx, relay rx+tx).  Every transfer cost is linear in
the data size, so :attr:`Etfg.per_bit` calls it once per ordered device
pair, for one bit, and everything else reads that table: the solvers'
integer kernel and :func:`ehcopt.milp.evaluate` scale it by data sizes
themselves, and :func:`scaled_costs` scales it into ``Fraction`` values, once
per distinct size and pair, for the arc expansion and
:func:`ehcopt.milp.build_model`.

:func:`transform` builds the candidate nodes only.  The arcs are
expanded on the first read of :attr:`Etfg.arcs_by_dep`, which only the
``transform`` command's outputs (:func:`etfg_to_dict`,
:func:`etfg_to_dot`) make; the model builder, the solvers' kernel and
:func:`ehcopt.milp.evaluate` never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Callable, Iterator, NamedTuple

from .model import (
    ROLES,
    DeviceRole,
    SystemModel,
    TaskGraph,
    require_valid,
)
from .units import si_number, without_cyclic_gc


class PairCost(NamedTuple):
    """One bit sent over a device pair's route: its transfer latency and
    energy, the energy's shares per device (sender tx, relay rx+tx,
    receiver rx; pairwise distinct devices), and the relay device
    (``None`` on-device and over a direct channel)."""

    latency: Fraction
    energy: Fraction
    shares: tuple[tuple[DeviceRole, Fraction], ...]
    via: DeviceRole | None

    @property
    def indirect(self) -> bool:
        return self.via is not None


def _pair_cost(k: DeviceRole, l: DeviceRole, system: SystemModel) -> PairCost:
    """One bit sent from k to l: free on-device, over the direct channel
    when there is one, else over both hops through the relay device."""
    if k == l:
        return PairCost(Fraction(0), Fraction(0), (), None)
    channel = system.channels.get((k, l))
    if channel is not None:
        latency, via = 1 / channel.bandwidth, None
        shares = ((k, channel.tx_energy), (l, channel.rx_energy))
    else:
        via = system.relay[(k, l)]
        first, second = system.channels[(k, via)], system.channels[(via, l)]
        latency = 1 / first.bandwidth + 1 / second.bandwidth
        shares = ((k, first.tx_energy), (via, first.rx_energy + second.tx_energy), (l, second.rx_energy))
    return PairCost(latency, sum([amount for _, amount in shares]), shares, via)


class CandidateNode(NamedTuple):
    task: int
    device: DeviceRole
    latency: Fraction  # seconds to execute here
    power: Fraction  # watts while executing
    energy: Fraction  # joules = power * latency


class EtfgArc(NamedTuple):
    """One dependency's transfer between two candidates: its device pair's
    :class:`PairCost` scaled by the source task's output size."""

    src_task: int
    src_device: DeviceRole
    dst_task: int
    dst_device: DeviceRole
    latency: Fraction  # transfer seconds
    energy: Fraction  # transfer joules
    shares: tuple[tuple[DeviceRole, Fraction], ...]  # energy per device: tx, rx, relay rx+tx
    via: DeviceRole | None  # the relay device, when routed through one

    @property
    def indirect(self) -> bool:
        return self.via is not None


class _SizeCosts(dict):
    """One data size's costs per device pair, ``(latency, energy, shares,
    via)`` as in :class:`PairCost`: each pair is scaled on its first
    lookup (``__missing__``) and kept."""

    __slots__ = ("num", "den", "ratios")

    def __missing__(self, pair):
        num, den = self.num, self.den
        latency, energy, shares, via = self.ratios[pair]
        cost = self[pair] = (
            None if latency is None else Fraction(num * latency[0], den * latency[1]),
            None if energy is None else Fraction(num * energy[0], den * energy[1]),
            None if shares is None else tuple([(device, Fraction(num * n, den * d)) for device, n, d in shares]),
            via,
        )
        return cost


def scaled_costs(
    per_bit: dict[tuple[DeviceRole, DeviceRole], PairCost],
    latency: bool = True,
    energy: bool = True,
    shares: bool = True,
) -> Callable[[Fraction], dict[tuple[DeviceRole, DeviceRole], tuple]]:
    """The one place that scales the one-bit pair costs of
    :attr:`Etfg.per_bit` by data sizes, for the arcs and the model builder.

    Returns ``costs_of``: ``costs_of(size)[pair]`` is the latency, energy,
    energy shares and relay of ``size`` bits sent over ``pair``, with each
    quantity that was not asked for ``None``.  Each distinct (size, pair)
    is scaled once, on its first lookup, and later lookups share its
    values; on-device pairs share :attr:`Etfg.per_bit`'s zeros.  Each
    product is made as one ``Fraction`` of the numerators' and
    denominators' products, which ``Fraction`` reduces to the same value
    that ``size * unit`` gives, without ``Fraction.__mul__``'s dispatch and
    its two gcds."""

    def ratio(value: Fraction) -> tuple[int, int]:
        return value.numerator, value.denominator

    ratios, on_device = {}, {}  # per pair: the asked-for per-bit quantities as (numerator, denominator)
    for (k, l), unit in per_bit.items():
        if k == l:
            on_device[(k, l)] = (
                unit.latency if latency else None,
                unit.energy if energy else None,
                unit.shares if shares else None,
                unit.via,
            )
        ratios[(k, l)] = (
            ratio(unit.latency) if latency else None,
            ratio(unit.energy) if energy else None,
            tuple([(device, *ratio(amount)) for device, amount in unit.shares]) if shares else None,
            unit.via,
        )
    tables: dict[tuple[int, int], _SizeCosts] = {}  # per size, keyed by (num, den): Fraction hashing is costly

    def costs_of(size: Fraction) -> _SizeCosts:
        key = (size.numerator, size.denominator)
        table = tables.get(key)
        if table is None:
            table = tables[key] = _SizeCosts(on_device)
            table.num, table.den, table.ratios = key[0], key[1], ratios
        return table

    return costs_of


@dataclass(frozen=True)
class Etfg:
    """The expanded graph plus back-references to its inputs.  The arcs
    are expanded on the first read of :attr:`arcs_by_dep`."""

    graph: TaskGraph
    system: SystemModel
    nodes_by_task: dict[int, tuple[CandidateNode, ...]]

    @property
    def node_count(self) -> int:
        return sum(len(group) for group in self.nodes_by_task.values())

    @property
    def arc_count(self) -> int:
        """One arc per dependency and pair of its ends' candidates; counted
        without expanding them."""
        nodes = self.nodes_by_task
        return sum(len(nodes[i]) * len(nodes[j]) for i, j in self.graph.arcs)

    def iter_nodes(self) -> Iterator[CandidateNode]:
        for task in self.graph.tasks:
            yield from self.nodes_by_task[task.id]

    def iter_arcs(self) -> Iterator[EtfgArc]:
        arcs_by_dep = self.arcs_by_dep
        for dep in self.graph.arcs:
            yield from arcs_by_dep[dep]

    @cached_property
    def per_bit(self) -> dict[tuple[DeviceRole, DeviceRole], PairCost]:
        """:class:`PairCost` of every ordered device pair, in
        ``product(ROLES, ROLES)`` order; on-device pairs cost nothing.
        The only caller of :func:`_pair_cost`; the exhaustive oracle keeps
        its own extraction."""
        return {(k, l): _pair_cost(k, l, self.system) for k, l in product(ROLES, ROLES)}

    @cached_property
    @without_cyclic_gc
    def arcs_by_dep(self) -> dict[tuple[int, int], tuple[EtfgArc, ...]]:
        """Per dependency, in ``graph.arcs`` order, one arc per (source
        candidate, destination candidate), in that order, so downstream
        variable numbering and serialization are reproducible.  An arc's
        costs and energy shares are its device pair's per-bit ones scaled
        by the source task's output size (:func:`scaled_costs`).  Only
        :func:`etfg_to_dict`, :func:`etfg_to_dot`, the tests and the
        benchmark's reference solver read them; the model builder, the
        solvers and :func:`ehcopt.milp.evaluate` scale :attr:`per_bit`
        themselves."""
        nodes_by_task, task_map = self.nodes_by_task, self.graph.task_map
        costs_of = scaled_costs(self.per_bit)
        arcs_by_dep: dict[tuple[int, int], tuple[EtfgArc, ...]] = {}
        for dep in self.graph.arcs:
            i, j = dep
            costs = costs_of(task_map[i].output_data)
            arcs_by_dep[dep] = tuple([
                EtfgArc(i, src.device, j, dst.device, *costs[(src.device, dst.device)])
                for src in nodes_by_task[i]
                for dst in nodes_by_task[j]
            ])
        return arcs_by_dep


@without_cyclic_gc
def transform(graph: TaskGraph, system: SystemModel) -> Etfg:
    """Expand a validated task graph over its allowed devices.

    Deterministic: candidate nodes are ordered e, h, c within each task.
    Builds the candidate nodes only; the arcs follow on the first read of
    :attr:`Etfg.arcs_by_dep`.
    """
    require_valid(graph)

    nodes_by_task: dict[int, tuple[CandidateNode, ...]] = {}
    for task in graph.tasks:
        latency, power = task.latency, task.power
        nodes_by_task[task.id] = tuple(
            CandidateNode(task.id, role, latency[role], power[role], power[role] * latency[role])
            for role in task.allowed  # Task.allowed is canonically ordered
        )
    return Etfg(graph=graph, system=system, nodes_by_task=nodes_by_task)


def etfg_to_dict(etfg: Etfg) -> dict:
    return {
        "schema": 1,
        "nodes": [
            {
                "task": n.task,
                "device": n.device.value,
                "latency": si_number(n.latency),
                "power": si_number(n.power),
                "energy": si_number(n.energy),
            }
            for n in etfg.iter_nodes()
        ],
        "arcs": [
            {
                "from": [a.src_task, a.src_device.value],
                "to": [a.dst_task, a.dst_device.value],
                "latency": si_number(a.latency),
                "energy": si_number(a.energy),
                "indirect": a.indirect,
                "via": a.via.value if a.via is not None else None,
            }
            for a in etfg.iter_arcs()
        ],
    }


def etfg_to_dot(etfg: Etfg) -> str:
    """Graphviz rendering; relayed arcs are dashed orange."""
    lines = ["digraph etfg {", "  rankdir=TB;", "  node [shape=ellipse];"]
    for task in etfg.graph.tasks:
        lines.append(f"  subgraph cluster_{task.id} {{")
        lines.append(f'    label="task {task.id}";')
        for node in etfg.nodes_by_task[task.id]:
            lines.append(
                f'    "{node.task}{node.device.value}" [label="N{node.task}{node.device.value}"];'
            )
        lines.append("  }")
    for arc in etfg.iter_arcs():
        src = f"{arc.src_task}{arc.src_device.value}"
        dst = f"{arc.dst_task}{arc.dst_device.value}"
        if arc.indirect:
            lines.append(f'  "{src}" -> "{dst}" [style=dashed,color=orange];')
        else:
            lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
