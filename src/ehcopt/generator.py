"""Seeded random task-graph structures and parameter synthesis.

Three structure families, chosen to stress different allocation regimes:
``serial`` (a single chain plus forward shortcut arcs inside a small
window: depth equals the node count, width 1), ``parallel`` (layered
fan-out/fan-in: width above 1, depth well below the node count), and
``mixed`` (alternating chain segments and fan-out blocks).

Parameters are synthesized from a reference-device profile: a latency
and power value drawn for the slowest device class is scaled by each
device's relative performance ratio (faster device: proportionally lower
latency, higher power draw), then the power value is clamped into the
device's (idle, max] envelope with a small random slack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Mapping

from .model import (
    ROLES,
    DeviceRole,
    SystemModel,
    Task,
    TaskGraph,
    _fields,
    topological_order,
)
from .units import decimal_fraction, parse_quantity

STRUCTURES = ("parallel", "serial", "mixed")


class GenerationError(ValueError):
    pass


@dataclass(frozen=True)
class GenSpec:
    structure: str
    node_count: int
    max_in_degree: int
    max_out_degree: int
    fixed_edge_fraction: Fraction = Fraction(0)
    fixed_hub_fraction: Fraction = Fraction(0)
    seed: int = 0

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise GenerationError(f"unknown structure {self.structure!r}")
        if self.node_count < 2:
            raise GenerationError("node count must be >= 2")
        if self.max_in_degree < 1 or self.max_out_degree < 1:
            raise GenerationError("degree bounds must be >= 1")
        if not (0 <= self.fixed_edge_fraction <= 1 and 0 <= self.fixed_hub_fraction <= 1):
            raise GenerationError("fixed fractions must lie in [0, 1]")
        if self.fixed_edge_fraction + self.fixed_hub_fraction > 1:
            raise GenerationError("fixed fractions must sum to at most 1")
        if self.structure in ("parallel", "mixed") and min(self.max_in_degree, self.max_out_degree) < 2:
            raise GenerationError(f"{self.structure} structure needs max in/out degree >= 2")

    def to_dict(self) -> dict:
        return {
            "structure": self.structure,
            "node_count": self.node_count,
            "max_in_degree": self.max_in_degree,
            "max_out_degree": self.max_out_degree,
            "fixed_edge_fraction": float(self.fixed_edge_fraction),
            "fixed_hub_fraction": float(self.fixed_hub_fraction),
            "seed": self.seed,
        }


def _fraction(value) -> Fraction:
    if isinstance(value, bool):  # an int subclass, which Fraction takes as 0 or 1
        raise ValueError(f"expected a number, got {value!r}")
    if isinstance(value, float):
        return decimal_fraction(value)
    return Fraction(value)


def _round_half_up(x: Fraction) -> int:
    return int(x + Fraction(1, 2))  # floor(x + 1/2) for x >= 0


def _serial_arcs(rng: random.Random, n: int, max_in: int, max_out: int) -> set[tuple[int, int]]:
    arcs = {(i, i + 1) for i in range(1, n)}
    out_deg = {i: (1 if i < n else 0) for i in range(1, n + 1)}
    in_deg = {i: (1 if i > 1 else 0) for i in range(1, n + 1)}
    window = 4
    for i in range(1, n - 1):
        for _ in range(max_out - 1):
            if out_deg[i] >= max_out or rng.random() > 0.9:
                continue
            targets = [
                j
                for j in range(i + 2, min(i + 1 + window, n) + 1)
                if in_deg[j] < max_in and (i, j) not in arcs
            ]
            if not targets:
                continue
            j = rng.choice(targets)
            arcs.add((i, j))
            out_deg[i] += 1
            in_deg[j] += 1
    return arcs


def _parallel_arcs(
    rng: random.Random, n: int, max_in: int, max_out: int
) -> set[tuple[int, int]]:
    # layer widths: random walk bounded by the fan-out capacity
    peak = max(2, min(n // 2, 3 * max_out, 1 + int(n**0.5) * max_out))
    widths = [1]
    remaining = n - 1
    while remaining:
        prev = widths[-1]
        hi = max(1, min(remaining, prev * max_out, peak))
        # the first expansion must actually fan out, else the walk could
        # degenerate into a chain
        lo = 2 if len(widths) == 1 and hi >= 2 else 1
        widths.append(rng.randint(lo, hi))
        remaining -= widths[-1]

    layers: list[list[int]] = []
    next_id = 1
    for w in widths:
        layers.append(list(range(next_id, next_id + w)))
        next_id += w

    arcs: set[tuple[int, int]] = set()
    out_deg = {i: 0 for i in range(1, n + 1)}
    in_deg = {i: 0 for i in range(1, n + 1)}
    for upper, lower in zip(layers, layers[1:]):
        # every node gets a parent in the previous layer, so the layer
        # index is exactly the longest-path level; childless nodes simply
        # stay sinks, which fan-out-heavy graphs naturally have
        for child in lower:
            parents = [p for p in upper if out_deg[p] < max_out]
            if not parents:
                raise GenerationError("layer widths violate the fan-out capacity")
            parent = rng.choice(parents)
            arcs.add((parent, child))
            out_deg[parent] += 1
            in_deg[child] += 1
        for parent in upper:
            if out_deg[parent]:
                continue
            children = [c for c in lower if in_deg[c] < max_in and (parent, c) not in arcs]
            if children:
                child = rng.choice(children)
                arcs.add((parent, child))
                out_deg[parent] += 1
                in_deg[child] += 1
        # a few extras keep the average degree in the sparse regime
        extras = rng.randint(0, max(1, len(lower) // 3))
        for _ in range(extras):
            parent = rng.choice(upper)
            child = rng.choice(lower)
            if (
                (parent, child) not in arcs
                and out_deg[parent] < max_out
                and in_deg[child] < max_in
            ):
                arcs.add((parent, child))
                out_deg[parent] += 1
                in_deg[child] += 1
    return arcs


def _mixed_arcs(rng: random.Random, n: int, max_in: int, max_out: int) -> set[tuple[int, int]]:
    fan_cap = min(max_in, max_out)
    arcs: set[tuple[int, int]] = set()
    next_id = 2
    tail = 1  # node every new segment hangs off
    while next_id <= n:
        remaining = n - next_id + 1
        if rng.random() < 0.5 and remaining >= 3 and fan_cap >= 2:
            width = rng.randint(2, min(fan_cap, remaining - 1))
            block = list(range(next_id, next_id + width))
            next_id += width
            join = next_id
            next_id += 1
            for b in block:
                arcs.add((tail, b))
                arcs.add((b, join))
            tail = join
        else:
            run = min(remaining, rng.randint(1, 3))
            for _ in range(run):
                arcs.add((tail, next_id))
                tail = next_id
                next_id += 1
    return arcs


def generate_tfg(spec: GenSpec) -> TaskGraph:
    """Random DAG with exactly ``spec.node_count`` tasks, degree bounds
    respected, and fixed-allocation flags applied (edge first, then hub,
    disjoint).  Profiles are left empty; see :func:`synthesize_params`.
    """
    rng = random.Random(spec.seed)
    n = spec.node_count
    builders = {"serial": _serial_arcs, "parallel": _parallel_arcs, "mixed": _mixed_arcs}
    arcs = builders[spec.structure](rng, n, spec.max_in_degree, spec.max_out_degree)

    out_deg = {i: 0 for i in range(1, n + 1)}
    in_deg = {i: 0 for i in range(1, n + 1)}
    for i, j in arcs:
        out_deg[i] += 1
        in_deg[j] += 1
    if any(d > spec.max_out_degree for d in out_deg.values()) or any(
        d > spec.max_in_degree for d in in_deg.values()
    ):
        raise GenerationError("internal error: degree bound violated")

    n_edge = _round_half_up(spec.fixed_edge_fraction * n)
    n_hub = _round_half_up(spec.fixed_hub_fraction * n)
    ids = list(range(1, n + 1))
    edge_fixed = set(rng.sample(ids, n_edge))
    hub_pool = [i for i in ids if i not in edge_fixed]
    hub_fixed = set(rng.sample(hub_pool, n_hub))

    zero = Fraction(0)
    tasks = []
    for tid in ids:
        if tid in edge_fixed:
            allowed = (DeviceRole.EDGE,)
        elif tid in hub_fixed:
            allowed = (DeviceRole.HUB,)
        else:
            allowed = ROLES
        tasks.append(
            Task(id=tid, memory=zero, storage=zero, output_data=zero, allowed=allowed)
        )
    graph = TaskGraph(tasks=tuple(tasks), arcs=tuple(sorted(arcs)))
    topological_order(graph)  # raises if construction ever produced a cycle
    return graph


@dataclass(frozen=True)
class ParamSpec:
    """Ranges for reference-device draws plus per-role performance ratios."""

    reference_latency: tuple[Fraction, Fraction]  # seconds
    reference_power: tuple[Fraction, Fraction]  # watts
    memory_range: tuple[Fraction, Fraction]  # bytes
    storage_range: tuple[Fraction, Fraction]  # bytes
    data_range: tuple[Fraction, Fraction]  # bits
    perf_ratios: Mapping[DeviceRole, Fraction]
    clamp_alpha: tuple[Fraction, Fraction] = (Fraction(1, 1000), Fraction(5, 1000))

    def __post_init__(self):
        for label, (lo, hi) in (
            ("reference_latency", self.reference_latency),
            ("reference_power", self.reference_power),
            ("memory_range", self.memory_range),
            ("storage_range", self.storage_range),
            ("data_range", self.data_range),
            ("clamp_alpha", self.clamp_alpha),
        ):
            if lo <= 0 or hi < lo:
                raise GenerationError(f"{label}: need 0 < lower <= upper")
        for role in ROLES:
            if role not in self.perf_ratios:
                raise GenerationError(f"missing performance ratio for {role.value}")
            if self.perf_ratios[role] <= 0:
                raise GenerationError(f"performance ratio for {role.value} must be > 0")

    def to_dict(self) -> dict:
        def pair(p):
            return [float(p[0]), float(p[1])]

        return {
            "reference_latency": pair(self.reference_latency),
            "reference_power": pair(self.reference_power),
            "memory_range": pair(self.memory_range),
            "storage_range": pair(self.storage_range),
            "data_range": pair(self.data_range),
            "perf_ratios": {r.value: float(self.perf_ratios[r]) for r in ROLES},
            "clamp_alpha": pair(self.clamp_alpha),
        }

    @classmethod
    def from_dict(cls, data: Mapping, source: str = "params") -> "ParamSpec":
        """The spec a params document describes.  Malformed input raises
        GenerationError naming ``source`` and the field at fault."""
        _fields(data, frozenset([f.name for f in fields(cls)]), GenerationError, source)

        def read(key, parse):
            if key not in data:
                raise GenerationError(f"{source}: missing required field {key!r}")
            try:
                return parse(data[key])
            except (TypeError, ValueError, AttributeError) as exc:
                raise GenerationError(f"{source}: field {key!r}: {exc}") from None

        def pair(key, dimension=None):
            """A lower and an upper quantity of ``dimension``; plain numbers without one."""
            one = _fraction if dimension is None else lambda value: parse_quantity(value, dimension)

            def parse(value):
                if not isinstance(value, (list, tuple)):  # a string or an object would unpack
                    raise TypeError(f"expected a [lower, upper] pair, got {type(value).__name__}")
                lo, hi = value
                return (one(lo), one(hi))

            return read(key, parse)

        parsed = dict(
            reference_latency=pair("reference_latency", "time"),
            reference_power=pair("reference_power", "power"),
            memory_range=pair("memory_range", "memory"),
            storage_range=pair("storage_range", "memory"),
            data_range=pair("data_range", "data"),
            perf_ratios=read("perf_ratios", lambda v: {DeviceRole(r): _fraction(x) for r, x in v.items()}),
        )
        if data.get("clamp_alpha") is not None:
            parsed["clamp_alpha"] = pair("clamp_alpha")
        try:
            return cls(**parsed)
        except GenerationError as exc:  # a range or ratio out of bounds
            raise GenerationError(f"{source}: {exc}") from None


def default_param_spec(configuration: str = "C1") -> ParamSpec:
    from . import presets

    document = dict(presets.DEFAULT_PARAM_RANGES, perf_ratios=presets.performance_ratios(configuration))
    return ParamSpec.from_dict(document, f"default parameter ranges of {configuration}")


def _uniform_fraction(rng: random.Random, lo: Fraction, hi: Fraction, quantum: int) -> Fraction:
    """Uniform draw quantized to 1/quantum so values stay small rationals."""
    value = rng.uniform(float(lo), float(hi))
    q = Fraction(round(value * quantum), quantum)
    return min(max(q, lo), hi)


def synthesize_params(
    graph: TaskGraph, pspec: ParamSpec, system: SystemModel, seed: int
) -> TaskGraph:
    """Fill every task profile from reference draws scaled per device."""
    rng = random.Random(seed)
    tasks = []
    for task in graph.tasks:
        lat_ref = _uniform_fraction(rng, *pspec.reference_latency, 10**6)
        pow_ref = _uniform_fraction(rng, *pspec.reference_power, 10**3)
        memory = Fraction(rng.randint(int(pspec.memory_range[0]), int(pspec.memory_range[1])))
        storage = Fraction(rng.randint(int(pspec.storage_range[0]), int(pspec.storage_range[1])))
        data = Fraction(rng.randint(int(pspec.data_range[0]), int(pspec.data_range[1])))
        latency = {}
        power = {}
        for role in task.allowed:
            ratio = pspec.perf_ratios[role]
            latency[role] = lat_ref / ratio
            p = pow_ref * ratio
            dev = system.device(role)
            if p <= dev.idle_power:
                alpha = _uniform_fraction(rng, *pspec.clamp_alpha, 10**6)
                p = dev.idle_power * (1 + alpha)
            elif p > dev.max_power:
                alpha = _uniform_fraction(rng, *pspec.clamp_alpha, 10**6)
                p = dev.max_power * (1 - alpha)
            power[role] = p
        tasks.append(
            Task(
                id=task.id,
                memory=memory,
                storage=storage,
                output_data=data,
                allowed=task.allowed,
                latency=latency,
                power=power,
            )
        )
    return TaskGraph(tasks=tuple(tasks), arcs=graph.arcs)


def structure_stats(graph: TaskGraph) -> dict:
    """Shape summary: node/arc counts, average degree, depth, max width."""
    n = len(graph.tasks)
    arcs = len(graph.arcs)
    level: dict[int, int] = {}
    for tid in topological_order(graph):
        preds = graph.predecessors[tid]
        level[tid] = 1 + max((level[p] for p in preds), default=0)
    depth = max(level.values(), default=0)
    width_per_level: dict[int, int] = {}
    for lv in level.values():
        width_per_level[lv] = width_per_level.get(lv, 0) + 1
    avg = round(arcs / n, 2) if n else 0.0
    return {
        "nodes": n,
        "arcs": arcs,
        "avg_in_degree": avg,
        "avg_out_degree": avg,
        "depth": depth,
        "max_width": max(width_per_level.values(), default=0),
        "sources": sum(1 for t in graph.tasks if not graph.predecessors[t.id]),
        "sinks": sum(1 for t in graph.tasks if not graph.successors[t.id]),
        "fixed_edge": sum(1 for t in graph.tasks if t.allowed == (DeviceRole.EDGE,)),
        "fixed_hub": sum(1 for t in graph.tasks if t.allowed == (DeviceRole.HUB,)),
    }
