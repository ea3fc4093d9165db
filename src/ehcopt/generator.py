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

import math
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Mapping

from . import presets
from .model import (
    ROLES,
    DeviceRole,
    SystemModel,
    Task,
    TaskGraph,
    _fields,
    topological_order,
)
from .units import decimal_fraction, decimal_value, parse_quantity

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
    if isinstance(value, str):
        exact = decimal_value(value)  # Fraction would expand 10 ** exponent first
        if exact is not None:
            return exact
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


# ranges that synthesize_params draws integers from
_INTEGER_RANGES = ("memory_range", "storage_range", "data_range")


def _integer_bounds(bounds: tuple[Fraction, Fraction]) -> tuple[int, int]:
    """The smallest and the largest integer in ``bounds``."""
    lo, hi = bounds
    return math.ceil(lo), math.floor(hi)


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
            if label in _INTEGER_RANGES and math.ceil(lo) > math.floor(hi):
                raise GenerationError(f"{label}: [{float(lo)}, {float(hi)}] holds no integer")
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
    document = dict(presets.DEFAULT_PARAM_RANGES, perf_ratios=presets.performance_ratios(configuration))
    return ParamSpec.from_dict(document, f"default parameter ranges of {configuration}")


class _Range:
    """A ``(lo, hi)`` range of a ``ParamSpec``, converted once: its bounds
    as floats for ``rng.uniform`` and as numerator/denominator pairs."""

    __slots__ = ("lo_float", "hi_float", "lo_num", "lo_den", "hi_num", "hi_den")

    def __init__(self, bounds: tuple[Fraction, Fraction]):
        lo, hi = bounds
        self.lo_float, self.hi_float = float(lo), float(hi)
        self.lo_num, self.lo_den = lo.numerator, lo.denominator
        self.hi_num, self.hi_den = hi.numerator, hi.denominator

    def draw(self, rng: random.Random, quantum: int) -> tuple[int, int]:
        """Uniform draw quantized to 1/quantum and clamped into the range,
        as a (numerator, denominator) pair, so values stay small rationals."""
        num = round(rng.uniform(self.lo_float, self.hi_float) * quantum)
        if num * self.lo_den < self.lo_num * quantum:
            return self.lo_num, self.lo_den
        if num * self.hi_den > self.hi_num * quantum:
            return self.hi_num, self.hi_den
        return num, quantum


def synthesize_params(
    graph: TaskGraph, pspec: ParamSpec, system: SystemModel, seed: int
) -> TaskGraph:
    """Fill every task profile from reference draws scaled per device.

    Each latency is the reference latency divided by the device's
    performance ratio, and each power the reference power times it; a
    power at or below the device's idle power, or above its maximum, is
    pulled inside by a random fraction ``clamp_alpha`` of that limit.
    The arithmetic is exact, on numerators and denominators."""
    rng = random.Random(seed)
    randint = rng.randint
    latency_range = _Range(pspec.reference_latency)
    power_range = _Range(pspec.reference_power)
    alpha_range = _Range(pspec.clamp_alpha)
    memory_lo, memory_hi = _integer_bounds(pspec.memory_range)
    storage_lo, storage_hi = _integer_bounds(pspec.storage_range)
    data_lo, data_hi = _integer_bounds(pspec.data_range)
    # per role: its ratio, idle power and maximum power, each as a pair
    devices = {}
    for role in ROLES:
        ratio, dev = pspec.perf_ratios[role], system.device(role)
        devices[role] = (
            ratio.numerator, ratio.denominator,
            dev.idle_power.numerator, dev.idle_power.denominator,
            dev.max_power.numerator, dev.max_power.denominator,
        )
    tasks = []
    for task in graph.tasks:
        lat_num, lat_den = latency_range.draw(rng, 10**6)
        pow_num, pow_den = power_range.draw(rng, 10**3)
        memory = Fraction(randint(memory_lo, memory_hi))
        storage = Fraction(randint(storage_lo, storage_hi))
        data = Fraction(randint(data_lo, data_hi))
        latency = {}
        power = {}
        for role in task.allowed:
            r_num, r_den, idle_num, idle_den, max_num, max_den = devices[role]
            latency[role] = Fraction(lat_num * r_den, lat_den * r_num)
            p_num, p_den = pow_num * r_num, pow_den * r_den
            if p_num * idle_den <= idle_num * p_den:  # idle * (1 + alpha)
                a_num, a_den = alpha_range.draw(rng, 10**6)
                power[role] = Fraction(idle_num * (a_den + a_num), idle_den * a_den)
            elif p_num * max_den > max_num * p_den:  # max * (1 - alpha)
                a_num, a_den = alpha_range.draw(rng, 10**6)
                power[role] = Fraction(max_num * (a_den - a_num), max_den * a_den)
            else:
                power[role] = Fraction(p_num, p_den)
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
