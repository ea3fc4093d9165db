"""Application task graphs and the three-device system model.

A :class:`TaskGraph` is a DAG of profiled tasks; a :class:`SystemModel`
describes the edge/hub/cloud devices, their budgets, the directional
communication channels between them, and how unconnected device pairs
are routed through an intermediate device.  Both are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from math import inf
from pathlib import Path
from typing import Iterable, Mapping

from .units import parse_optional, parse_quantity, si_number, without_cyclic_gc

SCHEMA_VERSION = 1


class DeviceRole(str, Enum):
    EDGE = "e"
    HUB = "h"
    CLOUD = "c"

    def __repr__(self) -> str:  # compact in error messages and reprs
        return self.value


ROLES: tuple[DeviceRole, ...] = (DeviceRole.EDGE, DeviceRole.HUB, DeviceRole.CLOUD)
ROLE_INDEX = {role: i for i, role in enumerate(ROLES)}
_ROLE_OF = {role.value: role for role in ROLES}


def role_from(value) -> DeviceRole:
    try:
        return _ROLE_OF[value]
    except (KeyError, TypeError):  # TypeError: unhashable, e.g. a JSON array
        raise ValueError(f"unknown device role {value!r}; expected one of e, h, c") from None


class GraphValidationError(ValueError):
    """Raised when an operation requires a valid task graph and gets none."""


class SystemModelError(ValueError):
    """Raised for inconsistent device/channel/relay definitions."""


@dataclass(frozen=True)
class Task:
    """One application task with its device-independent profile.

    memory/storage are bytes, output_data is bits, latency maps each
    allowed device to seconds, power to watts.
    """

    id: int
    memory: Fraction
    storage: Fraction
    output_data: Fraction
    allowed: tuple[DeviceRole, ...]
    latency: Mapping[DeviceRole, Fraction] = field(default_factory=dict)
    power: Mapping[DeviceRole, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        allowed = set(self.allowed)
        object.__setattr__(self, "allowed", tuple([r for r in ROLES if r in allowed]))

    @property
    def fixed(self) -> bool:
        return len(self.allowed) == 1


@dataclass(frozen=True)
class TaskGraph:
    """Tasks and dependency arcs (i, j): task j consumes task i's output.

    A graph is immutable after construction (its tasks' profile mappings
    included), so the derived tables below and the validation report are
    computed once, on first use, and kept.
    """

    tasks: tuple[Task, ...]
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "tasks", tuple(sorted(self.tasks, key=lambda t: t.id))
        )
        object.__setattr__(self, "arcs", tuple(sorted(self.arcs)))

    @cached_property
    def task_map(self) -> dict[int, Task]:
        return {t.id: t for t in self.tasks}

    @cached_property
    def successors(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {t.id: [] for t in self.tasks}
        for i, j in self.arcs:
            if i in out:
                out[i].append(j)
        return {i: tuple(js) for i, js in out.items()}

    @cached_property
    def validation(self) -> "ValidationReport":
        return _scan_task_graph(self)

    @cached_property
    def kahn_order(self) -> tuple[int, ...]:
        """Kahn's walk over the arcs between two distinct tasks, smallest
        ready task id first.  It stops short of every task on or after a
        cycle, so it misses some task id exactly when those arcs have one."""
        indeg = dict.fromkeys(self.task_map, 0)
        out: dict[int, list[int]] = {tid: [] for tid in indeg}
        for i, j in self.arcs:
            if i != j and i in indeg and j in indeg:
                out[i].append(j)
                indeg[j] += 1
        heap = [tid for tid, d in indeg.items() if d == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            tid = heapq.heappop(heap)
            order.append(tid)
            for succ in out[tid]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    heapq.heappush(heap, succ)
        return tuple(order)

    @cached_property
    def predecessors(self) -> dict[int, tuple[int, ...]]:
        inc: dict[int, list[int]] = {t.id: [] for t in self.tasks}
        for i, j in self.arcs:
            if j in inc:
                inc[j].append(i)
        return {j: tuple(is_) for j, is_ in inc.items()}

    def task(self, task_id: int) -> Task:
        try:
            return self.task_map[task_id]
        except KeyError:
            raise KeyError(f"no task with id {task_id}") from None


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        return "valid" if self.ok else "; ".join(self.issues)


def validate_task_graph(graph: TaskGraph) -> ValidationReport:
    """Collect every invariant violation instead of failing on the first.

    The graph is scanned once; later calls return the same report
    (:attr:`TaskGraph.validation`)."""
    return graph.validation


def _scan_task_graph(graph: TaskGraph) -> ValidationReport:
    issues: list[str] = []
    ids = [t.id for t in graph.tasks]
    seen = set()
    for tid in ids:
        if tid in seen:
            issues.append(f"duplicate task id {tid}")
        seen.add(tid)
    if not graph.tasks:
        issues.append("graph has no tasks")
    elif sorted(seen) != list(range(1, len(seen) + 1)):
        issues.append("task ids are not dense 1..|T|")

    for task in graph.tasks:
        if not task.allowed:
            issues.append(f"task {task.id}: empty allowed-device set")
        for quantity, label in (
            (task.memory, "memory"),
            (task.storage, "storage"),
            (task.output_data, "output data"),
        ):
            # signs are read off the numerator (int and Fraction both have
            # one): a Fraction comparison with 0 costs a rich-compare call
            if quantity.numerator < 0:
                issues.append(f"task {task.id}: negative {label}")
        for role in task.allowed:
            if role not in task.latency:
                issues.append(f"task {task.id}: missing profile entry (latency on {role.value})")
            elif task.latency[role].numerator < 0:
                issues.append(f"task {task.id}: negative latency on {role.value}")
            if role not in task.power:
                issues.append(f"task {task.id}: missing profile entry (power on {role.value})")
            elif task.power[role].numerator < 0:
                issues.append(f"task {task.id}: negative power on {role.value}")
        for role in set(task.latency) | set(task.power):
            if role not in task.allowed:
                issues.append(f"task {task.id}: profile entry for disallowed device {role.value}")

    arc_seen = set()
    for i, j in graph.arcs:
        if i == j:
            issues.append(f"self-arc on task {i}")
            continue
        if (i, j) in arc_seen:
            issues.append(f"duplicate arc {i}->{j}")
        arc_seen.add((i, j))
        for endpoint in (i, j):
            if endpoint not in seen:
                issues.append(f"dangling arc endpoint {endpoint} in arc {i}->{j}")

    if len(graph.kahn_order) != len(seen):
        issues.append("cycle detected among arcs")

    return ValidationReport(tuple(issues))


def require_valid(graph: TaskGraph) -> None:
    report = validate_task_graph(graph)
    if not report.ok:
        raise GraphValidationError(str(report))


def topological_order(graph: TaskGraph) -> tuple[int, ...]:
    """Deterministic topological order (smallest task id first among ready)."""
    order = graph.kahn_order
    if len(order) != len(graph.tasks) or any(i == j for i, j in graph.arcs):
        raise GraphValidationError("cycle detected among arcs")
    return order


@dataclass(frozen=True)
class Device:
    """A computational device and its resource budgets (None = unbounded)."""

    role: DeviceRole
    name: str
    memory_budget: Fraction | None
    storage_budget: Fraction | None
    energy_budget: Fraction | None
    idle_power: Fraction
    max_power: Fraction

    def __post_init__(self):
        if not (0 <= self.idle_power < self.max_power):
            raise SystemModelError(
                f"device {self.name!r}: idle power must satisfy 0 <= idle < max"
            )
        for label, budget in (
            ("memory", self.memory_budget),
            ("storage", self.storage_budget),
            ("energy", self.energy_budget),
        ):
            if budget is not None and budget <= 0:
                raise SystemModelError(f"device {self.name!r}: finite {label} budget must be > 0")


@dataclass(frozen=True)
class Channel:
    """Directional link: bandwidth in bits/s, tx/rx energy in J/bit."""

    src: DeviceRole
    dst: DeviceRole
    bandwidth: Fraction
    tx_energy: Fraction
    rx_energy: Fraction

    def __post_init__(self):
        if self.src == self.dst:
            raise SystemModelError("channel endpoints must differ")
        if self.bandwidth <= 0:
            raise SystemModelError(f"channel {self.src.value}->{self.dst.value}: bandwidth must be > 0")
        if self.tx_energy < 0 or self.rx_energy < 0:
            raise SystemModelError(
                f"channel {self.src.value}->{self.dst.value}: per-bit energies must be >= 0"
            )


@dataclass(frozen=True)
class SystemModel:
    devices: Mapping[DeviceRole, Device]
    channels: Mapping[tuple[DeviceRole, DeviceRole], Channel]
    relay: Mapping[tuple[DeviceRole, DeviceRole], DeviceRole]

    def __post_init__(self):
        if set(self.devices) != set(ROLES):
            raise SystemModelError("system model needs exactly one device per role e, h, c")
        for (k, l), channel in self.channels.items():
            if (channel.src, channel.dst) != (k, l):
                raise SystemModelError(f"channel stored under wrong key {k.value}->{l.value}")
        for k in ROLES:
            for l in ROLES:
                if k == l:
                    continue
                if (k, l) in self.channels:
                    if (k, l) in self.relay:
                        raise SystemModelError(
                            f"pair {k.value}->{l.value} is both directly connected and relayed"
                        )
                    continue
                m = self.relay.get((k, l))
                if m is None:
                    raise SystemModelError(
                        f"pair {k.value}->{l.value} has neither a channel nor a relay entry"
                    )
                if m in (k, l):
                    raise SystemModelError(f"relay for {k.value}->{l.value} must be a third device")
                if (k, m) not in self.channels or (m, l) not in self.channels:
                    raise SystemModelError(
                        f"relay {k.value}->{m.value}->{l.value} requires both direct hops"
                    )

    def device(self, role: DeviceRole) -> Device:
        return self.devices[role]


# --- JSON serialization -------------------------------------------------
#
# Task graph schema:
#   {"schema": 1,
#    "tasks": [{"id": 1, "memory": "64MiB", "storage": "10MiB",
#               "output_data": "2Mbit", "allowed": ["e", "h", "c"],
#               "latency": {"e": "120ms", ...}, "power": {"e": "4.2W", ...}}],
#    "arcs": [[1, 2], ...]}
#
# System schema:
#   {"schema": 1,
#    "devices": {"e": {"name": ..., "memory_budget": "8GiB",
#                      "storage_budget": "32GiB", "energy_budget": "129.96Wh",
#                      "idle_power": "1.9W", "max_power": "15W"}, ...},
#    "channels": [{"from": "e", "to": "h", "bandwidth": "15Mbit/s",
#                  "tx_energy": "1uJ/bit", "rx_energy": "0.7uJ/bit"}, ...],
#    "relay": {"e->c": "h", "c->e": "h"}}
#
# Bare numbers are SI base units; suffixed strings are converted on load.
# A field outside these schemas is an error, not ignored.

_TASK_GRAPH_FIELDS = frozenset({"schema", "tasks", "arcs"})
_TASK_FIELDS = frozenset({"id", "memory", "storage", "output_data", "allowed", "latency", "power"})
_SYSTEM_FIELDS = frozenset({"schema", "devices", "channels", "relay"})
_DEVICE_FIELDS = frozenset({"name", "memory_budget", "storage_budget", "energy_budget", "idle_power", "max_power"})
_CHANNEL_FIELDS = frozenset({"from", "to", "bandwidth", "tx_energy", "rx_energy"})


def _object(value, error: type[ValueError], where: str) -> dict:
    if not isinstance(value, dict):  # what a JSON object decodes to
        raise error(f"{where}: expected a JSON object, got {type(value).__name__}")
    return value


def _fields(value, known: frozenset, error: type[ValueError], where: str) -> dict:
    """``value`` as a JSON object whose every field is one of ``known``."""
    unknown = _object(value, error, where).keys() - known
    if unknown:
        raise error(f"{where}: unknown field {min(unknown)!r} (known: {', '.join(sorted(known))})")
    return value


def _array(value, error: type[ValueError], where: str) -> list:
    if not isinstance(value, list):  # what a JSON array decodes to
        raise error(f"{where}: expected a JSON array, got {type(value).__name__}")
    return value


def _unparsed(exc: ValueError, error: type[ValueError], where: str) -> ValueError:
    """The error for an entry whose parsing raised ``exc``: an ``error``
    already names the entry, while a quantity or device role that does not
    parse raises a ValueError that does not, so it gets ``where``."""
    return exc if isinstance(exc, error) else error(f"{where}: {exc}")


def _not_a_task_id(value, error: type[ValueError], where: str) -> ValueError:
    return error(f"{where}: expected a JSON integer task id, got {type(value).__name__}")


def _required(entry: Mapping, key: str, error: type[ValueError], where: str):
    try:
        return entry[key]
    except KeyError:
        raise error(f"{where}: missing required field {key!r}") from None


def _check_schema(data, kind: str, known: frozenset, error: type[ValueError]) -> None:
    version = _fields(data, known, error, f"{kind} file").get("schema")
    if type(version) is not int or version != SCHEMA_VERSION:  # not true or 1.0
        raise error(f"{kind} file: unsupported schema {version!r} (expected {SCHEMA_VERSION})")


@without_cyclic_gc
def task_graph_from_dict(data: dict) -> TaskGraph:
    err = GraphValidationError
    _check_schema(data, "task graph", _TASK_GRAPH_FIELDS, err)
    entries = _required(data, "tasks", err, "task graph file")
    tasks = []
    # a field that holds an array or an object is checked for that JSON type;
    # a quantity or a device role that does not parse raises a ValueError
    for n, entry in enumerate(_array(entries, err, "task graph file: tasks")):
        where = f"task graph file: tasks[{n}]"
        entry = _fields(entry, _TASK_FIELDS, err, where)
        try:
            allowed = _array(_required(entry, "allowed", err, where), err, f"{where}: field 'allowed'")
            allowed = tuple([role_from(r) for r in allowed])
            latency = _object(entry.get("latency", {}), err, f"{where}: field 'latency'")
            latency = {role_from(r): parse_quantity(v, "time") for r, v in latency.items()}
            power = _object(entry.get("power", {}), err, f"{where}: field 'power'")
            power = {role_from(r): parse_quantity(v, "power") for r, v in power.items()}
            task_id = _required(entry, "id", err, where)
            if type(task_id) is not int:  # JSON integers only: not floats, booleans or strings
                raise _not_a_task_id(task_id, err, f"{where}: field 'id'")
            tasks.append(
                Task(
                    id=task_id,
                    memory=parse_quantity(_required(entry, "memory", err, where), "memory"),
                    storage=parse_quantity(_required(entry, "storage", err, where), "memory"),
                    output_data=parse_quantity(_required(entry, "output_data", err, where), "data"),
                    allowed=allowed,
                    latency=latency,
                    power=power,
                )
            )
        except ValueError as exc:
            raise _unparsed(exc, err, where) from None
    try:
        arcs = tuple([(i, j) for i, j in data.get("arcs", [])])
    except (TypeError, ValueError):
        raise err("task graph file: arcs: expected a JSON array of [from, to] task id pairs") from None
    for n, arc in enumerate(arcs):
        for end in arc:
            if type(end) is not int:
                raise _not_a_task_id(end, err, f"task graph file: arcs[{n}]")
    return TaskGraph(tasks=tuple(tasks), arcs=arcs)


def task_graph_to_dict(graph: TaskGraph) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tasks": [
            {
                "id": t.id,
                "memory": si_number(t.memory),
                "storage": si_number(t.storage),
                "output_data": si_number(t.output_data),
                "allowed": [r.value for r in t.allowed],
                "latency": {r.value: si_number(t.latency[r]) for r in t.allowed if r in t.latency},
                "power": {r.value: si_number(t.power[r]) for r in t.allowed if r in t.power},
            }
            for t in graph.tasks
        ],
        "arcs": [[i, j] for i, j in graph.arcs],
    }


def system_model_from_dict(data: dict) -> SystemModel:
    err = SystemModelError
    _check_schema(data, "system model", _SYSTEM_FIELDS, err)
    devices = {}
    device_entries = _required(data, "devices", err, "system model file")
    for key, entry in _object(device_entries, err, "system model file: devices").items():
        where = f"system model file: devices[{key!r}]"
        entry = _fields(entry, _DEVICE_FIELDS, err, where)
        try:
            role = role_from(key)
            name = entry.get("name", role.value)
            if not isinstance(name, str):
                raise err(f"{where}: field 'name': expected a JSON string, got {type(name).__name__}")
            devices[role] = Device(
                role=role,
                name=name,
                memory_budget=parse_optional(entry.get("memory_budget"), "memory"),
                storage_budget=parse_optional(entry.get("storage_budget"), "memory"),
                energy_budget=parse_optional(entry.get("energy_budget"), "energy"),
                idle_power=parse_quantity(entry.get("idle_power", 0), "power"),
                max_power=parse_quantity(_required(entry, "max_power", err, where), "power"),
            )
        except ValueError as exc:
            raise _unparsed(exc, err, where) from None
    channels = {}
    channel_entries = _required(data, "channels", err, "system model file")
    for n, entry in enumerate(_array(channel_entries, err, "system model file: channels")):
        where = f"system model file: channels[{n}]"
        entry = _fields(entry, _CHANNEL_FIELDS, err, where)
        try:
            channel = Channel(
                src=role_from(_required(entry, "from", err, where)),
                dst=role_from(_required(entry, "to", err, where)),
                bandwidth=parse_quantity(_required(entry, "bandwidth", err, where), "bandwidth"),
                tx_energy=parse_quantity(_required(entry, "tx_energy", err, where), "energy_per_bit"),
                rx_energy=parse_quantity(_required(entry, "rx_energy", err, where), "energy_per_bit"),
            )
        except ValueError as exc:
            raise _unparsed(exc, err, where) from None
        if (channel.src, channel.dst) in channels:
            raise err(f"{where}: a second channel {channel.src.value}->{channel.dst.value}")
        channels[(channel.src, channel.dst)] = channel
    relay = {}
    for key, via in _object(data.get("relay", {}), err, "system model file: relay").items():
        k_str, _, l_str = key.partition("->")
        try:
            relay[(role_from(k_str.strip()), role_from(l_str.strip()))] = role_from(via)
        except ValueError as exc:
            raise _unparsed(exc, err, f"system model file: relay[{key!r}]") from None
    return SystemModel(devices=devices, channels=channels, relay=relay)


def system_model_to_dict(system: SystemModel) -> dict:
    def budget(value):
        return None if value is None else si_number(value)

    return {
        "schema": SCHEMA_VERSION,
        "devices": {
            role.value: {
                "name": dev.name,
                "memory_budget": budget(dev.memory_budget),
                "storage_budget": budget(dev.storage_budget),
                "energy_budget": budget(dev.energy_budget),
                "idle_power": si_number(dev.idle_power),
                "max_power": si_number(dev.max_power),
            }
            for role, dev in sorted(system.devices.items(), key=lambda kv: ROLE_INDEX[kv[0]])
        },
        "channels": [
            {
                "from": ch.src.value,
                "to": ch.dst.value,
                "bandwidth": si_number(ch.bandwidth),
                "tx_energy": si_number(ch.tx_energy),
                "rx_energy": si_number(ch.rx_energy),
            }
            for _, ch in sorted(
                system.channels.items(),
                key=lambda kv: (ROLE_INDEX[kv[0][0]], ROLE_INDEX[kv[0][1]]),
            )
        ],
        "relay": {
            f"{k.value}->{l.value}": m.value
            for (k, l), m in sorted(
                system.relay.items(), key=lambda kv: (ROLE_INDEX[kv[0][0]], ROLE_INDEX[kv[0][1]])
            )
        },
    }


def json_text(document) -> str:
    """The text of every JSON file ehcopt writes: sorted keys, indented.

    It equals ``json.dumps(document, indent=2, sort_keys=True) + "\\n"``,
    written without the standard library's generator encoder, which it
    runs whenever ``indent`` is set."""
    pieces: list[str] = []
    _write_json(document, "\n", pieces)
    pieces.append("\n")
    return "".join(pieces)


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == inf:
        return "Infinity"
    if value == -inf:
        return "-Infinity"
    return float.__repr__(value)


def _write_json(value, indent: str, pieces: list[str]) -> None:
    """Append the text of ``value`` to ``pieces``; ``indent`` is a newline
    and two spaces per level of nesting.  The type checks are the
    standard library encoder's, in its order, so subclasses (``DeviceRole``
    is a ``str``, ``bool`` an ``int``) are written as it writes them."""
    if isinstance(value, str):
        pieces.append(_quote(value))
    elif value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, int):
        pieces.append(int.__repr__(value))
    elif isinstance(value, float):
        pieces.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        inner = indent + "  "
        separator = "," + inner
        first = len(pieces)
        for item in value:
            pieces.append(separator)
            _write_json(item, inner, pieces)
        pieces[first] = "[" + inner
        pieces.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        inner = indent + "  "
        first = len(pieces)
        for key, item in sorted(value.items()):
            if isinstance(key, str):
                pass
            elif isinstance(key, float):
                key = _float_text(key)
            elif key is True:
                key = "true"
            elif key is False:
                key = "false"
            elif key is None:
                key = "null"
            elif isinstance(key, int):
                key = int.__repr__(key)
            else:
                raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
            pieces.append(f",{inner}{_quote(key)}: ")
            _write_json(item, inner, pieces)
        pieces[first] = "{" + pieces[first][1:]
        pieces.append(indent + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def read_json(path: str | Path, kind: str, error: type[ValueError]):
    """The JSON document in the ``kind`` file at ``path``; text that is not
    JSON raises ``error`` naming the kind of file and its path."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{kind} file {path}: not valid JSON: {exc}") from None


def load_task_graph(path: str | Path) -> TaskGraph:
    return task_graph_from_dict(read_json(path, "task graph", GraphValidationError))


def load_system_model(path: str | Path) -> SystemModel:
    return system_model_from_dict(read_json(path, "system model", SystemModelError))


def save_task_graph(graph: TaskGraph, path: str | Path) -> None:
    Path(path).write_text(json_text(task_graph_to_dict(graph)))


def save_system_model(system: SystemModel, path: str | Path) -> None:
    Path(path).write_text(json_text(system_model_to_dict(system)))


def make_system_model(
    devices: Iterable[Device],
    channels: Iterable[Channel],
    relay: Mapping[tuple[DeviceRole, DeviceRole], DeviceRole] | None = None,
) -> SystemModel:
    """Assemble a SystemModel, defaulting the relay to hub-in-the-middle."""
    device_map = {d.role: d for d in devices}
    channel_map = {(c.src, c.dst): c for c in channels}
    if relay is None:
        relay = {}
        for k in ROLES:
            for l in ROLES:
                if k != l and (k, l) not in channel_map:
                    (m,) = [r for r in ROLES if r not in (k, l)]
                    relay[(k, l)] = m
    return SystemModel(devices=device_map, channels=channel_map, relay=dict(relay))
