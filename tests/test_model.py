import gc
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL, C, E, H, make_device, simple_task, two_task_chain, unbudgeted_system
from ehcopt import presets
from ehcopt.etfg import transform
from ehcopt.model import (
    Channel,
    Device,
    GraphValidationError,
    SystemModel,
    SystemModelError,
    Task,
    TaskGraph,
    json_text,
    system_model_from_dict,
    system_model_to_dict,
    task_graph_from_dict,
    task_graph_to_dict,
    topological_order,
    validate_task_graph,
)


def test_minimal_valid_chain():
    report = validate_task_graph(two_task_chain())
    assert report.ok
    assert str(report) == "valid"


def test_smallest_cycle_detected():
    g = TaskGraph(tasks=(simple_task(1), simple_task(2)), arcs=((1, 2), (2, 1)))
    report = validate_task_graph(g)
    assert any("cycle" in issue for issue in report.issues)


def test_empty_allowed_set_detected():
    bad = Task(id=1, memory=Fraction(0), storage=Fraction(0), output_data=Fraction(0), allowed=())
    report = validate_task_graph(TaskGraph(tasks=(bad,), arcs=()))
    assert any("empty allowed-device set" in issue for issue in report.issues)


def test_dangling_and_duplicate_and_self_arcs():
    g = TaskGraph(tasks=(simple_task(1), simple_task(2)), arcs=((1, 2), (1, 2), (1, 1), (1, 3)))
    issues = " | ".join(validate_task_graph(g).issues)
    assert "duplicate arc" in issues
    assert "self-arc" in issues
    assert "dangling arc endpoint" in issues


def test_missing_profile_entry_detected():
    t = Task(
        id=1,
        memory=Fraction(0),
        storage=Fraction(0),
        output_data=Fraction(0),
        allowed=ALL,
        latency={E: Fraction(1)},  # h, c missing
        power={r: Fraction(1) for r in ALL},
    )
    issues = " | ".join(validate_task_graph(TaskGraph(tasks=(t,), arcs=())).issues)
    assert "missing profile entry" in issues


@pytest.mark.parametrize(
    "tasks, issue",
    [
        ((simple_task(1), simple_task(1)), "duplicate task id 1"),
        ((), "graph has no tasks"),
        ((simple_task(1, memory=-1),), "task 1: negative memory"),
        ((simple_task(1, storage=-1),), "task 1: negative storage"),
        ((simple_task(1, data=-1),), "task 1: negative output data"),
        ((simple_task(1, latency={E: -1, H: 1, C: 1}),), "task 1: negative latency on e"),
        ((simple_task(1, power={E: 1, H: -1, C: 1}),), "task 1: negative power on h"),
        ((simple_task(1, power={E: 1, H: 1}),), "task 1: missing profile entry (power on c)"),
        ((simple_task(1, (E, H), latency={E: 1, H: 1, C: 1}),), "task 1: profile entry for disallowed device c"),
    ],
    ids=["duplicate-id", "no-tasks", "memory", "storage", "output-data", "latency", "power",
         "missing-power", "disallowed-device"],
)
def test_each_task_issue_is_reported(tasks, issue):
    assert issue in validate_task_graph(TaskGraph(tasks=tasks, arcs=())).issues


def test_ids_must_be_dense():
    g = TaskGraph(tasks=(simple_task(1), simple_task(3)), arcs=())
    assert any("dense" in issue for issue in validate_task_graph(g).issues)


def test_validation_is_pure():
    g = two_task_chain()
    first = validate_task_graph(g)
    second = validate_task_graph(g)
    assert first == second == validate_task_graph(g)


def test_topological_order_chain():
    g = two_task_chain()
    assert topological_order(g) == (1, 2)
    cyc = TaskGraph(tasks=(simple_task(1), simple_task(2)), arcs=((1, 2), (2, 1)))
    with pytest.raises(GraphValidationError):
        topological_order(cyc)


@settings(max_examples=40)
@given(st.data())
def test_random_dags_validate_and_back_edges_fail(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    tasks = tuple(simple_task(i) for i in range(1, n + 1))
    forward = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    picked = data.draw(st.lists(st.sampled_from(forward), max_size=12, unique=True))
    good = TaskGraph(tasks=tasks, arcs=tuple(picked))
    assert validate_task_graph(good).ok
    if picked:
        i, j = data.draw(st.sampled_from(picked))
        bad = TaskGraph(tasks=tasks, arcs=tuple(picked) + ((j, i),))
        assert any("cycle" in issue for issue in validate_task_graph(bad).issues)


def test_task_graph_json_round_trip():
    g = two_task_chain(data=10**6)
    assert task_graph_from_dict(task_graph_to_dict(g)) == g


def test_task_graph_schema_with_units():
    data = {
        "schema": 1,
        "tasks": [
            {
                "id": 1,
                "memory": "64MiB",
                "storage": "10MiB",
                "output_data": "2Mbit",
                "allowed": ["e", "h", "c"],
                "latency": {"e": "120ms", "h": "40ms", "c": "7ms"},
                "power": {"e": "4.2W", "h": "30W", "c": "200W"},
            }
        ],
        "arcs": [],
    }
    g = task_graph_from_dict(data)
    task = g.task(1)
    assert task.memory == 64 * 2**20
    assert task.output_data == 2 * 10**6
    assert task.latency[E] == Fraction(12, 100)


@pytest.mark.parametrize("bad", [1.9, 2.0, True, "2"], ids=["float", "integral-float", "bool", "str"])
def test_task_ids_and_arc_ends_must_be_json_integers(bad):
    # a float id or arc end used to be truncated by int(): [1.9, 2.2] became arc 1->2
    document = task_graph_to_dict(two_task_chain())
    document["arcs"] = [[1, bad]]
    with pytest.raises(GraphValidationError, match=r"arcs\[0\]: expected a JSON integer task id"):
        task_graph_from_dict(document)
    document = task_graph_to_dict(two_task_chain())
    document["tasks"][1]["id"] = bad
    with pytest.raises(GraphValidationError, match=r"tasks\[1\]: field 'id': expected a JSON integer"):
        task_graph_from_dict(document)


def test_schema_version_required():
    with pytest.raises(ValueError, match="schema"):
        task_graph_from_dict({"tasks": [], "arcs": []})
    with pytest.raises(ValueError, match="schema"):
        system_model_from_dict({"devices": {}, "channels": []})


def test_device_invariants():
    with pytest.raises(SystemModelError, match="idle"):
        Device(E, "x", None, None, None, idle_power=Fraction(5), max_power=Fraction(5))
    with pytest.raises(SystemModelError, match="budget"):
        Device(E, "x", Fraction(0), None, None, idle_power=Fraction(1), max_power=Fraction(5))


def test_channel_invariants():
    with pytest.raises(SystemModelError):
        Channel(E, E, Fraction(1), Fraction(0), Fraction(0))
    with pytest.raises(SystemModelError):
        Channel(E, H, Fraction(0), Fraction(0), Fraction(0))
    with pytest.raises(SystemModelError):
        Channel(E, H, Fraction(1), Fraction(-1), Fraction(0))


def test_system_requires_relay_coverage():
    devices = {r: make_device(r) for r in ALL}
    channels = {(c.src, c.dst): c for c in presets.channels("run1")}
    with pytest.raises(SystemModelError, match="neither"):
        SystemModel(devices=devices, channels=channels, relay={(E, C): H})  # c->e missing


def _system_error(devices=ALL, swap=None, drop=None, relay=None):
    """SystemModel over the run1 channels, with one thing broken."""
    channels = {(c.src, c.dst): c for c in presets.channels("run1")}
    if swap is not None:  # store the reverse channel under this pair's key
        channels[swap] = channels[swap[::-1]]
    channels.pop(drop, None)
    relay = {(E, C): H, (C, E): H} if relay is None else relay
    with pytest.raises(SystemModelError) as info:
        SystemModel(devices={r: make_device(r) for r in devices}, channels=channels, relay=relay)
    return str(info.value)


def test_each_system_model_error_is_raised():
    # "neither a channel nor a relay entry": test_system_requires_relay_coverage
    assert _system_error(devices=(E, H)) == "system model needs exactly one device per role e, h, c"
    assert _system_error(swap=(E, H)) == "channel stored under wrong key e->h"
    assert _system_error(relay={(E, C): H, (C, E): H, (E, H): C}) == "pair e->h is both directly connected and relayed"
    assert _system_error(relay={(E, C): E, (C, E): H}) == "relay for e->c must be a third device"
    assert _system_error(drop=(H, C)) == "relay e->h->c requires both direct hops"


def test_default_relay_routes_through_hub():
    per_bit = transform(two_task_chain(), unbudgeted_system()).per_bit
    assert per_bit[(E, C)].via == H
    assert per_bit[(C, E)].via == H
    assert per_bit[(E, H)].via is None
    assert per_bit[(H, H)].via is None


def test_channels_are_directional():
    system = presets.system_model("C1", "run1")
    assert system.channels[(E, H)].bandwidth == 15 * 10**6
    assert system.channels[(H, E)].bandwidth == 20 * 10**6


def test_system_model_json_round_trip():
    system = presets.system_model("C2", "run2")
    again = system_model_from_dict(system_model_to_dict(system))
    assert again == system


def test_frozen_types():
    g = two_task_chain()
    with pytest.raises(AttributeError):
        g.arcs = ()
    with pytest.raises(AttributeError):
        g.tasks[0].memory = Fraction(1)


def test_configuration_presets_match_published_budgets():
    c3 = presets.system_model("C3")
    assert c3.device(E).memory_budget == 2**30
    assert c3.device(E).energy_budget == Fraction("129.96") * 3600
    assert c3.device(H).storage_budget == 512 * 2**30
    assert c3.device(C).energy_budget is None
    c1 = presets.system_model("C1")
    assert c1.device(E).memory_budget == 8 * 2**30
    with pytest.raises(KeyError, match=r"unknown configuration 'C9'; expected one of \['C1', 'C2', 'C3'\]"):
        presets.system_model("C9")


def test_channel_profiles_complete_tables():
    run1 = {(c.src, c.dst): c for c in presets.channels("run1")}
    run2 = {(c.src, c.dst): c for c in presets.channels("run2")}
    M = 10**6
    uJ = Fraction(1, M)

    def check(table, key, mbit, tx, rx):
        ch = table[key]
        assert ch.bandwidth == Fraction(mbit) * M
        assert ch.tx_energy == Fraction(tx) * uJ
        assert ch.rx_energy == Fraction(rx) * uJ

    check(run1, (E, H), "15", "1.0", "0.70")
    check(run1, (H, E), "20", "1.0", "0.70")
    check(run1, (H, C), "25", "2.5", "1.25")
    check(run1, (C, H), "35", "2.5", "1.25")
    check(run2, (E, H), "10", "1.0", "0.7")
    check(run2, (H, E), "10", "1.0", "0.7")
    check(run2, (H, C), "0.5", "6.5", "4.5")
    check(run2, (C, H), "1.5", "6.5", "4.5")
    assert set(run1) == set(run2)
    with pytest.raises(KeyError):
        presets.channels("run3")


# json_text writes what json.dumps(..., indent=2, sort_keys=True) writes
_JSON_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300])
_JSON_STRINGS = st.text() | st.sampled_from(['"quoted" \\ back', "\x00\x1f\t\n\x7f", "é€😀\ud800"])
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(min_value=-2**80, max_value=2**80) | _JSON_FLOATS
    | _JSON_STRINGS | st.sampled_from(ALL)
)
# the keys of one object: of one type, of types that sort together, or of types that do not
_JSON_KEYS = st.sampled_from([
    _JSON_STRINGS,
    _JSON_STRINGS | st.sampled_from(ALL),
    st.integers(min_value=-2**80, max_value=2**80) | _JSON_FLOATS | st.booleans(),
    st.none(),
    st.none() | st.integers(),
])
_JSON_DOCUMENTS = st.recursive(
    _JSON_LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | _JSON_KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4))
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_DOCUMENTS)
def test_json_text_is_json_dumps_indented_and_sorted(document):
    try:
        expected = json.dumps(document, indent=2, sort_keys=True) + "\n"
    except TypeError:  # the keys of one object do not sort together
        with pytest.raises(TypeError):
            json_text(document)
    else:
        assert json_text(document) == expected


@pytest.mark.parametrize("value", [Fraction(1, 3), {1, 2}, {(1, 2): 3}], ids=["fraction", "set", "tuple-key"])
def test_json_text_rejects_what_json_dumps_rejects(value):
    document = {"tasks": [{"id": 1, "value": value}]}
    with pytest.raises(TypeError) as expected:
        json.dumps(document, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as raised:
        json_text(document)
    assert str(raised.value) == str(expected.value)


def test_json_text_leaves_no_cyclic_garbage():
    # it appends to one list through a module-level function, so reference
    # counting frees every piece
    document = task_graph_to_dict(presets.example_inspection_tfg())
    gc.collect()
    gc.disable()
    try:
        assert json_text(document)
        assert gc.collect() == 0
    finally:
        gc.enable()
