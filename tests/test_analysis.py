import csv
import io
import json
from fractions import Fraction

import pytest

from conftest import (
    ALL,
    C,
    E,
    H,
    make_device,
    random_oracle_instance,
    simple_task,
    two_task_chain,
    unbudgeted_system,
    with_direct_edge_cloud,
)
from ehcopt import presets
from ehcopt.analysis import (
    CASE_ORDER,
    cases_to_csv,
    cases_to_json,
    extreme_assignment,
    run_baselines,
)
from ehcopt.etfg import transform
from ehcopt.milp import evaluate
from ehcopt.model import TaskGraph, make_system_model
from ehcopt.solver import solve_bruteforce


@pytest.fixture(scope="module")
def example_cases(example_app):
    return run_baselines(example_app, "latency", Fraction(8))


def test_cases_come_in_canonical_order(example_cases):
    assert tuple(c.kind for c in example_cases) == CASE_ORDER


def test_extremes_respect_fixed_tasks(example_cases):
    by_kind = {c.kind: c for c in example_cases}
    for kind, device in (("E", E), ("H", H), ("C", C)):
        assignment = by_kind[kind].assignment
        assert assignment[1] == E  # camera capture is pinned to the edge
        assert assignment[15] == H  # display is pinned to the hub
        assert all(assignment[t] == device for t in range(2, 15))


def test_all_free_graph_extreme_has_zero_comm():
    etfg = transform(two_task_chain(data=10**6), unbudgeted_system())
    case_e = run_baselines(etfg, "latency")[0]
    assert case_e.kind == "E"
    assert all(v == 0 for v in case_e.breakdown.comm_latency.values())
    assert all(v == 0 for v in case_e.breakdown.comm_energy.values())


def test_cloud_extreme_loads_three_channels(example_app):
    # first task pinned to e, last to h, everything else forced onto c:
    # data crosses e->h (relay first hop), h->c, and c->h
    case_c = run_baselines(example_app, "latency", Fraction(8))[2]
    assert case_c.kind == "C"
    b = case_c.breakdown
    assert b.comm_latency[(E, H)] > 0
    assert b.comm_latency[(H, C)] > 0
    assert b.comm_latency[(C, H)] > 0


def test_optimum_dominates_feasible_extremes(example_cases):
    by_kind = {c.kind: c for c in example_cases}
    optimum = by_kind["O_L"]
    assert optimum.feasible
    for kind in ("E", "H", "C"):
        case = by_kind[kind]
        if case.feasible:
            assert optimum.breakdown.total_latency <= case.breakdown.total_latency


def test_cross_objective_report(example_cases):
    by_kind = {c.kind: c for c in example_cases}
    o_l, o_e = by_kind["O_L"], by_kind["O_E"]
    assert o_l.breakdown.total_latency <= o_e.breakdown.total_latency
    assert o_e.breakdown.total_energy <= o_l.breakdown.total_energy
    assert o_l.assignment is not None and o_e.assignment is not None
    # with the default threshold the energy optimum still meets it
    assert o_e.breakdown.total_latency <= 8


def test_optimum_beats_every_feasible_point_small():
    for seed in (2, 9, 17):
        etfg, threshold = random_oracle_instance(seed, max_tasks=6)
        cases = run_baselines(etfg, "latency", threshold)
        by_kind = {c.kind: c for c in cases}
        bf = solve_bruteforce(etfg, "latency")
        if by_kind["O_L"].feasible:
            assert by_kind["O_L"].objective_value == bf.objective_value


def test_breakdown_conservation(example_app):
    for assignment in (
        {t: E if t != 15 else H for t in range(1, 16)},
        {t: (E, H, C)[t % 3] if t not in (1, 15) else (E if t == 1 else H) for t in range(1, 16)},
    ):
        b = evaluate(example_app, assignment)
        assert sum(b.comp_latency.values()) + sum(b.comm_latency.values()) == b.total_latency
        assert sum(b.comp_energy.values()) + sum(b.comm_energy.values()) == b.total_energy
        # per-device attribution (with relay shares) also adds up exactly
        assert sum(b.device_energy.values()) == b.total_energy


def test_infeasible_extreme_reported_not_dropped():
    devices = [make_device(E, memory=Fraction(50)), make_device(H), make_device(C)]
    system = make_system_model(devices, presets.channels("run1"))
    tasks = tuple(simple_task(i, ALL, latency=1, memory=100, data=0) for i in (1, 2))
    etfg = transform(TaskGraph(tasks=tasks, arcs=((1, 2),)), system)
    cases = run_baselines(etfg, "latency")
    case_e = cases[0]
    assert not case_e.feasible
    assert "memory budget exceeded on e" in case_e.detail
    assert len(cases) == 5  # still all five rows


def test_inapplicable_extreme():
    tasks = (
        simple_task(1, (E, H), latency=1, data=0),  # two devices: not fixed, excludes c
        simple_task(2, ALL, latency=1),
    )
    etfg = transform(TaskGraph(tasks=tasks, arcs=((1, 2),)), unbudgeted_system())
    assignment, reason = extreme_assignment(etfg, C)
    assert assignment is None and "task 1" in reason
    case_c = run_baselines(etfg, "latency")[2]
    assert not case_c.feasible
    assert "inapplicable" in case_c.detail


def test_csv_emission(example_cases):
    text = cases_to_csv(example_cases)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [r["case"] for r in rows] == list(CASE_ORDER)
    numeric = [r for r in rows if r["case"] == "O_L"][0]
    assert float(numeric["total_latency_s"]) > 0
    assert "comm_latency_eh_s" in numeric
    assert "device_energy_h_J" in numeric


def test_csv_has_a_column_per_channel_and_rows_add_up():
    # direct e->c and c->e channels: every channel gets a comm-latency
    # column, so each row's compute and comm columns sum to its total
    system = with_direct_edge_cloud(presets.system_model("C1", "run1"))
    etfg = transform(presets.example_inspection_tfg(), system)
    cases = run_baselines(etfg, "latency")
    assert cases[2].breakdown.comm_latency[(E, C)] > 0
    rows = list(csv.DictReader(io.StringIO(cases_to_csv(cases))))
    comm = [key for key in rows[0] if key.startswith("comm_latency_")]
    assert comm == [f"comm_latency_{pair}_s" for pair in ("eh", "ec", "he", "hc", "ce", "ch")]
    for row in rows:
        parts = [float(row[f"comp_latency_{d.value}_s"]) for d in ALL] + [float(row[key]) for key in comm]
        assert sum(parts) == pytest.approx(float(row["total_latency_s"]), rel=1e-12)


def test_json_emission(example_cases):
    data = json.loads(cases_to_json(example_cases))
    assert [c["case"] for c in data] == list(CASE_ORDER)
    assert all("breakdown" in c for c in data)
    o_e = data[-1]
    assert o_e["breakdown"]["feasible"] is True


def test_energy_optimum_consolidates_when_communication_dominates():
    """With cheap computation but expensive transfers, minimizing energy
    collapses onto fewer devices than minimizing latency does."""
    from ehcopt.model import TaskGraph

    tasks = (
        simple_task(1, ALL, latency={E: Fraction(1, 10), H: 5, C: 5}, power=2, data=2 * 10**7),
        simple_task(2, ALL, latency={E: 5, H: 5, C: Fraction(1, 20)}, power=2),
    )
    etfg = transform(TaskGraph(tasks=tasks, arcs=((1, 2),)), unbudgeted_system("run1"))
    by_kind = {c.kind: c for c in run_baselines(etfg)}
    o_l, o_e = by_kind["O_L"], by_kind["O_E"]
    # the latency optimum splits across devices despite the transfer...
    assert len(set(o_l.assignment.values())) == 2
    # ...while the energy optimum pays computation to avoid the radios
    assert len(set(o_e.assignment.values())) == 1
    assert len(set(o_e.assignment.values())) <= len(set(o_l.assignment.values()))
