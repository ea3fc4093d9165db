import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALL,
    C,
    E,
    H,
    make_device,
    random_oracle_instance,
    serial_200_graph,
    simple_task,
    two_task_chain,
    unbudgeted_system,
    with_cloud_relay,
    with_direct_edge_cloud,
)
from ehcopt import presets
from ehcopt.etfg import transform
from ehcopt.milp import (
    MINUS_ONE,
    ONE,
    ZERO,
    ConstraintRow,
    Objective,
    ObjectiveBreakdown,
    Variable,
    build_model,
    evaluate,
    model_stats,
    objective_value,
)
from ehcopt.model import ROLES, TaskGraph, make_system_model

C1 = presets.system_model("C1", "run1")


def _node(etfg, task, device):
    """The candidate node of ``task`` on ``device``."""
    return next(node for node in etfg.nodes_by_task[task] if node.device is device)


def test_two_free_task_model_shape():
    etfg = transform(two_task_chain(), C1)
    model = build_model(etfg, "latency")
    assert model.num_variables == 6 + 9 == 15
    labels = [row.label for row in model.rows]
    # 2 assignment + 1 out-degree + 27 linking + 3 mem + 3 sto + 2 energy
    assert labels[:3] == ["asg_1", "asg_2", "odeg_1"]
    assert sum(1 for l in labels if l.startswith("lnk")) == 27
    assert [l for l in labels if l.startswith("mem_")] == ["mem_e", "mem_h", "mem_c"]
    assert [l for l in labels if l.startswith("enr_")] == ["enr_e", "enr_h"]  # cloud unbounded
    assert len(model.rows) == 38


def test_fixed_task_model_shape():
    etfg = transform(two_task_chain(allowed_first=(E,)), C1)
    model = build_model(etfg, "latency")
    assert model.num_variables == 4 + 3 == 7


def test_row_senses_and_rhs():
    etfg = transform(two_task_chain(), C1)
    model = build_model(etfg, "latency")
    by_label = {row.label: row for row in model.rows}
    assert by_label["asg_1"].sense == "E" and by_label["asg_1"].rhs == 1
    assert by_label["odeg_1"].sense == "E" and by_label["odeg_1"].rhs == 1
    assert by_label["lnksrc_1e_2c"].sense == "L" and by_label["lnksrc_1e_2c"].rhs == 0
    assert by_label["lnkand_1e_2c"].rhs == 1
    assert by_label["mem_e"].rhs == 8 * 2**30
    assert by_label["enr_h"].rhs == Fraction(60) * 3600


def test_out_degree_rows_skip_sinks_but_count_all_children():
    tasks = tuple(simple_task(i, data=10**5) for i in range(1, 5))
    arcs = ((1, 2), (1, 3), (2, 4), (3, 4))
    etfg = transform(TaskGraph(tasks=tasks, arcs=arcs), C1)
    model = build_model(etfg, "latency")
    odeg = {row.label: row for row in model.rows if row.label.startswith("odeg_")}
    assert set(odeg) == {"odeg_1", "odeg_2", "odeg_3"}  # task 4 is the sink
    assert odeg["odeg_1"].rhs == 2
    assert len(odeg["odeg_1"].coeffs) == 18  # two dependencies x 9 arcs


def test_objective_coefficients_follow_the_metric():
    etfg = transform(two_task_chain(), C1)
    lat_model = build_model(etfg, "latency")
    enr_model = build_model(etfg, "energy", Fraction(8))
    node = next(etfg.iter_nodes())
    col = lat_model.node_col[(node.task, node.device)]
    assert lat_model.objective[col] == node.latency
    assert enr_model.objective[col] == node.energy
    relayed = next(a for a in etfg.iter_arcs() if a.indirect)
    acol = lat_model.arc_col[relayed[:4]]
    assert lat_model.objective[acol] == relayed.latency
    assert enr_model.objective[acol] == relayed.energy


def test_threshold_row_only_for_energy_objective():
    etfg = transform(two_task_chain(), C1)
    assert not any(r.label == "lthr" for r in build_model(etfg, "latency").rows)
    assert not any(r.label == "lthr" for r in build_model(etfg, "energy").rows)
    model = build_model(etfg, "energy", Fraction(8))
    row = next(r for r in model.rows if r.label == "lthr")
    assert row.sense == "L" and row.rhs == 8
    assert model.latency_threshold == 8
    with pytest.raises(ValueError):
        build_model(etfg, "energy", Fraction(0))


def test_a_latency_cap_under_the_latency_objective_is_rejected(example_app):
    # the cap used to be dropped: no lthr row and latency_threshold None
    with pytest.raises(ValueError, match="energy objective"):
        build_model(example_app, "latency", Fraction(1, 100))


def test_energy_budget_row_includes_relay_share():
    # data flows 1 -> 2; if task 1 sits on e and task 2 on c, the hub relays
    g = two_task_chain(data=10**6)
    etfg = transform(g, C1)
    model = build_model(etfg, "latency")
    rows = {r.label: r for r in model.rows}
    row = rows["enr_h"]
    relay_col = model.arc_col[(1, E, 2, C)]
    # relay share: D * (rx of e->h + tx of h->c) = 1 Mbit * (0.7 + 2.5) uJ/bit
    assert row.coeffs[relay_col] == Fraction(32, 10)
    # hub's own execution energy appears on its node columns
    node_col = model.node_col[(2, H)]
    assert row.coeffs[node_col] == _node(etfg, 2, H).energy
    # sender/receiver shares for a direct arc
    e_row = rows["enr_e"]
    direct_col = model.arc_col[(1, E, 2, H)]
    assert e_row.coeffs[direct_col] == Fraction(1)  # 1 Mbit * 1.0 uJ/bit tx


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), pick=st.integers(min_value=0))
def test_arc_shares_match_arc_energy_rows_and_evaluate(seed, pick):
    generated, _ = random_oracle_instance(seed, max_tasks=8)
    budgeted = make_system_model(
        [make_device(r, energy=Fraction(1)) for r in ALL], generated.system.channels.values()
    )
    rng = random.Random(pick)
    # relayed through the hub, and e<->h relayed through the cloud
    for system in (budgeted, with_cloud_relay(budgeted)):
        etfg = transform(generated.graph, system)
        for arc in etfg.iter_arcs():
            assert sum(amount for _, amount in arc.shares) == arc.energy
            devices = [device for device, _ in arc.shares]
            assert len(set(devices)) == len(devices)
            ends = () if arc.src_device == arc.dst_device else (arc.src_device, arc.via, arc.dst_device)
            assert devices == [device for device in ends if device is not None]

        model = build_model(etfg, "latency")
        rows = {d: next(r for r in model.rows if r.label == f"enr_{d.value}") for d in ALL}
        for _ in range(5):
            assignment = {t.id: rng.choice(t.allowed) for t in etfg.graph.tasks}
            selected = [model.node_col[(t, d)] for t, d in assignment.items()]
            selected += [model.arc_col[(i, assignment[i], j, assignment[j])] for i, j in etfg.graph.arcs]
            breakdown = evaluate(etfg, assignment)
            for d in ALL:
                assert sum(rows[d].coeffs.get(col, 0) for col in selected) == breakdown.device_energy[d]


def test_evaluate_totals_are_the_selected_nodes_and_arcs():
    # evaluate sums per channel; this sums the expanded graph's own node
    # and arc costs, over relayed and (with e<->c channels) direct pairs
    apps = [
        transform(presets.example_inspection_tfg(), presets.system_model(config, profile))
        for config in ("C1", "C2", "C3")
        for profile in ("run1", "run2")
    ]
    instances = apps + [random_oracle_instance(seed, max_tasks=9)[0] for seed in range(30)]
    instances += [transform(e.graph, with_direct_edge_cloud(e.system)) for e in instances]
    rng = random.Random(5)
    relayed = direct = 0
    for etfg in instances:
        arcs = {arc[:4]: arc for arc in etfg.iter_arcs()}
        for _ in range(5):
            assignment = {t.id: rng.choice(t.allowed) for t in etfg.graph.tasks}
            nodes = [_node(etfg, *item) for item in assignment.items()]
            chosen = [arcs[(i, assignment[i], j, assignment[j])] for i, j in etfg.graph.arcs]
            b = evaluate(etfg, assignment)
            assert b.total_latency == sum(n.latency for n in nodes) + sum(a.latency for a in chosen)
            assert b.total_energy == sum(n.energy for n in nodes) + sum(a.energy for a in chosen)
            relayed += sum(a.indirect for a in chosen)
            direct += sum(not a.indirect and {a.src_device, a.dst_device} == {E, C} for a in chosen)
    assert relayed > 0 and direct > 0


def _evaluate_per_arc(etfg, assignment, latency_threshold):
    """The breakdown summed arc by arc: each selected arc adds its hops'
    latency and energy to their channels and each hop's tx and rx energy
    to its ends, each task adds its node to its device."""
    graph, system = etfg.graph, etfg.system
    zero = Fraction(0)
    comp_latency, comp_energy, device_energy, memory, storage = ({r: zero for r in ROLES} for _ in range(5))
    comm_latency, comm_energy = ({pair: zero for pair in system.channels} for _ in range(2))
    for task in graph.tasks:
        node = _node(etfg, task.id, assignment[task.id])
        comp_latency[node.device] += node.latency
        comp_energy[node.device] += node.energy
        device_energy[node.device] += node.energy
        memory[node.device] += task.memory
        storage[node.device] += task.storage
    for i, j in graph.arcs:
        k, l = assignment[i], assignment[j]
        if k == l:
            continue
        data = graph.task(i).output_data
        via = system.relay.get((k, l))
        hops = ((k, l),) if via is None else ((k, via), (via, l))
        for hop in hops:
            ch = system.channels[hop]
            comm_latency[hop] += data / ch.bandwidth
            comm_energy[hop] += data * (ch.tx_energy + ch.rx_energy)
            device_energy[hop[0]] += data * ch.tx_energy
            device_energy[hop[1]] += data * ch.rx_energy
    total_latency = sum(comp_latency.values(), zero) + sum(comm_latency.values(), zero)
    violations = []
    for role in ROLES:
        dev = system.device(role)
        for use, budget, kind in (
            (memory, dev.memory_budget, "memory"),
            (storage, dev.storage_budget, "storage"),
            (device_energy, dev.energy_budget, "energy"),
        ):
            if budget is not None and use[role] > budget:
                violations.append(f"{kind} budget exceeded on {role.value}")
    return ObjectiveBreakdown(
        assignment=dict(assignment),
        total_latency=total_latency,
        total_energy=sum(comp_energy.values(), zero) + sum(comm_energy.values(), zero),
        comp_latency=comp_latency,
        comm_latency=comm_latency,
        comp_energy=comp_energy,
        comm_energy=comm_energy,
        device_energy=device_energy,
        memory_use=memory,
        storage_use=storage,
        violations=tuple(violations),
        latency_ok=None if latency_threshold is None else total_latency <= latency_threshold,
    )


@pytest.mark.parametrize(
    "route", [lambda system: system, with_direct_edge_cloud, with_cloud_relay], ids=["relayed", "direct", "cloud-relay"]
)
def test_evaluate_equals_the_per_arc_sums(route):
    """evaluate sums the data per device pair before costing it; with
    non-integer output sizes, metered devices and a latency cap, its
    breakdown is the per-arc one, to the last bit and in the same order."""
    rng = random.Random(21)
    crossed = feasible = infeasible = 0
    for seed in range(40):
        generated, threshold = random_oracle_instance(seed, max_tasks=9)
        tasks = tuple(
            dataclasses.replace(t, output_data=t.output_data * Fraction(rng.randint(1, 99), rng.choice((3, 7, 1024))))
            for t in generated.graph.tasks
        )
        etfg = transform(TaskGraph(tasks=tasks, arcs=generated.graph.arcs), route(generated.system))
        cap = threshold or Fraction(1)
        for _ in range(6):
            assignment = {t.id: rng.choice(t.allowed) for t in tasks}
            expected = _evaluate_per_arc(etfg, assignment, cap)
            breakdown = evaluate(etfg, assignment, cap)
            assert breakdown == expected, f"seed {seed}"
            assert json.dumps(breakdown.to_dict()) == json.dumps(expected.to_dict()), f"seed {seed}"
            crossed += sum(assignment[i] != assignment[j] for i, j in etfg.graph.arcs)
            feasible += breakdown.feasible
            infeasible += not breakdown.feasible
    assert crossed > 100 and feasible > 0 and infeasible > 0


def test_energy_budget_row_requires_finite_budget():
    # C1's cloud has no energy budget
    assert C1.device(C).energy_budget is None
    labels = [r.label for r in build_model(transform(two_task_chain(), C1), "latency").rows]
    assert "enr_c" not in labels and "enr_e" in labels


def test_single_fixed_task_energy_row_has_only_its_node():
    g = TaskGraph(tasks=(simple_task(1, (E,), latency=2, power=3),), arcs=())
    etfg = transform(g, C1)
    row = next(r for r in build_model(etfg, "latency").rows if r.label == "enr_e")
    assert row.coeffs == {0: Fraction(6)}


class TestEvaluate:
    def test_single_device_allocation_has_no_comm(self):
        etfg = transform(two_task_chain(), C1)
        b = evaluate(etfg, {1: E, 2: E})
        assert all(v == 0 for v in b.comm_latency.values())
        assert all(v == 0 for v in b.comm_energy.values())
        assert b.total_latency == sum(_node(etfg, i, E).latency for i in (1, 2))

    def test_direct_transfer_splits_energy(self):
        etfg = transform(two_task_chain(data=10**6), C1)
        b = evaluate(etfg, {1: E, 2: H})
        assert b.comm_latency[(E, H)] == Fraction(1, 15)
        assert b.comm_energy[(E, H)] == Fraction(17, 10)
        assert b.device_energy[E] == _node(etfg, 1, E).energy + 1  # tx share
        assert b.device_energy[H] == _node(etfg, 2, H).energy + Fraction(7, 10)

    def test_relay_charges_idle_hub(self):
        etfg = transform(two_task_chain(data=10**6), C1)
        b = evaluate(etfg, {1: E, 2: C})
        # nothing executes on the hub, yet it pays the relay share
        assert b.comp_energy[H] == 0
        assert b.device_energy[H] == Fraction(32, 10)
        assert b.total_latency == (
            _node(etfg, 1, E).latency + _node(etfg, 2, C).latency + Fraction(8, 75)
        )
        assert b.comm_latency[(E, H)] == Fraction(1, 15)
        assert b.comm_latency[(H, C)] == Fraction(1, 25)

    def test_rejects_disallowed_assignment(self):
        etfg = transform(two_task_chain(allowed_first=(E,)), C1)
        with pytest.raises(ValueError, match="may not run"):
            evaluate(etfg, {1: H, 2: H})
        with pytest.raises(ValueError, match="missing task"):
            evaluate(etfg, {1: E})

    def test_budget_violations_reported(self):
        devices = [
            make_device(E, memory=Fraction(1)),  # absurdly small
            make_device(H),
            make_device(C),
        ]
        system = make_system_model(devices, presets.channels("run1"))
        g = two_task_chain()
        g = TaskGraph(
            tasks=tuple(
                simple_task(t.id, t.allowed, latency=1, memory=100, data=0) for t in g.tasks
            ),
            arcs=g.arcs,
        )
        etfg = transform(g, system)
        b = evaluate(etfg, {1: E, 2: E})
        assert not b.feasible
        assert any("memory budget exceeded on e" in v for v in b.violations)

    def test_threshold_flag(self):
        etfg = transform(two_task_chain(), C1)
        b = evaluate(etfg, {1: E, 2: C}, latency_threshold=Fraction(1, 1000))
        assert b.latency_ok is False and not b.feasible
        b2 = evaluate(etfg, {1: E, 2: C}, latency_threshold=Fraction(1000))
        assert b2.latency_ok is True


def test_assignment_vector_satisfies_all_rows():
    """Fixing the node variables and deriving the arc variables as their
    AND must satisfy assignment, out-degree and linking rows, and the
    objective row must match the evaluator."""
    rng = random.Random(11)
    for seed in range(12):
        etfg, threshold = random_oracle_instance(seed, max_tasks=7)
        for objective in (Objective.LATENCY, Objective.ENERGY):
            model = build_model(etfg, objective, threshold if objective is Objective.ENERGY else None)
            assignment = {t.id: rng.choice(t.allowed) for t in etfg.graph.tasks}
            vector = [0] * model.num_variables
            for (task, role), col in model.node_col.items():
                vector[col] = 1 if assignment[task] == role else 0
            for (i, k, j, l), col in model.arc_col.items():
                vector[col] = 1 if assignment[i] == k and assignment[j] == l else 0
            chosen_arcs = 0
            for row in model.rows:
                value = sum(coeff * vector[col] for col, coeff in row.coeffs.items())
                if row.label.startswith(("asg_", "odeg_", "lnk")):
                    if row.sense == "E":
                        assert value == row.rhs, row.label
                    else:
                        assert value <= row.rhs, row.label
            chosen_arcs = sum(vector[col] for col in model.arc_col.values())
            assert chosen_arcs == len(etfg.graph.arcs)
            breakdown = evaluate(etfg, assignment)
            model_value = sum(coeff * vector[col] for col, coeff in model.objective.items())
            assert model_value == objective_value(breakdown, objective)


def test_scaling_latencies_scales_objective_and_keeps_argmin():
    from ehcopt.solver import solve_bruteforce

    base = two_task_chain(data=10**6)
    scaled = TaskGraph(
        tasks=tuple(
            simple_task(
                t.id,
                t.allowed,
                latency={r: 3 * v for r, v in t.latency.items()},
                power=t.power,
                data=t.output_data,
            )
            for t in base.tasks
        ),
        arcs=base.arcs,
    )
    # same channels scaled: divide data by 3? Instead scale bandwidth down by 3x
    from ehcopt.model import Channel

    slow = [
        Channel(ch.src, ch.dst, ch.bandwidth / 3, ch.tx_energy, ch.rx_energy)
        for ch in presets.channels("run1")
    ]
    system_scaled = make_system_model([make_device(r) for r in ALL], slow)
    plain = unbudgeted_system("run1")
    a = solve_bruteforce(transform(base, plain), "latency")
    b = solve_bruteforce(transform(scaled, system_scaled), "latency")
    assert b.objective_value == 3 * a.objective_value
    assert b.assignment == a.assignment


def test_stats_on_bundled_example(example_app):
    lat = model_stats(build_model(example_app, "latency"))
    enr = model_stats(build_model(example_app, "energy", Fraction(8)))
    assert lat["variables"] == 152
    assert lat["node_variables"] == 41 and lat["arc_variables"] == 111
    assert lat["logical_constraints_all_budgets"] == 149
    assert enr["logical_constraints_all_budgets"] == 150
    assert lat["logical_constraints"] == 148
    assert lat["algebraic_rows"] == 15 + 14 + 3 * 111 + 8
    assert lat["nonzeros"] == sum(len(r.coeffs) for r in build_model(example_app, "latency").rows)


def test_stats_count_rows_and_nonzeros_as_the_rows_do(example_app):
    serial = transform(serial_200_graph(), C1)
    for etfg in (example_app, serial):
        for objective, threshold in (("latency", None), ("energy", Fraction(8))):
            model = build_model(etfg, objective, threshold)
            stats = model_stats(model)
            rows = list(model.rows)
            assert stats["algebraic_rows"] == len(rows)
            assert stats["nonzeros"] == sum(len(row.coeffs) for row in rows)


def explicit_link_rows(model):
    """Each arc's three AND-link rows, written out one by one."""
    rows = []
    for src_task, src_device, dst_task, dst_device, *_ in model.etfg.iter_arcs():
        a = model.arc_col[(src_task, src_device, dst_task, dst_device)]
        s, d = model.node_col[(src_task, src_device)], model.node_col[(dst_task, dst_device)]
        tag = f"{src_task}{src_device.value}_{dst_task}{dst_device.value}"
        rows += [
            ConstraintRow(f"lnksrc_{tag}", {a: Fraction(1), s: Fraction(-1)}, "L", Fraction(0)),
            ConstraintRow(f"lnkdst_{tag}", {a: Fraction(1), d: Fraction(-1)}, "L", Fraction(0)),
            ConstraintRow(f"lnkand_{tag}", {a: Fraction(-1), s: Fraction(1), d: Fraction(1)}, "L", Fraction(1)),
        ]
    return rows


def test_rows_are_a_sequence_that_makes_link_rows_on_access(example_app):
    model = build_model(example_app, "energy", Fraction(8))
    rows = model.rows
    links = explicit_link_rows(model)
    expected = [*rows.head, *links, *rows.tail]
    assert {row.label.split("_")[0] for row in rows.head} == {"asg", "odeg"}
    assert [row.label for row in rows.tail] == [
        "mem_e", "mem_h", "mem_c", "sto_e", "sto_h", "sto_c", "enr_e", "enr_h", "lthr"
    ]
    assert len(rows) == len(expected) == 15 + 14 + 3 * 111 + 9
    assert list(rows) == expected
    # the link rows' values are the module's constants, whose texts the writers' table holds by id
    start = len(rows.head)
    for row in list(rows)[start : start + len(links)]:
        assert all(value is ONE or value is MINUS_ONE for value in row.coeffs.values())
        assert row.rhs is (ONE if row.label.startswith("lnkand_") else ZERO)


def eager_columns(etfg):
    """``node_col``, ``arc_col`` and ``variables`` made at once from the
    expanded graph, as build_model once made them: nodes, then arcs."""
    nodes, arcs = list(etfg.iter_nodes()), list(etfg.iter_arcs())
    offset = len(nodes)
    node_col = {(n[0], n[1]): i for i, n in enumerate(nodes)}
    arc_col = {a[:4]: offset + i for i, a in enumerate(arcs)}
    variables = [Variable("node", i, (n[0],), (n[1],)) for i, n in enumerate(nodes)]
    variables += [Variable("arc", offset + i, (a[0], a[2]), (a[1], a[3])) for i, a in enumerate(arcs)]
    return node_col, arc_col, variables


def test_columns_made_on_first_read_equal_the_eager_ones(example_app):
    etfgs = [example_app, transform(serial_200_graph(), C1)]
    etfgs += [random_oracle_instance(seed)[0] for seed in range(20)]
    for etfg in etfgs:
        model = build_model(etfg, "latency")
        node_col, arc_col, variables = eager_columns(etfg)
        assert model.node_col == node_col
        # the lengths and the names need no variable
        assert model.num_variables == len(variables)
        assert model.column_names() == [v.name for v in variables]
        assert "variables" not in vars(model) and "arc_col" not in vars(model)
        assert len(model.arc_col) == len(arc_col)
        assert list(model.arc_col.items()) == list(arc_col.items())  # in column order
        assert model.arc_col == arc_col
        assert len(model.variables) == len(variables)
        assert list(model.variables) == variables
        assert model.column_names() == [v.name for v in model.variables]
        # one (task,) per task, one (device,) per device, one pair per dependency and per device pair
        for part in ("tasks", "devices"):
            made = [getattr(v, part) for v in model.variables]
            assert len({id(t) for t in made}) == len(set(made)), part
    with pytest.raises(TypeError):
        model.arc_col[next(iter(arc_col))] = 0
    with pytest.raises(TypeError):
        model.variables[0] = variables[0]


def test_stats_on_serial_chain_with_shortcuts():
    # 10-task chain with one forward shortcut per eligible node: 17 arcs,
    # single sink, everything free
    tasks = tuple(simple_task(i, data=10**5) for i in range(1, 11))
    arcs = tuple((i, i + 1) for i in range(1, 10)) + tuple((i, i + 2) for i in range(1, 9))
    etfg = transform(TaskGraph(tasks=tasks, arcs=arcs), C1)
    model = build_model(etfg, "latency")
    stats = model_stats(model)
    assert (etfg.node_count, etfg.arc_count) == (30, 153)
    assert stats["variables"] == 183
    assert stats["logical_constraints_all_budgets"] == 181  # 10 + 9 + 153 + 9


def test_energy_budget_rows_present_under_both_objectives():
    etfg = transform(two_task_chain(), C1)
    for objective in ("latency", "energy"):
        labels = [r.label for r in build_model(etfg, objective).rows]
        assert "enr_e" in labels and "enr_h" in labels
