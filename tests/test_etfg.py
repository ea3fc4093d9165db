import dataclasses
import functools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALL,
    C,
    E,
    H,
    random_oracle_instance,
    simple_task,
    solve_searched,
    two_task_chain,
    uav_forest_without_budgets,
    unbudgeted_system,
    with_direct_edge_cloud,
)
from ehcopt import etfg as etfg_module
from ehcopt import presets
from ehcopt.analysis import run_baselines
from ehcopt.cli import main
from ehcopt.etfg import EtfgArc, PairCost, etfg_to_dict, etfg_to_dot, transform
from ehcopt.generator import STRUCTURES, GenSpec, default_param_spec, generate_tfg, synthesize_params
from ehcopt.milp import ONE, ConstraintRow, Objective, arc_tag, build_model, evaluate, model_stats
from ehcopt.model import (
    ROLES,
    GraphValidationError,
    TaskGraph,
    save_system_model,
    save_task_graph,
    validate_task_graph,
)
from ehcopt.mps import model_to_lp, model_to_mps
from ehcopt.solver import SolveConfig, _Kernel, solve

SYSTEM = unbudgeted_system("run1")


def per_bit(system=SYSTEM):
    return transform(two_task_chain(), system).per_bit


def scaled(bits, unit: PairCost) -> PairCost:
    """The cost of sending ``bits`` over the pair that costs ``unit`` per bit."""
    shares = tuple((device, bits * amount) for device, amount in unit.shares)
    return PairCost(bits * unit.latency, bits * unit.energy, shares, unit.via)


def reference_cost(bits, k, l, system) -> PairCost:
    """Sending ``bits`` from k to l, costed hop by hop from the system's
    channels and relays, without :attr:`Etfg.per_bit`."""
    if k == l:
        return PairCost(Fraction(0), Fraction(0), (), None)
    via = system.relay.get((k, l))
    hops = [(k, l)] if via is None else [(k, via), (via, l)]
    channels = [system.channels[hop] for hop in hops]
    latency = sum(bits / ch.bandwidth for ch in channels)
    energy = sum(bits * (ch.tx_energy + ch.rx_energy) for ch in channels)
    shares = [(k, bits * channels[0].tx_energy), (l, bits * channels[-1].rx_energy)]
    if via is not None:
        shares.insert(1, (via, bits * (channels[0].rx_energy + channels[1].tx_energy)))
    return PairCost(latency, energy, tuple(shares), via)


class TestIndicator:
    def test_edge_cloud_is_relayed_through_hub(self):
        assert per_bit()[(E, C)].via == H
        assert per_bit()[(C, E)].via == H

    def test_direct_pairs(self):
        assert per_bit()[(E, H)].via is None
        assert per_bit()[(H, C)].via is None

    def test_same_device(self):
        assert per_bit()[(H, H)].via is None


class TestCommLatency:
    def test_direct(self):
        # 1 Mbit over the 15 Mbit/s uplink
        assert 10**6 * per_bit()[(E, H)].latency == Fraction(1, 15)

    def test_same_device_is_free(self):
        assert 5 * 10**6 * per_bit()[(C, C)].latency == 0

    def test_relayed_adds_both_hops(self):
        # 1/15 s + 1/25 s
        assert 10**6 * per_bit()[(E, C)].latency == Fraction(8, 75)
        assert abs(float(10**6 * per_bit()[(E, C)].latency) - 0.10667) < 5e-5

    def test_directional(self):
        assert per_bit()[(E, H)].latency != per_bit()[(H, E)].latency

    def test_negative_data_rejected(self):
        # no transfer is costed for a negative output size: the graph is refused
        with pytest.raises(ValueError, match="negative output data"):
            transform(two_task_chain(data=-1), SYSTEM)


class TestCompEnergy:
    def test_zero_power(self):
        (node,) = transform(TaskGraph((simple_task(1, (E,), latency=123, power=0),), ()), SYSTEM).iter_nodes()
        assert node.energy == 0

    def test_product(self):
        (node,) = transform(TaskGraph((simple_task(1, (E,), latency=2, power=5),), ()), SYSTEM).iter_nodes()
        assert node.energy == 10
        task = simple_task(1, (H,), latency=Fraction(12, 100), power=Fraction(45, 10))
        (node,) = transform(TaskGraph((task,), ()), SYSTEM).iter_nodes()
        assert node.energy == Fraction(27, 50)  # 0.54 J


class TestCommEnergy:
    def test_direct(self):
        # (1.0 + 0.70) uJ/bit * 1 Mbit = 1.7 J
        assert 10**6 * per_bit()[(E, H)].energy == Fraction(17, 10)

    def test_same_device_is_free(self):
        assert 10**6 * per_bit()[(E, E)].energy == 0

    def test_relayed_charges_both_hops(self):
        # (1.0 + 0.7 + 2.5 + 1.25) uJ/bit * 1 Mbit = 5.45 J
        assert 10**6 * per_bit()[(E, C)].energy == Fraction(545, 100)


class TestEnergyShares:
    C1 = presets.system_model("C1", "run1")

    def test_direct_transfer(self):
        # 1 Mbit e->h: tx 1.0 uJ/bit on the edge, rx 0.70 uJ/bit on the hub
        assert scaled(10**6, per_bit(self.C1)[(E, H)]).shares == ((E, Fraction(1)), (H, Fraction(7, 10)))

    def test_relay_charges_rx_and_tx(self):
        # 1 Mbit e->c via h: the hub's share is rx(e->h) + tx(h->c) = 0.7 + 2.5 = 3.2 J
        assert scaled(10**6, per_bit(self.C1)[(E, C)]).shares == (
            (E, Fraction(1)),
            (H, Fraction(32, 10)),
            (C, Fraction(125, 100)),
        )

    def test_same_device_has_no_shares(self):
        assert per_bit(self.C1)[(C, C)].shares == ()

    def test_negative_data_rejected(self):
        with pytest.raises(ValueError, match="negative output data"):
            transform(two_task_chain(data=-1), self.C1)

    def test_comm_energy_is_the_sum_of_the_shares(self):
        for cost in per_bit(self.C1).values():
            assert cost.energy == sum(a for _, a in cost.shares)


class TestTransform:
    def test_two_free_tasks(self):
        etfg = transform(two_task_chain(), SYSTEM)
        assert etfg.node_count == 6
        assert etfg.arc_count == 9
        indirect = {a[:4] for a in etfg.iter_arcs() if a.indirect}
        assert indirect == {(1, E, 2, C), (1, C, 2, E)}
        assert all(a.via == H for a in etfg.iter_arcs() if a.indirect)

    def test_fixed_first_task(self):
        etfg = transform(two_task_chain(allowed_first=(E,)), SYSTEM)
        assert etfg.node_count == 4
        assert etfg.arc_count == 3
        assert {a[:4] for a in etfg.iter_arcs()} == {(1, E, 2, E), (1, E, 2, H), (1, E, 2, C)}
        assert {a[:4] for a in etfg.iter_arcs() if a.indirect} == {(1, E, 2, C)}

    def test_ten_free_tasks_eleven_arcs(self):
        tasks = tuple(simple_task(i, data=10**5) for i in range(1, 11))
        arcs = tuple((i, i + 1) for i in range(1, 10)) + ((1, 5), (2, 7))
        etfg = transform(TaskGraph(tasks=tasks, arcs=arcs), SYSTEM)
        assert etfg.node_count == 30  # 10 tasks x 3 devices
        assert etfg.arc_count == 99  # 11 dependencies x 9 pairs

    def test_node_energy_is_power_times_latency(self):
        etfg = transform(two_task_chain(), SYSTEM)
        for node in etfg.iter_nodes():
            assert node.energy == node.power * node.latency

    def test_same_device_arcs_cost_nothing(self):
        etfg = transform(two_task_chain(), SYSTEM)
        for arc in etfg.iter_arcs():
            if arc.src_device == arc.dst_device:
                assert arc.latency == 0 and arc.energy == 0

    def test_arc_costs_match_primitives(self):
        g = two_task_chain(data=3 * 10**6)
        etfg = transform(g, SYSTEM)
        for arc in etfg.iter_arcs():
            cost = reference_cost(3 * 10**6, arc.src_device, arc.dst_device, SYSTEM)
            assert (arc.latency, arc.energy) == (cost.latency, cost.energy)

    def test_rejects_invalid_graph(self):
        g = TaskGraph(tasks=(simple_task(1), simple_task(2)), arcs=((1, 2), (2, 1)))
        with pytest.raises(GraphValidationError):
            transform(g, SYSTEM)
        # the report is kept on the graph; the kept report still rejects it
        assert not validate_task_graph(g).ok
        with pytest.raises(GraphValidationError, match="cycle"):
            transform(g, SYSTEM)

    def test_deterministic_and_canonically_ordered(self):
        g = two_task_chain()
        first = etfg_to_dict(transform(g, SYSTEM))
        second = etfg_to_dict(transform(g, SYSTEM))
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        devices = [n["device"] for n in first["nodes"][:3]]
        assert devices == ["e", "h", "c"]


@settings(max_examples=40)
@given(st.data())
def test_size_law(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    subsets = [(E,), (H,), (C,), (E, H), (E, C), (H, C), ALL]
    allowed = [data.draw(st.sampled_from(subsets)) for _ in range(n)]
    tasks = tuple(simple_task(i + 1, allowed[i], data=10**4) for i in range(n))
    forward = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    arcs = tuple(data.draw(st.lists(st.sampled_from(forward), max_size=10, unique=True)) if forward else ())
    etfg = transform(TaskGraph(tasks=tasks, arcs=arcs), SYSTEM)
    sizes = {t.id: len(t.allowed) for t in tasks}
    assert etfg.node_count == sum(sizes.values())
    assert etfg.arc_count == sum(sizes[i] * sizes[j] for i, j in arcs)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(STRUCTURES),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from([(c, p) for c in ("C1", "C2", "C3") for p in ("run1", "run2")]),
    st.lists(st.fractions(min_value=0, max_value=10**7, max_denominator=1000), min_size=1, max_size=3),
    st.data(),
)
def test_expansion_matches_the_public_formulas(family, n, seed, config, sizes, data):
    system = presets.system_model(*config)
    graph = generate_tfg(GenSpec(family, n, 3, 3, seed=seed))
    graph = synthesize_params(graph, default_param_spec(config[0]), system, seed)
    # tasks 1 and 2 and any others drawn share output sizes, so costs made
    # for one task's size are reused by another's arcs
    picks = [0, 0] + data.draw(st.lists(st.integers(-1, len(sizes) - 1), min_size=n - 2, max_size=n - 2))
    tasks = tuple(
        dataclasses.replace(task, output_data=sizes[pick]) if pick >= 0 else task
        for task, pick in zip(graph.tasks, picks)
    )
    graph = TaskGraph(tasks=tasks, arcs=graph.arcs)
    etfg = transform(graph, system)

    for node in etfg.iter_nodes():
        task = graph.task(node.task)
        assert node.energy == task.power[node.device] * task.latency[node.device]
    for arc in etfg.iter_arcs():
        bits, k, l = graph.task(arc.src_task).output_data, arc.src_device, arc.dst_device
        cost = reference_cost(bits, k, l, system)
        assert (arc.latency, arc.energy, arc.shares, arc.via) == cost
        assert cost == scaled(bits, etfg.per_bit[(k, l)])
        assert arc.indirect == (arc.via is not None) == ((k, l) in system.relay)
    # every task may run anywhere, so edge->cloud arcs are relayed through the hub
    assert any(arc.indirect for arc in etfg.iter_arcs()) == bool(graph.arcs)


@given(st.integers(min_value=0, max_value=10**9))
def test_cost_linearity_in_data(d):
    once = {arc[:4]: arc for arc in transform(two_task_chain(data=d), SYSTEM).iter_arcs()}
    twice = {arc[:4]: arc for arc in transform(two_task_chain(data=2 * d), SYSTEM).iter_arcs()}
    for k, l in ((E, H), (E, C), (H, C), (C, E)):
        key = (1, k, 2, l)
        assert twice[key].latency == 2 * once[key].latency
        assert twice[key].energy == 2 * once[key].energy
    if d == 0:
        assert once[(1, E, 2, C)].latency == 0
        assert once[(1, E, 2, C)].energy == 0


def test_dot_export_marks_indirect_arcs():
    etfg = transform(two_task_chain(), SYSTEM)
    dot = etfg_to_dot(etfg)
    assert dot.count("style=dashed,color=orange") == 2
    assert dot.startswith("digraph")
    fixed = transform(two_task_chain(allowed_first=(E,)), SYSTEM)
    assert etfg_to_dot(fixed).count("style=dashed,color=orange") == 1


def test_json_export_fields():
    etfg = transform(two_task_chain(), SYSTEM)
    data = etfg_to_dict(etfg)
    assert len(data["nodes"]) == 6 and len(data["arcs"]) == 9
    relayed = [a for a in data["arcs"] if a["indirect"]]
    assert all(a["via"] == "h" for a in relayed)
    assert all(set(n) >= {"task", "device", "latency", "power", "energy"} for n in data["nodes"])


def _eager_arcs(etfg):
    """Every arc as the expansion defines it, built in full: per dependency
    in ``graph.arcs`` order, one arc per (source candidate, destination
    candidate), costed hop by hop by :func:`reference_cost`."""
    graph, system = etfg.graph, etfg.system
    arcs = {}
    for i, j in graph.arcs:
        bits = graph.task(i).output_data
        group = []
        for src in etfg.nodes_by_task[i]:
            for dst in etfg.nodes_by_task[j]:
                k, l = src.device, dst.device
                group.append(EtfgArc(i, k, j, l, *reference_cost(bits, k, l, system)))
        arcs[(i, j)] = tuple(group)
    return arcs


def _lazy_instances():
    """Fresh expansions: the bundled app on every system, random budgeted
    instances with non-integer output sizes, relayed and direct, and an
    unbudgeted forest (the DP's route)."""
    yield from (
        (presets.example_inspection_tfg(), presets.system_model(config, profile), presets.DEFAULT_LATENCY_THRESHOLD)
        for config in ("C1", "C2", "C3")
        for profile in ("run1", "run2")
    )
    for seed in range(6):
        generated, threshold = random_oracle_instance(seed, max_tasks=7)
        tasks = tuple(dataclasses.replace(t, output_data=t.output_data / 7) for t in generated.graph.tasks)
        system = with_direct_edge_cloud(generated.system) if seed % 2 else generated.system
        yield TaskGraph(tasks=tasks, arcs=generated.graph.arcs), system, threshold
    forest = uav_forest_without_budgets()
    yield forest.graph, forest.system, None


def _model_from_arcs(etfg, objective, threshold):
    """The model's objective, explicit rows, link records and node columns
    read from the expanded arcs, one :class:`EtfgArc` per arc column: each
    column's latency, energy and energy shares are its node's or its arc's
    fields."""
    nodes, arcs = list(etfg.iter_nodes()), list(etfg.iter_arcs())
    graph, system = etfg.graph, etfg.system
    node_col = {(node.task, node.device): col for col, node in enumerate(nodes)}
    arc_cols = list(enumerate(arcs, len(nodes)))

    def column_costs(latency: bool) -> dict:
        costs = [node.latency if latency else node.energy for node in nodes]
        costs += [arc.latency if latency else arc.energy for arc in arcs]
        return {col: cost for col, cost in enumerate(costs) if cost}

    head = [ConstraintRow(f"asg_{t.id}", {node_col[(t.id, r)]: ONE for r in t.allowed}, "E", ONE) for t in graph.tasks]
    dep_cols = {}
    for col, arc in arc_cols:
        dep_cols.setdefault((arc.src_task, arc.dst_task), []).append(col)
    for task in graph.tasks:
        children = graph.successors[task.id]
        if children:
            coeffs = {col: ONE for j in children for col in dep_cols[(task.id, j)]}
            head.append(ConstraintRow(f"odeg_{task.id}", coeffs, "E", Fraction(len(children))))
    links = [(col, node_col[arc[:2]], node_col[arc[2:4]], arc_tag(*arc[:4])) for col, arc in arc_cols]
    tail = []
    for family, quantity in (("mem", "memory"), ("sto", "storage")):
        for role in ROLES:
            budget = getattr(system.device(role), f"{quantity}_budget")
            if budget is not None:
                amounts = {t.id: getattr(t, quantity) for t in graph.tasks if role in t.allowed}
                coeffs = {node_col[(task, role)]: amount for task, amount in amounts.items() if amount}
                tail.append(ConstraintRow(f"{family}_{role.value}", coeffs, "L", budget))
    for role in ROLES:
        budget = system.device(role).energy_budget
        if budget is not None:
            coeffs = {col: node.energy for col, node in enumerate(nodes) if node.device == role and node.energy}
            for col, arc in arc_cols:
                coeffs.update((col, amount) for device, amount in arc.shares if device == role and amount)
            tail.append(ConstraintRow(f"enr_{role.value}", coeffs, "L", budget))
    if threshold is not None:
        tail.append(ConstraintRow("lthr", column_costs(True), "L", threshold))
    return column_costs(objective == "latency"), head, links, tail, node_col


def _ordered(objective, head, links, tail, node_col):
    """A model's parts as lists, so that dict key order is compared too."""
    rows = [(row.label, list(row.coeffs.items()), row.sense, row.rhs) for row in [*head, *tail]]
    return list(objective.items()), rows, list(links), list(node_col.items())


def test_build_model_equals_the_model_read_from_the_expanded_arcs():
    for graph, system, threshold in _lazy_instances():
        for objective, cap in (("latency", None), ("energy", None), ("energy", threshold)):
            model = build_model(transform(graph, system), objective, cap)
            built = _ordered(model.objective, model.rows.head, model.rows.links, model.rows.tail, model.node_col)
            assert built == _ordered(*_model_from_arcs(transform(graph, system), objective, cap))


def test_solves_baselines_kernels_and_counts_never_expand_the_arcs(monkeypatch, tmp_path):
    made = []
    monkeypatch.setattr(etfg_module, "EtfgArc", lambda *fields: made.append(fields) or EtfgArc(*fields))
    for n, (graph, system, threshold) in enumerate(_lazy_instances()):
        etfg = transform(graph, system)
        assignment = {t.id: t.allowed[-1] for t in graph.tasks}
        for run in (solve, functools.partial(solve_searched, monkeypatch)):  # the DP on, and off
            for config in (None, SolveConfig(time_limit=5)):
                run(etfg, "latency", None, config)
                run(etfg, "energy", threshold, config)
        run_baselines(etfg, "latency", threshold)
        run_baselines(etfg, "energy", threshold)
        _Kernel(etfg, Objective.ENERGY, threshold)
        evaluate(etfg, assignment, threshold)
        for objective, cap in (("latency", None), ("energy", threshold)):
            model = build_model(etfg, objective, cap)
            model_stats(model), model_to_mps(model), model_to_lp(model)
        # the command line, from files: export writes both texts, stats its counts
        tfg, config = tmp_path / f"tfg{n}.json", tmp_path / f"system{n}.json"
        save_task_graph(graph, tfg)
        save_system_model(system, config)
        for objective in ("latency", "energy"):
            common = [str(tfg), "--config", str(config), "--objective", objective]
            assert main(["export", *common, "--out", str(tmp_path / f"export{n}{objective}")]) == 0
            assert main(["stats", *common]) == 0
        counts = etfg.node_count, etfg.arc_count
        assert "arcs_by_dep" not in etfg.__dict__ and made == []
        assert counts[1] == sum(map(len, etfg.arcs_by_dep.values())) == len(list(etfg.iter_arcs())) == len(made)
        made.clear()


def test_the_arcs_on_first_read_are_the_eager_expansion():
    for graph, system, threshold in _lazy_instances():
        for first_read in (lambda etfg: next(etfg.iter_arcs(), None), etfg_to_dict):
            etfg = transform(graph, system)
            first_read(etfg)
            assert "arcs_by_dep" in etfg.__dict__
            eager = _eager_arcs(etfg)
            assert list(etfg.arcs_by_dep) == list(eager) == list(graph.arcs)
            assert list(etfg.arcs_by_dep.values()) == list(eager.values())
            assert list(etfg.iter_arcs()) == [arc for group in eager.values() for arc in group]
