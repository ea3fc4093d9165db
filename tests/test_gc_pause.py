"""The model builders and the solver run with the cyclic garbage
collector paused."""

import gc
import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import ehcopt
from conftest import (
    complete_dag,
    serial_200_graph,
    solve_searched,
    uav_forest_without_budgets,
    unbudgeted_system,
)
from ehcopt import presets
from ehcopt.etfg import transform
from ehcopt.generator import GenSpec, default_param_spec, generate_tfg, synthesize_params
from ehcopt.milp import Objective, build_model
from ehcopt.model import DeviceRole, task_graph_from_dict, task_graph_to_dict
from ehcopt.mps import model_to_lp, model_to_mps
from ehcopt.solver import SolveConfig, solve
from ehcopt.units import without_cyclic_gc


@without_cyclic_gc
def _collector_state(fail=False):
    if fail:
        raise RuntimeError("builder failed")
    return gc.isenabled()


def test_an_enabled_collector_is_paused_and_reenabled():
    assert gc.isenabled()
    assert _collector_state() is False
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="builder failed"):
        _collector_state(fail=True)
    assert gc.isenabled()


def test_a_disabled_collector_stays_disabled():
    gc.disable()
    try:
        assert _collector_state() is False
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_calls_keep_the_collector_paused_until_the_outermost_returns():
    @without_cyclic_gc
    def outer():
        inner = _collector_state()
        return inner, gc.isenabled()

    assert outer() == (False, False)
    assert gc.isenabled()


def test_the_wrapped_builders_leave_no_cyclic_garbage(monkeypatch):
    # the precondition of without_cyclic_gc: pausing the collector around
    # these builders and solve cannot retain memory, because they create no cycles
    system = presets.system_model("C1", "run1")
    spec = GenSpec("mixed", 200, 4, 4, Fraction(5, 100), Fraction(2, 100), seed=1)
    graph = synthesize_params(generate_tfg(spec), default_param_spec("C1"), system, spec.seed)
    document = task_graph_to_dict(graph)
    cap = presets.DEFAULT_LATENCY_THRESHOLD
    gc.collect()
    gc.disable()
    try:
        etfg = transform(task_graph_from_dict(document), system)
        arcs = etfg.arcs_by_dep  # the lazy expansion, outside build_model
        assert len(arcs) == len(graph.arcs)
        model = build_model(etfg, Objective.ENERGY, cap)
        kinds = {row.label.split("_")[0] for row in model.rows}
        assert {"enr", "lthr"} <= kinds  # every row builder ran
        exports = model_to_mps(model), model_to_lp(model)
        # the columns made on first read, after the writers (which make none)
        assert len(list(model.variables)) == model.num_variables
        assert len(dict(model.arc_col)) == etfg.arc_count
        del etfg, arcs, model, exports
        assert gc.collect() == 0
        # every route of solve, which runs with the collector paused too
        app = transform(presets.example_inspection_tfg(), system)
        serial = transform(serial_200_graph(), system)
        unbudgeted = transform(serial_200_graph(), unbudgeted_system())
        timed = SolveConfig(time_limit=0.2)
        allocations = [
            solve(transform(complete_dag(5), system), method="bruteforce"),
            solve(app, Objective.ENERGY, cap),  # the search alone
            solve(uav_forest_without_budgets()),  # the dual's one pass, the elimination DP
            solve_searched(monkeypatch, unbudgeted, config=timed),  # the search, the DP switched off
            solve(serial, config=timed),
            solve(serial, Objective.ENERGY, cap, timed),
        ]
        routes = [a.stats["solver"] for a in allocations]
        assert routes == ["bruteforce"] + ["branch-and-bound"] * 5
        assert [a.stats.get("dual_passes") for a in allocations[1:4]] == [None, 1, 0]
        assert all(a.stats["dual_passes"] for a in allocations[4:])  # the timed solves ran the dual
        del app, serial, unbudgeted, allocations
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_collector_is_paused_at_exactly_these_entry_points():
    wrapper = without_cyclic_gc(lambda: None).__code__

    def paused(value) -> bool:
        return getattr(value, "__code__", None) is wrapper

    found = set()
    for info in pkgutil.iter_modules(ehcopt.__path__):
        module = importlib.import_module(f"ehcopt.{info.name}")
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attribute, member in vars(value).items():
                    member = getattr(member, "func", member)  # a cached_property's function
                    if paused(member):
                        found.add(f"{name}.{attribute}")
            elif paused(value) and value.__module__ == module.__name__:
                found.add(name)
    assert found == {
        "task_graph_from_dict", "transform", "Etfg.arcs_by_dep", "build_model", "BilpModel.variables",
        "BilpModel.arc_col", "model_to_mps", "model_to_lp", "solve",
    }


# each paused entry point, or a function that runs only under one, and a
# callee it calls itself, reached through the entry point
_CALLEES = {
    "task_graph_from_dict": "ehcopt.model._check_schema",
    "transform": "ehcopt.etfg.require_valid",
    "Etfg.arcs_by_dep": "ehcopt.etfg.EtfgArc",
    "build_model": "ehcopt.milp.scaled_costs",
    "BilpModel.variables": "ehcopt.milp._variables",
    "BilpModel.arc_col": "ehcopt.milp._arc_columns",
    "value_texts": "ehcopt.mps.fmt12",
    "model_to_mps": "ehcopt.mps._mps_sections",
    "model_to_lp": "ehcopt.mps._lp_sections",
    "_Kernel.__init__": "ehcopt.solver._skeleton",
    "_dual": "ehcopt.solver._compile",
    "_search_tables": "ehcopt.solver.accumulate",
    "_branch_and_bound": "ehcopt.solver._dual",
}


@pytest.mark.parametrize("builder", list(_CALLEES))
def test_each_builder_runs_with_the_collector_paused(builder, monkeypatch):
    system = presets.system_model("C1", "run1")
    document = task_graph_to_dict(presets.example_inspection_tfg())
    cap = presets.DEFAULT_LATENCY_THRESHOLD
    expanded = transform(task_graph_from_dict(document), system)
    bilp = build_model(expanded, Objective.ENERGY, cap)
    unread = build_model(expanded, Objective.ENERGY, cap)  # its columns and texts are made here
    unexpanded = transform(expanded.graph, system)
    call = {
        "task_graph_from_dict": lambda: task_graph_from_dict(document),
        "transform": lambda: transform(expanded.graph, system),
        "Etfg.arcs_by_dep": lambda: unexpanded.arcs_by_dep,
        "build_model": lambda: build_model(expanded, Objective.ENERGY, cap),
        "BilpModel.variables": lambda: unread.variables[0],
        "BilpModel.arc_col": lambda: unread.arc_col[(1, DeviceRole.EDGE, 2, DeviceRole.EDGE)],
        "value_texts": lambda: model_to_lp(unread),
        "model_to_mps": lambda: model_to_mps(bilp),
        "model_to_lp": lambda: model_to_lp(bilp),
        "_Kernel.__init__": lambda: solve(expanded, Objective.ENERGY, cap),
        "_dual": lambda: solve(uav_forest_without_budgets()),  # the elimination DP
        "_search_tables": lambda: solve(expanded, Objective.ENERGY, cap),
        "_branch_and_bound": lambda: solve(expanded, Objective.ENERGY, cap, SolveConfig(time_limit=60)),
    }[builder]
    module, name = _CALLEES[builder].rsplit(".", 1)
    callee, states = getattr(importlib.import_module(module), name), []

    def recorded(*args, **kwargs):
        states.append(gc.isenabled())
        return callee(*args, **kwargs)

    monkeypatch.setattr(_CALLEES[builder], recorded)
    assert gc.isenabled()
    call()
    assert states and not any(states), f"{builder} ran with the collector enabled"
    assert gc.isenabled()
