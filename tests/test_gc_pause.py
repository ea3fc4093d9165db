"""The model builders run with the cyclic garbage collector paused."""

import gc
import importlib
import math
from fractions import Fraction

import pytest

from ehcopt import dual, presets, solver
from ehcopt.etfg import transform
from ehcopt.generator import GenSpec, default_param_spec, generate_tfg, synthesize_params
from ehcopt.milp import Objective, build_model
from ehcopt.model import DeviceRole, task_graph_from_dict, task_graph_to_dict
from ehcopt.mps import model_to_lp, model_to_mps, value_texts
from ehcopt.solver import _Kernel
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


def test_the_wrapped_builders_leave_no_cyclic_garbage():
    # the precondition of without_cyclic_gc: pausing the collector around
    # these builders cannot retain memory, because they create no cycles
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
        tables = _Kernel(etfg, Objective.ENERGY, cap)
        del etfg, arcs, model, exports, tables
        assert gc.collect() == 0
    finally:
        gc.enable()


# each builder, and a callee it calls itself, outside any other builder
_CALLEES = {
    "task_graph_from_dict": "ehcopt.model._check_schema",
    "transform": "ehcopt.etfg.require_valid",
    "Etfg.arcs_by_dep": "ehcopt.etfg.EtfgArc",
    "build_model": "ehcopt.milp._column_costs",
    "BilpModel.variables": "ehcopt.milp._variables",
    "BilpModel.arc_col": "ehcopt.milp._arc_columns",
    "value_texts": "ehcopt.mps.fmt12",
    "model_to_mps": "ehcopt.mps._mps_sections",
    "model_to_lp": "ehcopt.mps._lp_sections",
    "_Kernel.__init__": "ehcopt.solver._skeleton",
    "_Kernel.schedule": "ehcopt.solver._compile",
    "_search_tables": "ehcopt.solver._largest",
    "dual.search": "ehcopt.dual._eliminate",
}


@pytest.mark.parametrize("builder", list(_CALLEES))
def test_each_builder_runs_with_the_collector_paused(builder, monkeypatch):
    system = presets.system_model("C1", "run1")
    document = task_graph_to_dict(presets.example_inspection_tfg())
    cap = presets.DEFAULT_LATENCY_THRESHOLD
    expanded = transform(task_graph_from_dict(document), system)
    bilp = build_model(expanded, Objective.ENERGY, cap)
    unread = build_model(expanded, Objective.ENERGY, cap)  # its columns and texts are made here
    kernel = _Kernel(expanded, Objective.ENERGY, cap)
    unexpanded = transform(expanded.graph, system)
    call = {
        "task_graph_from_dict": lambda: task_graph_from_dict(document),
        "transform": lambda: transform(expanded.graph, system),
        "Etfg.arcs_by_dep": lambda: unexpanded.arcs_by_dep,
        "build_model": lambda: build_model(expanded, Objective.ENERGY, cap),
        "BilpModel.variables": lambda: unread.variables[0],
        "BilpModel.arc_col": lambda: unread.arc_col[(1, DeviceRole.EDGE, 2, DeviceRole.EDGE)],
        "value_texts": lambda: value_texts(unread),
        "model_to_mps": lambda: model_to_mps(bilp),
        "model_to_lp": lambda: model_to_lp(bilp),
        "_Kernel.__init__": lambda: _Kernel(expanded, Objective.ENERGY, cap),
        "_Kernel.schedule": lambda: _Kernel(expanded, Objective.ENERGY, cap).schedule,
        "_search_tables": lambda: solver._search_tables(kernel),
        "dual.search": lambda: dual.search(kernel, math.inf),
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
