import hashlib
import json
import time
from pathlib import Path

import pytest

from conftest import complete_dag, random_tree_instance, serial_200_graph, uav_forest_without_budgets, unbudgeted_system
from mps_text import read_mps
import ehcopt.model
from ehcopt import presets
from ehcopt.cli import build_parser, main
from ehcopt.generator import default_param_spec
from ehcopt.model import (
    save_system_model,
    save_task_graph,
    system_model_to_dict,
    task_graph_to_dict,
)


@pytest.fixture()
def example_tfg(tmp_path):
    path = tmp_path / "app.json"
    save_task_graph(presets.example_inspection_tfg(), path)
    return str(path)


def read_json(path):
    return json.loads(Path(path).read_text())


def test_transform_command(example_tfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["transform", example_tfg, "--config", "C1", "--out", str(out)])
    assert code == 0
    etfg = read_json(out / "etfg.json")
    assert len(etfg["nodes"]) == 41 and len(etfg["arcs"]) == 111
    dot = (out / "etfg.dot").read_text()
    assert dot.count("style=dashed,color=orange") == sum(1 for a in etfg["arcs"] if a["indirect"])
    assert "41 candidate nodes" in capsys.readouterr().out


def test_transform_rejects_cyclic_graph(tmp_path, capsys):
    bad = {
        "schema": 1,
        "tasks": [
            {"id": 1, "memory": 0, "storage": 0, "output_data": 0, "allowed": ["e"],
             "latency": {"e": 1}, "power": {"e": 1}},
            {"id": 2, "memory": 0, "storage": 0, "output_data": 0, "allowed": ["e"],
             "latency": {"e": 1}, "power": {"e": 1}},
        ],
        "arcs": [[1, 2], [2, 1]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["transform", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "cycle" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["transform", "solve", "baseline", "export", "stats"])
def test_invalid_graph_exits_2_in_every_command(command, tmp_path, capsys):
    graph = task_graph_to_dict(presets.example_inspection_tfg())
    graph["arcs"].append([15, 1])  # closes a cycle through the whole app
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(graph))
    out = tmp_path / "o"
    assert main([command, str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: invalid task graph: cycle detected among arcs\n"
    assert not out.exists()


def test_argument_errors_and_help_return_argparse_codes(capsys):
    # in process, main returns the code argparse exits with instead of raising it
    assert main(["solve", "app.json", "--objective", "speed"]) == 2
    assert "invalid choice: 'speed'" in capsys.readouterr().err
    assert main(["export", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_solve_command_deterministic(example_tfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", example_tfg, "--config", "C1", "--objective", "latency",
                 "--out", str(out1)]) == 0
    assert main(["solve", example_tfg, "--config", "C1", "--objective", "latency",
                 "--out", str(out2)]) == 0
    first = (out1 / "allocation.json").read_bytes()
    second = (out2 / "allocation.json").read_bytes()
    assert first == second
    allocation = read_json(out1 / "allocation.json")
    assert allocation["status"] == "proven-optimal"
    assert allocation["assignment"]["1"] == "e"
    assert allocation["assignment"]["15"] == "h"
    stats = read_json(out1 / "solver_stats.json")
    assert stats["solver"] == "branch-and-bound"


def test_solve_energy_uses_default_threshold(example_tfg, tmp_path):
    out = tmp_path / "o"
    assert main(["solve", example_tfg, "--objective", "energy", "--out", str(out)]) == 0
    allocation = read_json(out / "allocation.json")
    assert allocation["breakdown"]["latency_ok"] is True
    assert allocation["breakdown"]["total_latency"] <= 8.0


def test_solve_infeasible_exit_code(tmp_path):
    graph = {
        "schema": 1,
        "tasks": [{"id": 1, "memory": "64MiB", "storage": 0, "output_data": 0,
                   "allowed": ["e"], "latency": {"e": 1}, "power": {"e": 1}}],
        "arcs": [],
    }
    tfg = tmp_path / "t.json"
    tfg.write_text(json.dumps(graph))
    system = system_model_to_dict(presets.system_model("C1"))
    system["devices"]["e"]["memory_budget"] = "1MiB"
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps(system))
    code = main(["solve", str(tfg), "--config", str(sys_path), "--out", str(tmp_path / "o")])
    assert code == 3


def test_solve_time_limit_exit_code(tmp_path):
    # pinned tasks force cross-device traffic, which keeps the bound loose
    gen_out = tmp_path / "bench"
    assert main(["generate", "--structure", "mixed", "--nodes", "400",
                 "--max-in-degree", "4", "--max-out-degree", "4",
                 "--fixed-edge", "0.3", "--fixed-hub", "0.3",
                 "--seed", "5", "--out", str(gen_out)]) == 0
    code = main(["solve", str(gen_out / "tfg.json"), "--config", "C1",
                 "--channel-profile", "run2",
                 "--time-limit", "0.3", "--out", str(tmp_path / "o")])
    assert code == 4
    allocation = read_json(tmp_path / "o" / "allocation.json")
    assert allocation["status"] == "incumbent-with-gap"
    assert allocation["gap"] is not None


def test_generate_is_byte_identical(tmp_path):
    args = ["generate", "--structure", "serial", "--nodes", "10", "--max-in-degree", "2",
            "--max-out-degree", "2", "--seed", "1"]
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "tfg.json").read_bytes() == (out2 / "tfg.json").read_bytes()
    assert (out1 / "meta.json").read_bytes() == (out2 / "meta.json").read_bytes()
    meta = read_json(out1 / "meta.json")
    assert meta["statistics"]["nodes"] == 10
    assert meta["statistics"]["depth"] == 10
    assert meta["statistics"]["max_width"] == 1
    assert meta["genspec"]["seed"] == 1


def test_generated_benchmark_solves(tmp_path):
    gen_out = tmp_path / "bench"
    assert main(["generate", "--structure", "parallel", "--nodes", "8", "--seed", "3",
                 "--fixed-edge", "0.1", "--out", str(gen_out)]) == 0
    code = main(["solve", str(gen_out / "tfg.json"), "--config", "C2",
                 "--solver", "bruteforce", "--out", str(tmp_path / "s")])
    assert code == 0


def test_export_command(example_tfg, tmp_path):
    out = tmp_path / "x"
    assert main(["export", example_tfg, "--config", "C1", "--format", "both",
                 "--out", str(out)]) == 0
    parsed = read_mps((out / "model.mps").read_text())
    assert parsed.num_columns == 152
    assert (out / "model.lp").read_text().startswith("\\ objective: latency")


def test_stats_command(example_tfg, tmp_path):
    assert main(["stats", example_tfg, "--config", "C1", "--objective", "energy",
                 "--lthr", "8000ms", "--out", str(tmp_path)]) == 0
    data = read_json(tmp_path / "model_stats.json")
    assert data["variables"] == 152
    assert data["logical_constraints_all_budgets"] == 150


def test_stats_stdout_is_one_json_document_or_the_wrote_line(example_tfg, tmp_path, capsys):
    assert main(["stats", example_tfg, "--config", "C1"]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["variables"] == 152  # the whole of stdout parses
    out = tmp_path / "s"
    assert main(["stats", example_tfg, "--config", "C1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'model_stats.json'}\n"
    assert (out / "model_stats.json").read_text() == printed


def test_baseline_command(example_tfg, tmp_path):
    out = tmp_path / "b"
    assert main(["baseline", example_tfg, "--config", "C3", "--out", str(out)]) == 0
    text = (out / "baseline.csv").read_text()
    assert text.splitlines()[0].startswith("case,")
    cases = read_json(out / "baseline.json")
    assert [c["case"] for c in cases] == ["E", "H", "C", "O_L", "O_E"]


def test_channel_profile_changes_only_channels(example_tfg, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["transform", example_tfg, "--config", "C1", "--channel-profile", "run1",
          "--out", str(out1)])
    main(["transform", example_tfg, "--config", "C1", "--channel-profile", "run2",
          "--out", str(out2)])
    a, b = read_json(out1 / "etfg.json"), read_json(out2 / "etfg.json")
    assert a["nodes"] == b["nodes"]  # computation side untouched
    assert a["arcs"] != b["arcs"]  # transfer costs differ
    assert len(a["arcs"]) == len(b["arcs"])


def test_channel_profile_applies_to_a_system_file(example_tfg, tmp_path):
    system = tmp_path / "c1.json"
    save_system_model(presets.system_model("C1", "run1"), system)
    out1, out2 = tmp_path / "file", tmp_path / "preset"
    assert main(["solve", example_tfg, "--config", str(system), "--channel-profile", "run2",
                 "--out", str(out1)]) == 0
    assert main(["solve", example_tfg, "--config", "C1", "--channel-profile", "run2",
                 "--out", str(out2)]) == 0
    assert (out1 / "allocation.json").read_bytes() == (out2 / "allocation.json").read_bytes()


def test_unknown_config_fails_cleanly(example_tfg, tmp_path, capsys):
    code = main(["solve", example_tfg, "--config", "/nonexistent.json",
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_generate_with_custom_param_ranges(tmp_path):
    from ehcopt.generator import default_param_spec

    spec = default_param_spec("C2").to_dict()
    spec["data_range"] = [1000.0, 2000.0]  # tiny transfers
    params = tmp_path / "params.json"
    params.write_text(json.dumps(spec))
    out = tmp_path / "g"
    assert main(["generate", "--structure", "serial", "--nodes", "6", "--seed", "2",
                 "--params", str(params), "--out", str(out)]) == 0
    graph = read_json(out / "tfg.json")
    assert all(1000 <= t["output_data"] <= 2000 for t in graph["tasks"])
    meta = read_json(out / "meta.json")
    assert meta["paramspec"]["data_range"] == [1000.0, 2000.0]


def _refuses_tree_dp(argv, out, capsys, method="tree-dp"):
    """``--solver tree-dp`` (or ``bnb``) is no method: argparse refuses it
    with code 2 before anything is written."""
    assert main(argv + ["--solver", method, "--out", str(out)]) == 2
    assert f"invalid choice: '{method}'" in capsys.readouterr().err
    assert not out.exists()


def test_forced_tree_dp_with_a_cap_exits_2(tmp_path, capsys):
    etfg = uav_forest_without_budgets()
    tfg, sys_path = tmp_path / "forest.json", tmp_path / "sys.json"
    save_task_graph(etfg.graph, tfg)
    save_system_model(etfg.system, sys_path)
    base = ["solve", str(tfg), "--config", str(sys_path), "--objective", "energy"]
    _refuses_tree_dp(base + ["--lthr", "500ms"], tmp_path / "a", capsys)
    _refuses_tree_dp(base, tmp_path / "b", capsys)  # the default 8 s cap
    # auto honours the cap: branch and bound proves it infeasible
    assert main(base + ["--lthr", "500ms", "--out", str(tmp_path / "c")]) == 3
    assert read_json(tmp_path / "c" / "solver_stats.json")["solver"] == "branch-and-bound"


def test_forced_tree_dp_with_a_time_limit_exits_2(tmp_path, capsys):
    etfg = random_tree_instance(3)
    tfg, sys_path = tmp_path / "tree.json", tmp_path / "sys.json"
    save_task_graph(etfg.graph, tfg)
    save_system_model(etfg.system, sys_path)
    base = ["solve", str(tfg), "--config", str(sys_path), "--time-limit"]
    _refuses_tree_dp(base + ["5"], tmp_path / "a", capsys)
    # with time to spare the dual's one pass, the DP, proves the optimum
    assert main(base + ["5", "--out", str(tmp_path / "b")]) == 0
    stats = read_json(tmp_path / "b" / "solver_stats.json")
    assert (stats["dual_passes"], stats["nodes_explored"]) == (1, 0)
    # past the deadline the dual starts no pass, and the search proves it;
    # the DP used to run after the deadline
    assert main(base + ["1e-9", "--out", str(tmp_path / "c")]) == 0
    stats = read_json(tmp_path / "c" / "solver_stats.json")
    assert (stats["dual_passes"], stats["root_bound"]) == (0, "additive") and stats["nodes_explored"] > 0
    assert read_json(tmp_path / "c" / "allocation.json")["objective_value"] == read_json(
        tmp_path / "b" / "allocation.json")["objective_value"]


def test_the_bnb_solver_exits_2(example_tfg, tmp_path, capsys):
    # bnb forced branch and bound past the DP, which is now the first pass
    # of the dual inside branch and bound: auto is that one route
    _refuses_tree_dp(["solve", example_tfg, "--config", "C1"], tmp_path / "a", capsys, method="bnb")


def test_forced_tree_dp_over_the_state_limit_exits_2(tmp_path, capsys):
    # a 15-task clique without budgets: the DP would need over 3^15 states
    tfg, sys_path = tmp_path / "clique.json", tmp_path / "sys.json"
    save_task_graph(complete_dag(15), tfg)
    save_system_model(unbudgeted_system(), sys_path)
    base = ["solve", str(tfg), "--config", str(sys_path)]
    _refuses_tree_dp(base, tmp_path / "a", capsys)
    assert main(base + ["--out", str(tmp_path / "b")]) == 0
    assert read_json(tmp_path / "b" / "solver_stats.json")["solver"] == "branch-and-bound"


def _without(document: dict, *path):
    """Deep copy of ``document`` with the field at ``path`` removed."""
    document = json.loads(json.dumps(document))
    *parents, key = path
    entry = document
    for step in parents:
        entry = entry[step]
    del entry[key]
    return document


def _with(document: dict, value, *path):
    """Deep copy of ``document`` with the field at ``path`` set to ``value``."""
    document = json.loads(json.dumps(document))
    *parents, key = path
    entry = document
    for step in parents:
        entry = entry[step]
    entry[key] = value
    return document


_APP = task_graph_to_dict(presets.example_inspection_tfg())
_C1 = system_model_to_dict(presets.system_model("C1", "run1"))


@pytest.mark.parametrize(
    "tfg, config, message",
    [
        (_without(_APP, "tasks"), None, "task graph file: missing required field 'tasks'"),
        ([_APP], None, "task graph file: expected a JSON object, got list"),
        (_without(_APP, "tasks", 2, "memory"), None,
         "task graph file: tasks[2]: missing required field 'memory'"),
        (_APP, _without(_C1, "devices"), "system model file: missing required field 'devices'"),
        (_with(_APP, [5], "arcs"), None,
         "task graph file: arcs: expected a JSON array of [from, to] task id pairs"),
        (_with(_APP, 5, "tasks"), None, "task graph file: tasks: expected a JSON array, got int"),
        (_with(_APP, 3, "tasks", 1, "allowed"), None,
         "task graph file: tasks[1]: field 'allowed': expected a JSON array, got int"),
        (_with(_APP, ["e"], "tasks", 0, "latency"), None,
         "task graph file: tasks[0]: field 'latency': expected a JSON object, got list"),
        (_APP, _with(_C1, 5, "channels"), "system model file: channels: expected a JSON array, got int"),
        (_APP, _with(_C1, ["h"], "relay"), "system model file: relay: expected a JSON object, got list"),
        (_with(_APP, [[1.9, 2.2]] + _APP["arcs"][1:], "arcs"), None,
         "task graph file: arcs[0]: expected a JSON integer task id, got float"),
        (_with(_APP, "3", "tasks", 2, "id"), None,
         "task graph file: tasks[2]: field 'id': expected a JSON integer task id, got str"),
        (_with(_APP, {"e": [1]}, "tasks", 0, "latency"), None,
         "task graph file: tasks[0]: expected a number or string, got list"),
        (_APP, _with(_C1, [15], "devices", "e", "max_power"),
         "system model file: devices['e']: expected a number or string, got list"),
        (_APP, _with(_C1, "15 parsecs", "channels", 0, "bandwidth"),
         "system model file: channels[0]: unit 'parsecs' not valid for bandwidth in '15 parsecs'"),
        (_APP, _with(_C1, "x", "relay", "e->c"),
         "system model file: relay['e->c']: unknown device role 'x'; expected one of e, h, c"),
        # fields a reader does not declare used to be dropped: without its
        # arcs the app solved to 0.6198 s, without the edge's memory budget
        # the baseline's E case was feasible
        (_with(_without(_APP, "arcs"), _APP["arcs"], "arc"), None,
         "task graph file: unknown field 'arc' (known: arcs, schema, tasks)\n"),
        (_with(_APP, "64MiB", "tasks", 2, "memroy"), None, "task graph file: tasks[2]: unknown field 'memroy'"),
        (_APP, _with(_C1, {}, "relays"), "system model file: unknown field 'relays'"),
        (_APP, _with(_without(_C1, "devices", "e", "memory_budget"), "8GiB", "devices", "e", "memory_bugdet"),
         "system model file: devices['e']: unknown field 'memory_bugdet'"),
        (_APP, _with(_C1, "1uJ/bit", "channels", 0, "tx_enrgy"),
         "system model file: channels[0]: unknown field 'tx_enrgy'"),
        # a second e->h entry used to replace the first
        (_APP, _with(_C1, _C1["channels"] + [dict(_C1["channels"][0], bandwidth="1bit/s")], "channels"),
         "system model file: channels[4]: a second channel e->h\n"),
        # a string used to be read as its characters
        (_with(_APP, "hc", "tasks", 1, "allowed"), None,
         "task graph file: tasks[1]: field 'allowed': expected a JSON array, got str\n"),
        # true used to pass as schema 1, and a device name 5 as the name "5"
        (_with(_APP, True, "schema"), None, "task graph file: unsupported schema True (expected 1)\n"),
        (_APP, _with(_C1, 5, "devices", "h", "name"),
         "system model file: devices['h']: field 'name': expected a JSON string, got int\n"),
    ],
    ids=[
        "no-tasks", "top-level-list", "task-without-memory", "system-without-devices",
        "arc-not-a-pair", "tasks-not-an-array", "allowed-not-an-array", "latency-not-an-object",
        "channels-not-an-array", "relay-not-an-object", "arc-endpoint-not-an-integer", "id-not-an-integer",
        "latency-value-not-a-quantity", "max-power-not-a-quantity", "bandwidth-in-a-wrong-unit",
        "relay-via-not-a-role", "unknown-top-level-field", "unknown-task-field", "unknown-system-field",
        "unknown-device-field", "unknown-channel-field", "second-channel", "allowed-a-string",
        "schema-a-boolean", "device-name-not-a-string",
    ],
)
def test_malformed_input_file_exits_2(tfg, config, message, tmp_path, capsys):
    # each used to end in a KeyError, TypeError or AttributeError traceback and exit 1
    tfg_path = tmp_path / "tfg.json"
    tfg_path.write_text(json.dumps(tfg))
    args = ["solve", str(tfg_path), "--out", str(tmp_path / "o")]
    if config is not None:
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps(config))
        args += ["--config", str(sys_path)]
    assert main(args) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_solve_scans_the_graph_once(tmp_path, monkeypatch):
    scans = []
    scan = ehcopt.model._scan_task_graph
    monkeypatch.setattr(ehcopt.model, "_scan_task_graph", lambda graph: scans.append(graph) or scan(graph))
    app = Path(ehcopt.model.__file__).parent / "data" / "uav_inspection_15.json"
    assert main(["solve", str(app), "--config", "C1", "--out", str(tmp_path / "o")]) == 0
    assert len(scans) == 1


def test_time_limit_without_incumbent(tmp_path, capsys):
    tfg = tmp_path / "serial.json"
    save_task_graph(serial_200_graph(), tfg)
    common = [str(tfg), "--config", "C1", "--objective", "energy", "--time-limit", "0.05"]
    assert main(["solve", *common, "--out", str(tmp_path / "s")]) == 4
    assert "time limit reached without an incumbent" in capsys.readouterr().out
    allocation = read_json(tmp_path / "s" / "allocation.json")
    assert allocation["status"] == "incumbent-with-gap"
    assert allocation["assignment"] is None and allocation["gap"] is None
    assert read_json(tmp_path / "s" / "solver_stats.json")["gap"] is None

    assert main(["baseline", *common, "--out", str(tmp_path / "b")]) == 0
    assert "O_E:            -  UNKNOWN (time limit reached without an incumbent)" in capsys.readouterr().out
    o_e = next(c for c in read_json(tmp_path / "b" / "baseline.json") if c["case"] == "O_E")
    assert o_e["feasible"] is None and o_e["assignment"] is None
    assert o_e["detail"] == "time limit reached without an incumbent"


def test_baseline_prints_each_case_detail(example_tfg, tmp_path, capsys):
    out = tmp_path / "b"
    assert main(["baseline", example_tfg, "--config", "C1", "--time-limit", "0.000001", "--out", str(out)]) == 0
    lines = {line.split(":")[0].strip(): line for line in capsys.readouterr().out.splitlines() if ":" in line}
    cases = read_json(out / "baseline.json")
    for case in cases:
        line = lines[case["case"]]
        assert line.endswith(f" ({case['detail']})") if case["detail"] else line.endswith("feasible"), line
    assert any(case["feasible"] and (case["detail"] or "").startswith("incumbent with gap ") for case in cases)


def test_bruteforce_with_a_time_limit_exits_2(example_tfg, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["solve", example_tfg, "--config", "C1", "--solver", "bruteforce",
                 "--time-limit", "0.001", "--out", str(out)]) == 2
    assert "time limit" in capsys.readouterr().err
    assert not (out / "allocation.json").exists()


def test_nan_time_limit_exits_2(example_tfg, tmp_path, capsys):
    # an infinite limit used to be taken, and the solve ended after one dual pass
    for command, limit in (("solve", "nan"), ("baseline", "nan"), ("solve", "inf"), ("baseline", "inf")):
        out = tmp_path / command
        assert main([command, example_tfg, "--config", "C1", "--time-limit", limit,
                     "--out", str(out)]) == 2
        assert "time limit must be > 0" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--fixed-edge", "inf"), ("--fixed-edge", "1e400"), ("--fixed-hub", "inf"), ("--fixed-hub", "nan"),
])
def test_non_finite_fixed_fraction_exits_2(flag, value, tmp_path, capsys):
    # an infinite fraction used to end in an OverflowError traceback and exit 1
    out = tmp_path / "o"
    assert main(["generate", "--structure", "serial", "--nodes", "6", flag, value, "--out", str(out)]) == 2
    assert f"{flag} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--fixed-edge", "--fixed-hub"])
@pytest.mark.parametrize("value", ["0.3333333", "1e-07"])
def test_fixed_fraction_is_recorded_as_given(flag, value, tmp_path):
    # the flags were rounded to a denominator of at most 10**6, as params
    # files are not: 0.3333333 was recorded as 1/3, and 1e-07 as 0.0
    out = tmp_path / "o"
    assert main(["generate", "--structure", "serial", "--nodes", "6", flag, value, "--out", str(out)]) == 0
    genspec = read_json(out / "meta.json")["genspec"]
    assert genspec[f"fixed_{flag[8:]}_fraction"] == float(value)


@pytest.mark.parametrize("flag", ["--fixed-edge", "--fixed-hub"])
def test_fixed_fraction_above_one_exits_2(flag, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["generate", "--structure", "serial", "--nodes", "6", flag, "1.5", "--out", str(out)]) == 2
    assert "fixed fractions must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_lthr_with_the_latency_objective_exits_2(example_tfg, tmp_path, capsys):
    # the cap used to be dropped: solve wrote a 1.79 s allocation as
    # proven-optimal, export wrote no lthr row, stats reported no threshold
    for command in ("solve", "export", "stats"):
        out = tmp_path / command
        assert main([command, example_tfg, "--objective", "latency", "--lthr", "100ms",
                     "--out", str(out)]) == 2
        assert "--lthr" in capsys.readouterr().err
        assert not out.exists()
    # baseline keeps it: the cap applies to its energy-optimal case O_E
    assert main(["baseline", example_tfg, "--objective", "latency", "--lthr", "100ms",
                 "--out", str(tmp_path / "b")]) == 0


def test_every_model_command_declares_the_same_model_flags():
    # export and stats used to declare --objective and --lthr by hand, without help
    (commands,) = [action for action in build_parser()._actions if action.dest == "command"]

    def model_flags(command):
        return [
            (action.option_strings, action.choices, action.default, action.help)
            for action in commands.choices[command]._actions
            if action.dest in ("objective", "lthr", "time_limit")
        ]

    solve = model_flags("solve")
    assert [flags for flags, *_ in solve] == [["--objective"], ["--lthr"], ["--time-limit"]]
    assert model_flags("baseline") == solve
    assert model_flags("export") == model_flags("stats") == solve[:2]  # neither has a time limit to honour


_PARAMS = default_param_spec("C1").to_dict()


@pytest.mark.parametrize(
    "params, message",
    [
        ({}, "missing required field 'reference_latency'"),
        (_without(_PARAMS, "perf_ratios"), "missing required field 'perf_ratios'"),
        ([1, 2], "expected a JSON object, got list"),
        (dict(_PARAMS, clamp_alpha=[0.001]), "field 'clamp_alpha': not enough values to unpack"),
        (dict(_PARAMS, clamp_alpha={"x": 1}), "field 'clamp_alpha': expected a [lower, upper] pair, got dict"),
        (dict(_PARAMS, memory_range="12"), "field 'memory_range': expected a [lower, upper] pair, got str"),
        (dict(_PARAMS, clamp_alpha=[0.001, 0.002, 0.003]), "field 'clamp_alpha': too many values to unpack"),
        (dict(_PARAMS, clamp_alpha=[]), "field 'clamp_alpha': not enough values to unpack"),
        (dict(_PARAMS, perf_ratios=dict(_PARAMS["perf_ratios"], e=True)), "field 'perf_ratios': expected a number, got True"),
        (dict(_without(_PARAMS, "clamp_alpha"), clamp_alhpa=[0.002, 0.003]), "unknown field 'clamp_alhpa' (known: "),
        (dict(_PARAMS, data_range=[0.3, 0.7]), "data_range: [0.3, 0.7] holds no integer"),
        (dict(_PARAMS, storage_range=[2.25, 2.75]), "storage_range: [2.25, 2.75] holds no integer"),
        (dict(_PARAMS, perf_ratios=dict(_PARAMS["perf_ratios"], e=0)), "performance ratio for e must be > 0"),
    ],
    ids=["empty-object", "no-perf-ratios", "top-level-list", "clamp-one-value", "clamp-object",
         "range-string", "clamp-three-values", "clamp-empty", "ratio-boolean", "unknown-field",
         "data-without-integer", "storage-without-integer", "ratio-zero"],
)
def test_malformed_params_file_exits_2(params, message, tmp_path, capsys):
    # each used to end in a traceback and exit 1, or was read in part
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    out = tmp_path / "g"
    assert main(["generate", "--structure", "serial", "--nodes", "6", "--params", str(path),
                 "--out", str(out)]) == 2
    assert f"error: params file {path}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_absent_or_null_clamp_alpha_keeps_the_default(tmp_path):
    metas = []
    for name, params in (("absent", _without(_PARAMS, "clamp_alpha")), ("null", dict(_PARAMS, clamp_alpha=None))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(params))
        out = tmp_path / name
        assert main(["generate", "--structure", "serial", "--nodes", "6", "--params", str(path),
                     "--out", str(out)]) == 0
        metas.append(read_json(out / "meta.json")["paramspec"]["clamp_alpha"])
    assert metas == [[0.001, 0.005]] * 2


@pytest.mark.parametrize("lthr", ["0", "-5s"])
@pytest.mark.parametrize("command", ["solve", "baseline", "export", "stats"])
def test_lthr_not_above_zero_exits_2(command, lthr, example_tfg, tmp_path, capsys):
    # solve used to exit 3 (infeasible) and baseline 0 with O_E reported
    # infeasible; export and stats failed later, in build_model
    out = tmp_path / "o"
    assert main([command, example_tfg, "--objective", "energy", f"--lthr={lthr}",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --lthr must be > 0, got {lthr}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["task graph", "system model", "params"])
def test_a_file_that_is_not_json_is_named(kind, tmp_path, capsys):
    # a truncated file used to be reported by the JSON decoder alone, so a
    # solve that reads two files did not say which one was broken
    documents = {
        "task graph": task_graph_to_dict(presets.example_inspection_tfg()),
        "system model": _C1,
        "params": _PARAMS,
    }
    paths = {}
    for name, document in documents.items():
        paths[name] = tmp_path / f"{name.replace(' ', '_')}.json"
        text = json.dumps(document)
        paths[name].write_text(text[: len(text) // 2] if name == kind else text)
    out = tmp_path / "o"
    if kind == "params":
        args = ["generate", "--structure", "serial", "--nodes", "6", "--params", str(paths["params"])]
    else:
        args = ["solve", str(paths["task graph"]), "--config", str(paths["system model"])]
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} file {paths[kind]}: not valid JSON: "), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["transform", "solve", "baseline", "export"])
def test_a_value_beyond_double_range_exits_2(command, tmp_path, capsys):
    # every output writes quantities as doubles; each of these used to end
    # in an OverflowError traceback and exit 1
    too_long = _with(_APP, "1e400s", "tasks", 1, "latency", "c")
    path = tmp_path / "too_long.json"
    path.write_text(json.dumps(too_long))
    assert main([command, str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: task graph file: tasks[1]: quantity '1e400s' is beyond the range of a double\n"
    )
    assert not (tmp_path / "o").exists()
    # a power and a latency that a double holds, whose energy it does not;
    # without budgets the solve must run task 1 on the edge at that energy
    huge = _with(_with(_APP, "1e200W", "tasks", 0, "power", "e"), "1e200s", "tasks", 0, "latency", "e")
    path.write_text(json.dumps(huge))
    sys_path = tmp_path / "unbudgeted.json"
    save_system_model(unbudgeted_system(), sys_path)
    args = [command, str(path), "--config", str(sys_path)]
    if command != "transform":  # the only one of these without a model to build
        args += ["--objective", "energy", "--lthr", "1e300s"]
    assert main(args + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: a value computed from the inputs is beyond the range of a double")
    # every output is formatted before --out is made, so none is left empty
    assert not (tmp_path / "o").exists()


_HUGE = "1e1000000000"


@pytest.mark.parametrize("case", ["task-latency", "lthr", "params-ratio"])
def test_a_huge_decimal_exponent_exits_2_at_once(case, example_tfg, tmp_path, capsys):
    # each took seconds, growing faster than the exponent, to expand 10 ** exponent
    out = tmp_path / "o"
    if case == "task-latency":
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(_with(_APP, f"{_HUGE}s", "tasks", 1, "latency", "c")))
        args = ["solve", str(path)]
        message = f"error: task graph file: tasks[1]: quantity '{_HUGE}s' is beyond the range of a double\n"
    elif case == "lthr":
        args = ["solve", example_tfg, "--objective", "energy", "--lthr", f"{_HUGE}s"]
        message = f"error: quantity '{_HUGE}s' is beyond the range of a double\n"
    else:
        path = tmp_path / "params.json"
        path.write_text(json.dumps(dict(_PARAMS, perf_ratios=dict(_PARAMS["perf_ratios"], h=_HUGE))))
        args = ["generate", "--structure", "serial", "--nodes", "6", "--params", str(path)]
        message = (f"error: params file {path}: field 'perf_ratios': "
                   f"quantity '{_HUGE}' is beyond the range of a double\n")
    started = time.monotonic()
    assert main(args + ["--out", str(out)]) == 2
    assert time.monotonic() - started < 5.0
    assert capsys.readouterr().err == message
    assert not out.exists()


# sha256 of every file transform and generate write, measured before both
# moved to the one output path, cli._write
_PINNED = {
    "transform": {
        "etfg.json": "8c61068c2c5d6f5a1cdc3c700089f4b4b24d7e93d1ea5fb513bb8a44a4250cba",
        "etfg.dot": "5e129c84e8ae081cc05c0bd05b5d6c4f45f81159afcb0e7b8561bc7ee0fa2518",
    },
    "generate": {
        "tfg.json": "956e1a3afb356b3ce112f139fc8abd919b15875fe7754574c3b18fdee61e37a7",
        "meta.json": "af71be3bae5b17da32cb02b41daa5d24cb59f56997ea2ce1c09ee7c4e43a6276",
    },
}
_GENERATE_200 = ["generate", "--structure", "mixed", "--nodes", "200", "--max-in-degree", "4",
                 "--max-out-degree", "4", "--fixed-edge", "0.05", "--fixed-hub", "0.02", "--seed", "8"]


@pytest.mark.parametrize("command", list(_PINNED))
def test_transform_and_generate_files_are_pinned(command, example_tfg, tmp_path):
    args = ["transform", example_tfg] if command == "transform" else _GENERATE_200
    out = tmp_path / "o"
    assert main(args + ["--config", "C1", "--out", str(out)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert digests == _PINNED[command]


# sha256 of tfg.json and meta.json from generate at 200 tasks and seed 8,
# measured before parameter synthesis moved to integer arithmetic and the
# JSON text to model's own writer; "params" is the mixed graph on C1 with
# _CLAMPING_PARAMS
_PINNED_GENERATE = {
    ("serial", "C1"): ("26b80a7c2d4bd852656ec79f7297f6862deba2c2797088198bfa8dbc0e33dbd4",
                       "5e062a4714bd22531a589b1691fb1f261435d74a88ab55f3611614ffae366308"),
    ("serial", "C2"): ("7820803ff50ae66f14d60d794184fe2de199193ce656775e426a8cc9176178fc",
                       "b29c737f938a6dce033901116f3cbb45de1273d59d357d7e70d49ff1ac23ca8e"),
    ("serial", "C3"): ("d18b64bed9fe127f3174187563699065b321597b6f434a45cdb60b5de9d7a255",
                       "528874b4344ef58336f31c53dd0c6982f221c9ae94ec2259513c768ed5fbd36c"),
    ("parallel", "C1"): ("29d2dbd6c44e3828bba1646b56ce1b98370ae5c3ad187adefb3c6859bc0578e6",
                         "ce589ebfea0db4c33fbd6dc44e7517005a051882b07653dcf6579a3ced5148aa"),
    ("parallel", "C2"): ("a75d8ab00b5288f6ce01132256c45c6702708fa9e8f4eb500b08a581878aaab5",
                         "46d43d28a049ae5d06f3b903d6b615c9a568bf25cd9827dfc24f56206922ccea"),
    ("parallel", "C3"): ("e8702c8acf270b75a90f6a2e0cb1f9b399b722dfeb81f25c089a48c4306f7750",
                         "6671116c0d334d2d5c744aafb04099f52f0bfae15ef3c27b635c713c70baef17"),
    ("mixed", "C1"): ("956e1a3afb356b3ce112f139fc8abd919b15875fe7754574c3b18fdee61e37a7",
                      "af71be3bae5b17da32cb02b41daa5d24cb59f56997ea2ce1c09ee7c4e43a6276"),
    ("mixed", "C2"): ("8297dd492b9f70edd127edb8e3a9cd89b0b58271339a07a384f2cbdbbf4bf188",
                      "31174b99c0a04a049d22411cf49387a06db1b61f5dd6704dc40e1a2a312f1a76"),
    ("mixed", "C3"): ("be7df8afd5f42ea4deea9058ff66e45f4520618069d7976c7cd86c0a0a7e79fc",
                      "f00cef86d43af892b82f85078032a8322d941adade73b6f27ac36e69cf0fce53"),
    ("mixed", "params"): ("2bd0bafa65a5f3876d9f376868f5b69f140cd60ce98fad1aaa45f19dbe379a30",
                          "9794a36b2230e9782429c9d77e2470146e5c5279ab0cdea8cea45f24fe9f491c"),
}
# C1's ranges with a slow edge and C1's hub and cloud: edge draws of
# 0.75-3.25 W fall both below and above the Jetson's 1.9 W idle power, and
# every hub draw of 76-330 W exceeds the notebook's 65 W maximum
_CLAMPING_PARAMS = dict(_PARAMS, perf_ratios={"e": 0.5, "h": 50.77, "c": 105.55})


@pytest.mark.parametrize("structure, config", list(_PINNED_GENERATE))
def test_generated_files_are_pinned(structure, config, tmp_path):
    args = ["generate", "--structure", structure, *_GENERATE_200[3:]]
    if config == "params":
        params = tmp_path / "params.json"
        params.write_text(json.dumps(_CLAMPING_PARAMS))
        args += ["--config", "C1", "--params", str(params)]
    else:
        args += ["--config", config]
    out = tmp_path / "o"
    assert main(args + ["--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("tfg.json", "meta.json"))
    assert digests == _PINNED_GENERATE[structure, config]
    if config == "params":  # both clamps fire: into (idle, idle * 1.005] and [max * 0.995, max)
        tasks = read_json(out / "tfg.json")["tasks"]
        edge = [t["power"]["e"] for t in tasks if "e" in t["power"]]
        hub = [t["power"]["h"] for t in tasks if "h" in t["power"]]
        above_idle = [p for p in edge if 1.9 < p <= 1.9 * 1.005]
        assert 0 < len(above_idle) < len(edge)
        assert hub and all(65 * 0.995 <= p < 65 for p in hub)


@pytest.mark.parametrize("command", ["transform", "solve", "baseline", "generate", "export", "stats"])
def test_every_command_names_each_file_it_writes(command, example_tfg, tmp_path, capsys):
    args = ["generate", "--structure", "serial", "--nodes", "5"] if command == "generate" else [command, example_tfg]
    out = tmp_path / "o"
    assert main(args + ["--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    wrote = [line.removeprefix("wrote ") for line in lines if line.startswith("wrote ")]
    assert sorted(wrote) == sorted(str(path) for path in out.iterdir())
    if command == "export":  # its counts line comes first
        assert lines[0] == "152 variables, 370 rows"
