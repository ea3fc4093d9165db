import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import E, serial_200_graph, simple_task, two_task_chain
from ehcopt import presets
from ehcopt.etfg import transform
from ehcopt.milp import build_model
from ehcopt.model import TaskGraph
from ehcopt.mps import MpsFormatError, model_to_lp, model_to_mps, parse_mps
from ehcopt.solver import _as_int, solve_branch_and_bound

C1 = presets.system_model("C1", "run1")


def roundtrip_check(model):
    text = model_to_mps(model)
    parsed = parse_mps(text)
    assert parsed.num_columns == model.num_variables
    assert parsed.num_rows == len(model.rows)
    assert parsed.binaries == set(parsed.column_order)
    # senses survive
    for idx, row in enumerate(model.rows):
        assert parsed.row_sense[f"R{idx + 1}"] == row.sense
    # every coefficient survives to 12 significant digits
    for col_idx, var in enumerate(model.variables):
        name = f"X{col_idx + 1}"
        entries = parsed.columns[name]
        expected = {}
        if col_idx in model.objective:
            expected["OBJ"] = model.objective[col_idx]
        for row_idx, row in enumerate(model.rows):
            if col_idx in row.coeffs:
                expected[f"R{row_idx + 1}"] = row.coeffs[col_idx]
        assert set(entries) == set(expected)
        for row_name, value in entries.items():
            assert math.isclose(value, float(expected[row_name]), rel_tol=1e-11)
    for idx, row in enumerate(model.rows):
        got = parsed.rhs.get(f"R{idx + 1}", 0.0)
        assert math.isclose(got, float(row.rhs), rel_tol=1e-11, abs_tol=0.0)
    return text


def test_round_trip_two_task_model():
    model = build_model(transform(two_task_chain(data=10**6), C1), "latency")
    text = roundtrip_check(model)
    assert text.splitlines()[0].startswith("NAME")
    assert " BV BND" in text


def test_round_trip_energy_model_with_threshold():
    model = build_model(transform(two_task_chain(data=10**6), C1), "energy", Fraction(8))
    roundtrip_check(model)


def test_single_task_model():
    g = TaskGraph(tasks=(simple_task(1, (E,), latency=2, power=3),), arcs=())
    model = build_model(transform(g, C1), "latency")
    assert model.num_variables == 1
    roundtrip_check(model)


def test_mps_deterministic():
    model = build_model(transform(two_task_chain(), C1), "latency")
    assert model_to_mps(model) == model_to_mps(model)


def test_mps_has_integer_markers():
    model = build_model(transform(two_task_chain(), C1), "latency")
    text = model_to_mps(model)
    assert "'INTORG'" in text and "'INTEND'" in text
    assert text.rstrip().endswith("ENDATA")


def test_parse_rejects_garbage():
    with pytest.raises(MpsFormatError):
        parse_mps("GARBAGE\n")
    with pytest.raises(MpsFormatError):
        parse_mps("NAME x\nRANGES\n    R1 1\n")


def test_lp_export():
    model = build_model(transform(two_task_chain(data=10**6), C1), "energy", Fraction(8))
    text = model_to_lp(model)
    assert text.startswith("\\ objective: energy")
    assert "Minimize" in text and "Subject To" in text and "Binary" in text
    assert " x_1_e" in text and "y_1e_2c" in text
    assert "lthr:" in text
    assert "asg_1: 1 x_1_e + 1 x_1_h + 1 x_1_c = 1" in text
    assert text.rstrip().endswith("End")


def test_lp_deterministic():
    model = build_model(transform(two_task_chain(), C1), "latency")
    assert model_to_lp(model) == model_to_lp(model)


# --- golden outputs ---------------------------------------------------------
# SHA-256 of the MPS text, the LP text and the B&B allocation.json (written as
# `ehcopt solve` writes it), with the search counters of the proven solve.
# Any change to number formatting, emission order, tie-breaking or the search
# changes one of them.

GOLDEN = {
    ("uav", "latency"): (
        "4d9420f331a3b836bc20bdd6ae40750100316a12dee5f80de59abad29ece3b15",
        "ef712af36295c40468e8536bde6da56417815cff2bcf084d84ad5d864ba86029",
        ("proven-optimal", "b1404df7c31c712fe4b87e6f4ee8b4705bbad2e21d18d852245f2ae82b983a7c", 3502, 1739, 0, 0),
    ),
    ("uav", "energy"): (
        "21d1d9f17bd08adca9da9746a806fe268142593d79d5fa82c28ef2cf2e929183",
        "917adbe476514ac85d9d3465d4a5a1ddd6aa5bd40c5472639f38d1404e3d0d6e",
        ("proven-optimal", "f79c141cec6ff112cceaa45e3bf0857348db315ebc5177b8bc5208b89a291e44", 1142, 479, 0, 0),
    ),
    # the 200-task latency search cannot finish; its model exports are pinned alone
    ("serial200", "latency"): (
        "5c93845293689d45dd7df2562d69698d5c9a938234d95f12349ab3030695f725",
        "e11eecf16374a4528092a41da1fe414c679b5a4e91faa4771083d26800381b03",
        None,
    ),
    ("serial200", "energy"): (
        "3c61e27722c5986c5a74b2c9659d815140878670cfd0104f4c2bdba025b388ea",
        "de990ba3d99ecddb3c21f31db903d950b62d0c74a32e8727b9bf52f4d1366a6a",
        ("infeasible", "b3214407604231a3ae4421a7b0c8e1b5e8560895a70ad43b1a0e84ee0b28b2e6", 140494, 0, 0, 70111),
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", ["uav", "serial200"])
def test_golden_exports_and_allocations(name):
    graph = presets.example_inspection_tfg() if name == "uav" else serial_200_graph()
    etfg = transform(graph, C1)
    for objective, threshold in (("latency", None), ("energy", Fraction(8))):
        mps_sha, lp_sha, solved = GOLDEN[(name, objective)]
        model = build_model(etfg, objective, threshold)
        assert _sha256(model_to_mps(model)) == mps_sha, (name, objective)
        assert _sha256(model_to_lp(model)) == lp_sha, (name, objective)
        if solved is None:
            continue
        allocation = solve_branch_and_bound(etfg, objective, threshold)
        stats = allocation.stats
        assert (
            allocation.status.value,
            _sha256(json.dumps(allocation.to_dict(), indent=2, sort_keys=True) + "\n"),
            stats["nodes_explored"],
            stats["pruned_by_bound"],
            stats["pruned_by_budget"],
            stats["pruned_by_threshold"],
        ) == solved, (name, objective)


@given(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=1, max_value=10**18),
    st.integers(min_value=1, max_value=10**12),
)
def test_as_int_matches_fraction_scaling(numerator, denominator, multiple):
    value = Fraction(numerator, denominator)
    den = value.denominator * multiple
    assert _as_int(value, den) == (value * den).numerator
