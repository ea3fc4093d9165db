import gc
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import C, E, H, random_oracle_instance, serial_200_graph, simple_task, two_task_chain
from mps_text import read_mps
from ehcopt import milp, mps, presets
from ehcopt.etfg import transform
from ehcopt.milp import BilpModel, ConstraintRow, Objective, Rows, build_model, model_stats
from ehcopt.model import TaskGraph
from ehcopt.mps import model_to_lp, model_to_mps
from ehcopt.solver import _as_int, solve
from ehcopt.units import fmt12

C1 = presets.system_model("C1", "run1")


def roundtrip_check(model):
    text = model_to_mps(model)
    parsed = read_mps(text)
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


@pytest.mark.parametrize(
    "old, new",
    [
        ("ROWS\n", "RANGES\n"),  # an unknown section
        ("NAME          EHCOPT\n", "NAME          EHCOPT\n X1 R1 1\n"),  # a line outside any section
        (" N  OBJ\n", " N\n"),  # a ROWS line that is not a sense and a name
        (" E  R1\n", " Q  R1\n"),  # a sense that is not N, L, E or G
        (" E  R1\n", " E  R1\n E  R1\n"),  # a row declared twice
        ("X1        R1        1\n", "X1        R1        1 R2 1\n"),  # two pairs on one line
        ("X1        R1        1\n", "X1        R9        1\n"),  # an entry on an undeclared row
        ("X1        R1        1\n", "X1        R1        1\n    X1        R1        1\n"),  # an entry twice
        ("RHS       R1        1\n", "RHS       R9        1\n"),  # an RHS entry on an undeclared row
        (" BV BND       X1\n", " UP BND       X1\n"),  # a bound that is not BV BND
        (" BV BND       X1\n", " BV BND       X99\n"),  # a bound on an undeclared column
        ("ENDATA\n", ""),  # no ENDATA line
    ],
)
def test_read_mps_fails_on_any_other_layout(old, new):
    text = model_to_mps(build_model(transform(two_task_chain(data=10**6), C1), "latency"))
    read_mps(text)
    assert old in text
    with pytest.raises(ValueError):
        read_mps(text.replace(old, new, 1))


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


# --- the writers against plain per-value formatting --------------------------


def plain_mps(model) -> str:
    """The MPS text with every value formatted by ``fmt12`` where it is
    written, from the model's rows read one by one."""
    rows = list(model.rows)
    entries = [[] for _ in range(model.num_variables)]  # per column: (row name, value), rows in order
    for col, value in model.objective.items():
        entries[col].append(("OBJ", value))
    for i, row in enumerate(rows, 1):
        for col, value in row.coeffs.items():
            entries[col].append((f"R{i}", value))
    lines = ["NAME          EHCOPT", "ROWS", " N  OBJ"]
    lines += [f" {row.sense}  R{i}" for i, row in enumerate(rows, 1)]
    lines += ["COLUMNS", "    MARKER                 'MARKER'                 'INTORG'"]
    for col, column in enumerate(entries, 1):
        lines += [f"    {f'X{col}':<10}{name:<10}{fmt12(value)}" for name, value in column]
    lines += ["    MARKER                 'MARKER'                 'INTEND'", "RHS"]
    lines += [f"    RHS       {f'R{i}':<10}{fmt12(row.rhs)}" for i, row in enumerate(rows, 1) if row.rhs != 0]
    lines += ["BOUNDS"] + [f" BV BND       X{col + 1}" for col in range(model.num_variables)] + ["ENDATA"]
    return "".join(line + "\n" for line in lines)


def plain_lp(model) -> str:
    """The LP text with every value formatted by ``fmt12`` where it is written."""
    names = [v.name for v in model.variables]

    def expr(coeffs):
        terms = []
        for col in sorted(coeffs):
            text = fmt12(coeffs[col])
            if terms:
                text = "- " + text[1:] if text.startswith("-") else "+ " + text
            terms.append(f"{text} {names[col]}")
        return " ".join(terms) or f"0 {names[0]}"

    sense = {"L": "<=", "E": "=", "G": ">="}
    lines = [f"\\ objective: {model.objective_kind.value}", "Minimize", f" obj: {expr(model.objective)}", "Subject To"]
    lines += [f" {row.label}: {expr(row.coeffs)} {sense[row.sense]} {fmt12(row.rhs)}" for row in model.rows]
    lines += ["Binary"] + [f" {name}" for name in names] + ["End"]
    return "".join(line + "\n" for line in lines)


def hand_built_model(shift: int) -> BilpModel:
    """Equal values held by distinct objects, one object in many places,
    and negative, zero and non-integer coefficients, on unsorted rows;
    ``shift`` moves most values."""
    node_col = {(i // 3 + 1, role): i for i, role in enumerate((E, H, C) * 4)}
    n = len(node_col)
    shared = Fraction(-7, 3)
    rows = [
        ConstraintRow(f"r_{k}", {(5 * k + j) % n: Fraction((-1) ** j * (k + j + shift), 1 + j % 4) for j in range(6)}, "L", Fraction(k - 3, 2))
        for k in range(8)
    ]
    rows += [
        ConstraintRow("dup", {11: Fraction(3, 7), 2: Fraction(3, 7), 7: Fraction(6, 14), 0: shared}, "E", Fraction(3, 7)),
        ConstraintRow("zero", {4: Fraction(0), 9: shared, 1: Fraction(-1, 10**13)}, "G", Fraction(0)),
        ConstraintRow("empty", {}, "L", Fraction(-5, 4)),
        ConstraintRow("big", {3: Fraction(10**20, 3), 6: Fraction(-(10**20), 7), 8: shared}, "L", Fraction(10**15, 9)),
    ]
    objective = {col: Fraction(shift - col % 5, 3) + Fraction(1, 7) for col in range(0, n, 2)}
    objective[1] = Fraction(3, 7)
    return BilpModel(Objective.ENERGY, None, objective, Rows(rows), node_col, etfg=None)


def test_writers_format_every_value_as_fmt12_does():
    # a second model reuses the ids of the first one's freed objects,
    # so a text kept from an earlier call would show up here
    for shift in (0, 5):
        model = hand_built_model(shift)
        assert model_to_mps(model) == plain_mps(model)
        assert model_to_lp(model) == plain_lp(model)
        del model
    # no rows and no objective (empty sections, a column without entries),
    # and a built model
    bare = BilpModel(Objective.LATENCY, None, {}, Rows([]), {(1, E): 0}, etfg=None)
    built = build_model(transform(two_task_chain(data=10**6), C1), "energy", Fraction(8))
    for model in (bare, built):
        assert model_to_mps(model) == plain_mps(model)
        assert model_to_lp(model) == plain_lp(model)
    # the writers emit the link rows from their per-arc records; the plain
    # writers read the rows that link_rows makes, one by one
    for model in built_models():
        assert model_to_mps(model) == plain_mps(model)
        assert model_to_lp(model) == plain_lp(model)


def built_models():
    """The 200-task serial graph under latency and under energy at 8 s, 20
    random budgeted instances under both objectives, a graph that lists
    every task after its successors (each arc's source column comes after
    its destination's), and a graph without dependencies (no link rows)."""
    serial = transform(serial_200_graph(), C1)
    yield build_model(serial, "latency")
    yield build_model(serial, "energy", Fraction(8))
    for seed in range(20):
        etfg, threshold = random_oracle_instance(seed)
        yield build_model(etfg, "latency")
        yield build_model(etfg, "energy", threshold)
    tasks = tuple(simple_task(i, data=10**5 * i) for i in range(1, 5))
    backwards = TaskGraph(tasks=tasks, arcs=((4, 1), (3, 1), (4, 2), (2, 1)))
    yield build_model(transform(backwards, C1), "energy", Fraction(8))
    unlinked = TaskGraph(tasks=(simple_task(1, (E, H)), simple_task(2), simple_task(3, (C,))), arcs=())
    yield build_model(transform(unlinked, C1), "energy", Fraction(8))


def test_writers_make_no_link_row(monkeypatch):
    model = build_model(transform(serial_200_graph(), C1), "energy", Fraction(8))
    expected = model_to_mps(model), model_to_lp(model)

    def refuse(*record):
        raise AssertionError(f"link row made for {record}")

    monkeypatch.setattr(milp, "link_rows", refuse)
    assert (model_to_mps(model), model_to_lp(model)) == expected
    assert model_stats(model) == model_stats(build_model(model.etfg, "energy", Fraction(8)))
    with pytest.raises(AssertionError, match="link row made"):
        list(model.rows)


def test_build_model_and_the_writers_make_no_variable_and_no_arc_column_dict(monkeypatch):
    etfg = transform(serial_200_graph(), C1)
    written = build_model(etfg, "energy", Fraction(8))
    expected = model_to_mps(written), model_to_lp(written)

    def refuse(*args):
        raise AssertionError("made on read")

    for name in ("Variable", "_variables", "_arc_columns"):
        monkeypatch.setattr(milp, name, refuse)
    model = build_model(etfg, "energy", Fraction(8))
    assert (model_to_mps(model), model_to_lp(model)) == expected
    assert model_stats(model)["variables"] == model.num_variables == etfg.node_count + etfg.arc_count
    for read in (lambda: model.variables[0], lambda: model.arc_col[(1, E, 2, E)]):
        with pytest.raises(AssertionError, match="made on read"):
            read()


def test_writers_format_each_value_object_once_per_model(monkeypatch):
    formatted = []
    monkeypatch.setattr(mps, "fmt12", lambda value: formatted.append(value) or fmt12(value))
    for model in [hand_built_model(3), *built_models()]:
        formatted.clear()
        mps_text = model_to_mps(model)
        after_mps = len(formatted)
        lp_text = model_to_lp(model)
        assert len(formatted) == after_mps == len(model.texts) > 0  # the second writer reuses the first one's table
        assert len({id(value) for value in formatted}) == len(formatted)  # each object once
        assert (mps_text, lp_text) == (plain_mps(model), plain_lp(model))
        # in either order
        model.texts = None
        formatted.clear()
        assert model_to_lp(model) == lp_text and model_to_mps(model) == mps_text
        assert len({id(value) for value in formatted}) == len(formatted) == after_mps


@pytest.mark.parametrize("objective, threshold", [("latency", None), ("energy", Fraction(8))])
def test_writers_peak_memory_is_a_small_multiple_of_their_text(objective, threshold):
    model = build_model(transform(serial_200_graph(), C1), objective, threshold)
    for writer, limit in ((model_to_mps, 4.0), (model_to_lp, 4.5)):
        gc.collect()
        tracemalloc.start()
        try:
            text = writer(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * len(text), (writer.__name__, peak / len(text))


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


# the bundled app's energy solve under a 4 s latency cap, which binds: its
# prunes are charged to the kernel's lthr row, so a fault in which row a
# prune is counted against changes the counts
GOLDEN_CAPPED = (
    "proven-optimal", "aa67f488bc7c7596c2f53a692b3549d3245ef9c50bec7515d42a0d26d8ca53f4", 1758, 625, 0, 202,
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _solved(etfg, objective, threshold):
    """The B&B solve's status, allocation.json sha256 and search counters."""
    allocation = solve(etfg, objective, threshold)
    stats = allocation.stats
    return (
        allocation.status.value,
        _sha256(json.dumps(allocation.to_dict(), indent=2, sort_keys=True) + "\n"),
        stats["nodes_explored"],
        stats["pruned_by_bound"],
        stats["pruned_by_budget"],
        stats["pruned_by_threshold"],
    )


@pytest.mark.parametrize("name", ["uav", "serial200"])
def test_golden_exports_and_allocations(name):
    graph = presets.example_inspection_tfg() if name == "uav" else serial_200_graph()
    etfg = transform(graph, C1)
    for objective, threshold in (("latency", None), ("energy", Fraction(8))):
        mps_sha, lp_sha, solved = GOLDEN[(name, objective)]
        model = build_model(etfg, objective, threshold)
        assert _sha256(model_to_mps(model)) == mps_sha, (name, objective)
        assert _sha256(model_to_lp(model)) == lp_sha, (name, objective)
        if solved is not None:
            assert _solved(etfg, objective, threshold) == solved, (name, objective)


def test_golden_solve_under_a_binding_latency_cap():
    etfg = transform(presets.example_inspection_tfg(), C1)
    assert _solved(etfg, "energy", Fraction(4)) == GOLDEN_CAPPED


@given(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=1, max_value=10**18),
    st.integers(min_value=1, max_value=10**12),
)
def test_as_int_matches_fraction_scaling(numerator, denominator, multiple):
    value = Fraction(numerator, denominator)
    den = value.denominator * multiple
    assert _as_int(value, den) == (value * den).numerator
