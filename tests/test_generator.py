import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL, C, E, H, make_device, unbudgeted_system
from ehcopt import presets
from ehcopt.generator import (
    STRUCTURES,
    GenerationError,
    GenSpec,
    ParamSpec,
    _Range,
    default_param_spec,
    generate_tfg,
    structure_stats,
    synthesize_params,
)
from ehcopt.model import make_system_model, task_graph_to_dict, topological_order, validate_task_graph


@pytest.mark.parametrize("structure", ["serial", "parallel", "mixed"])
@pytest.mark.parametrize("n", [2, 10, 57, 200])
def test_exact_node_count_and_acyclic(structure, n):
    spec = GenSpec(structure, n, 3, 3, seed=42)
    graph = generate_tfg(spec)
    assert len(graph.tasks) == n
    topological_order(graph)  # raises on a cycle


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("structure", ["serial", "parallel", "mixed"])
def test_degree_bounds_hold(structure, seed):
    spec = GenSpec(structure, 40, 2, 3, seed=seed)
    graph = generate_tfg(spec)
    for task in graph.tasks:
        assert len(graph.successors[task.id]) <= spec.max_out_degree
        assert len(graph.predecessors[task.id]) <= spec.max_in_degree


def test_serial_shape():
    stats = structure_stats(generate_tfg(GenSpec("serial", 10, 2, 2, seed=1)))
    assert stats["depth"] == 10
    assert stats["max_width"] == 1
    assert 9 <= stats["arcs"] <= 17


def test_serial_with_unit_out_degree_is_a_pure_chain():
    graph = generate_tfg(GenSpec("serial", 12, 1, 1, seed=0))
    assert len(graph.arcs) == 11
    assert structure_stats(graph)["depth"] == 12


def test_parallel_shape():
    widths = []
    for seed in range(30):
        stats = structure_stats(generate_tfg(GenSpec("parallel", 10, 2, 2, seed=seed)))
        assert stats["depth"] < 10
        widths.append(stats["max_width"])
    assert max(widths) >= 4  # fan-out to width 4 is reachable
    assert all(w > 1 for w in widths)


def test_mixed_shape():
    stats = structure_stats(generate_tfg(GenSpec("mixed", 30, 3, 3, seed=2)))
    assert stats["depth"] < 30
    assert stats["max_width"] > 1
    assert stats["sinks"] == 1  # blocks join back into the trunk


def test_infeasible_specs_rejected():
    with pytest.raises(GenerationError):
        GenSpec("parallel", 10, 1, 1, seed=0)
    with pytest.raises(GenerationError):
        GenSpec("mixed", 10, 1, 1, seed=0)
    with pytest.raises(GenerationError):
        GenSpec("serial", 1, 2, 2, seed=0)
    with pytest.raises(GenerationError):
        GenSpec("serial", 10, 0, 2, seed=0)
    with pytest.raises(GenerationError):
        GenSpec("palindrome", 10, 2, 2, seed=0)
    with pytest.raises(GenerationError):
        GenSpec("serial", 10, 2, 2, fixed_edge_fraction=Fraction(3, 4), fixed_hub_fraction=Fraction(1, 2))


def test_fixed_fraction_rounding_is_half_up():
    spec = GenSpec("serial", 10, 2, 2, fixed_edge_fraction=Fraction(5, 100),
                   fixed_hub_fraction=Fraction(2, 100), seed=3)
    stats = structure_stats(generate_tfg(spec))
    assert stats["fixed_edge"] == 1  # 0.5 rounds up
    assert stats["fixed_hub"] == 0  # 0.2 rounds down
    spec2 = GenSpec("serial", 10, 2, 2, fixed_edge_fraction=Fraction(25, 100), seed=3)
    assert structure_stats(generate_tfg(spec2))["fixed_edge"] == 3  # 2.5 rounds up


def test_fixed_sets_are_disjoint():
    spec = GenSpec("mixed", 40, 3, 3, fixed_edge_fraction=Fraction(2, 10),
                   fixed_hub_fraction=Fraction(2, 10), seed=5)
    graph = generate_tfg(spec)
    fixed_e = {t.id for t in graph.tasks if t.allowed == (E,)}
    fixed_h = {t.id for t in graph.tasks if t.allowed == (H,)}
    assert len(fixed_e) == 8 and len(fixed_h) == 8
    assert not (fixed_e & fixed_h)


def test_generation_is_deterministic():
    spec = GenSpec("mixed", 25, 3, 4, Fraction(1, 10), Fraction(1, 20), seed=77)
    a = task_graph_to_dict(generate_tfg(spec))
    b = task_graph_to_dict(generate_tfg(spec))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestSynthesis:
    system = unbudgeted_system()

    def pspec(self, ratios=None):
        return ParamSpec(
            reference_latency=(Fraction(1, 10), Fraction(2)),
            reference_power=(Fraction(2), Fraction(5)),
            memory_range=(Fraction(2**20), Fraction(2**24)),
            storage_range=(Fraction(2**16), Fraction(2**20)),
            data_range=(Fraction(10**5), Fraction(10**6)),
            perf_ratios=ratios or {E: Fraction(1), H: Fraction(4), C: Fraction(16)},
        )

    def graph(self, seed=0):
        return generate_tfg(GenSpec("mixed", 12, 3, 3, seed=seed))

    def test_scaling_against_reference(self):
        full = synthesize_params(self.graph(), self.pspec(), self.system, seed=1)
        assert validate_task_graph(full).ok
        for task in full.tasks:
            if len(task.allowed) < 3:
                continue
            # latency times ratio is the reference draw, identical across devices
            ref = task.latency[E] * 1
            assert task.latency[H] * 4 == ref
            assert task.latency[C] * 16 == ref

    def test_identity_ratio_passes_reference_through(self):
        ratios = {E: Fraction(1), H: Fraction(1), C: Fraction(1)}
        full = synthesize_params(self.graph(), self.pspec(ratios), self.system, seed=2)
        for task in full.tasks:
            values = set(task.latency.values())
            assert len(values) == 1  # identical on every device

    def test_monotonicity(self):
        full = synthesize_params(self.graph(), self.pspec(), self.system, seed=3)
        for task in full.tasks:
            if len(task.allowed) < 3:
                continue
            assert task.latency[E] > task.latency[H] > task.latency[C]
            assert task.power[E] < task.power[H] < task.power[C]  # wide envelope: no clamps

    def test_power_clamped_into_device_envelope(self):
        # reference powers 2..5 W with ratios {1, 4, 8}: everything on the
        # hub and cloud exceeds a 3 W cap and must be pulled just below it
        ratios = {E: Fraction(1), H: Fraction(4), C: Fraction(8)}
        tight = make_system_model(
            [make_device(r, idle="0.5", max_power="3") for r in ALL],
            presets.channels("run1"),
        )
        full = synthesize_params(self.graph(), self.pspec(ratios), tight, seed=4)
        low, high = Fraction(1, 1000), Fraction(5, 1000)
        for task in full.tasks:
            for role in task.allowed:
                assert Fraction(1, 2) < task.power[role] <= 3
                if role in (H, C):  # pre-clamp value was at least 8 W
                    assert 3 * (1 - high) <= task.power[role] <= 3 * (1 - low)

    def test_low_power_clamped_just_above_idle(self):
        # on the slow device the 2..5 W draws sit below a 50 W idle floor
        hot_idle = make_system_model(
            [make_device(r, idle="50", max_power="1000") for r in ALL],
            presets.channels("run1"),
        )
        full = synthesize_params(self.graph(), self.pspec(), hot_idle, seed=5)
        for task in full.tasks:
            for role in task.allowed:
                p = task.power[role]
                assert 50 < p <= 1000
                if role is E:  # pre-clamp value was at most 5 W
                    assert 50 * (1 + Fraction(1, 1000)) <= p <= 50 * (1 + Fraction(5, 1000))

    def test_integer_draws_stay_within_fractional_bounds(self):
        # each used to be drawn from [int(lower), int(upper)], below its range
        pspec = dataclasses.replace(
            self.pspec(),
            memory_range=(Fraction(1, 2), Fraction(3, 2)),
            storage_range=(Fraction(5, 2), Fraction(9, 2)),
            data_range=(Fraction(3, 10), Fraction(11, 10)),
        )
        full = synthesize_params(self.graph(), pspec, self.system, seed=6)
        assert {t.memory for t in full.tasks} == {1}
        assert {t.storage for t in full.tasks} == {3, 4}
        assert {t.output_data for t in full.tasks} == {1}

    def test_draws_clamp_into_a_range_off_the_quantum_grid(self):
        # no default or test range ran either clamp: every bound was on the grid
        lo, hi = Fraction(12, 10000), Fraction(19, 10000)
        bounds, rng = _Range((lo, hi)), random.Random(3)
        draws = [Fraction(*bounds.draw(rng, 1000)) for _ in range(200)]
        assert all(lo <= d <= hi for d in draws)
        # the grid points near the range, 1/1000 and 2/1000, lie outside it,
        # so every draw is clamped, to lo or to hi
        assert set(draws) == {lo, hi}

    def test_reproducible_and_seed_sensitive(self):
        a = synthesize_params(self.graph(), self.pspec(), self.system, seed=6)
        b = synthesize_params(self.graph(), self.pspec(), self.system, seed=6)
        c = synthesize_params(self.graph(), self.pspec(), self.system, seed=7)
        assert a == b
        assert a != c

    def test_paramspec_validation(self):
        with pytest.raises(GenerationError):
            ParamSpec(
                reference_latency=(Fraction(0), Fraction(1)),
                reference_power=(Fraction(1), Fraction(2)),
                memory_range=(Fraction(1), Fraction(2)),
                storage_range=(Fraction(1), Fraction(2)),
                data_range=(Fraction(1), Fraction(2)),
                perf_ratios={E: Fraction(1), H: Fraction(1), C: Fraction(1)},
            )
        with pytest.raises(GenerationError):
            ParamSpec(
                reference_latency=(Fraction(1), Fraction(2)),
                reference_power=(Fraction(1), Fraction(2)),
                memory_range=(Fraction(1), Fraction(2)),
                storage_range=(Fraction(1), Fraction(2)),
                data_range=(Fraction(1), Fraction(2)),
                perf_ratios={E: Fraction(1)},
            )

    @pytest.mark.parametrize("field", ["memory_range", "storage_range", "data_range"])
    def test_paramspec_rejects_an_integer_range_without_an_integer(self, field):
        with pytest.raises(GenerationError, match=f"^{field}: \\[0.3, 0.7\\] holds no integer$"):
            dataclasses.replace(self.pspec(), **{field: (Fraction(3, 10), Fraction(7, 10))})

    def test_paramspec_round_trip(self):
        spec = self.pspec()
        assert ParamSpec.from_dict(spec.to_dict()) == spec


def test_default_param_spec_uses_configuration_ratios():
    spec = default_param_spec("C3")
    assert spec.perf_ratios[E] == 1  # the reference device itself
    assert spec.perf_ratios[H] == Fraction("50.77")
    assert spec.perf_ratios[C] == Fraction("105.55")
    assert default_param_spec("C1").perf_ratios[E] == Fraction("6.99")


def test_structure_stats_on_known_chain():
    graph = generate_tfg(GenSpec("serial", 5, 1, 1, seed=0))
    stats = structure_stats(graph)
    assert stats == {
        "nodes": 5,
        "arcs": 4,
        "avg_in_degree": 0.8,
        "avg_out_degree": 0.8,
        "depth": 5,
        "max_width": 1,
        "sources": 1,
        "sinks": 1,
        "fixed_edge": 0,
        "fixed_hub": 0,
    }


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_degree_bounds_property(data):
    structure = data.draw(st.sampled_from(STRUCTURES))
    n = data.draw(st.integers(min_value=2, max_value=60))
    lo = 2 if structure in ("parallel", "mixed") else 1
    max_in = data.draw(st.integers(min_value=lo, max_value=6))
    max_out = data.draw(st.integers(min_value=lo, max_value=6))
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    graph = generate_tfg(GenSpec(structure, n, max_in, max_out, seed=seed))
    assert len(graph.tasks) == n
    topological_order(graph)
    for task in graph.tasks:
        assert len(graph.successors[task.id]) <= max_out
        assert len(graph.predecessors[task.id]) <= max_in
