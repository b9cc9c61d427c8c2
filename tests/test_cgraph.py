import math

import numpy as np
import pytest

from taskseq.cgraph import (
    brute_force_selection,
    build_layered_graph,
    path_cost,
    shortest_selection,
)
from taskseq.kinematics import IkSolutionSet
from taskseq.metrics import MetricKind, MetricParams
from taskseq.model import GuardError

EUCLID = MetricKind.WEIGHTED_EUCLIDEAN


def _unit_params(dof):
    return MetricParams(weights=np.ones(dof), vel_max=np.ones(dof), acc_max=np.ones(dof))


def _random_instance(rng, n_range=(2, 8), m_range=(1, 5), dof=6):
    n = int(rng.integers(*n_range))
    home = rng.uniform(-math.pi, math.pi, dof)
    sets = [
        IkSolutionSet(
            target_id=t,
            solutions=tuple(
                rng.uniform(-math.pi, math.pi, dof)
                for _ in range(int(rng.integers(*m_range)))
            ),
        )
        for t in range(n)
    ]
    params = MetricParams(
        weights=rng.uniform(0.5, 3.0, dof),
        vel_max=rng.uniform(0.5, 2.0, dof),
        acc_max=rng.uniform(0.5, 2.0, dof),
    )
    return home, sets, params


def test_vertex_and_edge_counts_for_232_shape():
    rng = np.random.default_rng(0)
    sets = [
        IkSolutionSet(i, tuple(rng.normal(size=2) for _ in range(m)))
        for i, m in enumerate((2, 3, 2))
    ]
    graph = build_layered_graph(np.zeros(2), sets, EUCLID, _unit_params(2))
    assert graph.vertex_count == 9       # 2 + 3 + 2 plus Start and Goal
    assert graph.edge_count == 16        # 2 + (2*3 + 3*2) + 2
    assert graph.step_cost_bytes == 8 * (2 * 3 + 3 * 2)  # float64 step blocks only


def test_smallest_graph():
    sets = [IkSolutionSet(0, (np.array([1.0, 1.0]),))]
    graph = build_layered_graph(np.zeros(2), sets, EUCLID, _unit_params(2))
    assert graph.vertex_count == 3
    assert graph.edge_count == 2
    assert graph.step_cost_bytes == 0


def test_count_formulas_on_random_shapes():
    rng = np.random.default_rng(1)
    for _ in range(100):
        sizes = rng.integers(1, 6, size=int(rng.integers(1, 9)))
        sets = [
            IkSolutionSet(i, tuple(rng.normal(size=2) for _ in range(m)))
            for i, m in enumerate(sizes)
        ]
        graph = build_layered_graph(np.zeros(2), sets, EUCLID, _unit_params(2))
        assert graph.vertex_count == int(np.sum(sizes)) + 2
        expected_edges = sizes[0] + sizes[-1] + sum(
            int(sizes[i]) * int(sizes[i + 1]) for i in range(len(sizes) - 1)
        )
        assert graph.edge_count == expected_edges
        assert np.all(graph.start_costs >= 0) and np.all(graph.goal_costs >= 0)
        assert all(np.all(np.isfinite(block)) for block in graph.step_costs)


def test_degenerate_identical_configurations_cost_zero():
    q = np.array([0.5, -0.5])
    sets = [IkSolutionSet(i, (q.copy(), q.copy())) for i in range(3)]
    graph = build_layered_graph(q, sets, EUCLID, _unit_params(2))
    selection = shortest_selection(graph)
    assert selection.total_cost == 0.0
    assert all(c == 0.0 for c in selection.per_edge_costs)


def test_empty_layer_is_rejected_by_name():
    sets = [IkSolutionSet(7, ())]
    with pytest.raises(ValueError, match="target 7"):
        build_layered_graph(np.zeros(2), sets, EUCLID, _unit_params(2))


def test_equal_cost_paths_take_lexicographically_smallest():
    home = np.zeros(2)
    sets = [
        IkSolutionSet(0, (np.array([1.0, 0.0]), np.array([0.0, 1.0]))),
        IkSolutionSet(1, (np.array([2.0, 0.0]), np.array([0.0, 2.0]))),
    ]
    graph = build_layered_graph(home, sets, EUCLID, _unit_params(2))
    selection = shortest_selection(graph)
    assert selection.total_cost == pytest.approx(4.0)
    assert selection.chosen == (0, 0)  # (1, 1) costs the same; tie-break picks (0, 0)
    oracle = brute_force_selection(home, sets, EUCLID, _unit_params(2))
    assert oracle.chosen == (0, 0)


def test_single_target_path_is_forced():
    home = np.array([0.0, 0.0])
    q = np.array([1.0, 2.0])
    sets = [IkSolutionSet(0, (q,))]
    selection = shortest_selection(build_layered_graph(home, sets, EUCLID, _unit_params(2)))
    there = math.sqrt(5.0)
    assert selection.total_cost == pytest.approx(2 * there)
    assert selection.per_edge_costs == pytest.approx((there, there))


def test_per_edge_costs_sum_to_total():
    rng = np.random.default_rng(3)
    for _ in range(20):
        home, sets, params = _random_instance(rng)
        for kind in MetricKind:
            selection = shortest_selection(build_layered_graph(home, sets, kind, params))
            assert selection.total_cost == pytest.approx(sum(selection.per_edge_costs))
            assert len(selection.per_edge_costs) == len(sets) + 1
            assert all(
                c < s.count for c, s in zip(selection.chosen, sets)
            )


def test_search_equals_oracle_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(200):
        home, sets, params = _random_instance(rng, n_range=(1, 8), m_range=(1, 5))
        kind = list(MetricKind)[int(rng.integers(0, 3))]
        fast = shortest_selection(build_layered_graph(home, sets, kind, params))
        slow = brute_force_selection(home, sets, kind, params)
        assert fast.total_cost == slow.total_cost
        assert fast.chosen == slow.chosen
        assert fast.per_edge_costs == slow.per_edge_costs


def test_oracle_guard():
    rng = np.random.default_rng(5)
    sets = [
        IkSolutionSet(i, tuple(rng.normal(size=2) for _ in range(10))) for i in range(7)
    ]
    with pytest.raises(GuardError, match="guard"):
        brute_force_selection(np.zeros(2), sets, EUCLID, _unit_params(2))


def test_adding_a_solution_never_increases_cost():
    rng = np.random.default_rng(6)
    for _ in range(30):
        home, sets, params = _random_instance(rng, n_range=(2, 6), m_range=(1, 4))
        base = shortest_selection(build_layered_graph(home, sets, EUCLID, params))
        layer = int(rng.integers(0, len(sets)))
        extended = list(sets)
        extended[layer] = IkSolutionSet(
            target_id=sets[layer].target_id,
            solutions=np.vstack([sets[layer].solutions, rng.uniform(-math.pi, math.pi, 6)]),
        )
        richer = shortest_selection(build_layered_graph(home, extended, EUCLID, params))
        assert richer.total_cost <= base.total_cost + 1e-12


def test_optimal_selection_dominates_any_fixed_assignment():
    rng = np.random.default_rng(7)
    for _ in range(30):
        home, sets, params = _random_instance(rng, n_range=(2, 6), m_range=(1, 4))
        graph = build_layered_graph(home, sets, EUCLID, params)
        best = shortest_selection(graph)
        fixed = tuple(int(rng.integers(0, s.count)) for s in sets)
        fixed_cost, _ = path_cost(graph, fixed)
        assert best.total_cost <= fixed_cost + 1e-12
