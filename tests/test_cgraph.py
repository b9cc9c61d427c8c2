import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskseq import cgraph, metrics
from taskseq.cgraph import (
    brute_force_selection,
    build_layered_graph,
    path_cost,
    shortest_selection,
)
from taskseq.kinematics import IkSolutionSet
from taskseq.metrics import TILE_ENTRIES, MetricKind, MetricParams, edge_cost
from taskseq.model import GuardError, ordered_sum

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


# Joint limits drawn from a small pool, so joints share them and the max-based
# metrics price groups; the first pair is not monotone across its branch point.
_LIMIT_POOL = [(0.05407598572326695, 3.8795177930322358), (1.0, 1.0), (0.5, 2.0), (2.816, 1.324)]


def _edge_cost_table(kind, params, a, b):
    """``edge_cost`` of every pair of rows, one scalar call each."""
    return np.array([[edge_cost(kind, params, p, q) for q in b] for p in a])


def _assert_graph_is_priced_pair_by_pair(graph, blocks, home, layers, kind, params):
    """``graph``'s Start and Goal edges and ``blocks``, its step blocks as read, against edge_cost."""
    home = home[None]
    assert graph.start_costs.tobytes() == _edge_cost_table(kind, params, home, layers[0])[0].tobytes()
    assert graph.goal_costs.tobytes() == _edge_cost_table(kind, params, layers[-1], home)[:, 0].tobytes()
    assert len(blocks) == len(layers) - 1
    for block, a, b in zip(blocks, layers, layers[1:]):
        assert block.shape == (len(a), len(b))
        assert block.tobytes() == _edge_cost_table(kind, params, a, b).tobytes()


def _counting_pairwise_cost(calls):
    def counted(*args, **kwargs):
        calls.append(args)  # the positional arguments alone, as perfbench's tracer records them
        return metrics.pairwise_cost(*args, **kwargs)

    return counted


@st.composite
def _tiled_graphs(draw):
    """A tile size, a metric and layers whose sizes make blocks of one row,
    blocks just below, at and just above a tile, and runs of equal-size
    layers long enough to span several tiles, ragged in between."""
    tile = draw(st.sampled_from([1, 2, 6, 12, 20, TILE_ENTRIES]))
    kind = draw(st.sampled_from(list(MetricKind)))
    dof = draw(st.integers(1, 9))
    side = max(1, math.isqrt(min(tile, 20)))
    sizes = st.sampled_from(sorted({1, 2, side, side + 1, *(
        m for m in (tile - 1, tile, tile + 1) if 1 <= m <= 21)}))
    runs = draw(st.lists(st.tuples(sizes, st.integers(1, 14)), min_size=1, max_size=4))
    layer_sizes = [m for m, repeat in runs for _ in range(repeat)][:24]
    pairs = draw(st.lists(st.sampled_from(_LIMIT_POOL), min_size=dof, max_size=dof))
    weights = draw(st.lists(st.floats(0.25, 4.0), min_size=dof, max_size=dof))
    params = MetricParams(weights, [v for v, _ in pairs], [a for _, a in pairs])
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    home = rng.uniform(-math.pi, math.pi, dof)
    layers = [rng.uniform(-math.pi, math.pi, (m, dof)) for m in layer_sizes]
    return tile, kind, params, home, layers


@settings(max_examples=60, deadline=None)
@given(drawn=_tiled_graphs())
def test_tiled_pricing_equals_edge_cost_byte_for_byte(drawn):
    tile, kind, params, home, layers = drawn
    sets = [IkSolutionSet(t, layer) for t, layer in enumerate(layers)]
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "TILE_ENTRIES", tile)
        patch.setattr(cgraph, "pairwise_cost", _counting_pairwise_cost(calls))
        graph = build_layered_graph(home, sets, kind, params)
        assert len(calls) == 2  # the Start and Goal edges; the step blocks are priced when read
        blocks = tuple(graph.step_costs)
        assert graph.price_calls == len(calls)
    for _, _, a, b in calls:  # every stacked call stays within one tile
        if np.ndim(a) == 3:
            assert len(a) * a.shape[1] * b.shape[1] <= tile
    _assert_graph_is_priced_pair_by_pair(graph, blocks, home, layers, kind, params)  # read at the small tile


def _bits(selection):
    return selection.chosen, np.array([selection.total_cost, *selection.per_edge_costs]).tobytes()


def _swept_in_one_band(home, sets, kind, params):
    """The selection of the graph built and swept under an unbounded tile: every block
    is priced in one band and folded whole."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "TILE_ENTRIES", sys.maxsize)
        return shortest_selection(build_layered_graph(home, sets, kind, params))


def _read_path(graph, blocks, chosen):
    """The result of ``chosen`` with its step edges read from ``blocks`` and added by ordered_sum."""
    steps = (block[i, j] for block, i, j in zip(blocks, chosen, chosen[1:]))
    edges = tuple(map(float, (graph.start_costs[chosen[0]], *steps, graph.goal_costs[chosen[-1]])))
    return cgraph.SelectionResult(tuple(chosen), ordered_sum(edges), edges)


@settings(max_examples=60, deadline=None)
@given(drawn=_tiled_graphs(), choice_seed=st.integers(0, 2**32 - 1))
def test_sweep_over_blocks_as_priced_equals_the_sweep_of_whole_blocks(drawn, choice_seed):
    tile, kind, params, home, layers = drawn
    sets = [IkSolutionSet(t, layer) for t, layer in enumerate(layers)]
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "TILE_ENTRIES", tile)
        patch.setattr(cgraph, "pairwise_cost", _counting_pairwise_cost(calls))
        graph = build_layered_graph(home, sets, kind, params)
        swept = shortest_selection(graph)
        assert len(calls) == graph.price_calls  # each run priced once
        blocks = tuple(graph.step_costs)
        assert len(calls) == 2 * graph.price_calls - 2  # the sweep kept no run for this read
        total, edges = path_cost(graph, swept.chosen)
        rng = np.random.default_rng(choice_seed)
        other = tuple(int(rng.integers(m)) for m in graph.layer_sizes)  # any path, rarely optimal
        other_cost = path_cost(graph, other)
        assert len(calls) == 2 * graph.price_calls - 2  # path_cost priced no run
    assert all(len(args) == 4 for args in calls)  # perfbench's call_counts unpacks four
    assert _bits(swept) == _bits(_swept_in_one_band(home, sets, kind, params))
    assert _bits(swept) == _bits(cgraph.SelectionResult(swept.chosen, total, edges))
    assert _bits(swept) == _bits(_read_path(graph, blocks, swept.chosen))
    assert _bits(cgraph.SelectionResult(other, *other_cost)) == _bits(_read_path(graph, blocks, other))


@pytest.mark.parametrize("kind", list(MetricKind))
def test_the_sweep_holds_one_band_of_a_wide_block(kind):
    # One 600 x 600 block of 6-joint moves, 2.9 MB, priced in 12 bands of at most 54
    # rows: the sweep holds one band and its scores, never the block.
    rng = np.random.default_rng(14)
    layers = [rng.uniform(-math.pi, math.pi, (600, 6)) for _ in range(2)]
    graph = build_layered_graph(np.zeros(6), [IkSolutionSet(t, x) for t, x in enumerate(layers)],
                                kind, _unit_params(6))
    assert graph.step_cost_bytes == 600 * 600 * 8 and TILE_ENTRIES // 600 == 54
    tracemalloc.start()
    try:
        swept = shortest_selection(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < graph.step_cost_bytes / 2
    sets = [IkSolutionSet(t, x) for t, x in enumerate(layers)]
    assert _bits(swept) == _bits(_swept_in_one_band(np.zeros(6), sets, kind, _unit_params(6)))


@pytest.mark.parametrize("kind", list(MetricKind))
def test_the_sweep_folds_each_band_in_its_tile(kind):
    # The same 600 x 600 block: the pricing tile, its two scratch tiles and the
    # joint-major copy of one layer, but no second tile to add the cost to Goal into.
    rng = np.random.default_rng(14)
    layers = [rng.uniform(-math.pi, math.pi, (600, 6)) for _ in range(2)]
    graph = build_layered_graph(np.zeros(6), [IkSolutionSet(t, x) for t, x in enumerate(layers)],
                                kind, _unit_params(6))
    tracemalloc.start()
    try:
        shortest_selection(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * TILE_ENTRIES * 8


def test_one_target_has_no_step():
    rng = np.random.default_rng(15)
    for kind in MetricKind:
        single = [IkSolutionSet(0, rng.uniform(-math.pi, math.pi, (5, 4)))]
        graph = build_layered_graph(rng.uniform(-math.pi, math.pi, 4), single, kind, _unit_params(4))
        selection = shortest_selection(graph)
        chosen = selection.chosen
        assert len(selection.per_edge_costs) == 2  # the Start and Goal edges: no step move to price
        assert _bits(selection) == _bits(cgraph.SelectionResult(chosen, *path_cost(graph, chosen)))


@pytest.mark.parametrize("kind", list(MetricKind))
def test_blocks_around_one_tile_match_the_untiled_formula(kind):
    # 127 x 258 is just below a tile, 128 x 256 is one tile, 258 x 128 is just
    # above one; each is checked in full against the per-joint difference
    # formula and in a sample of entries against edge_cost.
    assert TILE_ENTRIES == 128 * 256
    rng = np.random.default_rng(11)
    params = MetricParams(rng.uniform(0.5, 3.0, 9), rng.uniform(0.5, 2.0, 9), rng.uniform(0.5, 2.0, 9))
    layers = [rng.uniform(-math.pi, math.pi, (m, 9)) for m in (127, 258, 128, 256, 1)]
    graph = build_layered_graph(np.zeros(9), [IkSolutionSet(t, x) for t, x in enumerate(layers)],
                                kind, params)
    assert graph.price_calls == 6
    for block, a, b in zip(graph.step_costs, layers, layers[1:]):
        diff = a[:, None, :] - b[None, :, :]
        if kind is MetricKind.WEIGHTED_EUCLIDEAN:
            expected = np.sqrt(sum(np.moveaxis(params.weights * diff * diff, -1, 0), 0.0))
        elif kind is MetricKind.MAX_JOINT_DIFFERENCE:
            expected = np.max(np.abs(diff) / params.vel_max, axis=-1)
        else:
            dist, v, acc = np.abs(diff), params.vel_max, params.acc_max
            expected = np.max(np.where(dist >= v * v / acc, dist / v + v / acc,
                                       2.0 * np.sqrt(dist / acc)), axis=-1)
        assert block.tobytes() == expected.tobytes()
        for i, j in zip(rng.integers(0, len(a), 50), rng.integers(0, len(b), 50)):
            assert block[i, j] == edge_cost(kind, params, a[i], b[j])


def test_equal_size_layers_are_priced_in_few_calls():
    # 400 layers of 16 poses: 399 blocks of 256 entries, 128 to a tile.
    rng = np.random.default_rng(12)
    sets = [IkSolutionSet(t, rng.uniform(-math.pi, math.pi, (16, 3))) for t in range(400)]
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cgraph, "pairwise_cost", _counting_pairwise_cost(calls))
        graph = build_layered_graph(np.zeros(3), sets, MetricKind.MAX_JOINT_DIFFERENCE, _unit_params(3))
        assert len(calls) == 2  # the Start and Goal edges; the step blocks are priced when read
        tuple(graph.step_costs)
    assert graph.price_calls == len(calls) == 6
    assert [len(np.atleast_2d(a)) for _, _, a, _ in calls] == [1, 16, 128, 128, 128, 15]


@st.composite
def _tied_graphs(draw):
    """Home and 1-7 layers of 1-4 configurations of 1-3 joints, every joint (rows may
    repeat) on the lattice {0, 0.5, 1, 2}: under max_joint_difference with unit limits
    every cost is a lattice difference and every sum is exact, so ties are real."""
    dof = draw(st.integers(1, 3))
    joints = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=dof, max_size=dof)
    layers = draw(st.lists(st.lists(joints, min_size=1, max_size=4), min_size=1, max_size=7))
    sets = [IkSolutionSet(t, np.array(layer)) for t, layer in enumerate(layers)]
    return np.array(draw(joints)), sets, _unit_params(dof)


def test_path_cost_adds_its_edges_from_the_start_side():
    # Edges 1e16, 1, 1, 1, 1e16: each 1 rounds away; a compensated sum would keep all three.
    sets = [IkSolutionSet(t, np.array([[1e16, t]])) for t in range(4)]
    graph = build_layered_graph(np.zeros(2), sets, MetricKind.MAX_JOINT_DIFFERENCE, _unit_params(2))
    total, edges = path_cost(graph, (0, 0, 0, 0))
    assert (total, edges) == (2e16, (1e16, 1.0, 1.0, 1.0, 1e16))
    assert math.fsum(edges) == 2e16 + 4


@pytest.mark.parametrize("chosen,message", [
    ((-1, 0, 0), "choice -1 of layer 0 is outside [0, 2)"),  # not read from the end
    ((0, -3, 0), "choice -3 of layer 1 is outside [0, 3)"),
    ((2, 0, 0), "choice 2 of layer 0 is outside [0, 2)"),    # not a bare IndexError
    ((1, 2, 1), "choice 1 of layer 2 is outside [0, 1)"),
    ((0.7, 1.9, 0), "choice 0.7 is not an integer"),          # not truncated to (0, 1, 0)
    ((1, 2.0, 0), "choice 2.0 is not an integer"),
    (("1", "0", "0"), "choice '1' is not an integer"),
])
def test_path_cost_refuses_a_choice_outside_its_layer(chosen, message):
    sets = [IkSolutionSet(t, np.ones((m, 2))) for t, m in enumerate((2, 3, 1))]
    graph = build_layered_graph(np.zeros(2), sets, MetricKind.MAX_JOINT_DIFFERENCE, _unit_params(2))
    assert path_cost(graph, (1, 2, 0))[0] == path_cost(graph, np.array([1, 2, 0]))[0] == 2.0
    with pytest.raises(ValueError, match=re.escape(message)):
        path_cost(graph, chosen)


@settings(max_examples=200, deadline=None)
@given(drawn=_tied_graphs())
def test_search_breaks_many_way_ties_like_the_enumeration(drawn):
    home, sets, params = drawn
    kind = MetricKind.MAX_JOINT_DIFFERENCE
    selection = shortest_selection(build_layered_graph(home, sets, kind, params))
    # the enumeration keeps the first strict minimum, in lexicographic order
    assert _bits(selection) == _bits(brute_force_selection(home, sets, kind, params))
