import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from taskseq.model import GuardError, generate_random_task, planar_arm, Task, TaskTarget
from taskseq.kinematics import forward_kinematics
from taskseq.metrics import MetricKind, MetricParams, pairwise_cost
from taskseq.tsp import (
    TOUR_COUNTERS,
    TourKind,
    TourOrder,
    brute_force_cycle,
    build_task_distance_matrix,
    open_order_from_cycle,
    solve_2opt,
    solve_exact,
    solve_rnn,
    tour_cost,
)
from taskseq import tsp

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _euclidean_matrix(points):
    points = np.asarray(points, dtype=float)
    return np.linalg.norm(points[:, None] - points[None, :], axis=-1)


def _line_matrix(coords):
    coords = np.asarray(coords, dtype=float)
    return np.abs(coords[:, None] - coords[None, :])


def _has_improving_exchange(dm, tour):
    """Full O(n^2) scan for any improving 2-exchange; the local-optimality oracle."""
    order = list(tour.order)
    n = len(order)
    base = tour_cost(dm, tour)
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            candidate = order[:i] + order[i:j + 1][::-1] + order[j + 1:]
            if tour_cost(dm, TourOrder(tuple(candidate))) < base - 1e-12:
                return True
    return False


def _exchange_deltas(dm, order, rows):
    """Gain of exchanging edge i (order[i]-order[i+1]) with every later edge j, for i in rows."""
    a = np.asarray(order)
    b = np.roll(a, -1)
    with np.errstate(invalid="ignore"):
        return (dm[a[rows, None], a] + dm[b[rows, None], b]
                - dm[a[rows], b[rows]][:, None] - dm[a, b])


def _improving_exchange_count(dm, order, tol=1e-12):
    """Vectorized O(n^2) count of 2-exchanges gaining more than ``tol``; NaN gains never count."""
    n = len(order)
    count = 0
    for start in range(0, n, 256):
        rows = np.arange(start, min(start + 256, n))
        later = np.arange(n) > rows[:, None]
        count += int(np.count_nonzero((_exchange_deltas(dm, order, rows) < -tol) & later))
    return count


def test_distance_matrix_345():
    task = generate_random_task(2, 1, seed=0, mode="explicit_ik")
    task = Task(
        robot=task.robot,
        home=task.home,
        targets=(
            TaskTarget(id=0, position=[0.0, 0.0], ik_solutions=task.targets[0].ik_solutions),
            TaskTarget(id=1, position=[3.0, 4.0], ik_solutions=task.targets[1].ik_solutions),
        ),
    )
    dm = build_task_distance_matrix(task, include_home_depot=False)
    assert dm[0, 1] == pytest.approx(5.0)
    assert dm[1, 0] == pytest.approx(5.0)


def test_distance_matrix_is_symmetric_zero_diagonal():
    task = generate_random_task(9, 2, seed=4, mode="planar")
    dm = build_task_distance_matrix(task)
    assert dm.shape == (10, 10)  # home depot appended
    assert np.allclose(dm, dm.T)
    assert np.allclose(np.diag(dm), 0.0)


def test_distance_matrix_depot_is_home_fk_position():
    task = generate_random_task(4, 1, seed=2, mode="planar")
    dm = build_task_distance_matrix(task, include_home_depot=True)
    pose = forward_kinematics(task.robot, task.home)
    expected = math.hypot(pose.x - task.targets[0].position[0], pose.y - task.targets[0].position[1])
    assert dm[4, 0] == pytest.approx(expected)


def test_distance_matrix_requires_positions():
    robot = planar_arm()
    task = Task(robot=robot, home=np.zeros(3),
                targets=(TaskTarget(id=0, ik_solutions=(np.zeros(3),)),))
    with pytest.raises(ValueError):
        build_task_distance_matrix(task)


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=40),
    scale=st.sampled_from([1.0, 1e-30, 1e20, 1e50]),
    depot=st.booleans(),
)
def test_distance_matrix_equals_the_norm_formula_bit_for_bit(points, scale, depot):
    robot = planar_arm()
    targets = tuple(TaskTarget(id=i, position=[x * scale, y * scale])
                    for i, (x, y) in enumerate(points))
    task = Task(robot=robot, home=np.zeros(3), targets=targets)
    nodes = [t.position for t in targets]
    if depot:
        pose = forward_kinematics(robot, task.home)
        nodes.append([pose.x, pose.y])
    dm = build_task_distance_matrix(task, include_home_depot=depot)
    assert dm.tobytes() == _euclidean_matrix(nodes).tobytes()


def _two_array_matrix(points):
    """The distance formula with one whole (n, n) array per axis."""
    dx, dy = (np.subtract.outer(axis, axis) for axis in np.asarray(points, dtype=float).T)
    return np.sqrt(dx * dx + dy * dy)


@pytest.mark.parametrize("depot", [False, True])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129, 401])
def test_distance_matrix_in_bands_equals_the_two_array_formula(n, depot):
    # ROW_BLOCK is 64: one band, exactly one, one plus a row, two, two plus a row, and more.
    task = generate_random_task(n, 1, seed=n, mode="planar")
    nodes = [t.position for t in task.targets]
    if depot:
        pose = forward_kinematics(task.robot, task.home)
        nodes.append([pose.x, pose.y])
    dm = build_task_distance_matrix(task, include_home_depot=depot)
    assert dm.shape == (len(nodes), len(nodes))
    assert dm.tobytes() == _two_array_matrix(nodes).tobytes()


def test_distance_matrix_holds_one_n_by_n_array():
    task = generate_random_task(400, 1, seed=1, mode="planar")  # 401 nodes with the depot
    tracemalloc.start()
    try:
        dm = build_task_distance_matrix(task)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dm.shape == (401, 401)
    assert peak < 1.5 * dm.nbytes  # two (n, n) arrays would be 2 * n * n * 8 bytes


@pytest.mark.parametrize("order,message", [
    ((0, -1), "tour node -1 is outside [0, 3)"),  # not read as node 2
    ((0, 1, -3), "tour node -3 is outside [0, 3)"),
    ((0, 3), "tour node 3 is outside [0, 3)"),    # not a bare IndexError
    ((5, -1), "tour node 5 is outside [0, 3)"),
    ((0, 1.2, 2.7), "tour node 1.2 is not an integer"),  # not truncated to (0, 1, 2)
    ((0, 1, 2.0), "tour node 2.0 is not an integer"),
    (("1", "0"), "tour node '1' is not an integer"),
])
@pytest.mark.parametrize("kind", list(TourKind))
def test_tour_cost_refuses_a_node_outside_the_matrix(order, message, kind):
    dm = _line_matrix([0.0, 1.0, 2.0])
    assert tour_cost(dm, TourOrder((0, 2), kind)) == (4.0 if kind is TourKind.CLOSED_CYCLE else 2.0)
    assert tour_cost(dm, TourOrder((), kind)) == 0.0
    with pytest.raises(ValueError, match=re.escape(message)):
        tour_cost(dm, TourOrder(order, kind))


def test_exact_square():
    dm = _euclidean_matrix(SQUARE)
    tour = solve_exact(dm)
    assert tour.order == (0, 1, 2, 3)  # canonical orientation
    assert tour_cost(dm, tour) == pytest.approx(4.0)


def test_exact_collinear():
    dm = _line_matrix([0.0, 1.0, 2.0])
    assert tour_cost(dm, solve_exact(dm)) == pytest.approx(4.0)


def test_exact_matches_permutation_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dm = _euclidean_matrix(rng.uniform(0, 1, (8, 2)))
        assert tour_cost(dm, solve_exact(dm)) == tour_cost(dm, brute_force_cycle(dm))


def test_exact_guard_refuses_large_instances():
    dm = np.zeros((21, 21))
    with pytest.raises(GuardError, match="guard"):
        solve_exact(dm)
    with pytest.raises(GuardError, match="guard"):
        brute_force_cycle(np.zeros((11, 11)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_cluster_walk_never_counts_a_move_within_a_cluster(data):
    # The joint optimum prices its node matrix in one call, each target's own moves too:
    # a state without cluster b is inf at every vertex of b, so those entries never count.
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=5), label="sizes")
    metric = data.draw(st.sampled_from(list(MetricKind)), label="metric")
    lattice = st.integers(-20, 20).map(lambda k: k / 10)  # ties, and sums that round
    nodes = data.draw(st.lists(st.tuples(lattice, lattice), min_size=sum(sizes) + 1,
                               max_size=sum(sizes) + 1), label="nodes")
    params = MetricParams(weights=[1.0, 0.5], vel_max=[1.0, 2.0], acc_max=[1.0, 3.0])
    priced = pairwise_cost(metric, params, nodes, nodes)
    cluster = np.repeat(np.arange(len(sizes)), sizes)  # of vertex v, node v + 1
    within = np.zeros(priced.shape, dtype=bool)
    within[1:, 1:] = np.equal.outer(cluster, cluster)
    walks = [tsp._cluster_walk(np.where(within, fill, priced), cluster)
             for fill in (0.0, priced, 1e300)]
    assert len({(cost.hex(), tuple(walk)) for cost, walk in walks}) == 1


def _either_way_cost(dm, cycle):
    """The smaller of a cycle's two edge sums from node 0, one per direction."""
    return min(tour_cost(dm, cycle), tour_cost(dm, TourOrder(cycle.order[:1] + cycle.order[:0:-1])))


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 8).flatmap(lambda n: st.lists(st.integers(0, 9), min_size=n * (n - 1) // 2,
                                                    max_size=n * (n - 1) // 2)))
@example([2, 1, 3, 3, 3, 4])  # the cycle 0-2-1-3 sums to 1.0, and to 0.9999999999999999 reversed
def test_exact_matches_the_permutation_oracle_when_sums_round(upper):
    # Entries k/10 round as they add, so a cycle's two directions can sum to two
    # floats; the subset DP minimises the smaller, and so must the oracle.
    n = (1 + math.isqrt(1 + 8 * len(upper))) // 2
    dm = np.zeros((n, n))
    dm[np.triu_indices(n, 1)] = np.array(upper) / 10
    dm = dm + dm.T
    assert _either_way_cost(dm, solve_exact(dm)) == _either_way_cost(dm, brute_force_cycle(dm))


def test_exact_cost_is_label_equivariant():
    rng = np.random.default_rng(13)
    dm = _euclidean_matrix(rng.uniform(0, 1, (7, 2)))
    perm = rng.permutation(7)
    permuted = dm[np.ix_(perm, perm)]
    assert tour_cost(dm, solve_exact(dm)) == pytest.approx(
        tour_cost(permuted, solve_exact(permuted))
    )


def test_2opt_uncrosses_the_square():
    dm = _euclidean_matrix(SQUARE)
    crossed = TourOrder((0, 2, 1, 3))
    tour = solve_2opt(dm, crossed)
    assert tour_cost(dm, tour) == pytest.approx(tour_cost(dm, solve_exact(dm)))


def test_2opt_keeps_optimal_tour_cost():
    dm = _euclidean_matrix(SQUARE)
    optimal = solve_exact(dm)
    assert tour_cost(dm, solve_2opt(dm, optimal)) == pytest.approx(tour_cost(dm, optimal))


def test_2opt_is_locally_optimal_and_never_worse_than_initial():
    rng = np.random.default_rng(17)
    for _ in range(25):
        dm = _euclidean_matrix(rng.uniform(0, 1, (12, 2)))
        initial = solve_rnn(dm, 1)
        tour = solve_2opt(dm, initial)
        assert tour_cost(dm, tour) <= tour_cost(dm, initial) + 1e-12
        assert not _has_improving_exchange(dm, tour)


def test_2opt_reports_its_work_and_leaves_tiny_tours_alone():
    rng = np.random.default_rng(41)
    dm = _euclidean_matrix(rng.uniform(0, 1, (60, 2)))
    stats = {}
    tour = solve_2opt(dm, stats=stats)
    assert set(stats) == set(TOUR_COUNTERS)
    assert stats["two_opt_moves"] + stats["or_opt_moves"] > 0
    assert stats["check_rounds"] >= 1
    assert solve_2opt(dm) == tour  # the counters change nothing
    for n in (1, 2, 3):
        stats = {}
        assert solve_2opt(np.ones((n, n)), stats=stats).order == tuple(range(n))
        assert stats == dict.fromkeys(TOUR_COUNTERS, 0)


def _ring_with_a_blocked_node(n=12):
    # A crossed ring: the exchange of edges 6 and 8 uncrosses it. Node 0 is at
    # inf from every other node, so every exchange of an edge at node 0 is NaN.
    angles = 2 * np.pi * np.arange(n) / n
    dm = _euclidean_matrix(np.stack([np.cos(angles), np.sin(angles)], axis=1))
    dm[0, 1:] = dm[1:, 0] = np.inf
    order = list(range(n))
    order[7], order[8] = order[8], order[7]
    return dm, np.array(order)


def test_full_exchange_check_skips_nan_gains():
    dm, order = _ring_with_a_blocked_node()
    assert tsp._improving_exchange(dm, order, tsp.IMPROVEMENT_EPS) == (6, 8)


@pytest.mark.parametrize("far", [1e20, 1e50])
@pytest.mark.parametrize("n", [4, 30])
def test_2opt_terminates_when_distances_dwarf_their_differences(n, far):
    # Every distance to the far point rounds to the same value, so a move's
    # gain is rounding noise far above 1e-12; moves must not cycle on it.
    points = np.random.default_rng(n).uniform(-2.0, 2.0, (n, 2))
    points[2] = (0.0, far)
    dm = _euclidean_matrix(points)
    stats = {}
    tour = solve_2opt(dm, stats=stats)
    assert sorted(tour.order) == list(range(n))
    assert stats["two_opt_moves"] + stats["or_opt_moves"] < n * n
    assert tour_cost(dm, tour) <= tour_cost(dm, solve_rnn(dm, 1)) * (1 + 1e-12)


def _one_sided(change):
    # Six points on which a one-sided inf at (1, 3) once kept 2-opt cycling without end.
    dm = _euclidean_matrix(_points(6, 4))
    dm[1, 3] = change(dm[1, 3])
    return dm


@pytest.mark.parametrize("change, refusal", [(lambda d: np.inf, "finite"), (lambda d: d / 2, "symmetric")],
                         ids=["inf", "finite"])
def test_2opt_refuses_a_matrix_that_is_not_symmetric(change, refusal):
    with pytest.raises(ValueError, match=f"distance matrix must be {refusal}"):
        solve_2opt(_one_sided(change))


@pytest.mark.parametrize("solver", [solve_exact, brute_force_cycle], ids=["exact", "oracle"])
def test_the_exact_solver_and_its_oracle_refuse_a_matrix_that_is_not_symmetric(solver):
    # On such a matrix, turning a cycle or skipping its mirror image changes its cost.
    with pytest.raises(ValueError, match="distance matrix must be symmetric"):
        solver(_one_sided(lambda d: d / 2))


_TOUR_FUNCTIONS = {
    "tour_cost": lambda dm: tour_cost(dm, TourOrder(range(len(dm)))),
    "rnn": lambda dm: solve_rnn(dm, len(dm)),
    "exact": solve_exact,
    "oracle": brute_force_cycle,
    "2opt": solve_2opt,
}


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", sorted(_TOUR_FUNCTIONS))
def test_the_tour_solvers_refuse_a_matrix_that_is_not_finite(name, value):
    dm = _euclidean_matrix(_points(8, 8))
    dm[2, 5] = dm[5, 2] = value  # placed symmetrically: only finiteness is at stake
    with pytest.raises(ValueError, match="distance matrix must be finite"):
        _TOUR_FUNCTIONS[name](dm)


@st.composite
def _planar_points(draw):
    n = draw(st.integers(1, 60), label="n")
    kind = draw(st.sampled_from(["grid", "collinear", "duplicates"]), label="kind")
    if kind == "grid":  # repeated distances: ties everywhere
        cells = st.tuples(st.integers(0, 6), st.integers(0, 6))
        return draw(st.lists(cells, min_size=n, max_size=n))
    if kind == "collinear":
        xs = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
        slope = draw(st.sampled_from([0.0, 0.5, 3.0]))
        return [(x, slope * x) for x in xs]
    distinct = draw(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    return [distinct[i] for i in picks]  # zero distances between copies


@settings(max_examples=200, deadline=None)
@given(points=_planar_points(), data=st.data())
def test_2opt_properties_on_grid_collinear_and_duplicate_points(points, data):
    dm = _euclidean_matrix(points)
    n = len(points)
    initial = data.draw(st.none() | st.permutations(range(n)).map(TourOrder), label="initial")
    tour = solve_2opt(dm, initial)
    assert sorted(tour.order) == list(range(n))
    assert _improving_exchange_count(dm, tour.order) == 0
    # 1e-9: the costs below are sums taken in another order than the move gains
    assert tour_cost(dm, tour) <= tour_cost(dm, solve_rnn(dm, 1)) + 1e-9 or initial is not None
    if initial is not None:
        assert tour_cost(dm, tour) <= tour_cost(dm, initial) + 1e-9
    assert solve_2opt(dm, initial) == tour


def _neighbor_lists_ranking_self_as_inf(dm, k):
    """The neighbour lists with every node's own entry ranked as inf, in one pass per block."""
    n = dm.shape[0]
    neighbors = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, tsp.ROW_BLOCK):
        block = dm[start:start + tsp.ROW_BLOCK].copy()
        rows = np.arange(len(block))
        block[rows, start + rows] = np.inf
        part = np.argpartition(block, k - 1, axis=1)[:, :k]
        nearest = np.argsort(np.take_along_axis(block, part, axis=1), axis=1, kind="stable")
        neighbors[start:start + tsp.ROW_BLOCK] = np.take_along_axis(part, nearest, axis=1)
    return neighbors.tolist(), dm[np.arange(n)[:, None], neighbors].tolist()


@st.composite
def _tie_heavy_matrices(draw):
    """Symmetric distance matrices whose rows tie: grids and copies."""
    n = draw(st.sampled_from([63, 64, 65, 129]), label="n")  # around ROW_BLOCK = 64
    k = draw(st.sampled_from([1, 16, n - 1]), label="k")
    kind = draw(st.sampled_from(["grid", "duplicates", "uniform"]), label="kind")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "grid":  # integer points: equal distances everywhere
        points = rng.integers(0, draw(st.integers(1, 12), label="side"), (n, 2))
    elif kind == "duplicates":  # zero distances between copies
        points = rng.uniform(0.0, 1.0, (draw(st.integers(1, 20), label="distinct"), 2))
        points = points[rng.integers(0, len(points), n)]
    else:
        points = rng.uniform(0.0, 1.0, (n, 2))
    return _euclidean_matrix(points), k


@settings(max_examples=300, deadline=None)
@given(case=_tie_heavy_matrices())
def test_neighbor_lists_keep_the_order_of_the_inf_ranked_selection(case):
    dm, k = case
    neighbors, near = tsp._neighbor_lists(dm, k)
    want_neighbors, want_near = _neighbor_lists_ranking_self_as_inf(dm, k)
    assert neighbors == want_neighbors
    assert repr(near) == repr(want_near)


def test_2opt_at_2001_points_is_2opt_optimal_and_beats_its_seed():
    # The old all-starts seed made this take minutes; no timing is asserted.
    dm = _euclidean_matrix(np.random.default_rng(2001).uniform(0, 10, (2001, 2)))
    tour = solve_2opt(dm)
    assert sorted(tour.order) == list(range(2001))
    assert _improving_exchange_count(dm, tour.order) == 0
    assert tour_cost(dm, tour) <= tour_cost(dm, solve_rnn(dm, 1))


def _task_matrix(n, seed):
    return build_task_distance_matrix(generate_random_task(n, 1, seed=seed, mode="planar"))


def _points(n, seed):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (n, 2))


def _shuffled(n, seed):
    return TourOrder(np.random.default_rng(seed).permutation(n))


_GRID = np.indices((6, 6)).reshape(2, -1).T  # every distance repeats: ties everywhere

#: name -> (matrix, initial tour or None for the nearest-neighbor seed).
_PINNED_CASES = {
    **{f"tour-large-{s}": (lambda s=s: (_task_matrix(400, s), None)) for s in (1, 2, 3)},
    "ik-dense": lambda: (_task_matrix(150, 1), None),
    "grid-6x6": lambda: (_euclidean_matrix(_GRID), None),
    "grid-6x6-shuffled": lambda: (_euclidean_matrix(_GRID), _shuffled(36, 6)),
    "duplicates": lambda: (_euclidean_matrix(_points(5, 5)[np.arange(30) % 5]), None),
    **{f"n{n}": (lambda n=n: (_euclidean_matrix(_points(n, n)), None)) for n in range(4, 8)},
    **{f"n{n}-shuffled": (lambda n=n: (_euclidean_matrix(_points(n, n)), _shuffled(n, n)))
       for n in range(4, 8)},
    **{f"shuffled-{s}": (lambda s=s: (_euclidean_matrix(_points(80, s)), _shuffled(80, s)))
       for s in (1, 2, 3)},
}


def _pinned_form(order):
    """Orders up to 40 nodes as they are; longer ones by digest."""
    if len(order) <= 40:
        return tuple(order)
    return hashlib.sha256(repr(tuple(order)).encode()).hexdigest()[:16]


#: name -> (pinned form of the 2-opt order, TOUR_COUNTERS); computed before the
#: local search read distance rows, so each move and counter is unchanged since.
_PINNED = {
    "duplicates": ((
        0, 5, 10, 15, 20, 25, 1, 6, 11, 16, 21, 26, 3, 8, 13, 18, 23, 28, 2, 7, 12, 17, 22, 27, 4, 9,
        14, 19, 24, 29
    ), (0, 0, 1)),
    "grid-6x6": ((
        12, 6, 0, 1, 2, 3, 4, 5, 11, 10, 9, 8, 7, 13, 14, 15, 16, 17, 23, 22, 21, 20, 19, 25, 26, 27,
        28, 29, 35, 34, 33, 32, 31, 30, 24, 18
    ), (4, 0, 1)),
    "grid-6x6-shuffled": ((
        20, 19, 13, 14, 8, 7, 2, 1, 0, 6, 12, 18, 25, 24, 30, 31, 32, 26, 27, 33, 34, 35, 28, 29, 23, 22,
        16, 17, 11, 5, 4, 3, 9, 10, 15, 21
    ), (3, 39, 1)),
    "ik-dense": ('36a73d2111aeca7f', (33, 47, 3)),
    "n4": ((0, 2, 3, 1), (0, 0, 1)),
    "n4-shuffled": ((2, 0, 1, 3), (0, 1, 1)),
    "n5": ((0, 1, 3, 2, 4), (0, 0, 1)),
    "n5-shuffled": ((0, 1, 3, 2, 4), (0, 2, 1)),
    "n6": ((1, 0, 4, 3, 2, 5), (0, 2, 1)),
    "n6-shuffled": ((4, 3, 2, 5, 1, 0), (0, 3, 1)),
    "n7": ((0, 2, 3, 6, 5, 1, 4), (0, 0, 1)),
    "n7-shuffled": ((6, 3, 2, 0, 4, 1, 5), (0, 3, 1)),
    "shuffled-1": ('e9510ad719934fe5', (25, 127, 1)),
    "shuffled-2": ('7d24ea5f72420c72', (24, 119, 1)),
    "shuffled-3": ('3dbeab32e331e016', (25, 106, 1)),
    "tour-large-1": ('917cb7624ecc65a5', (54, 79, 1)),
    "tour-large-2": ('dee7641d177992e9', (57, 124, 1)),
    "tour-large-3": ('225d6d41325766d1', (84, 117, 1)),
}


@pytest.mark.parametrize("name", sorted(_PINNED_CASES))
def test_2opt_orders_and_counters_are_pinned(name):
    dm, initial = _PINNED_CASES[name]()
    stats = {}
    order = solve_2opt(dm, initial, stats=stats).order
    assert (_pinned_form(order), tuple(stats[c] for c in TOUR_COUNTERS)) == _PINNED[name]


@pytest.mark.parametrize("name", ["n5", "n7", "grid-6x6", "duplicates", "tour-large-1"])
def test_2opt_from_the_one_start_nearest_neighbour_tour_is_its_default(name):
    dm, initial = _PINNED_CASES[name]()
    assert initial is None
    seeded, default = {}, {}
    assert solve_2opt(dm, solve_rnn(dm, 1), stats=seeded) == solve_2opt(dm, stats=default)
    assert seeded == default


def test_rnn_on_a_line():
    dm = _line_matrix([0.0, 1.0, 3.0, 7.0])
    tour = solve_rnn(dm, 1)
    assert tour.order == (0, 1, 2, 3)
    assert tour_cost(dm, tour) == pytest.approx(14.0)


def test_rnn_more_restarts_never_hurt():
    rng = np.random.default_rng(19)
    for _ in range(20):
        dm = _euclidean_matrix(rng.uniform(0, 1, (10, 2)))
        assert tour_cost(dm, solve_rnn(dm, 10)) <= tour_cost(dm, solve_rnn(dm, 1)) + 1e-12


def test_rnn_corners_itself():
    # Frozen by seed search: every greedy start is strictly worse than optimal here.
    rng = np.random.default_rng(5)
    dm = _euclidean_matrix(rng.uniform(0, 1, (9, 2)))
    assert tour_cost(dm, solve_rnn(dm, 9)) > tour_cost(dm, solve_exact(dm)) + 1e-9


def test_rnn_validates_restarts():
    dm = _euclidean_matrix(SQUARE)
    with pytest.raises(ValueError):
        solve_rnn(dm, 0)
    with pytest.raises(ValueError):
        solve_rnn(dm, 5)
    for restarts in (2.0, 2.5, "2"):
        with pytest.raises(ValueError, match="is not an integer"):
            solve_rnn(dm, restarts)
    assert solve_rnn(dm, np.int64(2)) == solve_rnn(dm, 2)


def test_tour_cost_variants():
    dm = _euclidean_matrix(SQUARE)
    assert tour_cost(dm, TourOrder((0, 1, 2, 3))) == pytest.approx(4.0)
    assert tour_cost(np.zeros((1, 1)), TourOrder((0,))) == 0.0
    line = _line_matrix([0.0, 1.0, 2.0])
    assert tour_cost(line, TourOrder((0, 1, 2), TourKind.OPEN_PATH)) == pytest.approx(2.0)


def test_tour_cost_adds_its_edges_in_visiting_order():
    # Edges 1e16, 1, 1: each 1 rounds away; a compensated sum would keep both.
    dm = np.array([[0.0, 1e16, 1.0], [1e16, 0.0, 1.0], [1.0, 1.0, 0.0]])
    assert tour_cost(dm, TourOrder((0, 1, 2))) == 1e16


def test_solver_cost_ordering():
    rng = np.random.default_rng(23)
    for _ in range(20):
        dm = _euclidean_matrix(rng.uniform(0, 1, (9, 2)))
        exact = tour_cost(dm, solve_exact(dm))
        two_opt = tour_cost(dm, solve_2opt(dm))
        rnn = tour_cost(dm, solve_rnn(dm, 1))
        assert exact <= two_opt + 1e-12
        assert two_opt <= rnn + 1e-12


def test_open_order_tie_break():
    cycle = TourOrder((3, 2, 0, 1))  # depot 3
    assert open_order_from_cycle(cycle, depot=3).order == (1, 0, 2)
    assert open_order_from_cycle(cycle, depot=3).kind is TourKind.OPEN_PATH


def test_open_order_single_target():
    assert open_order_from_cycle(TourOrder((0, 1)), depot=1).order == (0,)


def test_open_order_requires_depot_in_cycle():
    with pytest.raises(ValueError):
        open_order_from_cycle(TourOrder((0, 1, 2)), depot=5)


def test_open_path_cost_never_exceeds_cycle_cost():
    rng = np.random.default_rng(29)
    for _ in range(20):
        dm = _euclidean_matrix(rng.uniform(0, 1, (7, 2)))
        cycle = solve_exact(dm)
        open_path = open_order_from_cycle(cycle, depot=cycle.order[0])
        assert tour_cost(dm, open_path) <= tour_cost(dm, cycle) + 1e-12


def test_exact_enumeration_equivalence_tiny():
    # For n=5 the permutation oracle agrees with a raw itertools sweep.
    rng = np.random.default_rng(31)
    dm = _euclidean_matrix(rng.uniform(0, 1, (5, 2)))
    best = min(
        tour_cost(dm, TourOrder((0,) + perm))
        for perm in itertools.permutations(range(1, 5))
    )
    assert tour_cost(dm, brute_force_cycle(dm)) == pytest.approx(best)


def _rnn_by_start(dm, restarts):
    """Repeated nearest-neighbor written one start at a time, the reference for solve_rnn."""
    n = dm.shape[0]
    best_cost, best_order = np.inf, list(range(n))
    for start in range(restarts):
        order, cost, current = [start], 0.0, start
        remaining = dm[start].copy()
        remaining[start] = np.inf
        for _ in range(n - 1):
            nxt = int(np.argmin(remaining))
            cost += dm[current, nxt]
            order.append(nxt)
            remaining = dm[nxt].copy()
            remaining[order] = np.inf
            current = nxt
        cost += dm[current, start]
        if cost < best_cost:
            best_cost, best_order = cost, order
    return tuple(best_order)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rnn_matches_the_per_start_loop_on_grid_points(data):
    # Integer-grid points repeat distances, so nearest-neighbor and cost ties are common.
    n = data.draw(st.integers(1, 12), label="n")
    points = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                min_size=n, max_size=n), label="points")
    restarts = data.draw(st.integers(1, n), label="restarts")
    dm = _euclidean_matrix(points)
    assert solve_rnn(dm, restarts).order == _rnn_by_start(dm, restarts)


@pytest.mark.parametrize("restarts", [1, 3])
def test_rnn_matches_the_per_start_loop_on_a_400_target_task(restarts):
    dm = build_task_distance_matrix(generate_random_task(400, 1, seed=1, mode="planar"))
    assert solve_rnn(dm, restarts).order == _rnn_by_start(dm, restarts)


@pytest.mark.parametrize("restarts", range(1, 9))
def test_rnn_matches_the_per_start_loop_on_60_grid_points(restarts):
    # 60 points on a 6 x 6 grid: repeated points and equal distances tie at every step.
    points = np.random.default_rng(restarts).integers(0, 6, (60, 2))
    dm = _euclidean_matrix(points)
    assert solve_rnn(dm, restarts).order == _rnn_by_start(dm, restarts)
