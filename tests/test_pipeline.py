import concurrent.futures
import dataclasses
import functools
import hashlib
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskseq import tsp
from taskseq.cgraph import brute_force_selection, build_layered_graph, path_cost
from taskseq.cli import parse_step_size, task_from_dict
from taskseq.kinematics import IkSolutionSet, Pose2D, forward_kinematics, ik_3r, ik_pool
from taskseq.metrics import MetricKind, MetricParams, default_weights
from taskseq.model import (
    GuardError,
    RobotModel,
    Task,
    TaskTarget,
    generate_random_task,
    ordered_sum,
    planar_arm,
    validate_task,
)
from taskseq.pipeline import (
    BENCHMARK_AXES,
    GTSP_GUARD_MOVES,
    PipelineConfig,
    _benchmark_variants,
    _tour,
    baseline_cspace_tsp,
    baseline_gtsp_exact,
    benchmark_run,
    execute_trajectory_schedule,
    instance_seed,
    manipulability_choice,
    resolve_ik_sets,
    solve_sequence,
)
from taskseq.tsp import (
    TOUR_COUNTERS,
    SolverKind,
    TourKind,
    TourOrder,
    brute_force_cycle,
    build_task_distance_matrix,
    open_order_from_cycle,
    solve_2opt,
    tour_cost,
)

COARSE = PipelineConfig(step_size=math.pi)  # keeps tiny instances inside all guards


def _single_joint_task():
    robot = RobotModel(dof=1, vel_max=[1.0], acc_max=[1.0])
    target = TaskTarget(id=0, position=[1.0, 0.0], ik_solutions=(np.array([2.0]),))
    return Task(robot=robot, home=[0.0], targets=(target,))


def test_degenerate_single_target_pipeline():
    task = _single_joint_task()
    result = solve_sequence(task, PipelineConfig(metric=MetricKind.LINEAR_INTERP_DURATION))
    assert result.order.order == (0,)
    assert result.selection.chosen == (0,)
    # home 0 -> 2 -> 0 with unit limits: two trapezoidal moves of 3 s each
    assert result.schedule_duration == pytest.approx(6.0)
    assert result.counts == {
        "n": 1, "total_ik": 1, "edges": 2, "vertices": 3, "step_cost_bytes": 0,
        "price_calls": 2, "poses_tried": 1, "poses_dropped": 0,
        "two_opt_moves": 0, "or_opt_moves": 0, "check_rounds": 0,  # a 2-node cycle has no move
    }


def test_pipeline_against_both_oracles():
    task = generate_random_task(5, 3, seed=21, mode="explicit_ik")
    config = PipelineConfig(tsp_solver=SolverKind.EXACT, metric=MetricKind.WEIGHTED_EUCLIDEAN)
    result = solve_sequence(task, config)

    # Step-1 oracle: the solved tour matches the permutation minimum.
    dm = build_task_distance_matrix(task, include_home_depot=True)
    assert result.step1_cost == tour_cost(dm, brute_force_cycle(dm))

    # Step-2 oracle: the selection matches exhaustive enumeration for the order.
    params = MetricParams.from_robot(task.robot)
    ik_sets = resolve_ik_sets(task, config.step_size)
    ordered = [ik_sets[t] for t in result.order.order]
    oracle = brute_force_selection(task.home, ordered, config.metric, params)
    assert result.selection.total_cost == oracle.total_cost
    assert result.selection.chosen == oracle.chosen


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_the_exact_step1_cost_is_the_minimum_over_every_directed_cycle(n):
    # Rounding can set a cycle's two directions apart, so step 1 must report the
    # direction the subset DP summed, not its reverse.
    config = PipelineConfig(tsp_solver=SolverKind.EXACT, step_size=math.pi / 2)
    for seed in range(50):
        task = generate_random_task(n, 1, seed, mode="planar")
        dm = build_task_distance_matrix(task)
        best = min(tour_cost(dm, TourOrder((0,) + perm)) for perm in itertools.permutations(range(1, n + 1)))
        assert solve_sequence(task, config).step1_cost == best, seed


def test_explicit_configurations_reach_the_solution_set_without_a_copy():
    task = generate_random_task(4, 5, seed=3, mode="explicit_ik")
    for target, entry in zip(task.targets, resolve_ik_sets(task, COARSE.step_size)):
        assert entry.solutions is target.ik_solutions


def test_pipeline_errors_before_step1_on_empty_ik():
    robot = RobotModel(dof=2, vel_max=[1.0, 1.0], acc_max=[1.0, 1.0])
    task = Task(
        robot=robot,
        home=[0.0, 0.0],
        targets=(TaskTarget(id=0, position=[0.5, 0.5], ik_solutions=()),),
    )
    with pytest.raises(ValueError, match="target 0"):
        solve_sequence(task)


def test_pipeline_errors_on_unreachable_planar_target():
    task = generate_random_task(3, 1, seed=0, mode="planar")
    far = TaskTarget(id=1, position=[9.0, 9.0])
    broken = Task(robot=task.robot, home=task.home,
                  targets=(task.targets[0], far, task.targets[2]))
    with pytest.raises(ValueError, match="unreachable"):
        solve_sequence(broken)


def test_schedule_identity_and_1d_examples():
    q = np.array([1.0, 2.0])
    assert execute_trajectory_schedule([q, q.copy()], [1.0, 1.0], [1.0, 1.0]) == 0.0
    assert execute_trajectory_schedule(
        [np.array([0.0]), np.array([2.0]), np.array([0.0])], [1.0], [1.0]
    ) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        execute_trajectory_schedule([q], [1.0, 1.0], [1.0, 1.0])


def test_schedule_adds_its_segments_in_order():
    # Segments of 1e16 s, 1 s and 1 s: each 1 rounds away; a compensated sum would keep both.
    sequence = [(0.0, 0.0), (1e16, 0.0), (1e16, 0.25), (1e16, 0.5)]
    assert execute_trajectory_schedule(sequence, [1.0, 1.0], [1.0, 1.0]) == 1e16


def test_schedule_equals_step2_cost_under_linear_interp_metric():
    task = generate_random_task(8, 4, seed=9, mode="planar")
    config = PipelineConfig(metric=MetricKind.LINEAR_INTERP_DURATION)
    result = solve_sequence(task, config)
    assert result.schedule_duration == result.selection.total_cost


def test_pipeline_is_deterministic():
    task = generate_random_task(10, 3, seed=31, mode="planar")
    a = solve_sequence(task, COARSE)
    b = solve_sequence(task, COARSE)
    assert a.order.order == b.order.order
    assert a.selection == b.selection
    assert a.schedule_duration == b.schedule_duration
    assert a.step1_cost == b.step1_cost
    assert a.counts == b.counts


def test_no_depot_mode_runs():
    task = generate_random_task(6, 2, seed=3, mode="planar")
    config = PipelineConfig(step_size=math.pi, include_home_depot=False)
    result = solve_sequence(task, config)
    assert sorted(result.order.order) == list(range(6))


def test_manipulability_baseline_single_ik_collapse():
    # With one configuration per target, the baseline's path cost for its
    # order equals the optimal selection's cost for that same order.
    task = generate_random_task(5, 1, seed=13, mode="explicit_ik")
    config = PipelineConfig(tsp_solver=SolverKind.EXACT)
    theirs = baseline_cspace_tsp(task, config)
    assert theirs.selection.chosen == (0,) * 5
    params = MetricParams.from_robot(task.robot)
    ik_sets = resolve_ik_sets(task, config.step_size)
    ordered = [ik_sets[t] for t in theirs.order.order]
    graph = build_layered_graph(task.home, ordered, config.metric, params)
    expected, _ = path_cost(graph, (0,) * 5)
    assert theirs.selection.total_cost == expected


def test_manipulability_baseline_is_dominated_for_fixed_order():
    for seed in range(5):
        task = generate_random_task(6, 1, seed=seed, mode="planar")
        ours = solve_sequence(task, COARSE)
        params = MetricParams.from_robot(task.robot)
        ik_sets = resolve_ik_sets(task, COARSE.step_size)
        fixed = manipulability_choice(task, ik_sets)
        ordered = [ik_sets[t] for t in ours.order.order]
        graph = build_layered_graph(task.home, ordered, COARSE.metric, params)
        fixed_cost, _ = path_cost(graph, tuple(fixed[t] for t in ours.order.order))
        assert ours.selection.total_cost <= fixed_cost + 1e-12


def test_manipulability_tie_picks_lowest_index():
    robot = RobotModel(dof=3, vel_max=np.ones(3), acc_max=np.ones(3),
                       planar_links=np.array([1.0, 1.0, 1.0]))
    q = np.array([0.1, 0.2, 0.3])
    mirrored = -q  # exact tie: mirroring about the x-axis preserves det(J J^T)
    task = Task(robot=robot, home=np.zeros(3),
                targets=(TaskTarget(id=0, ik_solutions=(q, mirrored)),))
    ik_sets = resolve_ik_sets(task, math.pi)
    assert manipulability_choice(task, ik_sets) == [0]


def test_gtsp_two_targets_enumerates_both_orders():
    task = generate_random_task(2, 1, seed=17, mode="explicit_ik")
    config = PipelineConfig()
    joint = baseline_gtsp_exact(task, config)
    params = MetricParams.from_robot(task.robot)
    ik_sets = resolve_ik_sets(task, config.step_size)
    costs = []
    for perm in ((0, 1), (1, 0)):
        ordered = [ik_sets[t] for t in perm]
        graph = build_layered_graph(task.home, ordered, config.metric, params)
        costs.append(path_cost(graph, (0, 0))[0])
    assert joint.selection.total_cost == min(costs)


def test_gtsp_never_exceeds_the_decoupled_pipeline():
    for seed in range(10):
        task = generate_random_task(5, 3, seed=seed, mode="explicit_ik")
        joint = baseline_gtsp_exact(task, COARSE)
        ours = solve_sequence(task, COARSE)
        assert joint.selection.total_cost <= ours.selection.total_cost + 1e-12


def test_runners_report_the_same_timings_and_counts():
    task = generate_random_task(4, 1, seed=7, mode="planar")
    results = [runner(task, COARSE)
               for runner in (solve_sequence, baseline_cspace_tsp, baseline_gtsp_exact)]
    assert {tuple(r.timings) for r in results} == {("ik_ms", "step1_ms", "step2_ms", "step3_ms")}
    assert {tuple(r.counts) for r in results} == {
        ("n", "total_ik", "edges", "vertices", "step_cost_bytes", "price_calls", "poses_tried",
         "poses_dropped", "two_opt_moves", "or_opt_moves", "check_rounds")
    }
    assert results[2].timings["step1_ms"] > 0.0  # the joint optimum's search is its step 1


@pytest.mark.parametrize("depot", [True, False])
@pytest.mark.parametrize("runner", [solve_sequence, baseline_cspace_tsp, baseline_gtsp_exact])
def test_every_method_refuses_a_task_without_targets(runner, depot):
    # A Task built in Python skips validate_task, which refuses it in the same words.
    task = Task(robot=planar_arm(), home=np.zeros(3), targets=())
    with pytest.raises(ValueError, match="^task must contain at least one target$"):
        runner(task, PipelineConfig(include_home_depot=depot))


def test_the_pipeline_seeds_2opt_by_its_own_walk_not_by_solve_rnn(monkeypatch):
    # 2-opt walks the one-start nearest-neighbour tour over its neighbour lists.
    task = generate_random_task(40, 1, seed=3, mode="planar")
    dm = tsp.build_task_distance_matrix(task)
    want_stats = {}
    want = tsp.solve_2opt(dm, tsp.solve_rnn(dm, 1), stats=want_stats)
    calls = []
    monkeypatch.setattr(tsp, "solve_rnn", lambda *args: calls.append(args))
    work = dict.fromkeys(tsp.TOUR_COUNTERS, 0)
    assert _tour(dm, COARSE, work)[0] == want
    assert work == want_stats
    result = solve_sequence(task, COARSE)
    assert calls == []
    assert result.order == tsp.open_order_from_cycle(want, depot=task.n)
    assert {c: result.counts[c] for c in tsp.TOUR_COUNTERS} == want_stats


@pytest.mark.parametrize("runner", [solve_sequence, baseline_cspace_tsp, baseline_gtsp_exact])
def test_every_method_refuses_targets_without_a_position(runner):
    # A Task built in Python skips validate_task; each method needs the
    # task-space distances, for its tour or for its step1_cost.
    robot = RobotModel(dof=1, vel_max=[1.0], acc_max=[1.0])
    targets = tuple(TaskTarget(id=i, ik_solutions=(np.array([float(i)]),)) for i in range(3))
    with pytest.raises(ValueError, match="target 0 has no position; cannot build distances"):
        runner(Task(robot=robot, home=[0.0], targets=targets), COARSE)


@pytest.mark.parametrize("runner", [solve_sequence, baseline_cspace_tsp, baseline_gtsp_exact])
def test_every_method_refuses_targets_too_far_apart(runner):
    # A Task built in Python skips validate_task; 2e200 squared overflows the distance.
    robot = RobotModel(dof=1, vel_max=[1.0], acc_max=[1.0])
    targets = tuple(TaskTarget(id=i, position=[x, 0.0], ik_solutions=(np.array([float(i)]),))
                    for i, x in enumerate((1e200, -1e200)))
    with pytest.raises(ValueError, match="target distances overflow"):
        runner(Task(robot=robot, home=[0.0], targets=targets), COARSE)


_UNIT = MetricParams([1.0], [1.0], [1.0])


def _two_layer_graph():
    sets = [IkSolutionSet(0, [[0.0], [1.0]]), IkSolutionSet(1, [[2.0]])]
    return build_layered_graph([0.0], sets, MetricKind.MAX_JOINT_DIFFERENCE, _UNIT)


def _non_planar_choice():
    sets = [IkSolutionSet(0, np.zeros((2, 6))), IkSolutionSet(1, np.zeros((1, 6)))]
    return manipulability_choice(generate_random_task(2, 1, seed=0), sets)


def _raise_report(task):  # validate_task reports its violations rather than raising them
    raise ValueError("\n".join(validate_task(task)))


_NON_PLANAR = RobotModel(dof=2, vel_max=[1.0, 1.0], acc_max=[1.0, 1.0])


@pytest.mark.parametrize("call,message", [
    (functools.partial(solve_2opt, np.ones((3, 3)), initial=TourOrder((0, 1, 1))),
     "permutation of all nodes"),
    (functools.partial(open_order_from_cycle, TourOrder((0, 1, 2), TourKind.OPEN_PATH), depot=2),
     "needs a closed cycle"),
    (lambda: path_cost(_two_layer_graph(), (0,)), "expected 2 choices, got 1"),
    (functools.partial(build_layered_graph, [0.0], [], MetricKind.MAX_JOINT_DIFFERENCE, _UNIT),
     "at least one target"),
    (_non_planar_choice, "target 0 has 2 configurations but the robot has no planar arm"),
    (functools.partial(MetricParams, [1.0, 1.0], [1.0], [1.0]), "length mismatch"),
    (functools.partial(task_from_dict, {"robot": {"dof": 1}, "home": [0.0],
                                        "targets": [{"position": [1.0, 0.0]}]}),
     "every target needs an 'id' field"),
    (functools.partial(forward_kinematics, _NON_PLANAR, [0.0, 0.0]), "robot has no planar_links"),
    (functools.partial(forward_kinematics, planar_arm(), [0.0, 0.0]), "configuration length 2 != dof 3"),
    (functools.partial(ik_3r, planar_arm((1.0, 1.0)), Pose2D(1.0, 0.0, 0.0)),
     "ik_3r needs a 3-link arm, got 2 links"),
    (functools.partial(ik_pool, planar_arm(), [[1.0, 0.0, 0.0]], math.pi),
     "IK positions must be 2-D points"),
    (functools.partial(default_weights, _NON_PLANAR), "default_weights needs a planar arm"),
    (functools.partial(_raise_report, Task(RobotModel(0, [], []), [], ())),
     "robot dof must be >= 1, got 0"),
    (functools.partial(_raise_report, Task(_NON_PLANAR, [0.0, 0.0], ())),
     "task must contain at least one target"),
    (functools.partial(solve_2opt, np.ones((2, 3))), "distance matrix must be square"),
    (functools.partial(solve_2opt, np.triu(np.ones((4, 4)))), "distance matrix must be symmetric"),
], ids=["2opt-initial", "open-cycle", "path-length", "empty-graph", "manipulability", "params-length",
        "target-without-id", "fk-non-planar", "fk-length", "ik-two-links", "ik-3d-points",
        "weights-non-planar", "dof-zero", "no-targets", "non-square-matrix", "asymmetric-matrix"])
def test_refusals_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("metric", list(MetricKind))
@pytest.mark.parametrize("mode", ["planar", "explicit_ik"])
@pytest.mark.parametrize("runner", [solve_sequence, baseline_cspace_tsp, baseline_gtsp_exact])
def test_every_method_prices_its_choice_in_the_graph_of_its_order(runner, mode, metric):
    # cspace_tsp ranks several configurations of a target only on the planar arm.
    m_max = 1 if (runner, mode) == (baseline_cspace_tsp, "explicit_ik") else 3
    task = generate_random_task(5, m_max, seed=4, mode=mode)
    config = PipelineConfig(metric=metric, step_size=math.pi / 2)
    result = runner(task, config)
    params = MetricParams.from_robot(task.robot)
    ik_sets = resolve_ik_sets(task, config.step_size)
    ordered = [ik_sets[t] for t in result.order.order]
    graph = build_layered_graph(task.home, ordered, metric, params)
    chosen = result.selection.chosen
    total, edges = path_cost(graph, chosen)
    assert (result.selection.total_cost, result.selection.per_edge_costs) == (total, edges)
    sequence = [task.home, *(entry.solutions[c] for entry, c in zip(ordered, chosen)), task.home]
    schedule = execute_trajectory_schedule(sequence, params.vel_max, params.acc_max)
    assert result.schedule_duration == schedule
    assert (result.counts["edges"], result.counts["vertices"], result.counts["step_cost_bytes"],
            result.counts["price_calls"]) == (graph.edge_count, graph.vertex_count,
                                              graph.step_cost_bytes, graph.price_calls)


#: Mode, m_max and grid step of each reference-method case: planar grids of 4 and 8 orientations,
#: where manipulability ranks up to 8 and 16 configurations per target, and explicit tasks.
_REFERENCE_CASES = {
    "planar-pi/2": ("planar", 1, math.pi / 2),
    "planar-pi/4": ("planar", 1, math.pi / 4),
    "explicit": ("explicit_ik", 3, math.pi / 4),
}


@pytest.mark.parametrize("depot", [True, False])
@pytest.mark.parametrize("solver", list(SolverKind))
@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
@pytest.mark.parametrize("runner", [baseline_cspace_tsp, baseline_gtsp_exact])
def test_a_reference_selection_has_the_bits_of_path_cost_in_the_graph_of_its_order(runner, case, solver, depot):
    # Step 2 prices a reference choice by path_cost in the built graph; the check reads
    # the moves from the graph's blocks, priced whole, and adds them by ordered_sum,
    # so it takes another route.
    mode, m_max, step = _REFERENCE_CASES[case]
    m_max = 1 if runner is baseline_cspace_tsp else m_max
    for seed, metric in itertools.product((1, 2), MetricKind):
        task = generate_random_task(4, m_max, seed=seed, mode=mode)
        config = PipelineConfig(tsp_solver=solver, metric=metric, step_size=step, rnn_restarts=3,
                                include_home_depot=depot)
        result = runner(task, config)
        ik_sets = resolve_ik_sets(task, step)
        g = build_layered_graph(task.home, [ik_sets[t] for t in result.order.order], metric,
                                MetricParams.from_robot(task.robot))
        chosen, blocks = result.selection.chosen, tuple(g.step_costs)
        steps = (block[i, j] for block, i, j in zip(blocks, chosen, chosen[1:]))
        edges = tuple(map(float, (g.start_costs[chosen[0]], *steps, g.goal_costs[chosen[-1]])))
        total = ordered_sum(edges)
        selection = (result.selection.total_cost, *result.selection.per_edge_costs)
        assert list(map(float.hex, selection)) == list(map(float.hex, (total, *edges)))


@pytest.mark.parametrize("restarts", [0, -3, 2.5, True])
def test_config_refuses_rnn_restarts_that_are_not_a_positive_integer(restarts):
    with pytest.raises(ValueError, match="rnn_restarts"):
        PipelineConfig(tsp_solver=SolverKind.RNN, rnn_restarts=restarts)


@pytest.mark.parametrize("step", ["pi/4", None, np.float32(math.pi / 2)], ids=["text", "none", "float32"])
def test_config_refuses_a_step_size_that_is_not_a_real_dividing_2pi(step):
    # float() of a float32 pi/2 does not divide 2*pi, so it is refused, not gridded in float32.
    with pytest.raises(ValueError, match="step_size"):
        PipelineConfig(step_size=step)


@pytest.mark.parametrize("depot", ["no", 0, None])
def test_config_refuses_a_depot_flag_that_is_not_a_bool(depot):
    with pytest.raises(ValueError, match="include_home_depot"):
        PipelineConfig(include_home_depot=depot)


def test_tour_counters_come_from_2opt_and_are_zero_for_other_solvers():
    task = generate_random_task(40, 1, seed=5, mode="planar")
    stats = {}
    solve_2opt(build_task_distance_matrix(task), stats=stats)
    assert stats["check_rounds"] >= 1
    result = solve_sequence(task, COARSE)
    assert {k: result.counts[k] for k in TOUR_COUNTERS} == stats
    small = generate_random_task(5, 1, seed=5, mode="planar")
    for solver in (SolverKind.EXACT, SolverKind.RNN):
        counts = solve_sequence(small, PipelineConfig(step_size=math.pi, tsp_solver=solver)).counts
        assert {k: counts[k] for k in TOUR_COUNTERS} == dict.fromkeys(TOUR_COUNTERS, 0)


def _explicit_task(sizes, seed=0):
    """A 2-joint task with ``sizes[i]`` random configurations at target i."""
    rng = np.random.default_rng(seed)
    robot = RobotModel(dof=2, vel_max=np.ones(2), acc_max=np.ones(2))
    targets = tuple(
        TaskTarget(id=i, position=rng.uniform(0.0, 1.0, 2),
                   ik_solutions=rng.uniform(-math.pi, math.pi, (m, 2)))
        for i, m in enumerate(sizes)
    )
    return Task(robot=robot, home=np.zeros(2), targets=targets)


def test_gtsp_guards():
    # 14 targets: 2^14 * 55^2 moves are inside the bound, 2^14 * 56^2 are not.
    assert (1 << 14) * 55**2 <= GTSP_GUARD_MOVES < (1 << 14) * 56**2
    joint = baseline_gtsp_exact(_explicit_task([4] * 13 + [3]))
    assert sorted(joint.order.order) == list(range(14))
    # Past the bound: many small targets (a 7 MB DP table) and two wide ones (a 100 MB block).
    over = [_explicit_task([4] * 14), _explicit_task([1768, 1768])]
    assert 4 * 3536**2 > GTSP_GUARD_MOVES
    tracemalloc.start()
    try:
        for task in over:
            with pytest.raises(GuardError, match="guard"):
                baseline_gtsp_exact(task)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before anything is priced


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_wide_selection_holds_a_fraction_of_its_step_blocks(seed):
    # 60 targets of up to 400 configurations: 12.6-22.2 MB of step blocks in all.
    task = generate_random_task(60, 400, seed, "explicit_ik")
    config = PipelineConfig(metric=MetricKind.LINEAR_INTERP_DURATION)
    tracemalloc.start()
    try:
        result = solve_sequence(task, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < result.counts["step_cost_bytes"] / 4
    # The same bound holds for pricing a fixed choice, as cspace_tsp and gtsp_exact do.
    ik_sets = resolve_ik_sets(task, config.step_size)
    graph = build_layered_graph(task.home, [ik_sets[t] for t in result.order.order], config.metric,
                                MetricParams.from_robot(task.robot))
    tracemalloc.start()
    try:
        total, _ = path_cost(graph, result.selection.chosen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total == result.selection.total_cost
    assert peak < result.counts["step_cost_bytes"] / 4


def test_threads_that_solve_at_once_get_the_bits_of_solving_in_turn():
    """Four threads solve select-wide-shaped tasks at the same time, switching often. No
    reused buffer ever leaves ``metrics`` or the sweep: the scratch tiles belong to one
    ``pairwise_cost`` call, the scores to one band of one sweep, and a sweep passes
    its fold to each ``pairwise_cost`` call as an argument, so no thread prices into,
    or folds, another's bands."""
    tasks = [generate_random_task(20, 400, seed, "explicit_ik") for seed in range(8)]
    config = PipelineConfig(metric=MetricKind.LINEAR_INTERP_DURATION)

    def solved(task):
        result = solve_sequence(task, config)
        costs = [result.selection.total_cost, *result.selection.per_edge_costs, result.schedule_duration]
        return result.order.order, result.selection.chosen, np.array(costs).tobytes()

    in_turn = [solved(task) for task in tasks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            for _ in range(2):
                assert list(pool.map(solved, tasks, timeout=120)) == in_turn
    finally:
        sys.setswitchinterval(interval)


def _joint_by_every_order(task, config):
    """Minimum over every order of the optimal selection for that order."""
    params = MetricParams.from_robot(task.robot)
    ik_sets = resolve_ik_sets(task, config.step_size)
    return min(
        brute_force_selection(task.home, [ik_sets[t] for t in perm], config.metric, params).total_cost
        for perm in itertools.permutations(range(task.n))
    )


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=5),
    metric=st.sampled_from(list(MetricKind)),
    seed=st.integers(0, 2**16),
)
def test_gtsp_matches_the_every_order_oracle(sizes, metric, seed):
    task = _explicit_task(sizes, seed)
    config = PipelineConfig(metric=metric)
    joint = baseline_gtsp_exact(task, config)
    assert sorted(joint.order.order) == list(range(task.n))
    assert joint.selection.total_cost == _joint_by_every_order(task, config)
    params = MetricParams.from_robot(task.robot)
    ik_sets = resolve_ik_sets(task, config.step_size)
    graph = build_layered_graph(
        task.home, [ik_sets[t] for t in joint.order.order], config.metric, params
    )
    assert path_cost(graph, joint.selection.chosen)[0] == joint.selection.total_cost


def test_benchmark_row_arithmetic():
    rows = benchmark_run("tsp_solver", sizes=[6, 8], repeats=3, seed=0)
    assert len(rows) == 18  # 3 solvers x 2 sizes x 3 repeats
    assert [r["variant"] for r in rows] == sorted(r["variant"] for r in rows)
    keys = {(r["variant"], r["n"], r["repeat"]) for r in rows}
    assert len(keys) == 18


def test_benchmark_same_instance_across_variants():
    rows = benchmark_run("metric", sizes=[5], repeats=2, seed=42)
    by_repeat = {}
    for row in rows:
        by_repeat.setdefault(row["repeat"], set()).add(row["seed"])
    assert all(len(seeds) == 1 for seeds in by_repeat.values())
    assert instance_seed(42, 5, 0) in by_repeat[0]


def test_benchmark_step_size_counts_grow_monotonically():
    rows = benchmark_run("step_size", sizes=[6], repeats=1, seed=2)
    counts = {r["variant"]: r["total_ik"] for r in rows}
    ordered = [counts[v] for v in ("pi", "pi/2", "pi/3", "pi/4", "pi/6", "pi/12")]
    assert all(a <= b for a, b in zip(ordered, ordered[1:]))


def test_benchmark_method_axis_reports_cost_ordering():
    rows = benchmark_run("method", sizes=[4], repeats=2, seed=5,
                         config=PipelineConfig(step_size=math.pi))
    by_cell = {}
    for row in rows:
        by_cell.setdefault((row["n"], row["repeat"]), {})[row["variant"]] = row
    for cell in by_cell.values():
        assert set(cell) == {"decoupled", "cspace_tsp", "gtsp_exact"}
        assert cell["gtsp_exact"]["step2_cost"] <= cell["decoupled"]["step2_cost"] + 1e-12


def test_benchmark_guard_refusals_are_flagged_rows():
    rows = benchmark_run("tsp_solver", sizes=[25], repeats=1, seed=1)
    exact_rows = [r for r in rows if r["variant"] == "exact"]
    assert len(exact_rows) == 1
    assert math.isnan(exact_rows[0]["step2_cost"])
    others = [r for r in rows if r["variant"] != "exact"]
    assert all(not math.isnan(r["step2_cost"]) for r in others)


_AXIS_VARIANTS = {
    "tsp_solver": ("exact", "two_opt", "rnn"),
    "metric": ("weighted_euclidean", "max_joint_difference", "linear_interp_duration"),
    "step_size": ("pi", "pi/2", "pi/3", "pi/4", "pi/6", "pi/12"),
    "method": ("decoupled", "cspace_tsp", "gtsp_exact"),
}


@pytest.mark.parametrize("axis", list(_AXIS_VARIANTS))
def test_benchmark_axis_variants_keep_their_labels_order_and_field(axis):
    assert BENCHMARK_AXES == tuple(_AXIS_VARIANTS)
    base = PipelineConfig(tsp_solver=SolverKind.RNN, metric=MetricKind.WEIGHTED_EUCLIDEAN,
                          step_size=math.pi / 5, rnn_restarts=3, include_home_depot=False)
    variants = _benchmark_variants(axis, base)
    assert tuple(label for label, _, _ in variants) == _AXIS_VARIANTS[axis]
    if axis == "method":
        assert all(config == base for _, config, _ in variants)
        return
    for _, config, _ in variants:  # the swept field set, every other field as in base
        assert dataclasses.replace(config, **{axis: getattr(base, axis)}) == base
    swept = [getattr(config, axis) for _, config, _ in variants]
    if axis == "step_size":
        assert swept == [math.pi, math.pi / 2, math.pi / 3, math.pi / 4, math.pi / 6, math.pi / 12]
        assert swept == [parse_step_size(label) for label in _AXIS_VARIANTS[axis]]
    else:
        assert [value.value for value in swept] == list(_AXIS_VARIANTS[axis])


def test_benchmark_rejects_unknown_axis():
    with pytest.raises(ValueError):
        benchmark_run("nope", sizes=[4])


def test_an_unknown_axis_is_refused_before_any_instance_is_generated(monkeypatch):
    calls = []
    monkeypatch.setattr("taskseq.pipeline.generate_random_task", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match="unknown benchmark axis 'nope'"):
        benchmark_run("nope", sizes=[4, 5], repeats=2)
    assert calls == []


def test_explicit_solves_keep_their_bits():
    """One sha256 over the outputs of explicit-IK solves, floats as ``float.hex``.

    It covers every metric, three methods and seeds 1-3: ``decoupled`` at n = 12
    under each tour solver (``rnn`` with 3 restarts), ``cspace_tsp`` at m_max 1 (one
    configuration per target, so no manipulability rank) and ``gtsp_exact`` at
    n = 6. Explicit tasks draw from the seeded generator alone and every distance
    is a sum, product or square root, so no libm call and no tied distance enters;
    the digest was taken on CPython 3.11 with numpy 2.4. A change that moves a bit
    on purpose updates the digest and names the outputs that moved.
    """
    digest = hashlib.sha256()
    methods = (*((solve_sequence, 12, 4, solver) for solver in SolverKind),
               (baseline_cspace_tsp, 12, 1, SolverKind.TWO_OPT),
               (baseline_gtsp_exact, 6, 3, SolverKind.TWO_OPT))
    for seed, metric, (method, n, m_max, solver) in itertools.product((1, 2, 3), MetricKind, methods):
        config = PipelineConfig(tsp_solver=solver, metric=metric, rnn_restarts=3)
        result = method(generate_random_task(n, m_max, seed), config)
        selection = result.selection
        floats = (selection.total_cost, *selection.per_edge_costs, result.step1_cost,
                  result.schedule_duration)
        record = (result.order.order, selection.chosen, tuple(map(float.hex, floats)),
                  sorted(result.counts.items()))
        digest.update(repr(record).encode())
    assert digest.hexdigest() == "8dce93fb70cb94fe19424c2332245abc628944a1e69d36c8dba4b4d0cd3a5b32"
