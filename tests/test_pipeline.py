import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskseq.cgraph import brute_force_selection, build_layered_graph, path_cost
from taskseq.metrics import MetricKind, MetricParams
from taskseq.model import GuardError, RobotModel, Task, TaskTarget, generate_random_task
from taskseq.pipeline import (
    BENCHMARK_AXES,
    GTSP_GUARD_MOVES,
    PipelineConfig,
    _benchmark_variants,
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
    brute_force_cycle,
    build_task_distance_matrix,
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
    assert results[2].timings["step1_ms"] == 0.0


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
    else:
        assert [value.value for value in swept] == list(_AXIS_VARIANTS[axis])


def test_benchmark_rejects_unknown_axis():
    with pytest.raises(ValueError):
        benchmark_run("nope", sizes=[4])
