"""Output checks, run outside the timed region.

Each check returns a list of problems; an empty list means the output passed.
The 2-exchange test and the min-plus selection DP are written here, apart
from the solvers they check.
"""

from __future__ import annotations

import math

import numpy as np

from taskseq import (
    TourKind,
    TourOrder,
    build_task_distance_matrix,
    execute_trajectory_schedule,
    forward_kinematics,
    resolve_ik_sets,
    tour_cost,
)
from taskseq.metrics import MetricParams

#: Largest distance between a planar target and the forward kinematics of
#: its chosen configuration.
FK_TOL = 1e-9

#: Relative slack for costs summed in another order than the solver's.
REL_TOL = 1e-9

#: A 2-exchange must gain more than this to count as improving; far above
#: the rounding of a delta between four distances, far below any real gain.
EXCHANGE_TOL = 1e-9


def improving_exchanges(dm: np.ndarray, cycle) -> int:
    """Number of edge pairs of a closed cycle whose 2-exchange shortens it.

    Edge i joins cycle[i] and cycle[i+1] (cyclically). Exchanging edges i < j
    reconnects cycle[i]-cycle[j] and cycle[i+1]-cycle[j+1]; all pairs are
    priced in one vectorised O(n^2) pass.
    """
    a = np.asarray(cycle, dtype=np.intp)
    b = np.roll(a, -1)
    delta = dm[a[:, None], a[None, :]] + dm[b[:, None], b[None, :]]
    delta -= dm[a, b][:, None] + dm[a, b][None, :]
    return int(np.count_nonzero(np.triu(delta < -EXCHANGE_TOL, k=1)))


def min_plus_selection_cost(graph) -> float:
    """Optimal Start-to-Goal cost of a layered graph by a forward min-plus DP."""
    best = np.asarray(graph.start_costs, dtype=float)
    for block in graph.step_costs:
        best = np.min(best[:, None] + block, axis=0)
    return float(np.min(best + graph.goal_costs))


def same_result(a, b) -> bool:
    """Bit-for-bit equality of the outputs two solves of one task report."""
    return (
        a.order == b.order
        and a.selection.chosen == b.selection.chosen
        and a.selection.per_edge_costs == b.selection.per_edge_costs
        and a.selection.total_cost == b.selection.total_cost
        and a.step1_cost == b.step1_cost
        and a.schedule_duration == b.schedule_duration
    )


def check_result(task, config, result) -> list[str]:
    """Check one solve_sequence output against the task it solved."""
    problems = []
    n = task.n
    order = result.order.order
    chosen = result.selection.chosen
    if sorted(order) != list(range(n)):
        return [f"order is not a permutation of 0..{n - 1}"]

    ik_sets = resolve_ik_sets(task, config.step_size)
    if len(chosen) != n or any(
        not 0 <= c < ik_sets[t].count for t, c in zip(order, chosen)
    ):
        return ["a chosen configuration index is out of range"]
    configs = [ik_sets[t].solutions[c] for t, c in zip(order, chosen)]

    if task.robot.is_planar:
        for t, q in zip(order, configs):
            pose = forward_kinematics(task.robot, q)
            x, y = task.targets[t].position
            if max(abs(pose.x - x), abs(pose.y - y)) > FK_TOL:
                problems.append(f"target {t}: chosen configuration misses it")
                break

    dm = build_task_distance_matrix(task, config.include_home_depot)
    cycle = order + ((n,) if config.include_home_depot else ())
    cost = tour_cost(dm, TourOrder(cycle, TourKind.CLOSED_CYCLE))
    if not math.isclose(cost, result.step1_cost, rel_tol=REL_TOL):
        problems.append(f"step1_cost {result.step1_cost!r} != tour cost {cost!r}")
    if improving_exchanges(dm, cycle):
        problems.append("tour admits an improving 2-exchange")

    params = MetricParams.from_robot(task.robot)
    schedule = execute_trajectory_schedule(
        [task.home, *configs, task.home], params.vel_max, params.acc_max
    )
    if schedule != result.schedule_duration:
        problems.append(f"schedule {result.schedule_duration!r} != recomputed {schedule!r}")
    return problems


def check_traced(result, reference, calls) -> list[str]:
    """Check a traced solve against the untraced one and the graph it priced."""
    problems = []
    if not same_result(result, reference):
        problems.append("traced solve differs from the untraced solve_sequence")
    for args, cycle in calls.get("tsp.solve_2opt", ()):
        if tour_cost(args[0], cycle) != result.step1_cost:
            problems.append("step1_cost != tour_cost of the returned cycle")
    for _, graph in calls.get("cgraph.build_layered_graph", ()):
        if any(not 0 <= c < m for c, m in zip(result.selection.chosen, graph.layer_sizes)):
            problems.append("a chosen index is outside its graph layer")
        best = min_plus_selection_cost(graph)
        if not math.isclose(result.selection.total_cost, best, rel_tol=REL_TOL):
            problems.append(
                f"step2_cost {result.selection.total_cost!r} != min-plus DP {best!r}"
            )
    return problems
