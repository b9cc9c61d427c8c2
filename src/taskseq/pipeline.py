"""Three-stage sequencing pipeline, comparison baselines, and benchmark harness.

Each method is only its step-1 plan: a visiting order, its task-space cost
and, optionally, a frozen configuration per target. One driver runs the rest
for every method: IK, (2) one configuration per target by the shortest path
through the layered graph of the order, or the frozen choice priced in it,
(3) the time-parameterization of that sequence, the stage clock and counters.
Stage 3 uses straight joint-space segments under trapezoidal speed profiles:
an obstacle-free surrogate for full motion planning, labeled as such in all
outputs. The main solver decouples: its plan is the task-space tour alone.
Two reference methods bracket it: a C-space tour of configurations frozen by
manipulability, and the exact joint optimum over every order and choice.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from . import cgraph, tsp
from .kinematics import IK_COUNTERS, IkSolutionSet, ik_pool, manipulability, theta_grid
from .metrics import MetricKind, MetricParams, _price, pairwise_cost
from .model import GuardError, Task, generate_random_task
from .tsp import SolverKind, TourKind, TourOrder

#: Guard for the exact joint optimum: its DP prices 2^n * V^2 moves for n targets, V configurations.
GTSP_GUARD_MOVES = 5 * 10**7

#: Orientation step sizes swept by the discretization benchmark axis.
STEP_SIZE_VARIANTS = (
    ("pi", math.pi),
    ("pi/2", math.pi / 2),
    ("pi/3", math.pi / 3),
    ("pi/4", math.pi / 4),
    ("pi/6", math.pi / 6),
    ("pi/12", math.pi / 12),
)

#: ``(label, value)`` pairs of each config field a benchmark axis sweeps, in run order.
_SWEEPS = {
    "tsp_solver": tuple((kind.value, kind) for kind in SolverKind),
    "metric": tuple((kind.value, kind) for kind in MetricKind),
    "step_size": STEP_SIZE_VARIANTS,
}

BENCHMARK_AXES = (*_SWEEPS, "method")

BENCHMARK_FIELDS = (
    "axis", "variant", "n", "repeat", "seed",
    "step1_ms", "ik_ms", "step2_ms", "step3_ms",
    "step1_cost", "step2_cost", "schedule_s", "total_ik", "edges",
)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the pipeline: tour solver, edge metric, orientation grid, depot."""

    tsp_solver: SolverKind = SolverKind.TWO_OPT
    metric: MetricKind = MetricKind.MAX_JOINT_DIFFERENCE
    step_size: float = math.pi / 4
    rnn_restarts: int = 1
    include_home_depot: bool = True

    def __post_init__(self):
        object.__setattr__(self, "tsp_solver", SolverKind(self.tsp_solver))
        object.__setattr__(self, "metric", MetricKind(self.metric))
        if not isinstance(self.step_size, numbers.Real):
            raise ValueError(f"step_size must be a real number, got {self.step_size!r}")
        object.__setattr__(self, "step_size", float(self.step_size))
        theta_grid(self.step_size)  # rejects step sizes that do not divide 2*pi
        restarts = self.rnn_restarts
        if not isinstance(restarts, numbers.Integral) or isinstance(restarts, bool) or restarts < 1:
            raise ValueError(f"rnn_restarts must be an integer of at least 1, got {restarts!r}")
        object.__setattr__(self, "rnn_restarts", int(restarts))
        if not isinstance(self.include_home_depot, bool):
            raise ValueError(f"include_home_depot must be a bool, got {self.include_home_depot!r}")


@dataclass(frozen=True)
class PipelineResult:
    """Visiting order, configuration selection, schedule, timings, and sizes."""

    method: str
    order: TourOrder
    selection: cgraph.SelectionResult
    schedule_duration: float
    step1_cost: float
    timings: dict
    counts: dict


def resolve_ik_sets(
    task: Task, step_size: float, stats: dict | None = None
) -> list[IkSolutionSet]:
    """One solution set per target, in target-id order.

    Explicit configuration lists pass through; planar targets are solved over
    the orientation grid, all in one :func:`~taskseq.kinematics.ik_pool` call
    made before the loop, if any. A target that ends up with no configuration
    at all aborts the pipeline before any tour is attempted; the first such
    target in id order is the one reported. ``stats``, when given, receives
    the IK_COUNTERS: every explicit configuration counts as one pose tried,
    and each planar target as two per grid orientation.
    """
    work = dict.fromkeys(IK_COUNTERS, 0)
    explicit = 0
    positions = [t.position for t in task.targets if t.ik_solutions is None and t.position is not None]
    pooled = iter(ik_pool(task.robot, positions, step_size, stats=work) if positions else ())
    sets = []
    for target in task.targets:
        if target.ik_solutions is not None:
            entry = IkSolutionSet(target_id=target.id, solutions=target.ik_solutions)
            explicit += entry.count
        elif target.position is not None:
            entry = IkSolutionSet(target_id=target.id, solutions=next(pooled))
        else:
            raise ValueError(f"target {target.id} has neither configurations nor a position")
        if entry.count == 0:
            raise ValueError(
                f"target {target.id} unreachable: no configuration found "
                f"(step size {step_size:.6g})"
            )
        sets.append(entry)
    if stats is not None:
        stats.update(work, poses_tried=work["poses_tried"] + explicit)
    return sets


def execute_trajectory_schedule(configurations, vel_max, acc_max) -> float:
    """Total duration of straight joint-space segments through ``configurations``.

    Each consecutive pair moves on a synchronized trapezoidal profile; the
    sequence must include the endpoints (home at both ends for a full tour).
    """
    if len(configurations) < 2:
        raise ValueError("schedule needs at least two configurations")
    stack = np.asarray(configurations, dtype=float)
    params = MetricParams(np.ones(np.size(vel_max)), vel_max, acc_max)
    durations = _price(MetricKind.LINEAR_INTERP_DURATION, params, stack[:-1], stack[1:])
    total = 0.0
    # Summed left to right like cgraph.path_cost, so a linear_interp_duration
    # step-2 cost of the same sequence has the same bits.
    for duration in durations.tolist():
        total += duration
    return total


def manipulability_choice(task: Task, ik_sets: list[IkSolutionSet]) -> list[int]:
    """Index of the best-manipulability configuration per target (ties: lowest index).

    Single-configuration targets are forced regardless of robot type; ranking
    multiple configurations requires the planar arm (manipulability needs a
    Jacobian).
    """
    chosen = []
    for entry in ik_sets:
        if entry.count == 1:
            chosen.append(0)
            continue
        if not task.robot.is_planar:
            raise ValueError(
                f"target {entry.target_id} has {entry.count} configurations but the "
                f"robot has no planar arm to rank them by manipulability"
            )
        scores = np.array([manipulability(task.robot, q) for q in entry.solutions])
        chosen.append(int(np.argmax(scores)))
    return chosen


def _tour(dm: np.ndarray, task: Task, config: PipelineConfig, work: dict) -> tuple[TourOrder, TourOrder]:
    """``(cycle, visiting order)`` by the configured solver over ``dm``, whose last
    node is home when the depot is on; 2-opt writes its counters into ``work``."""
    if config.tsp_solver is SolverKind.EXACT:
        cycle = tsp.solve_exact(dm)
    elif config.tsp_solver is SolverKind.TWO_OPT:
        cycle = tsp.solve_2opt(dm, stats=work)
    else:
        cycle = tsp.solve_rnn(dm, min(config.rnn_restarts, dm.shape[0]))
    if config.include_home_depot:
        return cycle, tsp.open_order_from_cycle(cycle, depot=task.n)
    return cycle, TourOrder(cycle.order, TourKind.OPEN_PATH)


def _task_space_cycle_cost(task: Task, order: TourOrder, include_home_depot: bool) -> float:
    """Task-space cycle cost of a visiting order (nan if positions are missing)."""
    if any(t.position is None for t in task.targets):
        return float("nan")
    dm = tsp.build_task_distance_matrix(task, include_home_depot)
    nodes = tuple(order.order) + ((task.n,) if include_home_depot else ())
    return tsp.tour_cost(dm, TourOrder(nodes, TourKind.CLOSED_CYCLE))


def _decoupled_plan(task, config, params, ik_sets, work, lap):
    """Step 1 of the paper's method: the task-space tour; step 2 then selects freely."""
    dm = tsp.build_task_distance_matrix(task, config.include_home_depot)
    cycle, order = _tour(dm, task, config, work)
    step1_cost = tsp.tour_cost(dm, cycle)
    lap()
    return order, step1_cost, None


def _frozen_tour_plan(task, config, params, ik_sets, work, lap):
    """Freeze the best-manipulability configuration per target, then tour the
    frozen configurations under the configured metric (home as a depot node)."""
    fixed = manipulability_choice(task, ik_sets)
    nodes = [entry.solutions[c] for entry, c in zip(ik_sets, fixed)]
    if config.include_home_depot:
        nodes.append(task.home)
    _, order = _tour(pairwise_cost(config.metric, params, nodes, nodes), task, config, work)
    step1_cost = _task_space_cycle_cost(task, order, config.include_home_depot)
    lap()
    return order, step1_cost, tuple(fixed[t] for t in order.order)


def _joint_plan(task, config, params, ik_sets, work, lap):
    """No step 1: the guard and the subset DP over every order and configuration
    are one indivisible step 2."""
    sizes = [s.count for s in ik_sets]
    moves = (1 << task.n) * sum(sizes) ** 2
    if moves > GTSP_GUARD_MOVES:
        raise GuardError(f"joint-search guard: 2^{task.n} x {sum(sizes)}^2 configurations = "
                         f"{moves} moves exceed {GTSP_GUARD_MOVES}")

    stack = np.concatenate([s.solutions for s in ik_sets])
    bounds = np.cumsum([0, *sizes])
    target = np.repeat(np.arange(task.n), sizes)  # of each stacked configuration
    step = np.zeros((len(stack), len(stack)))  # within a target: no move, left unpriced
    for lo, hi in zip(bounds, bounds[1:]):
        for cols in (slice(0, lo), slice(hi, None)):
            step[lo:hi, cols] = pairwise_cost(config.metric, params, stack[lo:hi], stack[cols])
    start = pairwise_cost(config.metric, params, task.home, stack)[0]
    goal = pairwise_cost(config.metric, params, stack, task.home)[:, 0]
    _, walk = tsp._cluster_walk(start, step, goal, target)
    order = TourOrder(target[walk], TourKind.OPEN_PATH)
    chosen = tuple((walk - bounds[target[walk]]).tolist())
    return order, _task_space_cycle_cost(task, order, config.include_home_depot), chosen


#: Each method's label, by its step-1 plan, in the order the ``method`` benchmark axis runs them.
_METHODS = {_decoupled_plan: "decoupled", _frozen_tour_plan: "cspace_tsp", _joint_plan: "gtsp_exact"}


def _run(plan, task: Task, config: PipelineConfig | None) -> PipelineResult:
    """Run one method: IK, its step-1 ``plan``, the selection (step 2), the schedule (step 3).

    ``plan(task, config, params, ik_sets, work, lap)`` returns ``(order,
    step1_cost, chosen)`` and calls ``lap()`` where its step 1 ends (a plan
    that never calls it has no step 1). Step 2 takes the shortest selection
    in the layered graph of ``order``, or prices ``chosen`` there when it is
    not None. ``work`` holds the IK and tour counters; the tour counters stay
    zero unless the plan runs 2-opt.
    """
    config = config or PipelineConfig()
    params = MetricParams.from_robot(task.robot)
    work: dict = {}
    start = time.perf_counter()
    ik_sets = resolve_ik_sets(task, config.step_size, stats=work)
    ik_end = step1_end = time.perf_counter()
    work.update(dict.fromkeys(tsp.TOUR_COUNTERS, 0))

    def lap():
        nonlocal step1_end
        step1_end = time.perf_counter()

    order, step1_cost, chosen = plan(task, config, params, ik_sets, work, lap)
    ordered = [ik_sets[t] for t in order.order]
    graph = cgraph.build_layered_graph(task.home, ordered, config.metric, params)
    if chosen is None:
        selection = cgraph.shortest_selection(graph)
    else:
        total, edges = cgraph.path_cost(graph, chosen)
        selection = cgraph.SelectionResult(chosen=chosen, total_cost=total, per_edge_costs=edges)
    step2_end = time.perf_counter()

    configurations = [entry.solutions[c] for entry, c in zip(ordered, selection.chosen)]
    sequence = [task.home, *configurations, task.home]
    schedule = execute_trajectory_schedule(sequence, params.vel_max, params.acc_max)
    marks = (start, ik_end, step1_end, step2_end, time.perf_counter())
    return PipelineResult(
        method=_METHODS[plan],
        order=order,
        selection=selection,
        schedule_duration=schedule,
        step1_cost=step1_cost,
        timings={
            name: (end - begin) * 1e3
            for name, begin, end in zip(
                ("ik_ms", "step1_ms", "step2_ms", "step3_ms"), marks, marks[1:]
            )
        },
        counts={
            "n": task.n,
            "total_ik": sum(s.count for s in ik_sets),
            "edges": graph.edge_count,
            "vertices": graph.vertex_count,
            "step_cost_bytes": graph.step_cost_bytes,
            "price_calls": graph.price_calls,
            **work,
        },
    )


def solve_sequence(task: Task, config: PipelineConfig | None = None) -> PipelineResult:
    """Run the decoupled pipeline: tour, optimal selection, schedule.

    Deterministic for a fixed ``(task, config)`` apart from the wall-clock
    timings (reported in milliseconds per stage).
    """
    return _run(_decoupled_plan, task, config)


def baseline_cspace_tsp(task: Task, config: PipelineConfig | None = None) -> PipelineResult:
    """Reference method: freeze one configuration per target, then a C-space TSP.

    Per target the configuration with the best manipulability wins; the tour
    is then solved over the frozen configurations with the configured metric
    as edge length (home added as a depot node when enabled). The reported
    selection prices the frozen assignment in the same layered graph the main
    pipeline uses, so the two step-2 costs are directly comparable.
    """
    return _run(_frozen_tour_plan, task, config)


def baseline_gtsp_exact(task: Task, config: PipelineConfig | None = None) -> PipelineResult:
    """Gold standard: exact minimum over every order and configuration choice.

    A generalized TSP, one cluster per target, solved by the subset DP of
    :func:`tsp._cluster_walk`; the step-2 cost is ``path_cost`` of the optimal
    walk in the layered graph of its order. Ties go to the lowest last
    configuration, then the lowest predecessor of each, by (target id, index).
    Refused before any pricing when 2^n V^2 moves (V configurations) exceed the guard.
    """
    return _run(_joint_plan, task, config)


def instance_seed(seed: int, n: int, repeat: int) -> int:
    """Deterministic per-cell seed so all variants see the same instance."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(n, repeat)).generate_state(1)[0])


def _benchmark_variants(axis: str, config: PipelineConfig):
    """(label, config, runner) triples for one benchmark axis."""
    if axis in _SWEEPS:
        return [(label, replace(config, **{axis: value}), solve_sequence)
                for label, value in _SWEEPS[axis]]
    if axis == "method":
        return [(label, config, functools.partial(_run, plan)) for plan, label in _METHODS.items()]
    raise ValueError(f"unknown benchmark axis {axis!r} (expected one of {BENCHMARK_AXES})")


def benchmark_run(
    axis: str,
    sizes,
    repeats: int = 1,
    seed: int = 0,
    m_max: int = 8,
    config: PipelineConfig | None = None,
) -> list[dict]:
    """One row per (size, variant, repeat) along the requested axis.

    Instances are planar tasks drawn from a deterministic stream: the same
    (seed, n, repeat) cell yields the same task for every variant, so rows
    are comparable per instance. A variant whose guard refuses an instance
    contributes a flagged row (nan metrics) instead of crashing the run.
    Rows come back sorted by (variant, n, repeat); timings are wall-clock
    milliseconds and are the only non-deterministic fields.
    """
    config = config or PipelineConfig()
    rows = []
    for n in sizes:
        for repeat in range(repeats):
            cell_seed = instance_seed(seed, n, repeat)
            task = generate_random_task(n, m_max, cell_seed, mode="planar")
            for label, variant_config, runner in _benchmark_variants(axis, config):
                row = {
                    "axis": axis, "variant": label, "n": n,
                    "repeat": repeat, "seed": cell_seed,
                }
                try:
                    result = runner(task, variant_config)
                except GuardError:
                    measured = dict.fromkeys(("total_ik", "edges"), 0)
                else:
                    measured = {
                        **result.timings,
                        **result.counts,
                        "step1_cost": result.step1_cost,
                        "step2_cost": result.selection.total_cost,
                        "schedule_s": result.schedule_duration,
                    }
                row.update(
                    (field, measured.get(field, float("nan")))
                    for field in BENCHMARK_FIELDS
                    if field not in row
                )
                rows.append(row)
    rows.sort(key=lambda r: (r["variant"], r["n"], r["repeat"]))
    return rows
