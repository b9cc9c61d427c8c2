"""Three-stage sequencing pipeline, comparison baselines, and benchmark harness.

Each method is only its step-1 plan: a visiting order, its task-space cost
and, for a reference method, its configuration choice per target. ``_run``
does the rest for every method: IK, (2) the layered graph of the order, its
shortest path unless the plan chose, priced by ``path_cost``, (3) the
time-parameterization of that sequence, the stage clock and counters.
Stage 3 uses straight joint-space segments under trapezoidal speed profiles:
an obstacle-free surrogate for full motion planning, labeled as such in all
outputs. The main solver decouples: its plan is the task-space tour alone.
Two reference methods bracket it: a C-space tour of configurations frozen by
manipulability, and the exact joint optimum over every order and choice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import cgraph, tsp
from .kinematics import IK_COUNTERS, IkSolutionSet, ik_pool, manipulability, theta_grid
from .metrics import MetricKind, MetricParams, _price, pairwise_cost
from .model import GuardError, Task, generate_random_task, index_tuple, ordered_sum
from .tsp import SolverKind, TourKind, TourOrder

#: Guard for the exact joint optimum: its DP prices 2^n * V^2 moves for n targets, V configurations.
GTSP_GUARD_MOVES = 5 * 10**7

#: Orientation step sizes swept by the discretization benchmark axis: pi over each divisor.
STEP_SIZE_VARIANTS = tuple(("pi" if k == 1 else f"pi/{k}", math.pi / k) for k in (1, 2, 3, 4, 6, 12))

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
    """Knobs of the pipeline: tour solver, edge metric, orientation grid, start
    nodes of the ``rnn`` solver (read by :func:`~taskseq.model.index_tuple`), depot."""

    tsp_solver: SolverKind = SolverKind.TWO_OPT
    metric: MetricKind = MetricKind.MAX_JOINT_DIFFERENCE
    step_size: float = math.pi / 4
    rnn_restarts: int = 1
    include_home_depot: bool = True

    def __post_init__(self):
        object.__setattr__(self, "tsp_solver", SolverKind(self.tsp_solver))
        object.__setattr__(self, "metric", MetricKind(self.metric))
        theta_grid(self.step_size)  # refuses a step that is not a real number dividing 2*pi
        object.__setattr__(self, "step_size", float(self.step_size))
        restarts = index_tuple((self.rnn_restarts,), "rnn_restarts")[0]
        if restarts < 1:
            raise ValueError(f"rnn_restarts must be an integer of at least 1, got {restarts!r}")
        object.__setattr__(self, "rnn_restarts", restarts)
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
    sequence must include the endpoints (home at both ends for a full tour). The
    durations are added in order by ``ordered_sum``, as ``cgraph.path_cost`` adds edges.
    """
    if len(configurations) < 2:
        raise ValueError("schedule needs at least two configurations")
    stack = np.asarray(configurations, dtype=float)
    params = MetricParams(np.ones(np.size(vel_max)), vel_max, acc_max)
    durations = _price(MetricKind.LINEAR_INTERP_DURATION, params, stack[:-1], stack[1:])
    return ordered_sum(durations.tolist())


def manipulability_choice(task: Task, ik_sets: list[IkSolutionSet]) -> list[int]:
    """Index of the best-manipulability configuration per target (ties: lowest index).

    Single-configuration targets are forced regardless of robot type; ranking
    multiple configurations requires the planar arm (manipulability needs a
    Jacobian).
    """
    chosen = []
    for entry in ik_sets:
        if entry.count > 1 and not task.robot.is_planar:
            raise ValueError(
                f"target {entry.target_id} has {entry.count} configurations but the "
                f"robot has no planar arm to rank them by manipulability"
            )
        chosen.append(int(np.argmax(manipulability(task.robot, entry.solutions))) if entry.count > 1 else 0)
    return chosen


def _tour(dm: np.ndarray, config: PipelineConfig, work: dict) -> tuple[TourOrder, TourOrder]:
    """``(cycle, visiting order)`` by the configured solver over ``dm``, whose last
    node is home when the depot is on; 2-opt improves the nearest-neighbour tour
    from node 0 and writes its counters into ``work``."""
    if config.tsp_solver is SolverKind.EXACT:
        cycle = tsp.solve_exact(dm)
    elif config.tsp_solver is SolverKind.TWO_OPT:
        cycle = tsp.solve_2opt(dm, stats=work)
    else:
        cycle = tsp.solve_rnn(dm, min(config.rnn_restarts, dm.shape[0]))
    if config.include_home_depot:
        return cycle, tsp.open_order_from_cycle(cycle, depot=len(dm) - 1)
    return cycle, TourOrder(cycle.order, TourKind.OPEN_PATH)


def _walk_result(task, config, order: TourOrder, chosen):
    """A reference plan's ``(order, step1_cost, chosen)``: the step-1 cost is the
    task-space cycle cost of ``order``, home included when the depot is on."""
    task_dm = tsp.build_task_distance_matrix(task, config.include_home_depot)
    cycle = tuple(order.order) + ((task.n,) if config.include_home_depot else ())
    return order, tsp.tour_cost(task_dm, TourOrder(cycle, TourKind.CLOSED_CYCLE)), tuple(chosen)


def _decoupled_plan(task, config, params, ik_sets, work):
    """Step 1 of the paper's method: the task-space tour; step 2 then selects freely."""
    dm = tsp.build_task_distance_matrix(task, config.include_home_depot)
    cycle, order = _tour(dm, config, work)
    return order, tsp.tour_cost(dm, cycle), None


def _frozen_tour_plan(task, config, params, ik_sets, work):
    """Freeze the best-manipulability configuration per target, then tour the frozen
    configurations under the configured metric, home the last node when the depot is on."""
    fixed = manipulability_choice(task, ik_sets)
    nodes = [entry.solutions[c] for entry, c in zip(ik_sets, fixed)]
    nodes += [task.home] if config.include_home_depot else []
    _, order = _tour(pairwise_cost(config.metric, params, nodes, nodes), config, work)
    return _walk_result(task, config, order, [fixed[t] for t in order.order])


def _joint_plan(task, config, params, ik_sets, work):
    """Step 1 of the joint optimum: the guard, then the subset DP over every order
    and configuration; its walk gives the order and the choice."""
    sizes = [s.count for s in ik_sets]
    moves = (1 << task.n) * sum(sizes) ** 2
    if moves > GTSP_GUARD_MOVES:
        raise GuardError(f"joint-search guard: 2^{task.n} x {sum(sizes)}^2 configurations = "
                         f"{moves} moves exceed {GTSP_GUARD_MOVES}")

    nodes = np.concatenate([task.home[None], *(s.solutions for s in ik_sets)])
    bounds = np.cumsum([0, 1, *sizes])  # node blocks: home, then each target's configurations
    dm = pairwise_cost(config.metric, params, nodes, nodes)  # moves within a block are never read
    target = np.repeat(np.arange(task.n), sizes)  # of each configuration, node v + 1
    _, walk = tsp._cluster_walk(dm, target)
    order = TourOrder(target[walk], TourKind.OPEN_PATH)
    chosen = (walk - bounds[target[walk] + 1] + 1).tolist()  # node less its block's first
    return _walk_result(task, config, order, chosen)


#: Each method's label, by its step-1 plan, in the order the ``method`` benchmark axis runs them.
_METHODS = {_decoupled_plan: "decoupled", _frozen_tour_plan: "cspace_tsp", _joint_plan: "gtsp_exact"}


def _run(plan, task: Task, config: PipelineConfig | None) -> PipelineResult:
    """Run one method: IK, its step-1 ``plan``, the selection (step 2), the schedule (step 3).

    ``plan(task, config, params, ik_sets, work)`` is step 1: it returns
    ``(order, step1_cost, chosen)``, and step 1's clock stops when it returns.
    Step 2 builds the layered graph of ``order``, whose sizes the counts report,
    and takes its shortest selection when ``chosen`` is None, or else prices
    ``chosen`` by :func:`~taskseq.cgraph.path_cost`, as every selection is
    priced. ``work`` holds the IK and tour counters; the tour counters stay
    zero unless the plan runs 2-opt. A task with no targets is refused before IK.
    """
    if not task.targets:
        raise ValueError("task must contain at least one target")
    config = config or PipelineConfig()
    params = MetricParams.from_robot(task.robot)
    work: dict = {}
    start = time.perf_counter()
    ik_sets = resolve_ik_sets(task, config.step_size, stats=work)
    ik_end = time.perf_counter()
    work.update(dict.fromkeys(tsp.TOUR_COUNTERS, 0))
    order, step1_cost, chosen = plan(task, config, params, ik_sets, work)
    step1_end = time.perf_counter()
    ordered = [ik_sets[t] for t in order.order]
    graph = cgraph.build_layered_graph(task.home, ordered, config.metric, params)
    selection = (cgraph.shortest_selection(graph) if chosen is None
                 else cgraph.SelectionResult(chosen, *cgraph.path_cost(graph, chosen)))
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
    as edge length (home added as a depot node when enabled). Step 2 prices
    the frozen choice from home to home by ``path_cost`` in the layered graph
    of the order, as for every method, so their step-2 costs compare directly.
    """
    return _run(_frozen_tour_plan, task, config)


def baseline_gtsp_exact(task: Task, config: PipelineConfig | None = None) -> PipelineResult:
    """Gold standard: exact minimum over every order and configuration choice.

    A generalized TSP, one cluster per target, solved by the subset DP of
    :func:`tsp._cluster_walk`; step 2 prices the optimal walk's choice by
    ``path_cost`` in the graph of its order. Ties go to the lowest last
    configuration, then the lowest predecessor of each, by (target id, index).
    Refused before any pricing when 2^n V^2 moves (V configurations) exceed the guard.
    """
    return _run(_joint_plan, task, config)


def instance_seed(seed: int, n: int, repeat: int) -> int:
    """Deterministic per-cell seed so all variants see the same instance."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(n, repeat)).generate_state(1)[0])


def _benchmark_variants(axis: str, config: PipelineConfig):
    """(label, config, plan) triples for one benchmark axis; :func:`_run` runs each plan."""
    if axis in _SWEEPS:
        return [(label, replace(config, **{axis: value}), _decoupled_plan)
                for label, value in _SWEEPS[axis]]
    if axis == "method":
        return [(label, config, plan) for plan, label in _METHODS.items()]
    raise ValueError(f"unknown benchmark axis {axis!r} (expected one of {BENCHMARK_AXES})")


def benchmark_run(
    axis: str,
    sizes,
    repeats: int = 1,
    seed: int = 0,
    config: PipelineConfig | None = None,
) -> list[dict]:
    """One row per (size, variant, repeat) along the requested axis.

    Instances are planar tasks drawn from a deterministic stream: the same
    (seed, n, repeat) cell yields the same task for every variant, so rows
    are comparable per instance. A variant whose guard refuses an instance
    contributes a flagged row (nan metrics) instead of crashing the run.
    Rows come back sorted by (variant, n, repeat); timings are wall-clock
    milliseconds and are the only non-deterministic fields. Sizes (one or more),
    ``repeats`` (1 or more) and ``seed`` (0 or more) are read by ``index_tuple``.
    """
    config = config or PipelineConfig()
    seed = index_tuple((seed,), "seed")[0]
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    sizes, repeats = index_tuple(sizes, "instance size"), index_tuple((repeats,), "repeats")[0]
    if not sizes or repeats < 1:
        raise ValueError(f"a benchmark needs one size and one repeat or more, got {sizes}, {repeats}")
    variants = _benchmark_variants(axis, config)
    rows = []
    for n in sizes:
        for repeat in range(repeats):
            cell_seed = instance_seed(seed, n, repeat)
            task = generate_random_task(n, 1, cell_seed, mode="planar")
            for label, variant_config, plan in variants:
                row = {
                    "axis": axis, "variant": label, "n": n,
                    "repeat": repeat, "seed": cell_seed,
                }
                try:
                    result = _run(plan, task, variant_config)
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
