"""Three-stage sequencing pipeline, comparison baselines, and benchmark harness.

The main solver decouples the problem: (1) order the targets with a
task-space tour solver, (2) pick one configuration per target optimally for
that order via the layered-graph shortest path, (3) time-parameterize the
resulting configuration sequence. Stage 3 uses straight joint-space segments
under trapezoidal speed profiles: an obstacle-free surrogate for full motion
planning, and labeled as such in all outputs.

Two reference methods bracket the main solver: a configuration-space TSP that
freezes one configuration per target by manipulability, and an exact joint
search over every order and every configuration choice (tiny instances only).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import cgraph, tsp
from .kinematics import IkSolutionSet, ik_targets, manipulability, theta_grid
from .metrics import MetricKind, MetricParams, _price, pairwise_cost
from .model import GuardError, Task, generate_random_task
from .tsp import SolverKind, TourKind, TourOrder

#: Guards for the exact joint-optimum search.
GTSP_GUARD_TARGETS = 7
GTSP_GUARD_TOURS = 10**7

#: Orientation step sizes swept by the discretization benchmark axis.
STEP_SIZE_VARIANTS = (
    ("pi", math.pi),
    ("pi/2", math.pi / 2),
    ("pi/3", math.pi / 3),
    ("pi/4", math.pi / 4),
    ("pi/6", math.pi / 6),
    ("pi/12", math.pi / 12),
)

BENCHMARK_AXES = ("tsp_solver", "metric", "step_size", "method")

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
        theta_grid(self.step_size)  # rejects step sizes that do not divide 2*pi


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


def resolve_ik_sets(task: Task, step_size: float) -> list[IkSolutionSet]:
    """One solution set per target, in target-id order.

    Explicit configuration lists pass through; planar targets are solved over
    the orientation grid. A target that ends up with no configuration at all
    aborts the pipeline before any tour is attempted.
    """
    sets = []
    for target in task.targets:
        if target.ik_solutions is not None:
            entry = IkSolutionSet(target_id=target.id, solutions=target.ik_solutions)
        elif target.position is not None:
            entry = ik_targets(task.robot, target.position, step_size, target_id=target.id)
        else:
            raise ValueError(f"target {target.id} has neither configurations nor a position")
        if entry.count == 0:
            raise ValueError(
                f"target {target.id} unreachable: no configuration found "
                f"(step size {step_size:.6g})"
            )
        sets.append(entry)
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


def _solve_cycle(dm: np.ndarray, config: PipelineConfig) -> TourOrder:
    if config.tsp_solver is SolverKind.EXACT:
        return tsp.solve_exact(dm)
    if config.tsp_solver is SolverKind.TWO_OPT:
        return tsp.solve_2opt(dm)
    restarts = min(max(config.rnn_restarts, 1), dm.shape[0])
    return tsp.solve_rnn(dm, restarts)


def _visit_order(cycle: TourOrder, n: int, include_home_depot: bool) -> TourOrder:
    if include_home_depot:
        return tsp.open_order_from_cycle(cycle, depot=n)
    return TourOrder(cycle.order, TourKind.OPEN_PATH)


def _task_space_cycle_cost(task: Task, order: TourOrder, include_home_depot: bool) -> float:
    """Task-space cycle cost of a visiting order (nan if positions are missing)."""
    if any(t.position is None for t in task.targets):
        return float("nan")
    dm = tsp.build_task_distance_matrix(task, include_home_depot)
    nodes = tuple(order.order) + ((task.n,) if include_home_depot else ())
    return tsp.tour_cost(dm, TourOrder(nodes, TourKind.CLOSED_CYCLE))


def _start_stages(task: Task, config: PipelineConfig | None):
    """Start the stage clock and resolve IK: ``(config, params, ik_sets, marks)``.

    ``marks`` holds the wall-clock time at each stage boundary; a runner
    appends one mark after step 1 and one after step 2.
    """
    config = config or PipelineConfig()
    params = MetricParams.from_robot(task.robot)
    marks = [time.perf_counter()]
    ik_sets = resolve_ik_sets(task, config.step_size)
    marks.append(time.perf_counter())
    return config, params, ik_sets, marks


def _finish_stages(
    method: str,
    task: Task,
    params: MetricParams,
    ik_sets: list[IkSolutionSet],
    marks: list[float],
    order: TourOrder,
    selection: cgraph.SelectionResult,
    step1_cost: float,
    graph: cgraph.LayeredGraph,
) -> PipelineResult:
    """Run step 3 (the schedule), stop the clock and assemble the result."""
    chosen = [ik_sets[t].solutions[c] for t, c in zip(order.order, selection.chosen)]
    sequence = [task.home, *chosen, task.home]
    schedule = execute_trajectory_schedule(sequence, params.vel_max, params.acc_max)
    marks.append(time.perf_counter())
    return PipelineResult(
        method=method,
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
        },
    )


def solve_sequence(task: Task, config: PipelineConfig | None = None) -> PipelineResult:
    """Run the decoupled pipeline: tour, optimal selection, schedule.

    Deterministic for a fixed ``(task, config)`` apart from the wall-clock
    timings (reported in milliseconds per stage).
    """
    config, params, ik_sets, marks = _start_stages(task, config)

    dm = tsp.build_task_distance_matrix(task, config.include_home_depot)
    cycle = _solve_cycle(dm, config)
    order = _visit_order(cycle, task.n, config.include_home_depot)
    step1_cost = tsp.tour_cost(dm, cycle)
    marks.append(time.perf_counter())

    ordered = [ik_sets[t] for t in order.order]
    graph = cgraph.build_layered_graph(task.home, ordered, config.metric, params)
    selection = cgraph.shortest_selection(graph)
    marks.append(time.perf_counter())

    return _finish_stages(
        "decoupled", task, params, ik_sets, marks, order, selection, step1_cost, graph
    )


def baseline_cspace_tsp(task: Task, config: PipelineConfig | None = None) -> PipelineResult:
    """Reference method: freeze one configuration per target, then a C-space TSP.

    Per target the configuration with the best manipulability wins; the tour
    is then solved over the frozen configurations with the configured metric
    as edge length (home added as a depot node when enabled). The reported
    selection prices the frozen assignment in the same layered graph the main
    pipeline uses, so the two step-2 costs are directly comparable.
    """
    config, params, ik_sets, marks = _start_stages(task, config)

    fixed = manipulability_choice(task, ik_sets)
    nodes = [entry.solutions[c] for entry, c in zip(ik_sets, fixed)]
    if config.include_home_depot:
        nodes.append(task.home)
    dm_cspace = pairwise_cost(config.metric, params, nodes, nodes)
    cycle = _solve_cycle(dm_cspace, config)
    order = _visit_order(cycle, task.n, config.include_home_depot)
    step1_cost = _task_space_cycle_cost(task, order, config.include_home_depot)
    marks.append(time.perf_counter())

    ordered = [ik_sets[t] for t in order.order]
    graph = cgraph.build_layered_graph(task.home, ordered, config.metric, params)
    chosen = tuple(fixed[t] for t in order.order)
    total, edges = cgraph.path_cost(graph, chosen)
    selection = cgraph.SelectionResult(chosen=chosen, total_cost=total, per_edge_costs=edges)
    marks.append(time.perf_counter())

    return _finish_stages(
        "cspace_tsp", task, params, ik_sets, marks, order, selection, step1_cost, graph
    )


def baseline_gtsp_exact(task: Task, config: PipelineConfig | None = None) -> PipelineResult:
    """Gold standard: exact minimum over every order and configuration choice.

    Feasible only on tiny instances; the guard bounds the implied number of
    straight-path configuration-space tours, (n-1)! times the product of the
    per-target solution counts. Orders are enumerated lexicographically and,
    per order, the optimal selection is found with the same layered-graph
    machinery the main pipeline uses, so its cost is exactly comparable.
    """
    config, params, ik_sets, marks = _start_stages(task, config)
    marks.append(marks[-1])  # no step 1: the joint search is one indivisible step 2

    n = task.n
    if n > GTSP_GUARD_TARGETS:
        raise GuardError(
            f"joint-search guard: n={n} exceeds {GTSP_GUARD_TARGETS} targets"
        )
    tours = math.factorial(n - 1) * math.prod(s.count for s in ik_sets)
    if tours > GTSP_GUARD_TOURS:
        raise GuardError(
            f"joint-search guard: {tours} configuration-space tours exceed "
            f"{GTSP_GUARD_TOURS}"
        )

    best = None  # (selection, perm, graph) of the first strictly cheapest order
    for perm in itertools.permutations(range(n)):
        ordered = [ik_sets[t] for t in perm]
        graph = cgraph.build_layered_graph(task.home, ordered, config.metric, params)
        selection = cgraph.shortest_selection(graph)
        if best is None or selection.total_cost < best[0].total_cost:
            best = (selection, perm, graph)
    selection, perm, graph = best
    order = TourOrder(perm, TourKind.OPEN_PATH)
    step1_cost = _task_space_cycle_cost(task, order, config.include_home_depot)
    marks.append(time.perf_counter())

    return _finish_stages(
        "gtsp_exact", task, params, ik_sets, marks, order, selection, step1_cost, graph
    )


def instance_seed(seed: int, n: int, repeat: int) -> int:
    """Deterministic per-cell seed so all variants see the same instance."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(n, repeat)).generate_state(1)[0])


def _benchmark_variants(axis: str, config: PipelineConfig):
    """(label, config, runner) triples for one benchmark axis."""
    if axis == "tsp_solver":
        return [
            (kind.value, replace(config, tsp_solver=kind), solve_sequence)
            for kind in (SolverKind.EXACT, SolverKind.TWO_OPT, SolverKind.RNN)
        ]
    if axis == "metric":
        return [
            (kind.value, replace(config, metric=kind), solve_sequence)
            for kind in MetricKind
        ]
    if axis == "step_size":
        return [
            (label, replace(config, step_size=step), solve_sequence)
            for label, step in STEP_SIZE_VARIANTS
        ]
    if axis == "method":
        return [
            ("decoupled", config, solve_sequence),
            ("cspace_tsp", config, baseline_cspace_tsp),
            ("gtsp_exact", config, baseline_gtsp_exact),
        ]
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
