"""Command-line front end: instance generation, solving, verification, benchmarks.

Subcommands::

    taskseq generate   write a seeded random task file (JSON)
    taskseq solve      run the pipeline on a task file, write a result file (JSON)
    taskseq oracle     cross-check a solver stage against its brute-force oracle
    taskseq benchmark  sweep one axis (solver, metric, step size, method) to CSV

Exit codes: 0 on success or MATCH, 1 on failure or MISMATCH, 2 on usage
errors. Whatever keeps ``oracle`` from a verdict (a guard refusal, a missing or
invalid task file) exits 2 there and 1 elsewhere. All randomness enters through
``--seed``; files are written atomically (temp file plus rename) with LF endings.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile

from .cgraph import brute_force_selection
from .metrics import MetricKind, MetricParams
from .model import (
    GuardError, RobotModel, Task, TaskTarget, generate_random_task, index_tuple, validate_task,
)
from .pipeline import (
    BENCHMARK_AXES,
    BENCHMARK_FIELDS,
    PipelineConfig,
    baseline_gtsp_exact,
    benchmark_run,
    resolve_ik_sets,
    solve_sequence,
)
from .tsp import (
    SolverKind,
    TourOrder,
    brute_force_cycle,
    build_task_distance_matrix,
    solve_exact,
    tour_cost,
)

SCHEDULE_MODEL = "straight_joint_interpolation_obstacle_free"

METRIC_CHOICES = {
    **{kind.value: kind for kind in MetricKind},
    "linear_interp": MetricKind.LINEAR_INTERP_DURATION,
}


def parse_step_size(text: str) -> float:
    """Accept 'pi', 'pi/4', ... or a plain float literal (radians)."""
    token = text.strip().lower()
    if token == "pi":
        return math.pi
    if token.startswith("pi/"):
        divisor = float(token[3:])
        if divisor == 0.0:
            raise ValueError(f"step size {text!r} divides by zero")
        return math.pi / divisor
    return float(token)


# ---------------------------------------------------------------------------
# Task / result file formats


def _set_fields(value) -> dict:
    """The fields of a dataclass that are not None, in field order; arrays as lists."""
    fields = ((field.name, getattr(value, field.name)) for field in dataclasses.fields(value))
    return {name: v.tolist() if hasattr(v, "tolist") else v for name, v in fields if v is not None}


def task_to_dict(task: Task) -> dict:
    """The task document that :func:`task_from_dict` reads back."""
    targets = [_set_fields(target) for target in task.targets]
    return {"robot": _set_fields(task.robot), "home": task.home.tolist(), "targets": targets}


def task_from_dict(doc: dict) -> Task:
    """Parse and validate a task document; raises ValueError with all problems (never TypeError)."""
    if not isinstance(doc, dict):
        raise ValueError("task file must be a JSON object")
    robot_doc, home, entries = doc.get("robot"), doc.get("home"), doc.get("targets")
    if not isinstance(robot_doc, dict) or "dof" not in robot_doc:
        raise ValueError("task file needs a 'robot' object with a 'dof' field")
    if not isinstance(home, list) or not isinstance(entries, list) or not entries:
        raise ValueError("task file needs a 'home' list and a non-empty 'targets' list")
    try:
        dof = index_tuple((robot_doc["dof"],), "task file field 'dof'")[0]
        if dof != len(home):  # checked before the default limits allocate dof entries
            raise ValueError(f"home length mismatch: expected {dof}, got {len(home)}")
        # Limits default to 1 rad/s and 1 rad/s^2 per joint when the file omits them.
        robot = RobotModel(
            dof=dof,
            vel_max=robot_doc.get("vel_max", [1.0] * dof),
            acc_max=robot_doc.get("acc_max", [1.0] * dof),
            weights=robot_doc.get("weights"),
            planar_links=robot_doc.get("planar_links"),
        )
        targets = []
        styles = set()
        for entry in entries:
            if not isinstance(entry, dict) or "id" not in entry:
                raise ValueError("every target needs an 'id' field")
            position = entry.get("position")
            ik_solutions = entry.get("ik_solutions")
            styles.add((position is not None, ik_solutions is not None))
            targets.append(TaskTarget(id=entry["id"], position=position, ik_solutions=ik_solutions))
        task = Task(robot=robot, home=home, targets=tuple(targets))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"task file has a field of the wrong type: {exc}") from exc
    if len(styles) > 1:
        raise ValueError(
            "mixed task file: all targets must populate the same fields "
            "(position, ik_solutions, or both)"
        )
    violations = validate_task(task)
    if violations:
        raise ValueError("invalid task:\n  " + "\n  ".join(violations))
    return task


def result_to_dict(result, config: PipelineConfig) -> dict:
    return {
        "config": dataclasses.asdict(config),  # both enums subclass str, so JSON writes their values
        "method": result.method,
        "schedule_model": SCHEDULE_MODEL,
        "order": list(result.order.order),
        "chosen": list(result.selection.chosen),
        "step1_cost": float(result.step1_cost),
        "step2_cost": float(result.selection.total_cost),
        "schedule_duration_s": float(result.schedule_duration),
        "timings_ms": {
            "step1": result.timings["step1_ms"],
            "ik": result.timings["ik_ms"],
            "step2": result.timings["step2_ms"],
            "step3": result.timings["step3_ms"],
        },
        "counts": dict(result.counts),
    }


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".taskseq-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_json(path: str, doc: dict) -> None:
    _write_atomic(path, json.dumps(doc, indent=2) + "\n")


def load_task(path: str) -> Task:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except RecursionError:
            raise ValueError(f"task file {path!r} nests too deeply to parse") from None
    return task_from_dict(doc)


def rows_to_csv(rows: list) -> str:
    """The rows under a header of BENCHMARK_FIELDS; the csv writer formats floats by ``repr``."""
    text = io.StringIO()
    writer = csv.DictWriter(text, BENCHMARK_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return text.getvalue()


# ---------------------------------------------------------------------------
# Subcommands


def _config_from_args(args) -> PipelineConfig:
    return PipelineConfig(
        tsp_solver=SolverKind(args.solver),
        metric=METRIC_CHOICES[args.metric],
        step_size=parse_step_size(args.step_size),
        rnn_restarts=args.restarts,
        include_home_depot=args.depot,
    )


def cmd_generate(args) -> int:
    task = generate_random_task(args.n, args.m_max, args.seed, args.mode)
    save_json(args.out, task_to_dict(task))
    print(args.out)
    return 0


def cmd_solve(args) -> int:
    task = load_task(args.task)
    config = _config_from_args(args)
    result = solve_sequence(task, config)
    save_json(args.out, result_to_dict(result, config))
    print(args.out)
    return 0


def _either_way_cost(dm, cycle: TourOrder) -> float:
    """The smaller of a cycle's two edge sums from its first node, one per direction:
    the cost that the subset DP and the permutation oracle minimise."""
    return min(tour_cost(dm, cycle), tour_cost(dm, TourOrder(cycle.order[:1] + cycle.order[:0:-1])))


def cmd_oracle(args) -> int:
    task = load_task(args.task)
    config = _config_from_args(args)

    if args.what == "tsp":
        dm = build_task_distance_matrix(task, config.include_home_depot)
        exact_cost = _either_way_cost(dm, solve_exact(dm))
        oracle_cost = _either_way_cost(dm, brute_force_cycle(dm))
        match = exact_cost == oracle_cost
    elif args.what == "step2":
        params = MetricParams.from_robot(task.robot)
        ik_sets = resolve_ik_sets(task, config.step_size)
        result = solve_sequence(task, config)
        search = result.selection
        ordered = [ik_sets[t] for t in result.order.order]
        oracle = brute_force_selection(task.home, ordered, config.metric, params)
        exact_cost, oracle_cost = search.total_cost, oracle.total_cost
        edges = [tuple(map(float.hex, r.per_edge_costs)) for r in (search, oracle)]
        match = exact_cost == oracle_cost and search.chosen == oracle.chosen and edges[0] == edges[1]
    else:  # gtsp: the joint optimum must never exceed the decoupled pipeline
        joint = baseline_gtsp_exact(task, config)
        decoupled = solve_sequence(task, config)
        exact_cost, oracle_cost = decoupled.selection.total_cost, joint.selection.total_cost
        match = oracle_cost <= exact_cost

    verdict = "MATCH" if match else "MISMATCH"
    gap = exact_cost / oracle_cost if oracle_cost else (math.inf if exact_cost else 1.0)
    detail = f" gap={gap:.6g}" if args.what == "gtsp" else ""  # decoupled over joint cost
    print(f"{verdict} {args.what}: solver={exact_cost!r} oracle={oracle_cost!r}{detail}")
    return 0 if match else 1


def cmd_benchmark(args) -> int:
    rows = benchmark_run(
        axis=args.axis,
        sizes=[int(token) for token in args.sizes.split(",") if token.strip()],
        repeats=args.repeats,
        seed=args.seed,
    )
    _write_atomic(args.csv, rows_to_csv(rows))
    print(args.csv)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskseq",
        description="Sequence multi-target robot tasks: tour, configuration choice, schedule.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="write a seeded random task file")
    gen.add_argument("--n", type=_positive_int, required=True, help="number of targets")
    gen.add_argument("--m-max", type=_positive_int, default=8, dest="m_max",
                     help="max configurations per target (explicit mode)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--mode", choices=["explicit_ik", "planar"], default="explicit_ik")
    gen.add_argument("--out", required=True, help="output task file (JSON)")
    gen.set_defaults(func=cmd_generate)

    def add_solve_flags(sub):
        default = PipelineConfig()  # a config flag left out takes the library's default
        sub.add_argument("--task", required=True, help="input task file (JSON)")
        sub.add_argument("--solver", choices=[k.value for k in SolverKind],
                         default=default.tsp_solver.value)
        sub.add_argument("--metric", choices=list(METRIC_CHOICES), default=default.metric.value)
        sub.add_argument("--step-size", default=repr(default.step_size), dest="step_size",
                         help="orientation grid step, e.g. 'pi/4' (must divide 2*pi)")
        sub.add_argument("--restarts", type=_positive_int, default=default.rnn_restarts,
                         help="nearest-neighbor restarts (rnn solver); its time grows with them")
        depot = sub.add_mutually_exclusive_group()
        depot.add_argument("--depot", action="store_true", default=default.include_home_depot,
                           help="anchor the tour at the home position (default)")
        depot.add_argument("--no-depot", dest="depot", action="store_false")

    solve = commands.add_parser("solve", help="run the pipeline on a task file")
    add_solve_flags(solve)
    solve.add_argument("--out", required=True, help="output result file (JSON)")
    solve.set_defaults(func=cmd_solve)

    oracle = commands.add_parser("oracle", help="cross-check a stage against brute force")
    add_solve_flags(oracle)
    oracle.add_argument("--what", choices=["step2", "tsp", "gtsp"], required=True)
    oracle.set_defaults(func=cmd_oracle)

    bench = commands.add_parser("benchmark", help="sweep one axis, write a CSV")
    bench.add_argument("--axis", choices=list(BENCHMARK_AXES), required=True)
    bench.add_argument("--sizes", required=True, help="comma-separated instance sizes")
    bench.add_argument("--repeats", type=_positive_int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--csv", required=True, help="output CSV path")
    bench.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"guard refusal: {exc}", file=sys.stderr)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2 if args.command == "oracle" else 1  # oracle keeps 1 for MISMATCH


if __name__ == "__main__":
    sys.exit(main())
