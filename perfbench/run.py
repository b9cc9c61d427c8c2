"""taskseq benchmark: one workload per slow layer, timed end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload ik-dense --seed 1 --seconds 20 --trace 0

One single-threaded process per run works as a closed loop with one caller.
It generates the workload's tasks from ``--seed``, loads each one the way a
task file is loaded (``task_to_dict`` -> JSON text -> ``task_from_dict``),
then solves them one after another with ``solve_sequence``, round and round
the task list, until ``--seconds`` are used up (at least one whole pass).
Every output is checked outside the timed region; a solve that raises or
fails a check is counted, not fatal. Solve times are divided by a yardstick
timed around each solve (``yardstick.py``), so that the drift of a shared
machine's speed cancels out of the time metrics.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time on the same untraced loop and half on a traced one that records a span
around every call ``solve_sequence`` makes into the library, and reports the
per-layer metrics; the spans go to ``.perfbench-out/`` under the repository
root. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

#: Thread pools of the BLAS and OpenMP runtimes numpy may load, pinned to one.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

#: The import is timed in this many interpreters, and the tasks are set up in
#: this many equal batches; setup_s adds the median import to the median batch
#: times this count.
SETUP_REPEATS = 3

END_TO_END = {
    "solve_rel.p50": "ref",
    "targets_per_ref": "targets/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "step1_cost.mean": "m",
    "step2_cost.mean": "s",
    "schedule_s.mean": "s",
}

PER_LAYER = {
    "kinematics.ik_s": "s",
    "kinematics.poses_tried": "count",
    "kinematics.poses_kept": "count",
    "kinematics.keep_ratio": "ratio",
    "tsp.matrix_s": "s",
    "tsp.seed_s": "s",
    "tsp.improve_s": "s",
    "tsp.seed_cost": "m",
    "tsp.improve_ratio": "ratio",
    "metrics.pairwise_s": "s",
    "metrics.temp_mb": "MB",
    "metrics.temp_peak_mb": "MB",
    "cgraph.build_s": "s",
    "cgraph.search_s": "s",
    "cgraph.edges": "count",
    "cgraph.vertices": "count",
    "cgraph.step_cost_mb": "MB",
    "pipeline.schedule_time_s": "s",
    "pipeline.glue_s": "s",
    "pipeline.solve_s": "s",
    "bench.yardstick_s": "s",
    "cli.load_s": "s",
    "model.generate_s": "s",
    "trace.layer_sum_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--n", type=int, default=None,
                        help="override targets per task (smoke tests)")
    parser.add_argument("--tasks", type=int, default=None,
                        help="override distinct tasks per run (smoke tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if (args.n is not None and args.n < 1) or (args.tasks is not None and args.tasks < 1):
        parser.error("--n and --tasks must be >= 1")
    return args


def import_program() -> float:
    """Import taskseq from this checkout's ``src/``; returns the seconds it took.

    The import is timed here and in two fresh interpreters; the median counts.
    """
    if not (SRC / "taskseq" / "__init__.py").is_file():
        raise BenchError(f"no taskseq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import taskseq
    import taskseq.cli  # noqa: F401  (the task-file loader is part of set-up)
    elapsed = [time.perf_counter() - started]
    if Path(taskseq.__file__).resolve().parent != SRC / "taskseq":
        raise BenchError(f"imported taskseq from {taskseq.__file__}, not from {SRC}")
    probe = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import taskseq, taskseq.cli; print(time.perf_counter() - t)"
    )
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, "-c", probe, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        elapsed.append(float(out.stdout))
    return statistics.median(elapsed)


def environment(seed, workload) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "workload": workload.params(),
    }


def run_setup(workload, seeds):
    """Generate and load every task once, in SETUP_REPEATS batches of tasks.

    Returns the tasks, the batch times, and per task the seconds spent in
    ``generate_random_task`` and in ``task_from_dict``.
    """
    from taskseq import generate_random_task
    from taskseq.cli import task_from_dict, task_to_dict

    tasks, batches, generate_s, load_s = [None] * len(seeds), [], [], []
    for batch in range(SETUP_REPEATS):
        started = time.perf_counter()
        for index in range(batch, len(seeds), SETUP_REPEATS):
            t0 = time.perf_counter()
            task = generate_random_task(workload.n, workload.m_max, seeds[index], mode=workload.mode)
            t1 = time.perf_counter()
            doc = json.loads(json.dumps(task_to_dict(task)))
            t2 = time.perf_counter()
            tasks[index] = task_from_dict(doc)
            t3 = time.perf_counter()
            generate_s.append(t1 - t0)
            load_s.append(t3 - t2)
        batches.append(time.perf_counter() - started)
    return tasks, batches, generate_s, load_s


def run_passes(tasks, solve, budget, yardstick_kinds):
    """Solve ``tasks`` in order, round and round, until ``budget`` seconds are used.

    The first pass always completes, so every task is solved at least once.
    The yardstick is measured before every solve and after the last one.
    Returns (task index, seconds, yardstick seconds around the solve, result
    or the exception raised) per solve.
    """
    import yardstick

    samples = []
    started = time.perf_counter()
    count = 0
    before = yardstick.measure(yardstick_kinds)
    while count < len(tasks) or time.perf_counter() - started < budget:
        index = count % len(tasks)
        t0 = time.perf_counter()
        try:
            result = solve(index, tasks[index])
        except Exception as exc:  # a failed solve is counted, not fatal
            result = exc
        seconds = time.perf_counter() - t0
        after = yardstick.measure(yardstick_kinds)
        samples.append((index, seconds, (before + after) / 2, result))
        before = after
        count += 1
    return samples


def judge(samples, check_first, reference=None):
    """First result per task index, and the number of failed samples.

    The first solve of a task gets the full check; every later solve of it
    must equal ``reference[index]`` (default: that first result) bit for bit.
    """
    import checks

    first, verdicts, failed = {}, {}, 0
    for index, _, _, result in samples:
        if isinstance(result, Exception):
            problems = [f"raised {type(result).__name__}: {result}"]
        elif index not in verdicts:
            first[index] = result
            problems = verdicts[index] = check_first(index, result)
        elif verdicts[index]:
            problems = verdicts[index]
        elif not checks.same_result(result, (reference or first)[index]):
            problems = ["differs from the first solve of the task"]
        else:
            problems = []
        if problems:
            failed += 1
            print(f"task {index}: FAILED: {'; '.join(problems)}", file=sys.stderr)
    return first, failed


def median_of(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def solve_times(samples):
    """(solve seconds, yardstick seconds) of every solve that returned."""
    return [(s, y) for _, s, y, r in samples if not isinstance(r, Exception)]


def end_to_end_metrics(workload, samples, first, setup_s) -> dict:
    times = solve_times(samples)
    results = [first[i] for i in sorted(first)]
    return {
        "solve_rel.p50": median_of([s / y for s, y in times]),
        "targets_per_ref": len(times) * workload.n / sum(s / y for s, y in times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "step1_cost.mean": statistics.fmean(r.step1_cost for r in results),
        "step2_cost.mean": statistics.fmean(r.selection.total_cost for r in results),
        "schedule_s.mean": statistics.fmean(r.schedule_duration for r in results),
    }


def poses_tried(task, grid: int) -> int:
    """Planar targets try every grid orientation on both elbow branches;
    explicit configuration lists pass through, each counted as one pose."""
    return sum(
        grid * 2 if t.ik_solutions is None else len(t.ik_solutions) for t in task.targets
    )


def call_counts(task, grid, calls) -> dict:
    """Work counts of one traced solve, read from the calls it made."""
    from taskseq import tour_cost

    counts = dict.fromkeys(("kept", "seed", "final", "temp", "temp_peak", "edges", "vertices", "step"), 0.0)
    counts["tried"] = poses_tried(task, grid)
    for _, ik_sets in calls.get("kinematics.resolve_ik_sets", ()):
        counts["kept"] += sum(s.count for s in ik_sets)
    for (dm, _), seed in calls.get("tsp.solve_rnn", ()):
        counts["seed"] += tour_cost(dm, seed)
    for (dm, *_), cycle in calls.get("tsp.solve_2opt", ()):
        counts["final"] += tour_cost(dm, cycle)
    for (_, _, a, b), _ in calls.get("metrics.pairwise_cost", ()):
        # pairwise_cost materialises (m_a, m_b, dof) float64 differences.
        temp = len(a) * len(b) * a.shape[-1] * 8 / 1e6
        counts["temp"] += temp
        counts["temp_peak"] = max(counts["temp_peak"], temp)
    for _, graph in calls.get("cgraph.build_layered_graph", ()):
        counts["edges"] += graph.edge_count
        counts["vertices"] += graph.vertex_count
        counts["step"] += sum(block.nbytes for block in graph.step_costs) / 1e6
    return counts


def per_layer_metrics(tracer, task_counts, untraced, traced_yardsticks, generate_s, load_s):
    """Per-layer times (per-solve medians) and counts (totals over one pass).

    The tracing overhead compares traced and untraced solves each divided by
    the yardstick timed around it, so drift between the two halves cancels.
    """
    per_solve = tracer.per_solve()
    traced_rel = [s["root"] / y for s, y in zip(per_solve, traced_yardsticks)]

    def med(name):
        return median_of([s.get(name, 0.0) for s in per_solve])

    counts = {
        key: sum(c[key] for c in task_counts.values()) for key in next(iter(task_counts.values()))
    }
    counts["temp_peak"] = max(c["temp_peak"] for c in task_counts.values())
    layer_sum = med("layer_sum")
    untraced_p50 = median_of([s for s, _ in untraced])
    return {
        "kinematics.ik_s": med("kinematics.resolve_ik_sets"),
        "kinematics.poses_tried": int(counts["tried"]),
        "kinematics.poses_kept": int(counts["kept"]),
        "kinematics.keep_ratio": counts["kept"] / counts["tried"],
        "tsp.matrix_s": med("tsp.build_task_distance_matrix"),
        "tsp.seed_s": med("tsp.solve_rnn"),
        "tsp.improve_s": median_of(
            [s.get("tsp.solve_2opt", 0.0) - s.get("solve_2opt.nested_rnn", 0.0) for s in per_solve]
        ),
        "tsp.seed_cost": counts["seed"] / len(task_counts),
        "tsp.improve_ratio": counts["final"] / counts["seed"] if counts["seed"] else 1.0,
        "metrics.pairwise_s": med("metrics.pairwise_cost"),
        "metrics.temp_mb": counts["temp"],
        "metrics.temp_peak_mb": counts["temp_peak"],
        "cgraph.build_s": med("cgraph.build_layered_graph"),
        "cgraph.search_s": med("cgraph.shortest_selection"),
        "cgraph.edges": int(counts["edges"]),
        "cgraph.vertices": int(counts["vertices"]),
        "cgraph.step_cost_mb": counts["step"],
        "pipeline.schedule_time_s": med("pipeline.execute_trajectory_schedule"),
        "pipeline.glue_s": median_of([s["root"] - s["layer_sum"] for s in per_solve]),
        "pipeline.solve_s": untraced_p50,
        "bench.yardstick_s": median_of([y for _, y in untraced]),
        "cli.load_s": median_of(load_s),
        "model.generate_s": median_of(generate_s),
        "trace.layer_sum_s": layer_sum,
        "trace.overhead_ratio": median_of(traced_rel) / median_of([s / y for s, y in untraced]),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()

    import checks
    import spans
    from taskseq import PipelineConfig, generate_random_task, solve_sequence
    from taskseq.cli import parse_step_size
    from taskseq.kinematics import theta_grid
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r} (expected one of {list(WORKLOADS)})")
    workload = WORKLOADS[args.workload].resized(args.n, args.tasks)
    env = environment(args.seed, workload)
    print(f"# perfbench {workload.name} seed={args.seed} trace={args.trace}: {workload.why}")
    print("# env " + json.dumps(env, sort_keys=True))

    tasks, batches, generate_s, load_s = run_setup(workload, workload.task_seeds(args.seed))
    setup_s = import_s + SETUP_REPEATS * median_of(batches)
    config = PipelineConfig(
        step_size=parse_step_size(workload.step_size), metric=workload.metric
    )
    grid = len(theta_grid(config.step_size))

    # Warm numpy's lazy paths on a small task of the same shape before timing,
    # and take the benchmark's own task store out of the collector's view.
    solve_sequence(generate_random_task(5, min(workload.m_max, 3), 0, mode=workload.mode), config)
    gc.collect()
    gc.freeze()

    def solve(_, task):
        return solve_sequence(task, config)

    budget = args.seconds if args.trace == 0 else args.seconds / 2
    samples = run_passes(tasks, solve, budget, workload.yardstick)
    first, failed = judge(samples, lambda i, r: checks.check_result(tasks[i], config, r))
    attempted = len(samples)
    untraced = solve_times(samples)
    if len(first) < len(tasks):
        raise BenchError("some tasks never solved; no metrics to report")

    if args.trace == 0:
        metrics = end_to_end_metrics(workload, samples, first, setup_s)
        units = END_TO_END
    else:
        tracer = spans.Tracer()
        task_counts, task_problems = {}, {}

        def traced_solve(index, task):
            tracer.begin_task(index)
            with tracer.patched():
                result = tracer.span(spans.ROOT, solve_sequence, task, config)
            if index not in task_counts:  # outside every span: not part of the layer times
                task_problems[index] = checks.check_traced(result, first[index], tracer.calls)
                task_counts[index] = call_counts(task, grid, tracer.calls)
            return result

        traced = run_passes(tasks, traced_solve, args.seconds / 2, workload.yardstick)
        _, traced_failed = judge(traced, lambda i, r: task_problems[i], reference=first)
        attempted += len(traced)
        failed += traced_failed
        metrics = per_layer_metrics(
            tracer, task_counts, untraced, [y for _, _, y, _ in traced], generate_s, load_s
        )
        units = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        out.write_text(json.dumps({"env": env, "spans": tracer.to_json()}) + "\n")
        print(f"# spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")

    print(f"solve_s.samples = {len(untraced)} count")
    print(f"solve_s.p50 = {median_of([s for s, _ in untraced])!r} s")
    print(f"targets_per_s = {len(untraced) * workload.n / sum(s for s, _ in untraced)!r} targets/s")
    print(f"failed_frac = {failed / attempted!r} ratio")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
