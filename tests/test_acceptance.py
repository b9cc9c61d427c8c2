"""Acceptance gate: one test per criterion, each printing its own PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdicts. Every tolerance is pinned here; seeds are frozen so the whole gate
is reproducible.
"""

import json
import math
import time

import numpy as np
import pytest

import taskseq as ts
from taskseq.cli import main
from taskseq.metrics import MetricParams
from taskseq.pipeline import STEP_SIZE_VARIANTS, manipulability_choice

FLOAT_SLACK = 1e-12  # association slack for <= comparisons between float sums


def _report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:2d} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _random_selection_instance(rng, n_low, n_high, m_low, m_high, dof=6):
    n = int(rng.integers(n_low, n_high + 1))
    home = rng.uniform(-math.pi, math.pi, dof)
    sets = [
        ts.IkSolutionSet(
            target_id=t,
            solutions=tuple(
                rng.uniform(-math.pi, math.pi, dof)
                for _ in range(int(rng.integers(m_low, m_high + 1)))
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


def _uniform_points_matrix(rng, n):
    points = rng.uniform(0.0, 1.0, size=(n, 2))
    return np.linalg.norm(points[:, None] - points[None, :], axis=-1)


def test_criterion_01_step2_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(20240707)
    violations = 0
    for _ in range(200):
        home, sets, params = _random_selection_instance(rng, 2, 7, 1, 4)
        for kind in ts.MetricKind:
            graph = ts.build_layered_graph(home, sets, kind, params)
            search = ts.shortest_selection(graph)
            oracle = ts.brute_force_selection(home, sets, kind, params)
            if search.total_cost != oracle.total_cost or search.chosen != oracle.chosen:
                violations += 1
    elapsed = time.perf_counter() - started
    _report(
        1, "step2-optimality",
        violations == 0 and elapsed < 10.0,
        f"200 instances x 3 metrics, {violations} mismatches, {elapsed:.2f}s",
    )


def test_criterion_02_exact_tsp_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        dm = _uniform_points_matrix(rng, n)
        fast = ts.tour_cost(dm, ts.solve_exact(dm))
        slow = ts.tour_cost(dm, ts.brute_force_cycle(dm))
        if fast != slow:
            violations += 1
    elapsed = time.perf_counter() - started
    _report(
        2, "exact-tsp-correctness",
        violations == 0 and elapsed < 30.0,
        f"50 instances, {violations} mismatches, {elapsed:.2f}s",
    )


def _two_opt_instances():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        yield _uniform_points_matrix(rng, 12)


def _has_improving_exchange(dm, tour):
    order = list(tour.order)
    n = len(order)
    base = ts.tour_cost(dm, tour)
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            candidate = order[:i] + order[i:j + 1][::-1] + order[j + 1:]
            if ts.tour_cost(dm, ts.TourOrder(tuple(candidate))) < base - FLOAT_SLACK:
                return True
    return False


def test_criterion_03_two_opt_quality():
    gaps = []
    not_locally_optimal = 0
    for dm in _two_opt_instances():
        exact = ts.tour_cost(dm, ts.solve_exact(dm))
        tour = ts.solve_2opt(dm)
        gaps.append(ts.tour_cost(dm, tour) / exact - 1.0)
        if _has_improving_exchange(dm, tour):
            not_locally_optimal += 1
    mean_gap, max_gap = float(np.mean(gaps)), float(np.max(gaps))
    ok = mean_gap <= 0.05 and max_gap <= 0.15 and not_locally_optimal == 0
    _report(
        3, "two-opt-quality", ok,
        f"mean gap {mean_gap * 100:.2f}% (<=5%), max {max_gap * 100:.2f}% (<=15%), "
        f"{not_locally_optimal} non-locally-optimal tours",
    )


def test_criterion_04_solver_cost_ordering():
    violations = 0
    for dm in _two_opt_instances():
        exact = ts.tour_cost(dm, ts.solve_exact(dm))
        two_opt = ts.tour_cost(dm, ts.solve_2opt(dm))
        rnn1 = ts.tour_cost(dm, ts.solve_rnn(dm, 1))
        if not (exact <= two_opt + FLOAT_SLACK and two_opt <= rnn1 + FLOAT_SLACK):
            violations += 1
    _report(4, "solver-cost-ordering", violations == 0, f"{violations} violations over 100 instances")


def test_criterion_05_graph_structure_counts():
    rng = np.random.default_rng(55)
    violations = 0
    for _ in range(100):
        sizes = rng.integers(1, 7, size=int(rng.integers(1, 10)))
        sets = [
            ts.IkSolutionSet(i, tuple(rng.normal(size=3) for _ in range(int(m))))
            for i, m in enumerate(sizes)
        ]
        params = MetricParams(weights=np.ones(3), vel_max=np.ones(3), acc_max=np.ones(3))
        graph = ts.build_layered_graph(np.zeros(3), sets, ts.MetricKind.WEIGHTED_EUCLIDEAN, params)
        expected_edges = int(sizes[0]) + int(sizes[-1]) + sum(
            int(sizes[i]) * int(sizes[i + 1]) for i in range(len(sizes) - 1)
        )
        if graph.vertex_count != int(np.sum(sizes)) + 2 or graph.edge_count != expected_edges:
            violations += 1
    _report(5, "graph-structure-counts", violations == 0, f"{violations} violations over 100 shapes")


def test_criterion_06_metric_axioms():
    rng = np.random.default_rng(66)
    dof = 5
    params = MetricParams(
        weights=rng.uniform(0.5, 3.0, dof),
        vel_max=rng.uniform(0.5, 2.0, dof),
        acc_max=rng.uniform(0.5, 2.0, dof),
    )
    violations = 0
    for kind in ts.MetricKind:
        triangle = kind is not ts.MetricKind.LINEAR_INTERP_DURATION
        for _ in range(1000):
            a, b, c = (rng.uniform(-math.pi, math.pi, dof) for _ in range(3))
            dab = ts.edge_cost(kind, params, a, b)
            if dab < 0.0 or ts.edge_cost(kind, params, a, a) != 0.0:
                violations += 1
            if dab != ts.edge_cost(kind, params, b, a):
                violations += 1
            if triangle:
                dac = ts.edge_cost(kind, params, a, c)
                dbc = ts.edge_cost(kind, params, b, c)
                if dac > dab + dbc + FLOAT_SLACK:
                    violations += 1
    for _ in range(1000):
        a, b = (rng.uniform(-math.pi, math.pi, dof) for _ in range(2))
        slow = ts.linear_interp_duration(a, b, params.vel_max, params.acc_max)
        fast = ts.max_joint_difference(a, b, params.vel_max)
        if slow < fast - FLOAT_SLACK:
            violations += 1
    _report(6, "metric-axioms", violations == 0, f"{violations} violations at 1e-12 slack")


def test_criterion_07_kinematics_round_trip():
    arm = ts.planar_arm((1.0, 1.0, 1.0))
    rng = np.random.default_rng(77)
    worst_pose_err = 0.0
    for _ in range(1000):
        q = rng.uniform(-math.pi, math.pi, 3)
        pose = ts.forward_kinematics(arm, q)
        sols = ts.ik_3r(arm, pose)
        assert sols
        for sol in sols:
            back = ts.forward_kinematics(arm, sol)
            err = max(abs(back.x - pose.x), abs(back.y - pose.y),
                      abs(ts.wrap_angle(back.theta - pose.theta)))
            worst_pose_err = max(worst_pose_err, err)
    worst_jac_err = 0.0
    h = 1e-6
    for _ in range(100):
        q = rng.uniform(-math.pi, math.pi, 3)
        analytic = ts.jacobian(arm, q)
        for j in range(3):
            hi, lo = q.copy(), q.copy()
            hi[j] += h
            lo[j] -= h
            p_hi, p_lo = ts.forward_kinematics(arm, hi), ts.forward_kinematics(arm, lo)
            col = np.array([(p_hi.x - p_lo.x) / (2 * h), (p_hi.y - p_lo.y) / (2 * h)])
            worst_jac_err = max(worst_jac_err, float(np.max(np.abs(analytic[:, j] - col))))
    ok = worst_pose_err <= 1e-9 and worst_jac_err <= 1e-6
    _report(
        7, "kinematics-round-trip", ok,
        f"worst pose error {worst_pose_err:.2e} (<=1e-9), "
        f"worst Jacobian error {worst_jac_err:.2e} (<=1e-6)",
    )


def test_criterion_08_dominance_properties():
    config = ts.PipelineConfig(step_size=math.pi)
    joint_violations = 0
    assignment_violations = 0
    for seed in range(100):
        n = 2 + seed % 4  # n in [2, 5]: 2^n * (4n)^2 moves stay inside the guard
        task = ts.generate_random_task(n, 1, seed=seed, mode="planar")
        ours = ts.solve_sequence(task, config)
        joint = ts.baseline_gtsp_exact(task, config)
        if joint.selection.total_cost > ours.selection.total_cost + FLOAT_SLACK:
            joint_violations += 1
        params = MetricParams.from_robot(task.robot)
        ik_sets = ts.resolve_ik_sets(task, config.step_size)
        fixed = manipulability_choice(task, ik_sets)
        ordered = [ik_sets[t] for t in ours.order.order]
        graph = ts.build_layered_graph(task.home, ordered, config.metric, params)
        fixed_cost, _ = ts.path_cost(graph, tuple(fixed[t] for t in ours.order.order))
        if ours.selection.total_cost > fixed_cost + FLOAT_SLACK:
            assignment_violations += 1
    ok = joint_violations == 0 and assignment_violations == 0
    _report(
        8, "dominance-properties", ok,
        f"100 instances: {joint_violations} joint-optimum violations, "
        f"{assignment_violations} fixed-assignment violations",
    )


def test_criterion_09_scale_anchor_and_complexity_envelope():
    task = ts.generate_random_task(245, 29, seed=7, mode="explicit_ik")
    config = ts.PipelineConfig(
        tsp_solver=ts.SolverKind.TWO_OPT, metric=ts.MetricKind.MAX_JOINT_DIFFERENCE
    )
    result = ts.solve_sequence(task, config)
    steps_12_s = (result.timings["step1_ms"] + result.timings["step2_ms"]) / 1e3

    fixed_m, dof = 10, 6
    rng = np.random.default_rng(99)
    params = MetricParams(weights=np.ones(dof), vel_max=np.ones(dof), acc_max=np.ones(dof))
    home = np.zeros(dof)
    ratios = []
    for n in (50, 100, 200, 400):
        sets = [
            ts.IkSolutionSet(t, tuple(rng.uniform(-math.pi, math.pi, dof) for _ in range(fixed_m)))
            for t in range(n)
        ]
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            graph = ts.build_layered_graph(home, sets, config.metric, params)
            ts.shortest_selection(graph)
            best = min(best, time.perf_counter() - t0)
        ratios.append(best / (n * fixed_m * fixed_m * math.log(n * fixed_m)))
    drift = max(ratios) / min(ratios)
    ok = steps_12_s < 10.0 and drift < 3.0
    _report(
        9, "scale-anchor", ok,
        f"n=245 steps 1+2 in {steps_12_s:.2f}s (<10s), "
        f"step-2 envelope drift {drift:.2f}x (<3x)",
    )


def test_criterion_10_discretization_trend():
    task = ts.generate_random_task(25, 1, seed=0, mode="planar")
    counts, costs = [], []
    for _, step in STEP_SIZE_VARIANTS:
        result = ts.solve_sequence(task, ts.PipelineConfig(step_size=step))
        counts.append(result.counts["total_ik"])
        costs.append(result.selection.total_cost)
    counts_ok = all(a <= b for a, b in zip(counts, counts[1:]))
    costs_ok = all(a >= b - FLOAT_SLACK for a, b in zip(costs, costs[1:]))
    _report(
        10, "discretization-trend", counts_ok and costs_ok,
        f"counts {counts}, costs {[round(c, 3) for c in costs]}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    task_a, task_b = tmp_path / "a.json", tmp_path / "b.json"
    gen = ["generate", "--n", "6", "--m-max", "3", "--seed", "42"]
    assert main(gen + ["--out", str(task_a)]) == 0
    assert main(gen + ["--out", str(task_b)]) == 0
    tasks_identical = task_a.read_bytes() == task_b.read_bytes()

    res_a, res_b = tmp_path / "ra.json", tmp_path / "rb.json"
    assert main(["solve", "--task", str(task_a), "--out", str(res_a)]) == 0
    assert main(["solve", "--task", str(task_a), "--out", str(res_b)]) == 0

    def stripped(path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc.pop("timings_ms")
        return json.dumps(doc, sort_keys=True)

    results_identical = stripped(res_a) == stripped(res_b)

    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    bench = ["benchmark", "--axis", "metric", "--sizes", "5,6", "--repeats", "2", "--seed", "3"]
    assert main(bench + ["--csv", str(csv_a)]) == 0
    assert main(bench + ["--csv", str(csv_b)]) == 0
    header = csv_a.read_text(encoding="utf-8").splitlines()[0].split(",")
    timing_cols = {"step1_ms", "ik_ms", "step2_ms", "step3_ms"}
    keep = [i for i, name in enumerate(header) if name not in timing_cols]

    def csv_stripped(path):
        return [
            ",".join(line.split(",")[i] for i in keep)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]

    csv_identical = csv_stripped(csv_a) == csv_stripped(csv_b)
    ok = tasks_identical and results_identical and csv_identical
    _report(
        11, "cli-determinism", ok,
        f"task files identical: {tasks_identical}, results identical: {results_identical}, "
        f"csv identical: {csv_identical}",
    )
