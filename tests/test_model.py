import json
import pydoc
import re
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

import taskseq
from taskseq.cgraph import build_layered_graph, path_cost
from taskseq.cli import task_from_dict, task_to_dict
from taskseq.kinematics import IkSolutionSet
from taskseq.metrics import MetricKind, MetricParams
from taskseq.model import (
    RobotModel,
    Task,
    TaskTarget,
    generate_random_task,
    ordered_sum,
    planar_arm,
    validate_task,
)
from taskseq.pipeline import PipelineConfig, benchmark_run
from taskseq.tsp import TourOrder, open_order_from_cycle, solve_rnn


def _task_fingerprint(task):
    doc = {
        "dof": task.robot.dof,
        "home": task.home.tolist(),
        "targets": [
            {
                "id": t.id,
                "position": None if t.position is None else t.position.tolist(),
                "ik": None if t.ik_solutions is None else [q.tolist() for q in t.ik_solutions],
            }
            for t in task.targets
        ],
    }
    return json.dumps(doc, sort_keys=True)


def test_minimal_valid_task_has_empty_report():
    robot = RobotModel(dof=2, vel_max=[1.0, 1.0], acc_max=[1.0, 1.0])
    task = Task(
        robot=robot,
        home=[0.0, 0.0],
        targets=[TaskTarget(id=0, position=[0.5, 0.5], ik_solutions=(np.array([0.1, 0.2]),))],
    )
    assert validate_task(task) == []


def test_configurations_without_a_position_are_reported():
    robot = RobotModel(dof=2, vel_max=[1.0, 1.0], acc_max=[1.0, 1.0])
    targets = [TaskTarget(id=k, ik_solutions=[[0.1, 0.2]]) for k in range(2)]
    assert validate_task(Task(robot=robot, home=[0.0, 0.0], targets=targets)) == [
        "target 0 has ik_solutions but no position, which the tour needs",
        "target 1 has ik_solutions but no position, which the tour needs",
    ]


def test_home_length_mismatch_is_reported():
    robot = RobotModel(dof=3, vel_max=np.ones(3), acc_max=np.ones(3))
    task = Task(
        robot=robot,
        home=[0.0, 0.0],  # dof - 1 entries
        targets=[TaskTarget(id=0, ik_solutions=(np.zeros(3),))],
    )
    report = validate_task(task)
    assert any("home length mismatch" in v for v in report)


def test_unreachable_planar_target_is_reported():
    arm = planar_arm((1.0, 1.0, 1.0))
    task = Task(
        robot=arm,
        home=np.zeros(3),
        targets=[TaskTarget(id=0, position=[4.0, 0.0])],  # beyond total reach 3
    )
    report = validate_task(task)
    assert any("unreachable" in v for v in report)


def test_reachable_planar_target_passes():
    arm = planar_arm((1.0, 1.0, 1.0))
    task = Task(robot=arm, home=np.zeros(3), targets=[TaskTarget(id=0, position=[1.5, 0.5])])
    assert validate_task(task) == []


@pytest.mark.parametrize("links", [(1.0, 0.8), (1.0, 0.8, 0.5, 0.3)])
def test_position_only_target_needs_a_3_link_arm(links):
    arm = planar_arm(links)
    task = Task(robot=arm, home=np.zeros(arm.dof), targets=[TaskTarget(id=0, position=[1.2, 0.3])])
    assert validate_task(task) == [
        f"target 0 has only a position but IK needs a 3-link planar arm, got {len(links)} links"
    ]


def test_duplicate_target_ids_are_reported():
    robot = RobotModel(dof=1, vel_max=[1.0], acc_max=[1.0])
    targets = [
        TaskTarget(id=0, ik_solutions=(np.array([0.0]),)),
        TaskTarget(id=0, ik_solutions=(np.array([1.0]),)),
    ]
    report = validate_task(Task(robot=robot, home=[0.0], targets=targets))
    assert any("ids" in v for v in report)


def test_target_ids_out_of_list_order_are_reported():
    # The pipeline reports list positions as ids, so ids must count 0..n-1 in list order.
    robot = RobotModel(dof=1, vel_max=[1.0], acc_max=[1.0])
    targets = [
        TaskTarget(id=1, ik_solutions=(np.array([0.0]),), position=[0.0, 0.0]),
        TaskTarget(id=0, ik_solutions=(np.array([1.0]),), position=[1.0, 0.0]),
    ]
    report = validate_task(Task(robot=robot, home=[0.0], targets=targets))
    assert report == ["target ids must be 0..1 in list order, got [1, 0]"]


def test_empty_ik_list_is_reported():
    robot = RobotModel(dof=1, vel_max=[1.0], acc_max=[1.0])
    task = Task(robot=robot, home=[0.0], targets=[TaskTarget(id=0, ik_solutions=())])
    assert any("empty" in v for v in validate_task(task))


def test_every_faulty_configuration_is_reported():
    robot = RobotModel(dof=3, vel_max=np.ones(3), acc_max=np.ones(3))
    ragged = (np.zeros(3), np.zeros(2), np.array([0.0, np.nan, 0.0]), np.zeros(4), np.zeros(3))
    same_length = (np.zeros(3), np.array([np.inf, 0.0, 0.0]))
    all_short = (np.zeros(2), np.zeros(2))
    targets = [TaskTarget(id=k, position=[0.5, 0.5], ik_solutions=rows)
               for k, rows in enumerate((ragged, same_length, all_short))]
    assert validate_task(Task(robot=robot, home=np.zeros(3), targets=targets)) == [
        "target 0 ik_solutions[1] length mismatch: expected 3, got 2",
        "target 0 ik_solutions[2] contains non-finite entries",
        "target 0 ik_solutions[3] length mismatch: expected 3, got 4",
        "target 1 ik_solutions[1] contains non-finite entries",
        "target 2 ik_solutions[0] length mismatch: expected 3, got 2",
        "target 2 ik_solutions[1] length mismatch: expected 3, got 2",
    ]


def _per_row_messages(rows, dof):
    """The report of the per-row form each configuration used to be stored in."""
    vectors = tuple(np.atleast_1d(np.asarray(q, dtype=float)) for q in rows)
    if len(vectors) == 0:
        return ["target 0 has an empty ik_solutions list"]
    report = []
    for k, q in enumerate(vectors):
        if q.size != dof:
            report.append(f"target 0 ik_solutions[{k}] length mismatch: "
                          f"expected {dof}, got {q.size}")
        elif not np.all(np.isfinite(q)):
            report.append(f"target 0 ik_solutions[{k}] contains non-finite entries")
    return report


_JOINT_VALUES = st.one_of(
    st.floats(-4.0, 4.0), st.sampled_from([np.nan, np.inf, -np.inf, -0.0])
)
_SCALAR_ROWS = st.lists(_JOINT_VALUES, max_size=5)
_VECTOR_ROWS = st.integers(0, 5).flatmap(
    lambda width: st.lists(
        st.one_of(
            st.lists(_JOINT_VALUES, min_size=width, max_size=width),  # one width
            st.lists(_JOINT_VALUES, max_size=5),  # ragged or wrong width
        ),
        max_size=5,
    )
)


@given(
    dof=st.integers(1, 4),
    rows=st.one_of(_SCALAR_ROWS, _VECTOR_ROWS),
    as_arrays=st.booleans(),
)
def test_stored_sets_report_like_the_per_row_form(dof, rows, as_arrays):
    if as_arrays:
        rows = tuple(np.asarray(q, dtype=float) for q in rows)
    robot = RobotModel(dof=dof, vel_max=np.ones(dof), acc_max=np.ones(dof))
    target = TaskTarget(id=0, position=[0.5, 0.5], ik_solutions=rows)
    task = Task(robot=robot, home=np.zeros(dof), targets=[target])
    assert validate_task(task) == _per_row_messages(rows, dof)


@pytest.mark.parametrize(
    "rows, dof", [([[[0.1, 0.2]]], 2), ([0.1, [0.2]], 1)], ids=["nested", "mixed"]
)
def test_rows_that_are_not_flat_lists_are_reported(rows, dof):
    # Each row has dof entries, but the rows do not form an (m, dof) array.
    robot = RobotModel(dof=dof, vel_max=np.ones(dof), acc_max=np.ones(dof))
    target = TaskTarget(id=0, position=[0.5, 0.5], ik_solutions=rows)
    task = Task(robot=robot, home=np.zeros(dof), targets=[target])
    assert validate_task(task) == ["target 0 ik_solutions rows must be flat lists of numbers"]


@pytest.mark.parametrize("field", ["vel_max", "acc_max", "weights", "planar_links", "home", "position"])
def test_a_nested_vector_field_is_reported(field):
    # [[x], [y], ...] holds the right number of entries, but is not a flat list of numbers.
    fields = {"vel_max": [1.0, 2.0, 3.0], "acc_max": [1.0, 2.0, 3.0], "weights": [3.0, 2.0, 1.0],
              "planar_links": [1.0, 0.8, 0.5], "home": [0.0, 0.1, 0.2], "position": [1.1, 0.2]}
    fields[field] = [[x] for x in fields[field]]
    robot = RobotModel(dof=3, **{k: fields[k] for k in ("vel_max", "acc_max", "weights", "planar_links")})
    target = TaskTarget(id=0, position=fields["position"], ik_solutions=[[0.1, 0.2, 0.3]])
    task = Task(robot=robot, home=fields["home"], targets=[target])
    expected = ("target 0 position must be a 2-D point" if field == "position"
                else f"{field} must be a flat list of numbers")
    assert validate_task(task) == [expected]


def test_configuration_sets_are_read_only_arrays():
    rows = np.array([[0.1, 0.2], [0.3, 0.4]])
    target = TaskTarget(id=0, ik_solutions=rows)
    entry = IkSolutionSet(0, (np.array([0.1, 0.2]), np.array([0.3, 0.4])))
    for stored in (target.ik_solutions, entry.solutions):
        assert stored.shape == (2, 2) and stored.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            stored[0, 0] = 1.0
    assert rows.flags.writeable  # the caller's array is copied, not frozen
    assert IkSolutionSet(1, entry.solutions).solutions is entry.solutions
    frozen32 = np.array(rows, dtype=np.float32)
    frozen32.flags.writeable = False
    assert IkSolutionSet(2, frozen32).solutions.dtype == float


def test_scalar_rows_are_one_entry_configurations():
    assert TaskTarget(id=0, ik_solutions=[2.0, 3.0]).ik_solutions.shape == (2, 1)


def test_nonpositive_limit_is_reported():
    robot = RobotModel(dof=2, vel_max=[1.0, 0.0], acc_max=[1.0, 1.0])
    task = Task(
        robot=robot,
        home=[0.0, 0.0],
        targets=[TaskTarget(id=0, ik_solutions=(np.zeros(2),))],
    )
    assert any("vel_max" in v for v in validate_task(task))


def test_numbers_beyond_the_magnitude_limit_are_reported():
    robot = RobotModel(dof=2, vel_max=[1e-51, 1.0], acc_max=[1.0, 1e51], weights=[1.0, 1e-50])
    targets = [
        TaskTarget(id=0, position=[1e50, -1e50], ik_solutions=[[1e50, 0.0]]),
        TaskTarget(id=1, position=[0.0, 1e51], ik_solutions=[[0.0, -1e51], [0.0, 0.0]]),
    ]
    task = Task(robot=robot, home=[0.0, 2e50], targets=targets)
    assert validate_task(task) == [
        "vel_max entries must lie in [1e-50, 1e+50]",
        "acc_max entries must lie in [1e-50, 1e+50]",
        "home entries must lie in [-1e+50, 1e+50]",
        "target 1 ik_solutions[0] entries must lie in [-1e+50, 1e+50]",
        "target 1 position entries must lie in [-1e+50, 1e+50]",
    ]


def test_generator_is_deterministic():
    a = generate_random_task(5, 3, seed=42, mode="explicit_ik")
    b = generate_random_task(5, 3, seed=42, mode="explicit_ik")
    assert _task_fingerprint(a) == _task_fingerprint(b)
    c = generate_random_task(5, 3, seed=43, mode="explicit_ik")
    assert _task_fingerprint(a) != _task_fingerprint(c)


def test_generator_draws_the_per_configuration_stream():
    # Reference: one dof-sized draw per configuration.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        task = generate_random_task(6, 20, seed=seed, mode="explicit_ik")
        for target in task.targets:
            assert np.array_equal(target.position, rng.uniform(0.0, 1.0, size=2))
            m = int(rng.integers(1, 21))
            expected = [rng.uniform(-np.pi, np.pi, size=6) for _ in range(m)]
            assert np.array_equal(np.vstack(target.ik_solutions), np.vstack(expected))


def test_generator_bounds_single_target():
    task = generate_random_task(1, 1, seed=0, mode="explicit_ik")
    assert task.n == 1
    assert len(task.targets[0].ik_solutions) == 1


def test_generator_full_scale_instance():
    task = generate_random_task(245, 29, seed=7, mode="explicit_ik")
    assert task.n == 245
    counts = [len(t.ik_solutions) for t in task.targets]
    assert 1 <= min(counts) and max(counts) <= 29


@pytest.mark.parametrize("mode", ["explicit_ik", "planar"])
@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_generated_tasks_are_always_valid(mode, seed):
    task = generate_random_task(12, 4, seed=seed, mode=mode)
    assert validate_task(task) == []


def test_generator_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_random_task(0, 1, seed=0)
    with pytest.raises(ValueError):
        generate_random_task(1, 0, seed=0)
    with pytest.raises(ValueError):
        generate_random_task(1, 1, seed=0, mode="nope")
    for call in (lambda seed: generate_random_task(1, 1, seed), _benchmark_cells):
        with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -1")):
            call(seed=-1)
    for kwargs in ({"repeats": 0}, {"repeats": -2}, {"sizes": []}):
        with pytest.raises(ValueError, match="one size and one repeat or more"):
            benchmark_run("method", **{"sizes": [3], **kwargs})


def test_ordered_sum_adds_left_to_right_without_compensation():
    # Each 1.0 is half an ulp of 1e16 and rounds away; a compensated sum
    # (the builtin sum() from Python 3.12) gives 1.0000000000000002e16.
    assert ordered_sum([1e16, 1.0, 1.0]) == 1e16
    assert ordered_sum([]) == 0.0


def test_the_package_exports_its_api_and_no_module():
    star = {}
    exec("from taskseq import *", star)
    star.pop("__builtins__")
    assert sorted(star) == sorted(taskseq.__all__)
    assert not any(isinstance(value, types.ModuleType) for value in star.values())
    readme_entry_points = {  # named in README's "Library use"
        "solve_sequence", "baseline_cspace_tsp", "baseline_gtsp_exact", "build_task_distance_matrix",
        "solve_exact", "solve_2opt", "solve_rnn", "build_layered_graph", "shortest_selection", "ik_targets",
    }
    assert readme_entry_points <= set(star)
    assert "solve_sequence(" in pydoc.render_doc(taskseq, renderer=pydoc.plaintext)


def _two_joint_doc(dof=2, third_id=2):
    """A valid task document with three explicit two-joint targets."""
    targets = [{"id": i, "position": [0.1 * i, 0.2], "ik_solutions": [[0.1 * i, 0.3]]}
               for i in range(3)]
    targets[2]["id"] = third_id
    return {"robot": {"dof": dof}, "home": [0.0, 0.0], "targets": targets}


def _validated(doc):
    """``validate_task`` of the document's task built in Python; a report raises."""
    robot = RobotModel(dof=doc["robot"]["dof"], vel_max=[1.0, 1.0], acc_max=[1.0, 1.0])
    task = Task(robot=robot, home=doc["home"], targets=[TaskTarget(**t) for t in doc["targets"]])
    report = validate_task(task)
    if report:
        raise ValueError("; ".join(report))
    return report


def _path_cost(choice):
    layer = IkSolutionSet(target_id=0, solutions=[[0.0], [0.5], [1.5]])
    params = MetricParams(np.ones(1), np.ones(1), np.ones(1))
    return path_cost(build_layered_graph(np.zeros(1), [layer], MetricKind.MAX_JOINT_DIFFERENCE, params),
                     (choice,))


def _benchmark_cells(seed=1, sizes=(2,), **kwargs):
    """The cells of a step-size sweep's rows, less their wall-clock timings."""
    rows = benchmark_run("step_size", seed=seed, sizes=sizes, **kwargs)
    return [(row["variant"], row["n"], row["repeat"], row["seed"], row["step2_cost"]) for row in rows]


#: Each entry point that reads a caller's integer, as a call of that integer where 2 is valid.
_INTEGER_ENTRY_POINTS = {
    "TourOrder": lambda v: TourOrder((0, 1, v)),
    "open_order_from_cycle": lambda v: open_order_from_cycle(TourOrder((0, 1, 2, 3)), v),
    "path_cost": _path_cost,
    "solve_rnn": lambda v: solve_rnn(np.ones((3, 3)) - np.eye(3), v),
    "PipelineConfig": lambda v: PipelineConfig(rnn_restarts=v),
    "task_from_dict-dof": lambda v: task_to_dict(task_from_dict(_two_joint_doc(dof=v))),
    "task_from_dict-id": lambda v: task_to_dict(task_from_dict(_two_joint_doc(third_id=v))),
    "validate_task-dof": lambda v: _validated(_two_joint_doc(dof=v)),
    "validate_task-id": lambda v: _validated(_two_joint_doc(third_id=v)),
    "generate_random_task-n": lambda v: _task_fingerprint(generate_random_task(v, 3, seed=1)),
    "generate_random_task-m_max": lambda v: _task_fingerprint(generate_random_task(3, v, seed=1)),
    "generate_random_task-seed": lambda v: _task_fingerprint(generate_random_task(3, 3, seed=v)),
    "benchmark_run-sizes": lambda v: _benchmark_cells(sizes=[v]),
    "benchmark_run-repeats": lambda v: _benchmark_cells(sizes=[2], repeats=v),
    "benchmark_run-seed": lambda v: _benchmark_cells(seed=v),
}


@pytest.mark.parametrize("value", [True, False, np.True_, 2.0, "2"], ids=repr)
@pytest.mark.parametrize("entry", list(_INTEGER_ENTRY_POINTS))
def test_every_integer_a_caller_passes_follows_one_rule(entry, value):
    # The rule is model.index_tuple's: a numpy integer passes as the int it equals;
    # a bool (Python's or numpy's), a float (2.0 too) and a string are refused by name.
    call = _INTEGER_ENTRY_POINTS[entry]
    assert call(np.int64(2)) == call(2)
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        call(value)
