import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from taskseq.kinematics import IkSolutionSet
from taskseq.model import (
    RobotModel,
    Task,
    TaskTarget,
    generate_random_task,
    planar_arm,
    validate_task,
)


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
        targets=[TaskTarget(id=0, ik_solutions=(np.array([0.1, 0.2]),))],
    )
    assert validate_task(task) == []


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


def test_empty_ik_list_is_reported():
    robot = RobotModel(dof=1, vel_max=[1.0], acc_max=[1.0])
    task = Task(robot=robot, home=[0.0], targets=[TaskTarget(id=0, ik_solutions=())])
    assert any("empty" in v for v in validate_task(task))


def test_every_faulty_configuration_is_reported():
    robot = RobotModel(dof=3, vel_max=np.ones(3), acc_max=np.ones(3))
    ragged = (np.zeros(3), np.zeros(2), np.array([0.0, np.nan, 0.0]), np.zeros(4), np.zeros(3))
    same_length = (np.zeros(3), np.array([np.inf, 0.0, 0.0]))
    all_short = (np.zeros(2), np.zeros(2))
    targets = [TaskTarget(id=0, ik_solutions=ragged), TaskTarget(id=1, ik_solutions=same_length),
               TaskTarget(id=2, ik_solutions=all_short)]
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
    task = Task(robot=robot, home=np.zeros(dof), targets=[TaskTarget(id=0, ik_solutions=rows)])
    assert validate_task(task) == _per_row_messages(rows, dof)


@pytest.mark.parametrize(
    "rows, dof", [([[[0.1, 0.2]]], 2), ([0.1, [0.2]], 1)], ids=["nested", "mixed"]
)
def test_rows_that_are_not_flat_lists_are_reported(rows, dof):
    # Each row has dof entries, but the rows do not form an (m, dof) array.
    robot = RobotModel(dof=dof, vel_max=np.ones(dof), acc_max=np.ones(dof))
    task = Task(robot=robot, home=np.zeros(dof), targets=[TaskTarget(id=0, ik_solutions=rows)])
    assert validate_task(task) == ["target 0 ik_solutions rows must be flat lists of numbers"]


def test_configuration_sets_are_read_only_arrays():
    rows = np.array([[0.1, 0.2], [0.3, 0.4]])
    target = TaskTarget(id=0, ik_solutions=rows)
    entry = IkSolutionSet(0, (np.array([0.1, 0.2]), np.array([0.3, 0.4])))
    for stored in (target.ik_solutions, entry.solutions):
        assert stored.shape == (2, 2) and stored.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            stored[0, 0] = 1.0
    assert rows.flags.writeable  # the caller's array is copied, not frozen


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
