import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from taskseq import kinematics
from taskseq.kinematics import (
    Pose2D,
    _wrap,
    forward_kinematics,
    ik_3r,
    ik_pool,
    jacobian,
    manipulability,
    theta_grid,
    wrap_angle,
)
from taskseq.model import TWO_PI, Task, TaskTarget, planar_arm
from taskseq.pipeline import resolve_ik_sets

ARM = planar_arm((1.0, 1.0, 1.0))


def _fd_jacobian(arm, q, h=1e-6):
    """Central-difference position Jacobian, the independent oracle."""
    q = np.asarray(q, dtype=float)
    cols = []
    for j in range(q.size):
        hi, lo = q.copy(), q.copy()
        hi[j] += h
        lo[j] -= h
        p_hi = forward_kinematics(arm, hi)
        p_lo = forward_kinematics(arm, lo)
        cols.append([(p_hi.x - p_lo.x) / (2 * h), (p_hi.y - p_lo.y) / (2 * h)])
    return np.array(cols).T


def test_wrap_angle_convention():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.5) == pytest.approx(0.5)


def test_fk_stretched():
    pose = forward_kinematics(ARM, [0.0, 0.0, 0.0])
    assert (pose.x, pose.y, pose.theta) == pytest.approx((3.0, 0.0, 0.0))


def test_fk_rotated():
    pose = forward_kinematics(ARM, [math.pi / 2, 0.0, 0.0])
    assert (pose.x, pose.y, pose.theta) == pytest.approx((0.0, 3.0, math.pi / 2))


def test_fk_bent_arm():
    # x = cos(pi/2) + cos(0) + cos(-pi/2) = 1, y = 1 + 0 - 1 = 0 by the chain sums
    pose = forward_kinematics(ARM, [math.pi / 2, -math.pi / 2, -math.pi / 2])
    assert (pose.x, pose.y, pose.theta) == pytest.approx((1.0, 0.0, -math.pi / 2))
    analytic = jacobian(ARM, [math.pi / 2, -math.pi / 2, -math.pi / 2])
    fd = _fd_jacobian(ARM, [math.pi / 2, -math.pi / 2, -math.pi / 2])
    assert np.max(np.abs(analytic - fd)) < 1e-6


def test_ik_boundary_pose_is_unique():
    sols = ik_3r(ARM, Pose2D(3.0, 0.0, 0.0))
    assert len(sols) == 1
    assert sols[0] == pytest.approx([0.0, 0.0, 0.0])


def test_ik_two_elbow_branches():
    # Wrist at (1, 0): the two-link cosine rule gives q2 = -/+ 2*pi/3.
    sols = ik_3r(ARM, Pose2D(2.0, 0.0, 0.0))
    assert len(sols) == 2
    assert sols[0][1] == pytest.approx(-2 * math.pi / 3)  # elbow-up first
    assert sols[1][1] == pytest.approx(2 * math.pi / 3)
    for q in sols:
        pose = forward_kinematics(ARM, q)
        assert (pose.x, pose.y, pose.theta) == pytest.approx((2.0, 0.0, 0.0), abs=1e-9)


def test_ik_unreachable_pose_returns_empty():
    assert ik_3r(ARM, Pose2D(4.0, 0.0, 0.0)) == []


def test_ik_branch_counts_across_the_annulus():
    # Links picked so both annulus radii are exact in floating point.
    arm = planar_arm((1.0, 0.5, 0.25))
    inner, outer = 0.5, 1.5

    def pose_for_wrist(w):
        return Pose2D(w + 0.25, 0.0, 0.0)

    assert len(ik_3r(arm, pose_for_wrist(1.0))) == 2       # strictly inside
    assert len(ik_3r(arm, pose_for_wrist(outer))) == 1     # outer boundary
    assert len(ik_3r(arm, pose_for_wrist(inner))) == 1     # inner boundary
    assert len(ik_3r(arm, pose_for_wrist(1.6))) == 0       # outside
    assert len(ik_3r(arm, pose_for_wrist(0.4))) == 0       # inside the hole


def test_theta_grid_accepts_exact_divisors_only():
    assert len(theta_grid(math.pi / 2)) == 4
    assert len(theta_grid(math.pi / 12)) == 24
    with pytest.raises(ValueError):
        theta_grid(1.0)
    with pytest.raises(ValueError):
        theta_grid(-math.pi)


@pytest.mark.parametrize("grid", [
    theta_grid,
    lambda step: ik_pool(ARM, [[1.5, 0.5]], step),
], ids=["theta_grid", "ik_pool"])
@pytest.mark.parametrize("step", [np.float32(math.pi / 2), "pi/4", None], ids=["float32", "text", "none"])
def test_a_step_that_is_not_a_real_dividing_2pi_is_refused(grid, step):
    # float() of a float32 pi/2 does not divide 2*pi, so it is refused, not gridded in float32.
    with pytest.raises(ValueError, match="step_size"):
        grid(step)


def test_theta_grid_refuses_a_huge_grid_before_building_it():
    # pi/1e8 divides 2*pi with a count of 2e8; the refusal must come first.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too small"):
            theta_grid(math.pi / 100000000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ik_pool_counts_near_center():
    # All four orientations reachable, two branches each.
    solutions = ik_pool(ARM, [(0.1, 0.0)], math.pi / 2)[0]
    assert len(solutions) == 8
    for q in solutions:
        pose = forward_kinematics(ARM, q)
        assert (pose.x, pose.y) == pytest.approx((0.1, 0.0), abs=1e-9)


def test_ik_pool_boundary_target():
    # Only theta=0 reaches (3, 0), and there on the straight-elbow boundary.
    assert len(ik_pool(ARM, [(3.0, 0.0)], math.pi / 2)[0]) == 1


def test_ik_pool_refinement_never_loses_solutions():
    rng = np.random.default_rng(5)
    for _ in range(20):
        radius = rng.uniform(0.2, 2.6)
        angle = rng.uniform(0.0, 2 * math.pi)
        target = (radius * math.cos(angle), radius * math.sin(angle))
        coarse = len(ik_pool(ARM, [target], math.pi / 2)[0])
        fine = len(ik_pool(ARM, [target], math.pi / 4)[0])
        assert fine >= coarse


def test_fk_ik_round_trip_on_random_poses():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        q = rng.uniform(-math.pi, math.pi, 3)
        pose = forward_kinematics(ARM, q)
        sols = ik_3r(ARM, pose)
        assert sols, f"no solution for pose of {q}"
        for sol in sols:
            back = forward_kinematics(ARM, sol)
            assert abs(back.x - pose.x) <= 1e-9
            assert abs(back.y - pose.y) <= 1e-9
            assert abs(wrap_angle(back.theta - pose.theta)) <= 1e-9


def test_jacobian_stretched_columns():
    assert np.allclose(jacobian(ARM, [0.0, 0.0, 0.0]), [[0, 0, 0], [3, 2, 1]])


def test_jacobian_rotated_columns():
    assert np.allclose(
        jacobian(ARM, [math.pi / 2, 0.0, 0.0]), [[-3, -2, -1], [0, 0, 0]], atol=1e-12
    )


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(100):
        q = rng.uniform(-math.pi, math.pi, 3)
        assert np.max(np.abs(jacobian(ARM, q) - _fd_jacobian(ARM, q))) < 1e-6


def test_manipulability_zero_at_singularity():
    assert manipulability(ARM, [0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-9)


def test_manipulability_invariant_under_base_rotation():
    rng = np.random.default_rng(31)
    for _ in range(20):
        q = rng.uniform(-1.0, 1.0, 3)
        shifted = q.copy()
        shifted[0] += rng.uniform(-2.0, 2.0)
        assert manipulability(ARM, q) == pytest.approx(manipulability(ARM, shifted))


def test_manipulability_against_finite_difference_jacobian():
    q = np.array([0.0, math.pi / 2, 0.0])
    fd = _fd_jacobian(ARM, q)
    expected = math.sqrt(np.linalg.det(fd @ fd.T))
    assert manipulability(ARM, q) == pytest.approx(expected, rel=1e-6)


_JOINT = st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi]), st.floats(-4.0, 4.0))  # straight and folded too


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(_JOINT, _JOINT, _JOINT), min_size=1, max_size=30),
       links=st.sampled_from([(1.0, 1.0, 1.0), (1.0, 0.8, 0.5)]))
@example(rows=[(0.0, 0.0, 2.225073858507e-311)], links=(1.0, 1.0, 1.0))  # det meets a zero pivot
def test_a_stack_of_configurations_has_the_bits_of_one_call_per_row(rows, links):
    # manipulability_choice ranks a target's configurations in one call.
    arm, stack = planar_arm(links), np.array(rows)
    jac, measure = jacobian(arm, stack), manipulability(arm, stack)
    assert (jac.shape, measure.shape) == ((len(rows), 2, 3), (len(rows),))
    assert jac.tobytes() == np.array([jacobian(arm, q) for q in stack]).tobytes()
    assert measure.tobytes() == np.array([manipulability(arm, q) for q in stack]).tobytes()


def _ik_pool_by_scan(arm, target, step):
    """IK pooling written with one max-norm check per kept pose, the reference for ik_pool."""
    l1, l2, l3 = (float(v) for v in arm.planar_links)
    x, y = target
    pooled = []
    for theta in (wrap_angle(t) for t in theta_grid(step)):
        wx, wy = x - l3 * math.cos(theta), y - l3 * math.sin(theta)
        c2 = (wx * wx + wy * wy - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
        if c2 > 1.0 + 1e-12 or c2 < -1.0 - 1e-12:
            continue
        elbow = math.acos(min(1.0, max(-1.0, c2)))
        branches = []
        for q2 in (-elbow, elbow):
            q1 = wrap_angle(math.atan2(wy, wx) - math.atan2(l2 * math.sin(q2), l1 + l2 * math.cos(q2)))
            q = np.array([q1, wrap_angle(q2), wrap_angle(theta - q1 - q2)])
            if not any(np.max(np.abs(q - kept)) <= 1e-9 for kept in branches):
                branches.append(q)
        for q in branches:
            if not any(np.max(np.abs(q - kept)) <= 1e-9 for kept in pooled):
                pooled.append(q)
    return pooled


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(0, 23),
    offset=st.sampled_from([0.0, 1e-3, 0.5]),
    radius=st.one_of(st.sampled_from([0.25, 1.75]), st.floats(0.2, 1.8)),
    step=st.sampled_from([math.pi, math.pi / 2, math.pi / 4, math.pi / 12]),
)
def test_ik_pool_matches_the_pairwise_scan_bit_for_bit(k, offset, radius, step):
    # Radii 0.25 and 1.75 are the arm's inner and outer reach, exact in floating point; with
    # no offset the target lies on a grid orientation, where the elbow branches coincide.
    arm = planar_arm((1.0, 0.5, 0.25))
    angle = k * math.pi / 12 + offset
    target = (radius * math.cos(angle), radius * math.sin(angle))
    got = ik_pool(arm, [target], step)[0]
    want = _ik_pool_by_scan(arm, target, step)
    assert [q.tobytes() for q in got] == [q.tobytes() for q in want]


@settings(max_examples=200, deadline=None)
@given(
    links=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.1, 2.0)),
    reach=st.floats(0.0, 1.05),
    angle=st.floats(-math.pi, math.pi),
    step=st.sampled_from([math.pi, math.pi / 2, math.pi / 4, math.pi / 12, math.pi / 1000]),
)
def test_ik_pool_concatenates_the_branches_of_every_orientation(links, reach, angle, step):
    # No pose of one grid orientation lies within DUPLICATE_TOL of a pose of
    # another, so pooling drops nothing beyond each orientation's own branches.
    arm = planar_arm(links)
    x, y = reach * sum(links) * math.cos(angle), reach * sum(links) * math.sin(angle)
    per_theta = [(theta, ik_3r(arm, Pose2D(x, y, theta)))
                 for theta in (wrap_angle(t) for t in theta_grid(step))]
    for theta, sols in per_theta:
        for q in sols:  # the premise: q1 + q2 + q3 is the orientation
            assert abs(wrap_angle(float(np.sum(q)) - theta)) <= 1e-12
    want = np.array([q for _, sols in per_theta for q in sols]).reshape(-1, 3)
    got = ik_pool(arm, [(x, y)], step)[0]
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_unreachable_target_has_an_empty_set_and_stops_the_pipeline():
    assert ik_pool(ARM, [(4.0, 0.0)], math.pi / 2)[0].shape == (0, 3)
    task = Task(robot=ARM, home=np.zeros(3), targets=(TaskTarget(id=0, position=[4.0, 0.0]),))
    with pytest.raises(ValueError, match="unreachable"):
        resolve_ik_sets(task, math.pi / 2)


def test_wrap_equals_wrap_angle_on_the_edge_values():
    edges = [math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 0.0, -0.0, TWO_PI, -TWO_PI,
             math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
             math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0)]
    edges += [k * TWO_PI for k in range(-40, 41)] + [k * TWO_PI - math.pi for k in range(-40, 41)]
    assert _wrap(np.array(edges)).tobytes() == np.array([wrap_angle(a) for a in edges]).tobytes()


@settings(max_examples=300, deadline=None)
@given(angles=st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-20.0, 20.0),
        st.builds(lambda k, d: k * TWO_PI + d * math.pi,
                  st.integers(-10**6, 10**6), st.sampled_from([-1.0, 0.0, 1.0])),
    ),
    min_size=1, max_size=50,
))
def test_wrap_equals_wrap_angle_bit_for_bit(angles):
    # Odd multiples of pi land on -pi after the mod and must come back as +pi.
    assert _wrap(np.array(angles)).tobytes() == np.array([wrap_angle(a) for a in angles]).tobytes()


def _ik_rows_by_formula(arm, target, step):
    """The closed-form 3R solution in Python floats and ``math``, one orientation at a time.

    Returns the pooled rows and the number of elbow-down poses dropped next to their own
    elbow-up pose. Unlike ``_ik_pool_by_scan`` it never compares poses of two
    orientations, so it stays fast on a 2,000-orientation grid.
    """
    l1, l2, l3 = (float(v) for v in arm.planar_links)
    x, y = (float(v) for v in target)
    rows, dropped = [], 0
    for theta in (wrap_angle(t) for t in theta_grid(step)):
        wx, wy = x - l3 * math.cos(theta), y - l3 * math.sin(theta)
        c2 = (wx * wx + wy * wy - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
        if c2 > 1.0 + 1e-12 or c2 < -1.0 - 1e-12:
            continue
        elbow, wrist = math.acos(min(1.0, max(-1.0, c2))), math.atan2(wy, wx)
        up, down = (
            (q1, wrap_angle(q2), wrap_angle(theta - q1 - q2))
            for q2 in (-elbow, elbow)
            for q1 in [wrap_angle(wrist - math.atan2(l2 * math.sin(q2), l1 + l2 * math.cos(q2)))]
        )
        rows.append(np.array(up))
        if all(abs(a - b) <= 1e-9 for a, b in zip(down, up)):
            dropped += 1
        else:
            rows.append(np.array(down))
    return rows, dropped


def _resolve_by_scan(task, step):
    """``resolve_ik_sets`` one target at a time: (rows per target, poses tried, poses dropped).

    Raises the ValueError of the first target, in id order, that has no configuration.
    """
    pooled, tried, dropped = [], 0, 0
    for target in task.targets:
        if target.ik_solutions is not None:
            rows = [np.asarray(q, dtype=float) for q in target.ik_solutions]
            tried += len(rows)
        elif target.position is not None:
            rows, drops = _ik_rows_by_formula(task.robot, target.position, step)
            if step >= math.pi / 12:  # the pairwise scan is O(m^2): too slow at 4,000 poses
                scanned = _ik_pool_by_scan(task.robot, target.position, step)
                assert [q.tobytes() for q in scanned] == [q.tobytes() for q in rows]
            tried += 2 * len(theta_grid(step))
            dropped += drops
        else:
            raise ValueError(f"target {target.id} has neither configurations nor a position")
        if not rows:
            raise ValueError(
                f"target {target.id} unreachable: no configuration found (step size {step:.6g})"
            )
        pooled.append(rows)
    return pooled, tried, dropped


#: Arms of the whole-task property. The first has exact squares and exact reach radii 0.25 and
#: 1.75; the second has neither, so a reordered sum in the kernel changes its bits.
_ARMS = ((1.0, 0.5, 0.25), (0.9, 0.35, 0.3))

_ANGLE = st.tuples(st.integers(0, 23), st.sampled_from([0.0, 1e-3, 0.5]))

#: Targets every grid reaches: a position whose wrist point stays inside the 2R annulus at
#: every orientation, or one to three explicit configurations.
_SAFE = st.one_of(
    st.tuples(st.just("band"), st.floats(0.0, 1.0), _ANGLE),
    st.tuples(st.just("explicit"), st.integers(1, 3), st.integers(0, 2**32 - 1)),
)

#: Targets a grid may miss. "edge" lies on the inner or outer reach, where on a grid
#: orientation the elbow branches coincide; "wide" spans the reach and a little beyond;
#: "far" is out of reach at every orientation.
_RISKY = st.one_of(
    st.tuples(st.just("edge"), st.sampled_from([0.0, 1.0]), _ANGLE),
    st.tuples(st.just("wide"), st.floats(0.0, 1.0), _ANGLE),
    st.tuples(st.just("far"), st.sampled_from([0.0, 1.0]), _ANGLE),
    st.tuples(st.just("explicit"), st.just(0), st.just(0)),
    st.tuples(st.just("neither"), st.just(0), st.just(0)),
)


def _mixed_task(links, specs):
    l1, l2, l3 = links
    inner, outer = l1 - l2 - l3, l1 + l2 + l3
    radius = {
        "band": lambda f: (l1 - l2 + l3) + f * ((l1 + l2 - l3) - (l1 - l2 + l3)),
        "edge": lambda f: outer if f else inner,
        "wide": lambda f: 0.8 * inner + f * (1.05 * outer - 0.8 * inner),
        "far": lambda f: outer + 1.0 if f else 0.5 * inner,
    }
    targets = []
    for i, (kind, size, extra) in enumerate(specs):
        if kind in radius:
            r, (k, offset) = radius[kind](size), extra
            angle = k * math.pi / 12 + offset
            targets.append(TaskTarget(id=i, position=[r * math.cos(angle), r * math.sin(angle)]))
        elif kind == "explicit":
            rows = np.random.default_rng(extra).uniform(-math.pi, math.pi, (size, 3))
            targets.append(TaskTarget(id=i, position=[0.0, 0.0], ik_solutions=rows))
        else:
            targets.append(TaskTarget(id=i))
    return Task(robot=planar_arm(links), home=np.zeros(3), targets=tuple(targets))


@pytest.mark.parametrize("step", [math.pi, math.pi / 2, math.pi / 3, math.pi / 4, math.pi / 6,
                                  math.pi / 12, math.pi / 1000])
@settings(max_examples=30, deadline=None)
@given(
    links=st.sampled_from(_ARMS),
    safe=st.lists(_SAFE, min_size=1, max_size=38),
    risky=st.lists(st.tuples(st.integers(0, 40), _RISKY), max_size=2),
)
def test_resolve_ik_sets_matches_the_scalar_scan_on_whole_tasks(step, links, safe, risky):
    specs = list(safe)
    for index, spec in risky:
        specs.insert(index % (len(specs) + 1), spec)
    task = _mixed_task(links, specs)
    try:
        want = _resolve_by_scan(task, step)
    except ValueError as error:  # the same first target must fail, with the same message
        with pytest.raises(ValueError) as raised:
            resolve_ik_sets(task, step)
        assert str(raised.value) == str(error)
        return
    stats = {}
    got = resolve_ik_sets(task, step, stats=stats)
    rows, tried, dropped = want
    assert [entry.target_id for entry in got] == [t.id for t in task.targets]
    assert [[q.tobytes() for q in entry.solutions] for entry in got] == [
        [q.tobytes() for q in target_rows] for target_rows in rows
    ]
    assert stats == {"poses_tried": tried, "poses_dropped": dropped}


def test_batches_of_any_size_give_the_same_bits(monkeypatch):
    specs = [("band", i / 29, (i % 24, (0.0, 1e-3, 0.5)[i % 3])) for i in range(30)]
    task = _mixed_task(_ARMS[1], specs)
    whole = resolve_ik_sets(task, math.pi / 6)
    for rows in (1, 12, 13, 100):  # a chunk of 1 row still holds one whole target
        monkeypatch.setattr(kinematics, "_BATCH_ROWS", rows)
        chunked = resolve_ik_sets(task, math.pi / 6)
        assert [s.solutions.tobytes() for s in chunked] == [s.solutions.tobytes() for s in whole]


def test_a_batch_holds_a_bounded_number_of_rows():
    # 300 targets at the finest grid are 3,000,000 (target, orientation) rows, about 24 MB per
    # float temporary; the kernel holds at most _BATCH_ROWS rows at a time. The targets are out
    # of reach, so the result itself is empty.
    tracemalloc.start()
    try:
        pooled = ik_pool(ARM, np.full((300, 2), 5.0), 2 * math.pi / 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [q.shape for q in pooled] == [(0, 3)] * 300
    assert peak < 8 * kinematics._BATCH_ROWS * 8


def test_ik_pool_reports_the_poses_tried_and_dropped():
    # (3, 0) is reached only at theta = 0, on the straight elbow, where elbow-down equals
    # elbow-up; (0.1, 0) has two distinct branches at all four orientations.
    stats = {}
    pooled = ik_pool(ARM, [(3.0, 0.0), (0.1, 0.0)], math.pi / 2, stats=stats)
    assert [q.shape for q in pooled] == [(1, 3), (8, 3)]
    assert stats == {"poses_tried": 16, "poses_dropped": 1}


@pytest.mark.parametrize("position", [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)])
def test_a_non_finite_position_is_refused(position):
    with pytest.raises(ValueError, match="not finite"):
        ik_pool(ARM, [position], math.pi / 2)
    with pytest.raises(ValueError, match="not finite"):
        ik_3r(ARM, Pose2D(*position, 0.0))
    task = Task(robot=ARM, home=np.zeros(3),
                targets=(TaskTarget(id=0, position=[1.0, 0.0]), TaskTarget(id=1, position=position)))
    with pytest.raises(ValueError, match="not finite"):
        resolve_ik_sets(task, math.pi / 2)


def test_a_non_finite_orientation_is_refused():
    with pytest.raises(ValueError, match="finite"):
        ik_3r(ARM, Pose2D(1.0, 0.0, math.nan))


@pytest.mark.parametrize("positions", [[], (), np.empty((0, 2))], ids=["list", "tuple", "array"])
def test_ik_pool_of_no_positions_is_empty(positions):
    stats = {}
    assert ik_pool(ARM, positions, math.pi / 4, stats=stats) == []
    assert stats == {"poses_tried": 0, "poses_dropped": 0}


#: Arguments where libm's odd and even symmetry must hold: signed zeros, the smallest
#: subnormal and normal, tiny angles, pi and its neighbours, and huge arguments.
_SYMMETRY_ARGS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-8, math.pi / 2, math.pi,
                  math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0), 1e6, 1e22, 1e300]
_SYMMETRY_ARGS += [-v for v in _SYMMETRY_ARGS if v]


def _assert_odd_and_even(v, x):
    """sin(-v) = -sin(v), cos(-v) = cos(v) and atan2(-v, x) = -atan2(v, x), compared by hex."""
    assert math.sin(-v).hex() == (-math.sin(v)).hex()
    assert math.cos(-v).hex() == math.cos(v).hex()
    assert math.atan2(-v, x).hex() == (-math.atan2(v, x)).hex()


@pytest.mark.parametrize("x", [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300,
                               math.inf, -math.inf])
def test_libm_is_odd_and_even_bit_for_bit(x):
    # The IK kernel takes the elbow-up shoulder angle as the negated elbow-down one; that is
    # the same bits only while sin and atan2 (in y) are odd and cos is even, signed zeros too.
    for v in _SYMMETRY_ARGS:
        _assert_odd_and_even(v, x)


@settings(max_examples=500, deadline=None)
@given(v=st.floats(allow_nan=False, allow_infinity=False),
       x=st.floats(allow_nan=False, allow_infinity=False))
def test_libm_is_odd_and_even_on_finite_floats(v, x):
    _assert_odd_and_even(v, x)
