import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskseq.kinematics import (
    Pose2D,
    forward_kinematics,
    ik_3r,
    ik_targets,
    jacobian,
    manipulability,
    theta_grid,
    wrap_angle,
)
from taskseq.model import planar_arm

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


def test_ik_targets_counts_near_center():
    # All four orientations reachable, two branches each.
    ikset = ik_targets(ARM, (0.1, 0.0), math.pi / 2, target_id=3)
    assert ikset.target_id == 3
    assert ikset.count == 8
    for q in ikset.solutions:
        pose = forward_kinematics(ARM, q)
        assert (pose.x, pose.y) == pytest.approx((0.1, 0.0), abs=1e-9)


def test_ik_targets_boundary_target():
    # Only theta=0 reaches (3, 0), and there on the straight-elbow boundary.
    assert ik_targets(ARM, (3.0, 0.0), math.pi / 2).count == 1


def test_ik_targets_refinement_never_loses_solutions():
    rng = np.random.default_rng(5)
    for _ in range(20):
        radius = rng.uniform(0.2, 2.6)
        angle = rng.uniform(0.0, 2 * math.pi)
        target = (radius * math.cos(angle), radius * math.sin(angle))
        coarse = ik_targets(ARM, target, math.pi / 2).count
        fine = ik_targets(ARM, target, math.pi / 4).count
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


def _ik_targets_by_scan(arm, target, step):
    """IK pooling written with one max-norm check per kept pose, the reference for ik_targets."""
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
def test_ik_targets_match_the_pairwise_scan_bit_for_bit(k, offset, radius, step):
    # Radii 0.25 and 1.75 are the arm's inner and outer reach, exact in floating point; with
    # no offset the target lies on a grid orientation, where the elbow branches coincide.
    arm = planar_arm((1.0, 0.5, 0.25))
    angle = k * math.pi / 12 + offset
    target = (radius * math.cos(angle), radius * math.sin(angle))
    got = ik_targets(arm, target, step).solutions
    want = _ik_targets_by_scan(arm, target, step)
    assert [q.tobytes() for q in got] == [q.tobytes() for q in want]
