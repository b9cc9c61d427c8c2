"""Analytic kinematics of the built-in planar revolute arm.

The arm is a chain of revolute joints in the plane. Point targets leave the
tool orientation free; that free angle is discretized on a grid, and each grid
value poses a full inverse-kinematics problem with the familiar discrete
elbow-up / elbow-down branching. Solutions found across the grid are pooled
per target, which is exactly the multi-configuration structure the sequencing
pipeline consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import TWO_PI, Configuration, RobotModel, _configurations

#: Two joint vectors closer than this in max-norm are the same solution.
DUPLICATE_TOL = 1e-9

#: Slack when deciding whether a wrist point lies inside the 2R annulus.
REACH_TOL = 1e-12

#: Most orientations a grid may hold (pi/12 gives 24). A finer step is refused
#: before anything is built, so validating a step size stays cheap.
_MAX_GRID_COUNT = 10_000


def wrap_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = (angle + math.pi) % TWO_PI - math.pi
    if wrapped == -math.pi:
        return math.pi
    return wrapped


@dataclass(frozen=True)
class Pose2D:
    """Planar end-effector pose: position (m) and tool orientation (rad, (-pi, pi])."""

    x: float
    y: float
    theta: float


@dataclass(frozen=True)
class IkSolutionSet:
    """One target's deduplicated configurations, as a read-only float (m, dof) array."""

    target_id: int
    solutions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "solutions", _configurations(self.solutions))

    @property
    def count(self) -> int:
        return len(self.solutions)


def _links(arm: RobotModel) -> np.ndarray:
    if arm.planar_links is None:
        raise ValueError("robot has no planar_links; kinematics needs the planar arm")
    return arm.planar_links


def forward_kinematics(arm: RobotModel, q: Configuration) -> Pose2D:
    """End-effector pose of the planar chain: x = sum L_j cos(q_1+..+q_j), etc."""
    links = _links(arm)
    q = np.asarray(q, dtype=float)
    if q.size != links.size:
        raise ValueError(f"configuration length {q.size} != dof {links.size}")
    angles = np.cumsum(q)
    x = float(np.sum(links * np.cos(angles)))
    y = float(np.sum(links * np.sin(angles)))
    return Pose2D(x=x, y=y, theta=wrap_angle(float(angles[-1])))


def _keep_if_new(kept: list, q: np.ndarray) -> None:
    """Duplicate rule: append ``q`` unless it lies within DUPLICATE_TOL (max-norm) of a kept pose."""
    if not kept or not np.any(np.max(np.abs(np.asarray(kept) - q), axis=1) <= DUPLICATE_TOL):
        kept.append(q)


def ik_3r(arm: RobotModel, pose: Pose2D) -> list:
    """Analytic inverse kinematics of the 3R arm for a full planar pose.

    Returns 0, 1, or 2 configurations (elbow-up listed before elbow-down;
    straight-elbow poses yield exactly one). An empty list means the wrist
    point lies outside the annulus reachable by the first two links; that is
    a normal outcome, not an error. Every returned configuration reproduces
    ``pose`` through :func:`forward_kinematics` to within 1e-9.
    """
    links = _links(arm)
    if links.size != 3:
        raise ValueError(f"ik_3r needs a 3-link arm, got {links.size} links")
    l1, l2, l3 = (float(v) for v in links)

    wx = pose.x - l3 * math.cos(pose.theta)
    wy = pose.y - l3 * math.sin(pose.theta)
    c2 = (wx * wx + wy * wy - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    if c2 > 1.0 + REACH_TOL or c2 < -1.0 - REACH_TOL:
        return []
    elbow = math.acos(min(1.0, max(-1.0, c2)))

    solutions: list = []
    for q2 in (-elbow, elbow):  # elbow-up first
        q1 = math.atan2(wy, wx) - math.atan2(l2 * math.sin(q2), l1 + l2 * math.cos(q2))
        q1 = wrap_angle(q1)
        q3 = wrap_angle(pose.theta - q1 - q2)
        _keep_if_new(solutions, np.array([q1, wrap_angle(q2), q3]))
    return solutions


def theta_grid(step_size: float) -> list:
    """Orientation grid {k * step : k = 0 .. 2*pi/step - 1}; step must divide 2*pi."""
    if not 0.0 < step_size < math.inf:
        raise ValueError(f"step_size must be positive and finite, got {step_size}")
    if TWO_PI / step_size > _MAX_GRID_COUNT:  # also true when 2*pi/step overflows
        raise ValueError(
            f"step_size {step_size} is too small: the grid would exceed "
            f"{_MAX_GRID_COUNT} orientations"
        )
    count = round(TWO_PI / step_size)
    if count < 1 or abs(count * step_size - TWO_PI) > 1e-12:
        raise ValueError(f"step_size {step_size} does not divide 2*pi")
    return [k * step_size for k in range(count)]


def ik_targets(
    arm: RobotModel, target_position, step_size: float, target_id: int = 0
) -> IkSolutionSet:
    """Pool the 3R solutions over the orientation grid for one point target.

    The free tool orientation is swept over :func:`theta_grid`; all branches
    found are concatenated and deduplicated (two orientations can hit the same
    joint vector at workspace boundaries).
    """
    x, y = (float(v) for v in np.asarray(target_position, dtype=float))
    solutions: list = []
    for theta in theta_grid(step_size):
        for q in ik_3r(arm, Pose2D(x=x, y=y, theta=wrap_angle(theta))):
            _keep_if_new(solutions, q)
    return IkSolutionSet(target_id=target_id, solutions=solutions)


def jacobian(arm: RobotModel, q: Configuration) -> np.ndarray:
    """Analytic 2 x dof position Jacobian of the planar chain."""
    links = _links(arm)
    q = np.asarray(q, dtype=float)
    if q.size != links.size:
        raise ValueError(f"configuration length {q.size} != dof {links.size}")
    angles = np.cumsum(q)
    sines = links * np.sin(angles)
    cosines = links * np.cos(angles)
    # Column j sums contributions of all links at or beyond joint j.
    dx = -np.cumsum(sines[::-1])[::-1]
    dy = np.cumsum(cosines[::-1])[::-1]
    return np.vstack([dx, dy])


def manipulability(arm: RobotModel, q: Configuration) -> float:
    """Yoshikawa measure sqrt(det(J J^T)); zero at kinematic singularities."""
    jac = jacobian(arm, q)
    det = float(np.linalg.det(jac @ jac.T))
    return math.sqrt(max(det, 0.0))
