"""Analytic kinematics of the built-in planar revolute arm.

The arm is a chain of revolute joints in the plane. Point targets leave the
tool orientation free; that free angle is discretized on a grid, and each grid
value poses a full inverse-kinematics problem with the familiar discrete
elbow-up / elbow-down branching. Solutions of all grid orientations are pooled
per target, which is exactly the multi-configuration structure the sequencing
pipeline consumes; distinct orientations never share a configuration.

One batched kernel solves every (target, orientation) row of a task together,
in chunks of at most ``_BATCH_ROWS`` rows. Numpy does the arithmetic in the
order the closed-form solution is written, and IEEE ``+ - * /`` round the same
in numpy as on Python floats. The transcendentals (``acos``, ``atan2``,
``sin``, ``cos``) stay in CPython's ``math`` module, mapped over flat lists:
numpy's SIMD versions of them round differently from libm, which would move
the last bits of most poses. So each pose has the bits of the scalar formula,
from five libm calls per row: the elbow-up shoulder angle is the elbow-down one
negated, as libm's ``sin`` and ``atan2`` (in y) are odd and ``cos`` is even, bit
for bit; ``test_libm_is_odd_and_even_bit_for_bit`` in the tests pins that.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import TWO_PI, Configuration, RobotModel, _configurations, _vector

#: Two joint vectors closer than this in max-norm are the same solution.
DUPLICATE_TOL = 1e-9

#: Slack when deciding whether a wrist point lies inside the 2R annulus.
REACH_TOL = 1e-12

#: Most orientations a grid may hold (pi/12 gives 24). A finer step is refused
#: before anything is built, so validating a step size stays cheap.
_MAX_GRID_COUNT = 10_000

#: Most (target, orientation) rows one chunk of the IK kernel holds, so its
#: temporaries stay near 10 MB at any task size and grid.
_BATCH_ROWS = 1 << 16

#: Work counters ``ik_pool`` and ``resolve_ik_sets`` report through ``stats``.
IK_COUNTERS = ("poses_tried", "poses_dropped")


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
    """One target's configurations, as a read-only float (m, dof) array, kept as
    given: an explicit list keeps its duplicates (planar IK drops its own)."""

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


def _chain(arm: RobotModel, q) -> tuple[np.ndarray, np.ndarray]:
    """The links of the planar chain and each link's absolute angle q_1+..+q_j, over a (..., dof) stack."""
    links = _links(arm)
    q = _vector(q)
    if q.shape[-1] != links.size:
        raise ValueError(f"configuration length {q.shape[-1]} != dof {links.size}")
    return links, np.cumsum(q, axis=-1)


def forward_kinematics(arm: RobotModel, q: Configuration) -> Pose2D:
    """End-effector pose of the planar chain: x = sum L_j cos(q_1+..+q_j), etc."""
    links, angles = _chain(arm, np.ravel(q))
    x = float(np.sum(links * np.cos(angles)))
    y = float(np.sum(links * np.sin(angles)))
    return Pose2D(x=x, y=y, theta=wrap_angle(float(angles[-1])))


def _libm(fn, *arrays: np.ndarray) -> np.ndarray:
    """``fn`` from ``math`` over equal-size arrays, element by element, as a flat array."""
    return np.fromiter(map(fn, *(a.ravel().tolist() for a in arrays)), float, arrays[0].size)


def _wrap(angles: np.ndarray) -> np.ndarray:
    """:func:`wrap_angle` of every entry, bit for bit.

    ``np.mod`` on floats is fmod plus the sign fix of Python's ``%``.
    """
    wrapped = np.mod(angles + math.pi, TWO_PI) - math.pi
    wrapped[wrapped == -math.pi] = math.pi
    return wrapped


def _ik_3r_batch(arm: RobotModel, points: np.ndarray, thetas: np.ndarray) -> tuple[list, int]:
    """3R solutions of every point at every orientation, pooled per point.

    Returns one read-only (m, 3) array per row of ``points`` (orientations in
    the order of ``thetas``, elbow-up before elbow-down) and the number of
    elbow-down poses dropped for lying within DUPLICATE_TOL (max-norm) of their
    elbow-up pose. An orientation whose wrist point misses the 2R annulus by
    more than REACH_TOL yields nothing. A row takes five libm calls (see the module).
    """
    links = _links(arm)
    if links.size != 3:
        raise ValueError(f"ik_3r needs a 3-link arm, got {links.size} links")
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"IK positions must be 2-D points, got shape {points.shape}")
    if not np.isfinite(points).all():
        bad = points[~np.isfinite(points).all(axis=1)][0]
        raise ValueError(f"IK position {bad.tolist()} is not finite")
    if not np.isfinite(thetas).all():
        raise ValueError("IK orientations must be finite")
    l1, l2, l3 = (float(v) for v in links)
    reach_x, reach_y = l3 * _libm(math.cos, thetas), l3 * _libm(math.sin, thetas)
    pooled: list = []
    dropped = 0
    chunk = max(1, _BATCH_ROWS // thetas.size)
    for start in range(0, len(points), chunk):
        block = points[start:start + chunk]
        wx, wy = block[:, :1] - reach_x, block[:, 1:] - reach_y
        with np.errstate(over="ignore"):  # a far point squares to inf and is out of reach
            c2 = (wx * wx + wy * wy - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
        owner, column = np.nonzero((c2 <= 1.0 + REACH_TOL) & (c2 >= -1.0 - REACH_TOL))
        wx, wy, c2 = wx[owner, column], wy[owner, column], c2[owner, column]
        elbow = _libm(math.acos, np.minimum(1.0, np.maximum(-1.0, c2)))
        wrist = _libm(math.atan2, wy, wx)
        shoulder = _libm(math.atan2, l2 * _libm(math.sin, elbow), l1 + l2 * _libm(math.cos, elbow))
        q2, shoulder = np.multiply.outer((elbow, shoulder), (-1.0, 1.0))  # elbow-up: negated, first
        q1 = _wrap(wrist[:, None] - shoulder)
        q3 = _wrap(thetas[column][:, None] - q1 - q2)
        poses = np.stack((q1, _wrap(q2), q3), axis=-1)  # (rows, branch, joint)
        twin = (np.abs(poses[:, 1] - poses[:, 0]) <= DUPLICATE_TOL).all(axis=1)
        keep = np.ones(q2.shape, dtype=bool)
        keep[:, 1] = ~twin
        kept = poses[keep]
        kept.flags.writeable = False
        per_point = np.bincount(np.repeat(owner, keep.sum(axis=1)), minlength=len(block))
        bounds = [0, *np.cumsum(per_point).tolist()]
        pooled.extend(kept[begin:end] for begin, end in zip(bounds, bounds[1:]))
        dropped += int(np.count_nonzero(twin))
    return pooled, dropped


def ik_3r(arm: RobotModel, pose: Pose2D) -> list:
    """Analytic inverse kinematics of the 3R arm for a full planar pose.

    Returns 0, 1, or 2 configurations (elbow-up listed before elbow-down;
    straight-elbow poses yield exactly one). An empty list means the wrist
    point lies outside the annulus reachable by the first two links; that is
    a normal outcome, not an error. Every returned configuration reproduces
    ``pose`` through :func:`forward_kinematics` to within 1e-9. A pose that is
    not finite raises ``ValueError``.
    """
    point = np.array([[pose.x, pose.y]], dtype=float)
    (solutions,), _ = _ik_3r_batch(arm, point, np.array([pose.theta], dtype=float))
    return [q.copy() for q in solutions]


def theta_grid(step_size: float) -> list:
    """Orientation grid {k * step : k = 0 .. 2*pi/step - 1}; step must be a real dividing 2*pi.

    The step is checked and gridded as ``float(step_size)``: a float32 pi/2 is
    not pi/2 in float64, so it is refused.
    """
    if not isinstance(step_size, numbers.Real):
        raise ValueError(f"step_size must be a real number, got {step_size!r}")
    step_size = float(step_size)
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


def ik_pool(arm: RobotModel, positions, step_size: float, stats: dict | None = None) -> list:
    """Pooled grid solutions of many point targets, one read-only (m, 3) array each.

    ``positions`` is an (n, 2) array-like of finite points or an empty sequence;
    a non-finite point raises ``ValueError``. A target's array concatenates the
    branches of every :func:`theta_grid` orientation in grid order. Only one
    orientation's branches can coincide: q3 = wrap(theta - q1 - q2) makes
    q1 + q2 + q3 = theta (mod 2*pi) to about 1e-15, so solutions within
    DUPLICATE_TOL on every joint have orientations within about 3e-9, and grid
    orientations are at least 2*pi / 10,000 apart. ``stats``, when given,
    receives the IK_COUNTERS: 2 poses tried per target and orientation, and the
    elbow-down poses dropped as duplicates of their elbow-up pose.
    """
    thetas = _wrap(np.array(theta_grid(step_size)))
    points = np.asarray(positions, dtype=float)
    points = points.reshape(0, 2) if points.shape == (0,) else points  # [] has no point axis
    pooled, dropped = _ik_3r_batch(arm, points, thetas)
    if stats is not None:
        stats.update(poses_tried=2 * thetas.size * len(points), poses_dropped=dropped)
    return pooled


def jacobian(arm: RobotModel, q) -> np.ndarray:
    """Analytic 2 x dof position Jacobian of the planar chain; a (..., dof) stack
    gives a (..., 2, dof) stack, each Jacobian with the bits of its own call."""
    links, angles = _chain(arm, q)
    sines = links * np.sin(angles)
    cosines = links * np.cos(angles)
    # Column j sums contributions of all links at or beyond joint j.
    dx = -np.cumsum(sines[..., ::-1], axis=-1)[..., ::-1]
    dy = np.cumsum(cosines[..., ::-1], axis=-1)[..., ::-1]
    return np.stack([dx, dy], axis=-2)


def manipulability(arm: RobotModel, q):
    """Yoshikawa measure sqrt(det(J J^T)), zero at kinematic singularities; a (..., dof)
    stack gives each configuration's measure with the bits of its own call."""
    jac = jacobian(arm, q)
    with np.errstate(divide="ignore"):  # LU meets a zero pivot when J J^T holds subnormals
        det = np.linalg.det(jac @ np.swapaxes(jac, -1, -2))
    return np.sqrt(np.maximum(det, 0.0))
