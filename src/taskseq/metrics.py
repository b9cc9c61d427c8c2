"""Configuration-space edge metrics and 1-D time-optimal motion profiles.

Three metrics price a move between two joint vectors: a weighted Euclidean
joint distance, the bottleneck joint displacement scaled by velocity limits
(seconds), and the duration of a synchronized straight-line joint move under
velocity and acceleration limits (seconds). All three ignore obstacles by
design; they exist to be cheap enough to evaluate on every edge of the
selection graph. The ideal edge cost, the duration of a time-optimal
collision-free trajectory, is intentionally not implemented here; the linear
interpolation duration is its obstacle-free surrogate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .model import Configuration, RobotModel


class MetricKind(str, Enum):
    """The three supported configuration-space metrics."""

    WEIGHTED_EUCLIDEAN = "weighted_euclidean"
    MAX_JOINT_DIFFERENCE = "max_joint_difference"
    LINEAR_INTERP_DURATION = "linear_interp_duration"


@dataclass(frozen=True)
class MetricParams:
    """Per-joint weights and limits consumed by the metrics; the limits must be positive."""

    weights: np.ndarray
    vel_max: np.ndarray
    acc_max: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "vel_max", np.asarray(self.vel_max, dtype=float))
        object.__setattr__(self, "acc_max", np.asarray(self.acc_max, dtype=float))
        sizes = {self.weights.size, self.vel_max.size, self.acc_max.size}
        if len(sizes) != 1:
            raise ValueError(f"weights/vel_max/acc_max length mismatch: {sizes}")
        if not (np.all(self.vel_max > 0.0) and np.all(self.acc_max > 0.0)):
            raise ValueError("vel_max and acc_max must be positive")

    @cached_property
    def speed_groups(self) -> tuple:
        """Joint groups of equal ``vel_max``, each priced once by ``max_joint_difference``."""
        return _group_joints((self.vel_max,), lambda vmax: True)

    @cached_property
    def trapezoid_groups(self) -> tuple:
        """Joint groups of equal (``vel_max``, ``acc_max``), each priced once by
        ``linear_interp_duration`` when the trapezoid formula is monotone for it."""
        return _group_joints((self.vel_max, self.acc_max), _trapezoid_is_monotone)

    @classmethod
    def from_robot(cls, robot: RobotModel) -> "MetricParams":
        """Derive params from a robot; weights default to link reach (planar) or 1."""
        if robot.weights is not None:
            weights = robot.weights
        elif robot.is_planar:
            weights = default_weights(robot)
        else:
            weights = np.ones(robot.dof)
        return cls(weights=weights, vel_max=robot.vel_max, acc_max=robot.acc_max)


# One pricing function for every metric entry point, so one pair, a graph
# block and a whole schedule run the same arithmetic and get the same bits.


def _group_joints(limits, fold_ok) -> tuple:
    """``((joints, limit_values), ...)``: the joints that share every limit, in
    order of their first joint.

    A shared limit tuple for which ``fold_ok`` is false is split into one
    group per joint, so its joints are priced one at a time.
    """
    members: dict = {}
    for k, key in enumerate(zip(*(lim.tolist() for lim in limits))):
        members.setdefault(key, []).append(k)
    groups = []
    for key, joints in members.items():
        if len(joints) > 1 and not fold_ok(*key):
            groups.extend(((k,), key) for k in joints)
        else:
            groups.append((tuple(joints), key))
    return tuple(groups)


def _trapezoid_is_monotone(vmax: float, amax: float) -> bool:
    """True when ``_trapezoid_kernel(d, vmax, amax)`` never decreases as d grows.

    Each branch is a chain of correctly rounded operations on d, so it is
    monotone; the one place the formula can drop is where the short-move
    branch hands over to the long-move one, at c = vmax * vmax / amax. So
    f(prevfloat(c)) <= f(c) is the exact condition. It fails for some limits,
    e.g. vmax=0.05407598572326695, amax=3.8795177930322358. The kernel's two
    branches are written out in Python floats, which round like numpy's
    float64 ufuncs and never warn (a test pins the two against each other).
    When c == 0 every distance takes the long-move branch.
    """
    c = vmax * vmax / amax
    if c == 0.0:
        return True
    below = math.nextafter(c, 0.0)
    return 2.0 * math.sqrt(below / amax) <= c / vmax + vmax / amax


def _joint_max(a: np.ndarray, b: np.ndarray, joint_cost, groups) -> np.ndarray:
    """max over joints k of ``joint_cost(|a[..., k] - b[..., k]|, *limits of k)``.

    ``groups`` comes from :class:`MetricParams`: each group is a set of joints
    that share their limits, and ``joint_cost`` is monotone non-decreasing in
    the distance for those limits. For such a cost, max_k f(d_k) is exactly
    f(max_k d_k), so the cost formula runs once per group, on the group's
    largest distances. A max is exact in any order, so the result has the
    bits of pricing every joint and reducing over the full cost array, and a
    graph block never holds an (m_a, m_b, dof) array. Callers check that
    ``a``, ``b`` and the limits have the same number of joints.
    """
    if a.shape[-1] == 0:
        raise ValueError("cannot price a move of zero joints")
    out = None
    for joints, limits in groups:
        cost = joint_cost(_max_distance(a, b, joints), *limits)
        out = np.asarray(cost) if out is None else np.maximum(out, cost, out=out)
    return out


def _max_distance(a: np.ndarray, b: np.ndarray, joints: tuple) -> np.ndarray:
    """max over ``joints`` of |a[..., k] - b[..., k]|, folded through one reused buffer.

    The buffer is freed on return, before the cost formula allocates its own.
    """
    dist = np.abs(a[..., joints[0]] - b[..., joints[0]])
    if dist.ndim == 0:  # a single move: numpy scalars, no block to reuse
        for k in joints[1:]:
            dist = np.maximum(dist, np.abs(a[..., k] - b[..., k]))
    elif len(joints) > 1:
        scratch = np.empty_like(dist)
        for k in joints[1:]:
            np.abs(np.subtract(a[..., k], b[..., k], out=scratch), out=scratch)
            np.maximum(dist, scratch, out=dist)
    return dist


def _trapezoid_kernel(dist, vmax, amax) -> np.ndarray:
    return np.where(
        dist >= vmax * vmax / amax,
        dist / vmax + vmax / amax,
        2.0 * np.sqrt(dist / amax),
    )


def _price(kind: MetricKind, params: MetricParams, a, b) -> np.ndarray:
    """Cost of every move from stack ``a`` to stack ``b`` under the metric ``kind``.

    Joints lie on the last axis; the leading axes broadcast against each
    other. Raises ``ValueError`` when the stacks and ``params`` disagree on
    the number of joints.
    """
    kind = MetricKind(kind)
    a, b = np.atleast_1d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not a.shape[-1] == b.shape[-1] == params.weights.size:
        raise ValueError(
            f"joint count mismatch: stacks of {a.shape[-1]} and {b.shape[-1]} joints, "
            f"metric params for {params.weights.size}"
        )
    if kind is MetricKind.WEIGHTED_EUCLIDEAN:
        # Sums the full difference array: numpy sums 8 or more terms pairwise,
        # so a joint-by-joint running sum would change the bits at dof >= 8.
        diff = a - b
        return np.sqrt(np.sum(params.weights * diff * diff, axis=-1))
    if kind is MetricKind.MAX_JOINT_DIFFERENCE:
        return _joint_max(a, b, np.divide, params.speed_groups)
    return _joint_max(a, b, _trapezoid_kernel, params.trapezoid_groups)


def weighted_euclidean(q: Configuration, q_to: Configuration, weights) -> float:
    """sqrt(sum_k w_k (q'_k - q_k)^2); weights multiply the squared difference."""
    unit = np.ones(np.size(weights))
    return float(_price(MetricKind.WEIGHTED_EUCLIDEAN, MetricParams(weights, unit, unit), q, q_to))


def max_joint_difference(q: Configuration, q_to: Configuration, vel_max) -> float:
    """Bottleneck travel time max_k |q'_k - q_k| / vel_max_k (seconds)."""
    unit = np.ones(np.size(vel_max))
    return float(_price(MetricKind.MAX_JOINT_DIFFERENCE, MetricParams(unit, vel_max, unit), q, q_to))


def trapezoid_duration_1d(delta: float, vmax: float, amax: float) -> float:
    """Minimal time to move a single joint by ``delta`` under speed/accel caps.

    Long moves follow a trapezoidal speed profile, short ones a triangular
    profile that never reaches ``vmax``; the two agree at the boundary
    distance vmax^2/amax.
    """
    return linear_interp_duration([0.0], [delta], [vmax], [amax])


def linear_interp_duration(q: Configuration, q_to: Configuration, vel_max, acc_max) -> float:
    """Duration of a synchronized straight joint-space move (slowest joint paces all)."""
    params = MetricParams(np.ones(np.size(vel_max)), vel_max, acc_max)
    return float(_price(MetricKind.LINEAR_INTERP_DURATION, params, q, q_to))


def default_weights(robot: RobotModel) -> np.ndarray:
    """Joint weights proportional to the reach moved by each joint: w_k = sum_{j>=k} L_j."""
    if robot.planar_links is None:
        raise ValueError("default_weights needs a planar arm")
    return np.cumsum(robot.planar_links[::-1])[::-1].copy()


def edge_cost(kind: MetricKind, params: MetricParams, q: Configuration, q_to: Configuration) -> float:
    """Cost of the move from ``q`` to ``q_to`` under the metric selected by ``kind``."""
    return float(_price(kind, params, q, q_to))


def pairwise_cost(kind: MetricKind, params: MetricParams, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cost matrix between configuration stacks ``a`` (ma x dof) and ``b`` (mb x dof).

    Vectorized companion of :func:`edge_cost`, used to price whole graph
    layers at once; both run the same pricing function, so entries match the
    scalar metric bit for bit. Raises ``ValueError`` when the stacks and
    ``params`` disagree on the number of joints.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))[:, None, :]
    b = np.atleast_2d(np.asarray(b, dtype=float))[None, :, :]
    return _price(kind, params, a, b)
