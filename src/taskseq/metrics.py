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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Configuration, RobotModel


class MetricKind(str, Enum):
    """The three supported configuration-space metrics."""

    WEIGHTED_EUCLIDEAN = "weighted_euclidean"
    MAX_JOINT_DIFFERENCE = "max_joint_difference"
    LINEAR_INTERP_DURATION = "linear_interp_duration"


@dataclass(frozen=True)
class MetricParams:
    """Per-joint weights and limits consumed by the metrics."""

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


def _pair(q: Configuration, q_to: Configuration) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(q, dtype=float)
    b = np.asarray(q_to, dtype=float)
    if a.size != b.size:
        raise ValueError(f"configuration length mismatch: {a.size} vs {b.size}")
    return a, b


def _per_joint(name: str, values, dof: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.size != dof:
        raise ValueError(f"{name} length mismatch: {values.size} vs {dof}")
    return values


# One kernel per formula, so one pair, a graph block and a whole schedule run
# the same arithmetic and get the same bits. The kernels price the moves
# between configuration stacks ``a`` and ``b``: joints on the last axis, the
# leading axes broadcast against each other.


def _joint_max(a: np.ndarray, b: np.ndarray, joint_cost, *limits) -> np.ndarray:
    """max over joints k of ``joint_cost(|a[..., k] - b[..., k]|, limits[0][k], ...)``.

    The max is folded in one joint at a time, so a graph block never holds
    an (m_a, m_b, dof) array. A max is exact in any order and each joint's
    formula runs elementwise, so the result has the bits of a reduction over
    the full difference array. Callers check that ``a``, ``b`` and every
    limit have the same number of joints.
    """
    if a.shape[-1] == 0:
        raise ValueError("cannot price a move of zero joints")
    out = np.asarray(joint_cost(np.abs(a[..., 0] - b[..., 0]), *(lim[0] for lim in limits)))
    for k in range(1, a.shape[-1]):
        cost = joint_cost(np.abs(a[..., k] - b[..., k]), *(lim[k] for lim in limits))
        np.maximum(out, cost, out=out)
    return out


def _weighted_euclidean_kernel(diff: np.ndarray, weights) -> np.ndarray:
    # Takes the full difference array: numpy sums 8 or more terms pairwise,
    # so a joint-by-joint running sum would change the bits at dof >= 8.
    return np.sqrt(np.sum(weights * diff * diff, axis=-1))


def _max_joint_difference_kernel(a: np.ndarray, b: np.ndarray, vel_max) -> np.ndarray:
    return _joint_max(a, b, np.divide, vel_max)


def _trapezoid_kernel(dist, vmax, amax) -> np.ndarray:
    return np.where(
        dist >= vmax * vmax / amax,
        dist / vmax + vmax / amax,
        2.0 * np.sqrt(dist / amax),
    )


def _linear_interp_kernel(a: np.ndarray, b: np.ndarray, vel_max, acc_max) -> np.ndarray:
    return _joint_max(a, b, _trapezoid_kernel, vel_max, acc_max)


def _checked_durations(a: np.ndarray, b: np.ndarray, vel_max, acc_max) -> np.ndarray:
    """:func:`linear_interp_duration` of every move from ``a`` to ``b``."""
    vel_max = _per_joint("vel_max", vel_max, a.shape[-1])
    acc_max = _per_joint("acc_max", acc_max, a.shape[-1])
    if np.any(vel_max <= 0.0) or np.any(acc_max <= 0.0):
        raise ValueError("vmax and amax must be positive")
    return _linear_interp_kernel(a, b, vel_max, acc_max)


def weighted_euclidean(q: Configuration, q_to: Configuration, weights) -> float:
    """sqrt(sum_k w_k (q'_k - q_k)^2); weights multiply the squared difference."""
    a, b = _pair(q, q_to)
    weights = _per_joint("weights", weights, a.size)
    return float(_weighted_euclidean_kernel(b - a, weights))


def max_joint_difference(q: Configuration, q_to: Configuration, vel_max) -> float:
    """Bottleneck travel time max_k |q'_k - q_k| / vel_max_k (seconds)."""
    a, b = _pair(q, q_to)
    vel_max = _per_joint("vel_max", vel_max, a.size)
    return float(_max_joint_difference_kernel(a, b, vel_max))


def trapezoid_duration_1d(delta: float, vmax: float, amax: float) -> float:
    """Minimal time to move a single joint by ``delta`` under speed/accel caps.

    Long moves follow a trapezoidal speed profile, short ones a triangular
    profile that never reaches ``vmax``; the two agree at the boundary
    distance vmax^2/amax.
    """
    if vmax <= 0.0 or amax <= 0.0:
        raise ValueError("vmax and amax must be positive")
    return float(_trapezoid_kernel(abs(delta), vmax, amax))


def linear_interp_duration(q: Configuration, q_to: Configuration, vel_max, acc_max) -> float:
    """Duration of a synchronized straight joint-space move (slowest joint paces all)."""
    return float(_checked_durations(*_pair(q, q_to), vel_max, acc_max))


def default_weights(robot: RobotModel) -> np.ndarray:
    """Joint weights proportional to the reach moved by each joint: w_k = sum_{j>=k} L_j."""
    if robot.planar_links is None:
        raise ValueError("default_weights needs a planar arm")
    return np.cumsum(robot.planar_links[::-1])[::-1].copy()


def edge_cost(kind: MetricKind, params: MetricParams, q: Configuration, q_to: Configuration) -> float:
    """Dispatch to the metric selected by ``kind``."""
    kind = MetricKind(kind)
    if kind is MetricKind.WEIGHTED_EUCLIDEAN:
        return weighted_euclidean(q, q_to, params.weights)
    if kind is MetricKind.MAX_JOINT_DIFFERENCE:
        return max_joint_difference(q, q_to, params.vel_max)
    return linear_interp_duration(q, q_to, params.vel_max, params.acc_max)


def pairwise_cost(kind: MetricKind, params: MetricParams, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cost matrix between configuration stacks ``a`` (ma x dof) and ``b`` (mb x dof).

    Vectorized companion of :func:`edge_cost`, used to price whole graph
    layers at once; both run the same kernel, so entries match the scalar
    metric bit for bit. Raises ``ValueError`` when the stacks and ``params``
    disagree on the number of joints.
    """
    kind = MetricKind(kind)
    a = np.atleast_2d(np.asarray(a, dtype=float))[:, None, :]
    b = np.atleast_2d(np.asarray(b, dtype=float))[None, :, :]
    if not a.shape[-1] == b.shape[-1] == params.weights.size:
        raise ValueError(
            f"joint count mismatch: stacks of {a.shape[-1]} and {b.shape[-1]} joints, "
            f"metric params for {params.weights.size}"
        )
    if kind is MetricKind.WEIGHTED_EUCLIDEAN:
        return _weighted_euclidean_kernel(a - b, params.weights)
    if kind is MetricKind.MAX_JOINT_DIFFERENCE:
        return _max_joint_difference_kernel(a, b, params.vel_max)
    return _linear_interp_kernel(a, b, params.vel_max, params.acc_max)
