"""Configuration-space edge metrics and 1-D time-optimal motion profiles.

Three metrics price a move between two joint vectors: a weighted Euclidean
joint distance, the bottleneck joint displacement scaled by velocity limits
(seconds), and the duration of a synchronized straight-line joint move under
velocity and acceleration limits (seconds). All three ignore obstacles by
design; they exist to be cheap enough to evaluate on every edge of the
selection graph. The ideal edge cost, the duration of a time-optimal
collision-free trajectory, is intentionally not implemented here; the linear
interpolation duration is its obstacle-free surrogate.

:func:`pairwise_cost` prices whole graph blocks, one tile of about
``TILE_ENTRIES`` entries per numpy pass: a block wider than a tile is priced
in row bands, and the layered graph stacks runs of small equal-size blocks
into one call. Every entry is the same chain of floating-point operations as
the single move :func:`edge_cost` prices, so tiling never changes a bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Configuration, RobotModel

#: Entries priced per numpy pass: small enough that a tile's temporaries stay
#: in cache, large enough that the per-call overhead of numpy is paid rarely.
#: Wider blocks are priced in row bands; runs of smaller equal-size graph
#: blocks are stacked up to it (see :func:`taskseq.cgraph.build_layered_graph`).
TILE_ENTRIES = 1 << 15

#: numpy's ufunc buffer, in elements, while the max-based metrics price a
#: block (see :func:`pairwise_cost`). Measured against numpy's default of
#: 8192 on tiles of 2^15 entries: broadcast subtractions 2-4x faster for
#: block rows of 100 to 1000 entries, about the same for shorter rows.
_PRICING_BUFFER = 256


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


@functools.lru_cache(maxsize=64)
def _joint_groups(*limits: bytes) -> tuple:
    """``((joints, limit_values), ...)``: the joints that share every limit, in
    order of their first joint, from the float64 bytes of each limit array.

    :func:`_price` passes ``vel_max`` alone for ``max_joint_difference``, and
    ``vel_max, acc_max`` for ``linear_interp_duration``; in the second case a
    shared pair for which the trapezoid is not monotone is split into one
    group per joint, so its joints are priced one at a time. The grouping is
    cached by the limit values, so the scalar metrics, which build fresh
    params on every call, do not regroup the same limits.
    """
    members: dict = {}
    for k, key in enumerate(zip(*(np.frombuffer(lim).tolist() for lim in limits))):
        members.setdefault(key, []).append(k)
    groups = []
    for key, joints in members.items():
        if len(joints) > 1 and len(limits) == 2 and not _trapezoid_is_monotone(*key):
            groups.extend(((k,), key) for k in joints)
        else:
            groups.append((tuple(joints), key))
    return tuple(groups)


def _trapezoid_is_monotone(vmax: float, amax: float) -> bool:
    """True when ``_trapezoid_kernel(d, vmax, amax)`` never decreases as d grows.

    Each branch is a chain of correctly rounded operations on d, so it is
    monotone; the one place the formula can drop is where the short-move
    branch hands over to the long-move one, at c = vmax * vmax / amax. So
    f(prevfloat(c)) <= f(c) is the exact condition, read off the kernel. It
    fails for some limits, e.g. vmax=0.05407598572326695,
    amax=3.8795177930322358. A limit at inf makes the kernel divide inf by
    inf, and a NaN at c compares false, so such a pair is split. When c == 0
    both distances are 0 and take the long-move branch.
    """
    c = vmax * vmax / amax
    with np.errstate(over="ignore", invalid="ignore"):
        below, at = _trapezoid_kernel(np.array([math.nextafter(c, 0.0), c]), vmax, amax)
    return bool(below <= at)


def _joint_max(a: np.ndarray, b: np.ndarray, joint_cost, groups) -> np.ndarray:
    """max over joints k of ``joint_cost(|a[..., k] - b[..., k]|, *limits of k)``.

    ``groups`` comes from :func:`_joint_groups` of the params' limits: each
    group is a set of joints that share their limits, and ``joint_cost`` is
    monotone non-decreasing in the distance for those limits. For such a
    cost, max_k f(d_k) is exactly f(max_k d_k), so the cost formula runs once
    per group, on the group's largest distances. A max is exact in any order,
    so the result has the bits of pricing every joint and reducing over the
    full cost array, and a graph block never holds an (m_a, m_b, dof) array.
    Callers check that ``a``, ``b`` and the limits have the same number of
    joints.
    """
    if a.shape[-1] == 0:
        raise ValueError("cannot price a move of zero joints")
    out = None
    for joints, limits in groups:
        cost = joint_cost(_max_distance(a, b, joints), *limits)
        out = cost if out is None else np.maximum(out, cost, out=out)
    return out


def _max_distance(a: np.ndarray, b: np.ndarray, joints: tuple) -> np.ndarray:
    """max over ``joints`` of |a[..., k] - b[..., k]|, folded through one reused buffer.

    The buffer is freed on return, before the cost formula allocates its own.
    """
    dist = np.abs(a[..., joints[0]] - b[..., joints[0]])
    if len(joints) > 1:
        scratch = np.empty_like(dist)
        for k in joints[1:]:
            np.abs(np.subtract(a[..., k], b[..., k], out=scratch), out=scratch)
            np.maximum(dist, scratch, out=dist)
    return dist


def _trapezoid_kernel(dist, vmax, amax) -> np.ndarray:
    """Trapezoid duration of moves of ``dist``: dist/vmax + vmax/amax at or
    beyond c = vmax^2/amax, 2*sqrt(dist/amax) below it."""
    # One branch is enough: the long-move formula is computed on every entry
    # and only the entries below c are overwritten, so each entry gets exactly
    # the operations that np.where(dist >= c, long, short) would pick, without
    # a square root for the long moves. A NaN distance is NaN either way.
    out = dist / vmax + vmax / amax
    short = dist < vmax * vmax / amax
    out[short] = 2.0 * np.sqrt(dist[short] / amax)
    return out


def _price(kind: MetricKind, params: MetricParams, a, b) -> np.ndarray:
    """Cost of every move from stack ``a`` to stack ``b`` under the metric ``kind``.

    Joints lie on the last axis; the leading axes broadcast against each
    other, and one move is a stack of one. Raises ``ValueError`` when the
    stacks and ``params`` disagree on the number of joints.
    """
    kind = MetricKind(kind)
    a, b = np.atleast_2d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
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
        return _joint_max(a, b, np.divide, _joint_groups(params.vel_max.tobytes()))
    groups = _joint_groups(params.vel_max.tobytes(), params.acc_max.tobytes())
    return _joint_max(a, b, _trapezoid_kernel, groups)


def weighted_euclidean(q: Configuration, q_to: Configuration, weights) -> float:
    """sqrt(sum_k w_k (q'_k - q_k)^2); weights multiply the squared difference."""
    unit = np.ones(np.size(weights))
    return float(_price(MetricKind.WEIGHTED_EUCLIDEAN, MetricParams(weights, unit, unit), q, q_to)[0])


def max_joint_difference(q: Configuration, q_to: Configuration, vel_max) -> float:
    """Bottleneck travel time max_k |q'_k - q_k| / vel_max_k (seconds)."""
    unit = np.ones(np.size(vel_max))
    return float(_price(MetricKind.MAX_JOINT_DIFFERENCE, MetricParams(unit, vel_max, unit), q, q_to)[0])


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
    return float(_price(MetricKind.LINEAR_INTERP_DURATION, params, q, q_to)[0])


def default_weights(robot: RobotModel) -> np.ndarray:
    """Joint weights proportional to the reach moved by each joint: w_k = sum_{j>=k} L_j."""
    if robot.planar_links is None:
        raise ValueError("default_weights needs a planar arm")
    return np.cumsum(robot.planar_links[::-1])[::-1].copy()


def edge_cost(kind: MetricKind, params: MetricParams, q: Configuration, q_to: Configuration) -> float:
    """Cost of the move from ``q`` to ``q_to`` under the metric selected by ``kind``."""
    return float(_price(kind, params, q, q_to)[0])


def pairwise_cost(kind: MetricKind, params: MetricParams, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cost of every move from a row of ``a`` to a row of ``b``: stacks of
    (m_a, dof) and (m_b, dof) give an (m_a, m_b) matrix, and stacks of
    (k, m_a, dof) and (k, m_b, dof) give k such blocks, (k, m_a, m_b).

    Vectorized companion of :func:`edge_cost`, used to price whole graph
    layers: both run the same pricing function, so entries match the scalar
    metric bit for bit. Output holding more than ``TILE_ENTRIES`` entries is
    priced in bands of rows of ``a``, one tile each, so the temporaries stay
    small. Raises ``ValueError`` when the stacks and ``params`` disagree on
    the number of joints.
    """
    kind = MetricKind(kind)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if kind is MetricKind.WEIGHTED_EUCLIDEAN:
        # Row-major b, and numpy's default ufunc buffer: the sum over the
        # joints must see the same memory layout as a single move does.
        return _price_in_bands(kind, params, a, b)
    # The max-based metrics run only elementwise ufuncs, whose results do not
    # depend on memory layout or buffering. Each joint of b is read from a
    # contiguous column. With numpy's default 8192-element buffer, a
    # broadcast subtraction whose rows are shorter than the buffer runs
    # through numpy's buffered iteration, 2-4x slower (numpy 2.4).
    b = np.moveaxis(np.ascontiguousarray(np.moveaxis(b, -1, 0)), 0, -1)
    saved = np.setbufsize(_PRICING_BUFFER)
    try:
        return _price_in_bands(kind, params, a, b)
    finally:
        np.setbufsize(saved)


def _price_in_bands(kind: MetricKind, params: MetricParams, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_price` of every row of ``a`` against every row of ``b``, in bands
    of rows of ``a`` that hold at most ``TILE_ENTRIES`` entries each."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    rows, cols = a.shape[-2], b.shape[-2]
    band = max(1, TILE_ENTRIES // max(1, math.prod(lead) * cols))
    b = b[..., None, :, :]
    if rows <= band:
        return _price(kind, params, a[..., :, None, :], b)
    out = np.empty((*lead, rows, cols))
    for top in range(0, rows, band):
        out[..., top:top + band, :] = _price(kind, params, a[..., top:top + band, None, :], b)
    return out
