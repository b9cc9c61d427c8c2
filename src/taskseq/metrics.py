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
into one call. Each band is written into the output, or, given a ``fold``
keyword, handed to it in a reused tile that the fold may overwrite, since the
next band is priced over it. Every entry is the same chain of floating-point
operations as the single move :func:`edge_cost` prices, so tiling never
changes a bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Configuration, RobotModel

#: Entries priced per numpy pass: small enough that a tile and its two scratch
#: tiles, reused by every band of a call, stay in cache, large enough that the
#: per-call overhead of numpy is paid rarely. Wider blocks are priced in row bands,
#: each handed to the step-2 sweep's ``fold`` in turn. ``cgraph._price_runs`` stacks
#: runs of smaller equal-size graph blocks up to it, reading this one binding per call.
TILE_ENTRIES = 1 << 15

#: numpy's ufunc buffer, in elements, while :func:`pairwise_cost` prices a
#: block. Measured against numpy's default of 8192 on tiles of 2^15 entries:
#: broadcast subtractions 2-4x faster for block rows of 100 to 1000 entries,
#: about the same for shorter rows.
_PRICING_BUFFER = 256


class MetricKind(str, Enum):
    """The three supported configuration-space metrics."""

    WEIGHTED_EUCLIDEAN = "weighted_euclidean"
    MAX_JOINT_DIFFERENCE = "max_joint_difference"
    LINEAR_INTERP_DURATION = "linear_interp_duration"


@dataclass(frozen=True)
class MetricParams:
    """Per-joint weights and limits of the metrics: limits positive, weights finite and >= 0."""

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
        if not (np.all(np.isfinite(self.weights)) and np.all(self.weights >= 0.0)):
            raise ValueError("weights must be finite and non-negative")

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
    ``vel_max, acc_max`` for ``linear_interp_duration``. The grouping is
    cached by the limit values, so the scalar metrics, which build fresh
    params on every call, do not regroup the same limits.
    """
    members: dict = {}
    for k, key in enumerate(zip(*(np.frombuffer(lim).tolist() for lim in limits))):
        members.setdefault(key, []).append(k)
    return tuple((tuple(joints), key) for key, joints in members.items())


def _joint_max(a: np.ndarray, b: np.ndarray, joint_cost, groups, out, scratch) -> np.ndarray:
    """max over joints k of ``joint_cost(|a[..., k] - b[..., k]|, *limits of k)``, into ``out``.

    ``groups`` comes from :func:`_joint_groups` of the params' limits: each
    group is a set of joints that share their limits. The one condition is
    that ``joint_cost`` never decreases as the distance grows, for any
    positive limits. Then max_k f(d_k) is exactly f(max_k d_k), so the cost
    formula runs once per group, on the group's largest distances. A max is
    exact in any order, so the result has the bits of pricing every joint and
    reducing over the full cost array. Callers check that ``a``, ``b`` and
    the limits have the same, non-zero number of joints, and pass two
    ``scratch`` arrays of ``out``'s shape.
    """
    dist, spare = scratch
    for g, (joints, limits) in enumerate(groups):
        np.abs(np.subtract(a[..., joints[0]], b[..., joints[0]], out=dist), out=dist)
        for k in joints[1:]:
            np.abs(np.subtract(a[..., k], b[..., k], out=spare), out=spare)
            np.maximum(dist, spare, out=dist)
        cost = joint_cost(dist, *limits, out=spare if g else out)
        if g:
            np.maximum(out, cost, out=out)
    return out


def _trapezoid_kernel(dist, vmax, amax, out=None) -> np.ndarray:
    """Trapezoid duration of moves of ``dist``: dist/vmax + vmax/amax at or
    beyond c = vmax^2/amax, below c the smaller of that and 2*sqrt(dist/amax).

    It never decreases as ``dist`` grows, for any positive limits: each branch
    is a chain of correctly rounded monotone operations, and for d < c <= d'
    f(d) <= long(d) <= long(d') = f(d'). In exact arithmetic the triangle time
    is the smaller below c, so the min only absorbs its rounding.
    """
    # Long moves take no square root: only the entries below c are revisited,
    # by C-order index, which np.take and np.put follow in any layout.
    out = np.divide(dist, vmax, out=out)
    out += vmax / amax
    short = np.flatnonzero(dist < vmax * vmax / amax)
    np.put(out, short, np.minimum(out.take(short), 2.0 * np.sqrt(dist.take(short) / amax)))
    return out


def _price(kind: MetricKind, params: MetricParams, a, b, out=None, scratch=None) -> np.ndarray:
    """Cost of every move from stack ``a`` to stack ``b`` under the metric ``kind``.

    Joints lie on the last axis; the leading axes broadcast against each
    other, and one move is a stack of one. Either stack may be in any memory
    layout. The costs go into ``out`` (fresh if not given) through two
    ``scratch`` arrays of its shape. Raises ``ValueError`` when the stacks and
    ``params`` disagree on the number of joints, or when that number is zero.
    """
    kind = MetricKind(kind)
    a, b = np.atleast_2d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not a.shape[-1] == b.shape[-1] == params.weights.size:
        raise ValueError(
            f"joint count mismatch: stacks of {a.shape[-1]} and {b.shape[-1]} joints, "
            f"metric params for {params.weights.size}"
        )
    if a.shape[-1] == 0:
        raise ValueError("cannot price a move of zero joints")
    if out is None:
        out, *scratch = np.empty((3, *np.broadcast_shapes(a.shape[:-1], b.shape[:-1])))
    if kind is MetricKind.WEIGHTED_EUCLIDEAN:  # added in joint order from 0.0, as ordered_sum adds
        diff, term = scratch
        out.fill(0.0)
        for k, weight in enumerate(params.weights.tolist()):
            np.subtract(a[..., k], b[..., k], out=diff)
            np.add(out, np.multiply(np.multiply(weight, diff, out=term), diff, out=term), out=out)
        return np.sqrt(out, out=out)
    if kind is MetricKind.MAX_JOINT_DIFFERENCE:
        return _joint_max(a, b, np.divide, _joint_groups(params.vel_max.tobytes()), out, scratch)
    groups = _joint_groups(params.vel_max.tobytes(), params.acc_max.tobytes())
    return _joint_max(a, b, _trapezoid_kernel, groups, out, scratch)


def weighted_euclidean(q: Configuration, q_to: Configuration, weights) -> float:
    """sqrt(sum_k w_k (q'_k - q_k)^2); weights multiply the squared difference."""
    unit = np.ones(np.size(weights))
    return edge_cost(MetricKind.WEIGHTED_EUCLIDEAN, MetricParams(weights, unit, unit), q, q_to)


def max_joint_difference(q: Configuration, q_to: Configuration, vel_max) -> float:
    """Bottleneck travel time max_k |q'_k - q_k| / vel_max_k (seconds)."""
    unit = np.ones(np.size(vel_max))
    return edge_cost(MetricKind.MAX_JOINT_DIFFERENCE, MetricParams(unit, vel_max, unit), q, q_to)


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
    return edge_cost(MetricKind.LINEAR_INTERP_DURATION, params, q, q_to)


def default_weights(robot: RobotModel) -> np.ndarray:
    """Joint weights proportional to the reach moved by each joint: w_k = sum_{j>=k} L_j."""
    if robot.planar_links is None:
        raise ValueError("default_weights needs a planar arm")
    return np.cumsum(robot.planar_links[::-1])[::-1].copy()


def edge_cost(kind: MetricKind, params: MetricParams, q: Configuration, q_to: Configuration) -> float:
    """Cost under ``kind`` of exactly one move, ``q`` to ``q_to``; a stack raises ``ValueError``."""
    if np.ndim(q) > 1 or np.ndim(q_to) > 1:
        raise ValueError(f"edge_cost prices one move, got shapes {np.shape(q)} and {np.shape(q_to)}")
    return float(_price(kind, params, q, q_to)[0])


def pairwise_cost(kind: MetricKind, params: MetricParams, a: np.ndarray, b: np.ndarray, *,
                  fold=None) -> np.ndarray | None:
    """Cost of every move from a row of ``a`` to a row of ``b``: stacks of
    (m_a, dof) and (m_b, dof) give an (m_a, m_b) matrix, and stacks of
    (k, m_a, dof) and (k, m_b, dof) give k such blocks, (k, m_a, m_b).

    Vectorized companion of :func:`edge_cost`, used to price whole graph
    layers: both run :func:`_price`, so entries match the scalar metric bit
    for bit. Every call prices bands of rows of ``a``, one tile of about
    ``TILE_ENTRIES`` entries each (a block of one tile is one band), through
    two scratch tiles that every band reuses, so no metric holds an array with
    a joint axis. Each band goes straight into its rows of the output; given the
    keyword-only ``fold``, into one reused tile handed to ``fold(top, tile)``,
    with ``top`` its first row, which may overwrite the tile (the next band is
    priced over it), and the call returns None. Every metric reads
    ``b`` from a joint-major copy, one contiguous column per joint, under the
    ``_PRICING_BUFFER`` ufunc buffer. Raises ``ValueError`` when the stacks and
    ``params`` disagree on the number of joints, or when that number is zero.
    """
    a, b = np.atleast_2d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    rows, cols = a.shape[-2], b.shape[-2]
    band = max(1, TILE_ENTRIES // max(1, math.prod(lead) * cols))
    b = np.moveaxis(np.ascontiguousarray(np.moveaxis(b, -1, 0)), 0, -1)[..., None, :, :]
    out = np.empty((*lead, min(band, rows) if fold else rows, cols))
    scratch = np.empty((2, *lead, min(band, rows), cols))
    saved = np.setbufsize(_PRICING_BUFFER)
    try:
        for top in range(0, max(rows, 1), band):  # one band at least: an empty ``a`` is checked too
            n = min(band, rows - top)
            tile = out[..., :n, :] if fold else out[..., top:top + n, :]
            _price(kind, params, a[..., top:top + n, None, :], b, tile, scratch[..., :n, :])
            if fold:
                fold(top, tile)
        return None if fold else out
    finally:
        np.setbufsize(saved)
