"""Task-space tour solvers over a symmetric distance matrix.

Three solvers with different cost/quality trade-offs: an exact dynamic
program (bitmask over visited subsets, practical up to ~20 nodes), a
first-improvement 2-exchange local search, and a repeated nearest-neighbor
greedy construction. A brute-force permutation oracle backs the exact solver
in tests and the verification command. All solvers are deterministic: ties
break toward the lowest index everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kinematics import forward_kinematics
from .model import GuardError, Task

#: Node-count guard for the exact dynamic program (memory and time grow as 2^n).
EXACT_GUARD = 20

#: Node-count guard for the permutation oracle ((n-1)!/2 cycles enumerated).
BRUTE_FORCE_GUARD = 10

#: An exchange must improve the tour by more than this to be applied.
IMPROVEMENT_EPS = 1e-12


class SolverKind(str, Enum):
    EXACT = "exact"
    TWO_OPT = "two_opt"
    RNN = "rnn"


class TourKind(str, Enum):
    CLOSED_CYCLE = "closed_cycle"
    OPEN_PATH = "open_path"


@dataclass(frozen=True)
class TourOrder:
    """A visiting order; closed cycles include the return edge in their cost."""

    order: tuple[int, ...]
    kind: TourKind = TourKind.CLOSED_CYCLE

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(int(v) for v in self.order))

    @property
    def closed(self) -> bool:
        return self.kind is TourKind.CLOSED_CYCLE


def _square_matrix(dm: np.ndarray) -> np.ndarray:
    dm = np.asarray(dm, dtype=float)
    if dm.ndim != 2 or dm.shape[0] != dm.shape[1] or dm.shape[0] < 1:
        raise ValueError(f"distance matrix must be square and non-empty, got {dm.shape}")
    return dm


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def build_task_distance_matrix(task: Task, include_home_depot: bool = True) -> np.ndarray:
    """Euclidean distance matrix over the task's target positions.

    With ``include_home_depot`` an extra node (index n) anchors the tour at
    the robot's rest point: the end-effector position of the home
    configuration for the planar arm, or the centroid of the targets when
    configurations are explicit. Raises ``ValueError`` when a distance is not
    finite (positions so far apart that it overflows).
    """
    positions = []
    for target in task.targets:
        if target.position is None:
            raise ValueError(f"target {target.id} has no position; cannot build distances")
        positions.append(target.position)
    points = np.asarray(positions, dtype=float)
    if include_home_depot:
        if task.robot.is_planar:
            pose = forward_kinematics(task.robot, task.home)
            depot = np.array([pose.x, pose.y])
        else:
            depot = points.mean(axis=0)
        points = np.vstack([points, depot])
    dm = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    if not np.all(np.isfinite(dm)):
        raise ValueError("target distances overflow: positions are too far apart")
    return dm


def tour_cost(dm: np.ndarray, tour: TourOrder) -> float:
    """Sum of consecutive edges, plus the closing edge for closed cycles."""
    dm = _square_matrix(dm)
    order = tour.order
    total = 0.0
    for i in range(len(order) - 1):
        total += dm[order[i], order[i + 1]]
    if tour.closed and len(order) > 0:
        total += dm[order[-1], order[0]]
    return float(total)


def _canonical_cycle(order: list) -> TourOrder:
    """Rotate to start at node 0 and orient so the second node is the smaller neighbor."""
    start = order.index(0)
    order = order[start:] + order[:start]
    if len(order) > 2 and order[1] > order[-1]:
        order = [order[0]] + order[:0:-1]
    return TourOrder(tuple(order), TourKind.CLOSED_CYCLE)


def solve_exact(dm: np.ndarray) -> TourOrder:
    """Globally optimal closed cycle via dynamic programming over visited subsets.

    Runs in O(n^2 2^n) time and O(n 2^n) memory, hence the hard size guard.
    The returned cycle is in canonical form (starts at node 0, oriented toward
    the smaller-indexed neighbor).
    """
    dm = _square_matrix(dm)
    n = dm.shape[0]
    if n > EXACT_GUARD:
        raise GuardError(
            f"exact solver guard: n={n} exceeds {EXACT_GUARD} "
            f"(dynamic program is O(n^2 * 2^n))"
        )
    if n <= 3:
        return TourOrder(tuple(range(n)), TourKind.CLOSED_CYCLE)

    size = 1 << n
    full = size - 1
    dp = np.full((size, n), np.inf)
    parent = np.full((size, n), -1, dtype=np.int8)
    dp[1, 0] = 0.0

    masks_by_count: list = [[] for _ in range(n + 1)]
    for mask in range(1, size, 2):  # only subsets containing node 0
        masks_by_count[bin(mask).count("1")].append(mask)

    for count in range(2, n + 1):
        masks = np.asarray(masks_by_count[count], dtype=np.int64)
        for j in range(1, n):
            bit = 1 << j
            with_j = masks[(masks & bit) != 0]
            if with_j.size == 0:
                continue
            candidates = dp[with_j ^ bit] + dm[:, j]
            best = np.argmin(candidates, axis=1)  # ties -> lowest predecessor
            dp[with_j, j] = candidates[np.arange(with_j.size), best]
            parent[with_j, j] = best

    closing = dp[full, 1:] + dm[1:, 0]
    last = int(np.argmin(closing)) + 1

    path = []
    mask, node = full, last
    while node != 0:
        path.append(node)
        prev = int(parent[mask, node])
        mask ^= 1 << node
        node = prev
    return _canonical_cycle([0] + path[::-1])


def brute_force_cycle(dm: np.ndarray) -> TourOrder:
    """Exhaustive minimum over all (n-1)!/2 distinct closed cycles.

    Independent oracle for :func:`solve_exact`: enumerates permutations with
    node 0 fixed, skipping mirrored orientations, and keeps the first strict
    minimum (so ties resolve to the lexicographically smallest cycle in the
    same canonical orientation the exact solver uses).
    """
    dm = _square_matrix(dm)
    n = dm.shape[0]
    if n > BRUTE_FORCE_GUARD:
        raise GuardError(
            f"permutation oracle guard: n={n} exceeds {BRUTE_FORCE_GUARD} "
            f"((n-1)! cycles would be enumerated)"
        )
    if n <= 3:
        return TourOrder(tuple(range(n)), TourKind.CLOSED_CYCLE)
    best_cost = np.inf
    best: tuple = tuple(range(n))
    for perm in itertools.permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue  # mirrored orientation of an already-seen cycle
        cost = dm[0, perm[0]]
        for i in range(len(perm) - 1):
            cost += dm[perm[i], perm[i + 1]]
        cost += dm[perm[-1], 0]
        if cost < best_cost:
            best_cost = cost
            best = (0,) + perm
    return TourOrder(best, TourKind.CLOSED_CYCLE)


def solve_rnn(dm: np.ndarray, restarts: int) -> TourOrder:
    """Repeated nearest-neighbor: greedy tours from the first ``restarts`` start nodes.

    All restarts advance in lock step, each appending its nearest unvisited node
    (ties toward the lowest index, and the lowest-index unvisited node when all are
    at inf); the cheapest cycle wins, earlier starts winning ties.
    """
    dm = _square_matrix(dm)
    n = dm.shape[0]
    if not 1 <= restarts <= n:
        raise ValueError(f"restarts must be in [1, {n}], got {restarts}")
    rows = np.arange(restarts)
    order = np.empty((restarts, n), dtype=np.intp)
    order[:, 0] = rows
    visited = np.eye(restarts, n, dtype=bool)
    costs = np.zeros(restarts)
    for step in range(1, n):
        current = order[:, step - 1]
        nxt = np.argmin(np.where(visited, np.inf, dm[current]), axis=1)
        stuck = visited[rows, nxt]  # every unvisited node is at inf: take the lowest-index one
        nxt[stuck] = np.argmin(visited[stuck], axis=1)
        costs += dm[current, nxt]
        order[:, step] = nxt
        visited[rows, nxt] = True
    costs += dm[order[:, -1], rows]
    costs[~(costs < np.inf)] = np.inf  # NaN and infinite cycles never win ...
    best = int(np.argmin(costs))
    return TourOrder(order[best] if costs[best] < np.inf else range(n))  # ... else identity


def solve_2opt(dm: np.ndarray, initial: TourOrder | None = None) -> TourOrder:
    """First-improvement 2-exchange local search on a closed cycle.

    Starts from ``initial`` (default: the best nearest-neighbor tour over all
    start nodes) and repeatedly reverses the first segment whose endpoints
    admit an improving exchange, scanning i ascending then j ascending, until
    no exchange improves the tour. The result is 2-opt locally optimal and
    never costlier than the initial tour.
    """
    dm = _square_matrix(dm)
    n = dm.shape[0]
    if initial is None:
        initial = solve_rnn(dm, n)
    if sorted(initial.order) != list(range(n)):
        raise ValueError("initial tour must be a permutation of all nodes")
    order = np.asarray(initial.order, dtype=np.intp)

    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            a, b = order[i - 1], order[i]
            tail = order[i:]
            after = np.concatenate([order[i + 1:], order[:1]])
            delta = dm[a, tail] + dm[b, after] - dm[a, b] - dm[tail, after]
            hits = np.nonzero(delta < -IMPROVEMENT_EPS)[0]
            if hits.size:
                j = i + int(hits[0])
                order[i:j + 1] = order[i:j + 1][::-1]
                improved = True
                break
    return TourOrder(tuple(int(v) for v in order), TourKind.CLOSED_CYCLE)


def open_order_from_cycle(cycle: TourOrder, depot: int) -> TourOrder:
    """Drop the depot from a closed cycle and read off the open visiting order.

    Of the two reading directions the one whose first node has the smaller
    index wins, which makes the extraction deterministic.
    """
    if not cycle.closed:
        raise ValueError("open_order_from_cycle needs a closed cycle")
    if depot not in cycle.order:
        raise ValueError(f"depot {depot} not in cycle {cycle.order}")
    position = cycle.order.index(depot)
    forward = list(cycle.order[position + 1:] + cycle.order[:position])
    if len(forward) > 1 and forward[-1] < forward[0]:
        forward = forward[::-1]
    return TourOrder(tuple(forward), TourKind.OPEN_PATH)
