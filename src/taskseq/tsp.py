"""Task-space tour solvers over a finite square distance matrix.

Three solvers with different cost/quality trade-offs: an exact dynamic
program (bitmask over visited subsets, practical up to ~20 nodes), a local
search (2-exchanges and Or-opt segment moves over nearest-neighbor lists, then
a full 2-exchange check), and a repeated nearest-neighbor greedy construction.
The local search starts by default from the one-start nearest-neighbor tour,
walked over its own neighbor lists with a full-row scan where a list cannot
decide: the greedy construction's tour from node 0. The exact DP, run over
clusters of vertices, also finds the pipeline's joint optimum. A brute-force
permutation oracle backs the exact solver in tests and the verification
command. Only 2-opt needs a symmetric matrix. All solvers are deterministic.
The exact solver and the oracle return a directed cycle from node 0 and break
ties toward the lowest last node, then the lowest predecessor of each; the
nearest-neighbor solver breaks them toward the lowest index.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kinematics import forward_kinematics
from .model import GuardError, Task, index_tuple, ordered_sum

#: Node-count guard for the exact dynamic program (memory and time grow as 2^n).
EXACT_GUARD = 20

#: Node-count guard for the permutation oracle ((n-1)! cycles enumerated).
BRUTE_FORCE_GUARD = 10

#: An exchange must improve the tour by more than this to be applied ...
IMPROVEMENT_EPS = 1e-12

#: ... and by more than this fraction of the longest distance, which
#: is far above the rounding error of a gain summed from six distances. So
#: an applied move always shortens the tour, and moves never cycle, even
#: where distances are too long for their differences to show.
ROUNDING_SLACK = 2.0**-46

#: Nearest neighbors per node that 2-opt and Or-opt try as new partners.
NEIGHBORS = 16

#: Distance-matrix rows handled at once by its build, the neighbor lists and the
#: full 2-exchange check, so none of them builds an n x n temporary.
ROW_BLOCK = 64

#: Work counters ``solve_2opt`` reports through its ``stats`` argument.
TOUR_COUNTERS = ("two_opt_moves", "or_opt_moves", "check_rounds")


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
        object.__setattr__(self, "order", index_tuple(self.order, "tour node"))

    @property
    def closed(self) -> bool:
        return self.kind is TourKind.CLOSED_CYCLE


def _square_matrix(dm: np.ndarray) -> np.ndarray:
    """A finite, square, non-empty matrix: every tour function's contract."""
    dm = np.asarray(dm, dtype=float)
    if dm.ndim != 2 or dm.shape[0] != dm.shape[1] or dm.shape[0] < 1:
        raise ValueError(f"distance matrix must be square and non-empty, got {dm.shape}")
    if not np.isfinite(dm).all():
        raise ValueError("distance matrix must be finite")
    return dm


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def build_task_distance_matrix(task: Task, include_home_depot: bool = True) -> np.ndarray:
    """Euclidean distance matrix over the task's target positions.

    With ``include_home_depot`` an extra node (index n) anchors the tour at
    the robot's rest point: the end-effector position of the home
    configuration for the planar arm, or the centroid of the targets when
    configurations are explicit. Rows are computed ROW_BLOCK at a time under
    the ``metrics._PRICING_BUFFER`` ufunc buffer. Raises ``ValueError`` when a
    distance is not finite (positions so far apart that it overflows).
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
    (x, y), n = points.T, len(points)
    dm, scratch = np.empty((n, n)), np.empty((min(ROW_BLOCK, n), n))
    from .metrics import _PRICING_BUFFER  # its binding at call time, as pairwise_cost reads it
    saved = np.setbufsize(_PRICING_BUFFER)
    try:
        for start in range(0, n, ROW_BLOCK):  # np.linalg.norm's sum of squares, band by band
            dx = np.subtract.outer(x[start:start + ROW_BLOCK], x, out=dm[start:start + ROW_BLOCK])
            dy = np.subtract.outer(y[start:start + ROW_BLOCK], y, out=scratch[:len(dx)])
            np.sqrt(np.add(np.multiply(dx, dx, out=dx), np.multiply(dy, dy, out=dy), out=dx), out=dx)
    finally:
        np.setbufsize(saved)
    if not np.all(np.isfinite(dm)):
        raise ValueError("target distances overflow: positions are too far apart")
    return dm


def tour_cost(dm: np.ndarray, tour: TourOrder) -> float:
    """Edges in visiting order, plus the closing edge of a closed cycle, by ``ordered_sum``.

    ``ValueError`` refuses a ``dm`` that is not finite and square.
    """
    dm = _square_matrix(dm)
    order, n = tour.order, dm.shape[0]
    if order and not 0 <= min(order) <= max(order) < n:
        raise ValueError(f"tour node {next(v for v in order if not 0 <= v < n)} is outside [0, {n})")
    edges = list(map(dm.item, order, order[1:]))
    if tour.closed and len(order) > 0:
        edges.append(dm.item(order[-1], order[0]))
    return ordered_sum(edges)


def _cluster_walk(dm: np.ndarray, cluster) -> tuple[float, list[int]]:
    """Cheapest walk Start -> one vertex of every cluster -> Goal, by a DP over subsets.

    ``dm`` prices moves between nodes, none NaN: node 0 is both Start and
    Goal, and vertex v is node v + 1, in cluster ``cluster[v]`` (0..k-1, none
    empty); moves within a cluster are ignored. The state is (visited clusters,
    last vertex), each walk summed from the Start side, so the minimum is exact.
    Ties go to the lowest last vertex, then to the lowest predecessor of each.
    Returns the cost and the vertices in visiting order (meaningless at inf).
    """
    start, step, goal = dm[0, 1:], dm[1:, 1:], dm[1:, 0]
    k = int(np.max(cluster)) + 1
    bit = np.left_shift(1, np.asarray(cluster, dtype=np.int64))
    masks = np.arange(1 << k)
    size = sum((masks >> c) & 1 for c in range(k))
    cost = np.full((1 << k, len(bit)), np.inf)
    cost[bit, np.arange(len(bit))] = start
    for count in range(2, k + 1):
        level = masks[size == count]
        for v, b in enumerate(bit):
            rows = level[(level & b) != 0]
            cost[rows, v] = np.min(cost[rows ^ b] + step[:, v], axis=1)
    walk = [int(np.argmin(cost[-1] + goal))]  # the last row: every cluster visited
    mask = (1 << k) - 1
    for _ in range(k - 1):  # each predecessor is the argmin the forward pass took
        mask ^= int(bit[walk[-1]])
        walk.append(int(np.argmin(cost[mask] + step[:, walk[-1]])))
    return float(np.min(cost[-1] + goal)), walk[::-1]


def solve_exact(dm: np.ndarray) -> TourOrder:
    """Globally optimal closed cycle via dynamic programming over visited subsets.

    Takes O(n^2 2^n) time and O(n 2^n) memory, hence the size guard. The cycle is the DP's
    own walk from node 0, so :func:`tour_cost` adds the very sums it minimised; ties go to
    the lowest last node, then to the lowest predecessor of each. Any finite square ``dm``
    is taken, symmetric or not; ``ValueError`` refuses any other. Where every cycle's sum
    overflows to inf, the identity order stands.
    """
    dm = _square_matrix(dm)
    n = dm.shape[0]
    if n > EXACT_GUARD:
        raise GuardError(
            f"exact solver guard: n={n} exceeds {EXACT_GUARD} (dynamic program is O(n^2 * 2^n))"
        )
    if n > 2:
        cost, walk = _cluster_walk(dm, np.arange(n - 1))
        if cost < np.inf:
            return TourOrder((0, *(v + 1 for v in walk)))
    return TourOrder(tuple(range(n)), TourKind.CLOSED_CYCLE)


def brute_force_cycle(dm: np.ndarray) -> TourOrder:
    """Exhaustive minimum over all (n-1)! directed closed cycles from node 0.

    Independent oracle for :func:`solve_exact`; like it, it takes any finite square ``dm``.
    Each cycle is scored by the one sum :func:`tour_cost` takes, and the first strict
    minimum is kept. Cycles come in colex order, by last node, then its predecessor, and
    so on back, so ties go to the lowest last node, then the lowest predecessor. The DP
    breaks ties alike, save where a dearer prefix rounds to the same total: then the two
    cycles differ, but never their cost.
    """
    dm = _square_matrix(dm)
    n = dm.shape[0]
    if n > BRUTE_FORCE_GUARD:
        raise GuardError(
            f"permutation oracle guard: n={n} exceeds {BRUTE_FORCE_GUARD} "
            f"((n-1)! cycles would be enumerated)"
        )
    best_cost = np.inf
    best: tuple = tuple(range(n))
    for perm in itertools.permutations(range(1, n)):
        cycle = (0,) + perm[::-1]
        cost = ordered_sum(map(dm.item, cycle, cycle[1:] + (0,)))
        if cost < best_cost:
            best_cost, best = cost, cycle
    return TourOrder(best, TourKind.CLOSED_CYCLE)


def solve_rnn(dm: np.ndarray, restarts: int) -> TourOrder:
    """Repeated nearest-neighbor: greedy tours from the first ``restarts`` start nodes.

    Each walk appends its nearest unvisited node, the lowest index on ties. The walks
    share one numpy pick per step; each cycle is priced as :func:`tour_cost` prices it. The
    cheapest cycle wins, earlier starts winning ties. Any finite square ``dm`` is
    taken, symmetric or not. ``ValueError`` refuses any other ``dm``, and ``restarts``
    outside [1, n] or refused by :func:`~taskseq.model.index_tuple` (a bool, 2.0, "2").
    """
    dm = _square_matrix(dm)
    n, restarts = dm.shape[0], index_tuple((restarts,), "restarts")[0]
    if not 1 <= restarts <= n:
        raise ValueError(f"restarts must be in [1, {n}], got {restarts}")
    starts = current = np.arange(restarts)
    visited, steps = np.eye(restarts, n, dtype=bool), [starts]
    for _ in range(1, n):
        rows = dm.take(current, axis=0)
        np.copyto(rows, np.inf, where=visited)
        current = rows.argmin(axis=1)
        visited[starts, current] = True
        steps.append(current)
    walks = np.stack(steps, axis=1)
    costs = [ordered_sum(e) for e in dm[walks, np.roll(walks, -1, axis=1)].tolist()]
    return TourOrder(walks[costs.index(min(costs))].tolist())


def _neighbor_lists(dm: np.ndarray, k: int) -> tuple[list, list]:
    """The k nearest other nodes of every node, nearest first, and their distances.

    Built ROW_BLOCK rows at a time, so only a (ROW_BLOCK, n) copy is held. With its own
    entry ranked as inf, each row's k smallest entries are picked by ``argpartition`` and
    sorted stably, so equal distances keep the order ``argpartition`` leaves them in.
    """
    n = dm.shape[0]
    neighbors = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, ROW_BLOCK):
        block = dm[start:start + ROW_BLOCK].copy()
        rows = np.arange(len(block))
        block[rows, start + rows] = np.inf
        part = np.argpartition(block, k - 1, axis=1)[:, :k]
        nearest = np.argsort(np.take_along_axis(block, part, axis=1), axis=1, kind="stable")
        neighbors[start:start + ROW_BLOCK] = np.take_along_axis(part, nearest, axis=1)
    return neighbors.tolist(), dm[np.arange(n)[:, None], neighbors].tolist()


def _nearest_neighbor_walk(dm: np.ndarray, neighbors: list, near: list) -> list:
    """``solve_rnn(dm, 1)``'s tour, walked over the lists of :func:`_neighbor_lists`.

    A step takes the first unvisited node of the current node's list. Nearer than
    the list's last entry, it and every other node at its distance are in the
    list, next to it, and the lowest unvisited index of them wins. Otherwise the
    row, visited nodes at inf, picks by ``argmin``, as :func:`solve_rnn` does.
    """
    visited = bytearray(dm.shape[0])
    mask = np.frombuffer(visited, dtype=bool)  # a view: the row scan sees every visit
    order = [0]
    visited[0] = True
    for _ in range(1, len(visited)):
        ids, dists = neighbors[order[-1]], near[order[-1]]
        for i, nxt in enumerate(ids):
            if not visited[nxt]:
                break
        else:
            i = -1  # all visited: the last distance, so the row decides
        if dists[i] < dists[-1]:
            for v, d in zip(ids[i + 1:], dists[i + 1:]):
                if d != dists[i]:
                    break
                if v < nxt and not visited[v]:
                    nxt = v
        else:
            nxt = int(np.where(mask, np.inf, dm[order[-1]]).argmin())
        visited[nxt] = True
        order.append(nxt)
    return order


class _LocalSearch:
    """Neighbor-list 2-opt and Or-opt on a cycle held as plain Python lists.

    ``node`` maps tour positions to nodes and ``pos`` is its inverse. ``dist`` holds
    one 1-D memoryview per row: ``dist[i][j]`` reads in half the time of a 2-D view's
    ``[i, j]``, and ``dm.tolist()`` would build n^2 Python floats. A node popped from
    ``queue`` tries an Or-opt move and then a 2-exchange; a move puts every node
    whose edges it changed back on the queue (don't-look bits). With no ``order``,
    the cycle starts as the nearest-neighbor walk over the neighbor lists.
    """

    def __init__(self, dm: np.ndarray, order, work: dict, tol: float):
        self.dist = [memoryview(row) for row in np.ascontiguousarray(dm)]
        self.tol = tol
        self.n = dm.shape[0]
        self.neighbors, self.near = _neighbor_lists(dm, min(NEIGHBORS, self.n - 1))
        if order is None:
            order = _nearest_neighbor_walk(dm, self.neighbors, self.near)
        self.node = list(order)
        self.pos = np.argsort(self.node).tolist()
        self.nearest = [near[0] for near in self.near]  # no scan opens unless this is nearer
        self.queue = deque()
        self.active = [False] * self.n
        self.work = work
        self.push(self.node)

    def push(self, nodes) -> None:
        for v in nodes:
            if not self.active[v]:
                self.active[v] = True
                self.queue.append(v)

    def run(self) -> None:
        while self.queue:
            a = self.queue.popleft()
            self.active[a] = False
            if touched := self.or_opt(a):
                self.work["or_opt_moves"] += 1
            elif touched := self.two_opt(a):
                self.work["two_opt_moves"] += 1
            else:
                continue
            self.push(touched)

    def _write(self, start: int, nodes: list) -> None:
        n, node, pos = self.n, self.node, self.pos
        for p, v in enumerate(nodes, start):
            p %= n
            node[p] = v
            pos[v] = p

    def _span(self, start: int, length: int) -> list:
        n, node = self.n, self.node
        return [node[(start + t) % n] for t in range(length)]

    def reverse(self, i: int, j: int) -> None:
        """Reverse positions i..j (cyclic); the shorter side flips, the cycle is the same."""
        length = (j - i) % self.n + 1
        if 2 * length > self.n:
            i, length = (j + 1) % self.n, self.n - length
        self._write(i, self._span(i, length)[::-1])

    def move(self, start: int, length: int, x: int, forward: bool) -> None:
        """Move the segment at positions start.. between node x and its successor.

        ``forward`` joins x to the segment's first node, else to its last. The
        nodes on the shorter side between the segment and x shift over it.
        """
        segment = self._span(start, length)
        if not forward:
            segment.reverse()
        ahead = (self.pos[x] - start - length) % self.n + 1  # nodes from the segment's end to x
        behind = self.n - length - ahead
        if ahead <= behind:
            self._write(start, self._span(start + length, ahead) + segment)
        else:
            self._write(self.pos[x] + 1, segment + self._span(self.pos[x] + 1, behind))

    def two_opt(self, a: int):
        """Apply the first improving 2-exchange that joins ``a`` to a near neighbor.

        Neighbors are tried nearest first while they are nearer than the
        edge they would replace: a's successor edge, then its predecessor
        edge. Returns the four endpoints, or None.
        """
        dist, n, node, pos = self.dist, self.n, self.node, self.pos
        pa, row_a = pos[a], dist[a]
        for step in (1, -1):
            b = node[(pa + step) % n]
            d_ab = row_a[b]
            if not self.nearest[a] < d_ab:
                continue
            for c, d_ac in zip(self.neighbors[a], self.near[a]):
                if not d_ac < d_ab:
                    break
                pc = pos[c]
                d = node[(pc + step) % n]
                if c == b or d == a:
                    continue
                if d_ac + dist[b][d] - d_ab - dist[c][d] < -self.tol:
                    if step == 1:
                        self.reverse(pa + 1, pc)  # a c ... b d
                    else:
                        self.reverse(pa, pc - 1)  # b d ... a c
                    return a, b, c, d
        return None

    def or_opt(self, a: int):
        """Apply the first improving move of a 1-3 node segment that starts or ends at ``a``.

        The segment goes next to a near neighbor c of either end, between c
        and its successor or its predecessor, joined to c by that end.
        Neighbors are tried while they are nearer than the removal gains.
        Returns the nodes whose edges changed, or None.
        """
        dist, n, node, pos = self.dist, self.n, self.node, self.pos
        pa = pos[a]
        for offset, length in ((0, 1), (0, 2), (-1, 2), (0, 3), (-2, 3)):
            if length > n - 3:
                break
            start = (pa + offset) % n
            first, last = node[start], node[(start + length - 1) % n]
            prev, nxt = node[start - 1], node[(start + length) % n]
            gain = dist[prev][first] + dist[last][nxt] - dist[prev][nxt]
            for end, other in ((first, last), (last, first)) if length > 1 else ((first, last),):
                if not self.nearest[end] < gain:
                    continue
                for c, d_ec in zip(self.neighbors[end], self.near[end]):
                    if not d_ec < gain:
                        break
                    pc = pos[c]
                    if (pc - start) % n < length:
                        continue
                    for step in (1, -1):
                        y = node[(pc + step) % n]
                        if (pos[y] - start) % n < length:
                            continue
                        if d_ec + dist[other][y] - dist[c][y] - gain < -self.tol:
                            x = c if step == 1 else y
                            self.move(start, length, x, forward=(end == first) == (step == 1))
                            return prev, nxt, first, last, c, y
        return None


@np.errstate(invalid="ignore", over="ignore")  # inf - inf deltas are NaN and never improve
def _improving_exchange(dm: np.ndarray, node: np.ndarray, tol: float) -> tuple[int, int] | None:
    """A 2-exchange of the cycle that gains more than ``tol``, as edge positions (i, j), or None.

    Edge i joins node[i] and node[i+1] (cyclically). Every pair of edges that
    share no node is priced, ROW_BLOCK rows at a time; the best exchange of
    the first block that has one is returned. NaN deltas never count.
    """
    n = len(node)
    nxt = np.roll(node, -1)
    edge = dm[node, nxt]
    for start in range(0, n - 2, ROW_BLOCK):
        rows = np.arange(start, min(start + ROW_BLOCK, n - 2))
        cols = np.arange(start + 2, n)
        delta = dm[node[rows]].take(node[cols], axis=1) + dm[nxt[rows]].take(nxt[cols], axis=1)
        delta -= edge[rows, None]
        delta -= edge[cols]
        hit = (delta < -tol) & (cols >= rows[:, None] + 2)
        if start == 0:
            hit[0, -1] = False  # edge n-1 ends where edge 0 starts
        if hit.any():
            i, j = np.unravel_index(np.argmin(np.where(hit, delta, np.inf)), hit.shape)
            return int(rows[i]), int(cols[j])
    return None


def solve_2opt(
    dm: np.ndarray, initial: TourOrder | None = None, stats: dict | None = None
) -> TourOrder:
    """2-exchange and Or-opt local search on a closed cycle.

    Starts from ``initial``. The default is the one-start nearest-neighbor tour
    from node 0, the same tour as ``solve_rnn(dm, 1)``: it is walked over the
    NEIGHBORS-nearest lists, with a full-row scan where a list cannot decide.
    A queue of active nodes (don't-look bits) drives the search: each node
    tries Or-opt moves of a segment of 1-3 nodes that starts or ends at it,
    then 2-exchanges that join it to one of its NEIGHBORS nearest nodes; a
    move re-activates the nodes whose edges it changed. When the queue is
    empty, every 2-exchange of the whole tour is checked; an improving one is
    applied and the search resumes. Every move gains more than
    IMPROVEMENT_EPS and more than ROUNDING_SLACK times the longest distance,
    so the result is 2-opt locally optimal and never costlier than the initial
    tour. A ``dm`` that is not finite and symmetric is refused with
    ``ValueError``: on a one-sided matrix moves can cycle forever.

    ``stats``, when given, receives the TOUR_COUNTERS: 2-exchanges applied
    (by the queue and by the full check), Or-opt moves, and full checks run.
    """
    dm = _square_matrix(dm)
    if not np.array_equal(dm, dm.T):
        raise ValueError("distance matrix must be symmetric")
    n = dm.shape[0]
    if initial is None and n < 4:
        initial = solve_rnn(dm, 1)
    if initial is not None and sorted(initial.order) != list(range(n)):
        raise ValueError("initial tour must be a permutation of all nodes")
    work = dict.fromkeys(TOUR_COUNTERS, 0)
    order = None if initial is None else initial.order
    if n >= 4:
        longest = float(np.max(dm))
        tol = max(IMPROVEMENT_EPS, ROUNDING_SLACK * longest)
        search = _LocalSearch(dm, order, work, tol)
        while True:
            search.run()
            work["check_rounds"] += 1
            exchange = _improving_exchange(dm, np.array(search.node), tol)
            if exchange is None:
                break
            i, j = exchange
            search.push([search.node[p % n] for p in (i, i + 1, j, j + 1)])  # its endpoints
            search.reverse(i + 1, j)
            work["two_opt_moves"] += 1
        order = search.node
    if stats is not None:
        stats.update(work)
    return TourOrder(order, TourKind.CLOSED_CYCLE)


def open_order_from_cycle(cycle: TourOrder, depot: int) -> TourOrder:
    """Drop the depot from a closed cycle and read off the open visiting order.

    Of the two reading directions the one whose first node has the smaller
    index wins, which makes the extraction deterministic.
    """
    if not cycle.closed:
        raise ValueError("open_order_from_cycle needs a closed cycle")
    depot = index_tuple((depot,), "depot")[0]
    if depot not in cycle.order:
        raise ValueError(f"depot {depot} not in cycle {cycle.order}")
    position = cycle.order.index(depot)
    forward = list(cycle.order[position + 1:] + cycle.order[:position])
    if len(forward) > 1 and forward[-1] < forward[0]:
        forward = forward[::-1]
    return TourOrder(tuple(forward), TourKind.OPEN_PATH)
