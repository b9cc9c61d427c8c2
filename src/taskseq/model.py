"""Domain types for multi-target sequencing tasks, validation, and instance generation.

A task bundles a robot description, a home configuration, and a list of
targets. Each target has a position, which the task-space tour orders, reached
through explicit joint configurations or through planar IK solved downstream.
All types are immutable value data; every operation here is pure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: Default link lengths (m) of the built-in planar arm. Distinct lengths keep
#: the all-orientations-reachable annulus non-degenerate (equal links collapse
#: it to a circle).
DEFAULT_PLANAR_LINKS = (1.0, 0.8, 0.5)

#: A joint configuration is a 1-D float array of length ``robot.dof`` (radians,
#: unwrapped: q and q + 2*pi are distinct points); a set of m configurations is
#: one read-only float (m, dof) array.
Configuration = np.ndarray

#: A validation report is a list of human-readable violation strings; an empty
#: list means the task is valid.
ValidationReport = list


#: Largest magnitude of any number in a valid task, and the reciprocal of the
#: smallest valid limit, weight or link length. Within this range no cost,
#: distance or sum the pipeline forms can overflow.
MAGNITUDE_LIMIT = 1e50


def ordered_sum(values) -> float:
    """The values added left to right from 0.0: how every reported cost (tour,
    path, schedule) is summed. Not ``sum()``, which compensates from Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return float(total)


def index_tuple(values, what: str) -> tuple[int, ...]:
    """``values`` as ints by the one rule for every count, index and id a caller passes:
    ``operator.index`` (numpy integers pass), but no bool, Python's or numpy's.
    ``ValueError`` names the first value refused: a bool, a float (2.0 too) or a string."""
    values = tuple(values)
    try:
        if bool not in set(map(type, values)):
            return tuple(map(operator.index, values))
    except TypeError:
        pass
    bad = next(v for v in values if isinstance(v, (bool, np.bool_)) or not hasattr(type(v), "__index__"))
    raise ValueError(f"{what} {bad!r} is not an integer")


class GuardError(RuntimeError):
    """An instance exceeds the size guard of an exact solver or oracle."""


def _vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    return np.atleast_1d(arr)


def _configurations(rows):
    """Rows as one read-only float (m, dof) array; ragged rows stay one vector each."""
    try:
        stack = np.asarray(rows, dtype=float)
    except ValueError:  # ragged rows: validate_task names each bad one
        return tuple(_vector(q) for q in rows)
    if stack.ndim == 0:
        raise TypeError(f"a configuration set must be a sequence of rows, got {rows!r}")
    if stack is rows and stack.flags.writeable:  # copy a caller's array, never freeze it
        stack = stack.copy()
    if stack.ndim == 1:  # scalar rows, or no rows at all
        stack = stack[:, None]
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True)
class RobotModel:
    """Joint-space robot description: limits, metric weights, optional planar chain."""

    dof: int
    vel_max: np.ndarray
    acc_max: np.ndarray
    weights: np.ndarray | None = None
    planar_links: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "vel_max", _vector(self.vel_max))
        object.__setattr__(self, "acc_max", _vector(self.acc_max))
        if self.weights is not None:
            object.__setattr__(self, "weights", _vector(self.weights))
        if self.planar_links is not None:
            object.__setattr__(self, "planar_links", _vector(self.planar_links))

    @property
    def is_planar(self) -> bool:
        return self.planar_links is not None


def planar_arm(links=DEFAULT_PLANAR_LINKS, vel_max=None, acc_max=None) -> RobotModel:
    """Build the planar revolute-chain robot (unit joint limits by default)."""
    links = _vector(links)
    dof = links.size
    return RobotModel(
        dof=dof,
        vel_max=np.ones(dof) if vel_max is None else _vector(vel_max),
        acc_max=np.ones(dof) if acc_max is None else _vector(acc_max),
        planar_links=links,
    )


@dataclass(frozen=True)
class TaskTarget:
    """A single task-space target.

    Carries reaching configurations (a read-only float (m, dof) array), a
    planar position to be solved later, or both. Positions drive the task-space
    tour, so a valid task needs them; configurations drive the selection stage.
    """

    id: int
    position: np.ndarray | None = None
    ik_solutions: np.ndarray | None = None

    def __post_init__(self):
        if self.position is not None:
            object.__setattr__(self, "position", _vector(self.position))
        if self.ik_solutions is not None:
            object.__setattr__(self, "ik_solutions", _configurations(self.ik_solutions))


@dataclass(frozen=True)
class Task:
    """A sequencing instance: robot, home configuration, and n >= 1 targets."""

    robot: RobotModel
    home: np.ndarray
    targets: tuple[TaskTarget, ...]

    def __post_init__(self):
        object.__setattr__(self, "home", _vector(self.home))
        object.__setattr__(self, "targets", tuple(self.targets))

    @property
    def n(self) -> int:
        return len(self.targets)


def planar_reach_interval(links: np.ndarray) -> tuple[float, float]:
    """Radial interval [inner, outer] reachable by a planar revolute chain."""
    total = float(np.sum(links))
    inner = max(0.0, 2.0 * float(np.max(links)) - total)
    return inner, total


def _in_range(values: np.ndarray, low: float, high: float) -> bool:
    """True when every value lies in [low, high]; a NaN never does."""
    return bool(low <= values.min() and values.max() <= high)


def _check_vector(report: list, vec, name: str, dof: int, positive: bool) -> None:
    if vec is None:
        return
    if vec.ndim != 1:
        report.append(f"{name} must be a flat list of numbers")
        return
    if vec.size != dof:
        report.append(f"{name} length mismatch: expected {dof}, got {vec.size}")
        return
    low = 1.0 / MAGNITUDE_LIMIT if positive else -MAGNITUDE_LIMIT
    if not np.all(np.isfinite(vec)):
        report.append(f"{name} contains non-finite entries")
    elif positive and not np.all(vec > 0.0):
        report.append(f"{name} entries must be strictly positive")
    elif not _in_range(vec, low, MAGNITUDE_LIMIT):
        report.append(f"{name} entries must lie in [{low:g}, {MAGNITUDE_LIMIT:g}]")


def validate_task(task: Task) -> ValidationReport:
    """Collect every invariant violation in ``task``; an empty report means valid.

    Violations are returned as data rather than raised, so a caller can report
    all problems of a malformed task file at once. A ``dof`` or target id that
    :func:`index_tuple` refuses (a bool, 3.0) is reported; a refused ``dof`` ends
    the report. Planar targets whose position lies outside the arm's reachable
    annulus (for every tool orientation) are flagged as unreachable; every target
    needs the position the tour orders, and position-only targets need the 3-link
    arm the IK solves.
    """
    report: list = []
    robot = task.robot
    try:
        if index_tuple((robot.dof,), "robot dof")[0] < 1:
            return [f"robot dof must be >= 1, got {robot.dof}"]
    except ValueError as exc:
        return [str(exc)]

    _check_vector(report, robot.vel_max, "vel_max", robot.dof, positive=True)
    _check_vector(report, robot.acc_max, "acc_max", robot.dof, positive=True)
    _check_vector(report, robot.weights, "weights", robot.dof, positive=True)
    _check_vector(report, robot.planar_links, "planar_links", robot.dof, positive=True)

    _check_vector(report, task.home, "home", robot.dof, positive=False)

    if task.n < 1:
        report.append("task must contain at least one target")
        return report

    ids = [t.id for t in task.targets]
    try:
        if index_tuple(ids, "target id") != tuple(range(task.n)):
            report.append(f"target ids must be 0..{task.n - 1} in list order, got {ids}")
    except ValueError as exc:
        report.append(str(exc))

    for target in task.targets:
        name = f"target {target.id}"
        sols = target.ik_solutions
        if sols is not None:
            if len(sols) == 0:
                report.append(f"{name} has an empty ik_solutions list")
            elif not (isinstance(sols, np.ndarray) and sols.shape[1:] == (robot.dof,)
                      and _in_range(sols, -MAGNITUDE_LIMIT, MAGNITUDE_LIMIT)):
                # Not an in-range (m, dof) array: name every configuration at fault.
                faults = len(report)
                for k, q in enumerate(sols):  # size and range per row; nesting once, below
                    _check_vector(report, q.ravel(), f"{name} ik_solutions[{k}]", robot.dof, positive=False)
                if len(report) == faults:  # rows of dof entries, but not all flat
                    report.append(f"{name} ik_solutions rows must be flat lists of numbers")
        if target.position is None:
            report.append(f"{name} has neither a position nor ik_solutions" if sols is None
                          else f"{name} has ik_solutions but no position, which the tour needs")
        elif target.position.shape != (2,):
            report.append(f"{name} position must be a 2-D point")
        elif not _in_range(target.position, -MAGNITUDE_LIMIT, MAGNITUDE_LIMIT):
            _check_vector(report, target.position, f"{name} position", 2, positive=False)
        elif sols is None:
            if not robot.is_planar:
                report.append(f"{name} has only a position but the robot has no planar links")
            elif robot.planar_links.size != 3:
                report.append(
                    f"{name} has only a position but IK needs a 3-link planar arm, "
                    f"got {robot.planar_links.size} links"
                )
            elif robot.planar_links.size == robot.dof:
                inner, outer = planar_reach_interval(robot.planar_links)
                dist = float(np.hypot(*target.position))
                if dist > outer + 1e-12 or dist < inner - 1e-12:
                    report.append(
                        f"{name} unreachable: distance {dist:.6g} outside "
                        f"workspace annulus [{inner:.6g}, {outer:.6g}]"
                    )
    return report


def generate_random_task(n: int, m_max: int, seed: int, mode: str = "explicit_ik") -> Task:
    """Deterministically generate a random task instance.

    ``explicit_ik`` draws, per target, a position uniform in the unit square
    (the task-space tour needs inter-target distances even when configurations
    are explicit), a solution count uniform in [1, m_max], and that many
    configurations uniform in [-pi, pi]^dof for a 6-joint robot.

    ``planar`` draws positions area-uniformly inside the annulus where the
    built-in arm reaches the target for *every* tool orientation, so any
    orientation grid downstream yields a full solution set. ``m_max`` is
    ignored in this mode (geometry fixes the solution count).

    ``n``, ``m_max`` and ``seed`` (which may be 0) are read by :func:`index_tuple`
    (a bool or 2.5 is refused). The result is a pure function of ``(n, m_max, seed, mode)``.
    """
    for name, value, low in (("n", n, 1), ("m_max", m_max, 1), ("seed", seed, 0)):
        if index_tuple((value,), name)[0] < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    rng = np.random.default_rng(seed)

    if mode == "explicit_ik":
        dof = 6
        robot = RobotModel(dof=dof, vel_max=np.ones(dof), acc_max=np.ones(dof))
        home = np.zeros(dof)
        targets = []
        for i in range(n):
            position = rng.uniform(0.0, 1.0, size=2)
            m = int(rng.integers(1, m_max + 1))
            sols = rng.uniform(-math.pi, math.pi, size=(m, dof))
            targets.append(TaskTarget(id=i, position=position, ik_solutions=sols))
        return Task(robot=robot, home=home, targets=tuple(targets))

    if mode == "planar":
        robot = planar_arm()
        links = robot.planar_links
        home = np.zeros(robot.dof)
        inner, outer = planar_reach_interval(links[:-1])
        tool = float(links[-1])
        # Annulus where the target circle traced by the tool stays inside the
        # wrist workspace for every orientation.
        r_lo, r_hi = inner + tool, outer - tool
        targets = []
        for i in range(n):
            u = rng.uniform(0.0, 1.0)
            radius = math.sqrt(u * (r_hi**2 - r_lo**2) + r_lo**2)
            angle = rng.uniform(0.0, TWO_PI)
            position = np.array([radius * math.cos(angle), radius * math.sin(angle)])
            targets.append(TaskTarget(id=i, position=position))
        return Task(robot=robot, home=home, targets=tuple(targets))

    raise ValueError(f"unknown mode {mode!r} (expected 'explicit_ik' or 'planar')")
