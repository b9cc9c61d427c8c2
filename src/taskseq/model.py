"""Domain types for multi-target sequencing tasks, validation, and instance generation.

A task bundles a robot description, a home configuration, and a list of
targets. Each target is reachable either through an explicit list of joint
configurations or through a planar position that is resolved to configurations
downstream. All types are immutable value data; every operation here is pure.
"""

from __future__ import annotations

import math
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
    planar position to be solved later, or both (positions drive the
    task-space tour, configurations the selection stage).
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


def _check_vector(report: list, vec, name: str, dof: int, positive: bool) -> None:
    if vec is None:
        return
    if vec.size != dof:
        report.append(f"{name} length mismatch: expected {dof}, got {vec.size}")
        return
    if not np.all(np.isfinite(vec)):
        report.append(f"{name} contains non-finite entries")
    elif positive and not np.all(vec > 0.0):
        report.append(f"{name} entries must be strictly positive")


def validate_task(task: Task) -> ValidationReport:
    """Collect every invariant violation in ``task``; an empty report means valid.

    Violations are returned as data rather than raised, so a caller can report
    all problems of a malformed task file at once. Planar targets whose
    position lies outside the arm's reachable annulus (for every tool
    orientation) are flagged as unreachable, and position-only targets need
    the 3-link planar arm that the analytic IK solves.
    """
    report: list = []
    robot = task.robot

    if robot.dof < 1:
        report.append(f"robot dof must be >= 1, got {robot.dof}")
        return report

    _check_vector(report, robot.vel_max, "vel_max", robot.dof, positive=True)
    _check_vector(report, robot.acc_max, "acc_max", robot.dof, positive=True)
    _check_vector(report, robot.weights, "weights", robot.dof, positive=True)
    _check_vector(report, robot.planar_links, "planar_links", robot.dof, positive=True)

    _check_vector(report, task.home, "home", robot.dof, positive=False)

    if task.n < 1:
        report.append("task must contain at least one target")
        return report

    ids = [t.id for t in task.targets]
    if sorted(ids) != list(range(task.n)):
        report.append(f"target ids must be 0..{task.n - 1} and unique, got {ids}")

    for target in task.targets:
        name = f"target {target.id}"
        sols = target.ik_solutions
        if sols is not None:
            if len(sols) == 0:
                report.append(f"{name} has an empty ik_solutions list")
            elif not (isinstance(sols, np.ndarray) and sols.shape[1:] == (robot.dof,)
                      and np.all(np.isfinite(sols))):
                # Not a finite (m, dof) array: name every configuration at fault.
                faults = len(report)
                for k, q in enumerate(sols):
                    if q.size != robot.dof:
                        report.append(
                            f"{name} ik_solutions[{k}] length mismatch: "
                            f"expected {robot.dof}, got {q.size}"
                        )
                    elif not np.all(np.isfinite(q)):
                        report.append(f"{name} ik_solutions[{k}] contains non-finite entries")
                if len(report) == faults:  # rows of dof entries, but not all flat
                    report.append(f"{name} ik_solutions rows must be flat lists of numbers")
        elif target.position is None:
            report.append(f"{name} has neither a position nor ik_solutions")

        if target.position is not None:
            if target.position.size != 2:
                report.append(f"{name} position must be a 2-D point")
                continue
            if not np.all(np.isfinite(target.position)):
                report.append(f"{name} position contains non-finite entries")
                continue
            if target.ik_solutions is None:
                if not robot.is_planar:
                    report.append(
                        f"{name} has only a position but the robot has no planar links"
                    )
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

    The result is a pure function of ``(n, m_max, seed, mode)``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
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
        if r_lo >= r_hi:
            raise ValueError("planar arm has a degenerate guaranteed-reach annulus")
        targets = []
        for i in range(n):
            u = rng.uniform(0.0, 1.0)
            radius = math.sqrt(u * (r_hi**2 - r_lo**2) + r_lo**2)
            angle = rng.uniform(0.0, TWO_PI)
            position = np.array([radius * math.cos(angle), radius * math.sin(angle)])
            targets.append(TaskTarget(id=i, position=position))
        return Task(robot=robot, home=home, targets=tuple(targets))

    raise ValueError(f"unknown mode {mode!r} (expected 'explicit_ik' or 'planar')")
