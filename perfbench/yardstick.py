"""Fixed slices of work that measure how fast the machine runs right now.

On a shared machine the speed of one core drifts by tens of percent within
seconds. The benchmark times a yardstick next to every solve and divides the
solve time by it, so the drift cancels out of its time metrics. Each kind of
yardstick imitates one mix of the pipeline's work, and each workload uses the
kinds that match its slow layer:

- ``vector``: an interpreted nearest-neighbour loop over small numpy rows,
  then (m, m, dof) difference blocks reduced by a max (tour and pricing).
- ``tour``: repeated nearest-neighbour tours that mask visited nodes through
  a growing index list (the 2-opt seed).
- ``scalar``: planar two-link inverse kinematics in scalar ``math`` calls,
  with a max-norm duplicate scan over 3-vectors (IK pooling).

The yardsticks use numpy and ``math`` only, never taskseq, so no change to
the program can change them.
"""

from __future__ import annotations

import math
import time

import numpy as np

_rng = np.random.default_rng(20171001)
_POINTS = _rng.uniform(0.0, 1.0, size=(120, 2))
_STACKS = [_rng.uniform(-np.pi, np.pi, size=(40, 6)) for _ in range(12)]


def _vector() -> float:
    total = 0.0
    for _ in range(8):
        dm = np.linalg.norm(_POINTS[:, None, :] - _POINTS[None, :, :], axis=-1)
        visited = np.zeros(len(dm), dtype=bool)
        current = 0
        visited[0] = True
        for _ in range(len(dm) - 1):
            row = np.where(visited, np.inf, dm[current])
            nxt = int(np.argmin(row))
            total += float(dm[current, nxt])
            visited[nxt] = True
            current = nxt
        for a, b in zip(_STACKS[:-1], _STACKS[1:]):
            total += float(np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=-1).min())
    return total


def _tour() -> float:
    dm = np.linalg.norm(_POINTS[:, None, :] - _POINTS[None, :, :], axis=-1)
    total = 0.0
    for start in range(16):
        order = [start]
        remaining = dm[start].copy()
        remaining[start] = np.inf
        current = start
        for _ in range(len(dm) - 1):
            nxt = int(np.argmin(remaining))
            total += float(dm[current, nxt])
            order.append(nxt)
            remaining = dm[nxt].copy()
            remaining[order] = np.inf
            current = nxt
    return total


def _scalar() -> float:
    kept: list = []
    total = 0.0
    for k in range(600):
        theta = k * 0.01
        wx, wy = 1.2 - 0.5 * math.cos(theta), 0.3 - 0.5 * math.sin(theta)
        c2 = (wx * wx + wy * wy - 1.64) / 1.6
        elbow = math.acos(min(1.0, max(-1.0, c2)))
        q1 = math.atan2(wy, wx) - math.atan2(0.8 * math.sin(elbow), 1.0 + 0.8 * math.cos(elbow))
        q = np.array([q1, elbow, theta - q1 - elbow])
        if not any(np.max(np.abs(q - p)) <= 1e-9 for p in kept[-8:]):
            kept.append(q)
        total += float(q[0])
    return total


KINDS = {"vector": _vector, "tour": _tour, "scalar": _scalar}
_EXPECTED = {name: work() for name, work in KINDS.items()}


def measure(kinds) -> float:
    """Seconds the named kinds of fixed work take now, run back to back."""
    started = time.perf_counter()
    values = {name: KINDS[name]() for name in kinds}
    elapsed = time.perf_counter() - started
    if any(values[name] != _EXPECTED[name] for name in kinds):
        raise RuntimeError("yardstick work changed its result")
    return elapsed
