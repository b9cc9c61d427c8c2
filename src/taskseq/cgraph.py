"""Layered configuration graph: optimal per-target configuration selection.

Given targets in a fixed visiting order, each with a set of candidate joint
configurations, the graph has one layer per target plus Start and Goal
vertices bound to the home configuration. Consecutive layers are completely
connected; edge costs come from a configuration-space metric (obstacles are
ignored at this stage). Any Start-to-Goal path picks exactly one
configuration per target, so the shortest path is the provably optimal
selection for the given order. A product-enumeration oracle cross-checks the
search on small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .kinematics import IkSolutionSet
from .metrics import MetricKind, MetricParams, pairwise_cost
from .model import Configuration, GuardError

#: Enumeration guard for the brute-force oracle (product of layer sizes).
BRUTE_FORCE_GUARD = 10**6


@dataclass(frozen=True)
class LayeredGraph:
    """Start/Goal vertices plus one configuration layer per target, fully priced."""

    start_costs: np.ndarray                 # (m_1,) Start -> layer 0
    step_costs: tuple[np.ndarray, ...]      # (m_i, m_{i+1}) between layers
    goal_costs: np.ndarray                  # (m_n,) last layer -> Goal

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.start_costs.size, *(block.shape[1] for block in self.step_costs))

    @property
    def vertex_count(self) -> int:
        """Sum of layer sizes plus the two special vertices."""
        return sum(self.layer_sizes) + 2

    @property
    def edge_count(self) -> int:
        """m_1 + sum_i m_i * m_{i+1} + m_n."""
        sizes = self.layer_sizes
        between = sum(sizes[i] * sizes[i + 1] for i in range(len(sizes) - 1))
        return sizes[0] + between + sizes[-1]


@dataclass(frozen=True)
class SelectionResult:
    """Chosen configuration index per target (in order) and the path cost breakdown."""

    chosen: tuple[int, ...]
    total_cost: float
    per_edge_costs: tuple[float, ...]


def build_layered_graph(
    home: Configuration,
    ordered_ik: list[IkSolutionSet],
    kind: MetricKind,
    params: MetricParams,
) -> LayeredGraph:
    """Assemble the graph for targets already in visiting order.

    ``ordered_ik`` is a sequence of :class:`IkSolutionSet`; every set must be
    non-empty, and its (m, dof) array is the layer. All edge costs are
    evaluated here, once, under the selected metric.
    """
    if len(ordered_ik) == 0:
        raise ValueError("ordered_ik must contain at least one target")
    for entry in ordered_ik:
        if entry.count == 0:
            raise ValueError(f"target {entry.target_id} has an empty solution set")
    layers = [entry.solutions for entry in ordered_ik]
    return LayeredGraph(
        start_costs=pairwise_cost(kind, params, home, layers[0])[0],
        step_costs=tuple(pairwise_cost(kind, params, a, b) for a, b in zip(layers, layers[1:])),
        goal_costs=pairwise_cost(kind, params, layers[-1], home)[:, 0],
    )


def path_cost(graph: LayeredGraph, chosen) -> tuple[float, tuple[float, ...]]:
    """Cost of one Start->Goal path, accumulated edge by edge from the Start side."""
    chosen = tuple(int(c) for c in chosen)
    if len(chosen) != len(graph.layer_sizes):
        raise ValueError(f"expected {len(graph.layer_sizes)} choices, got {len(chosen)}")
    edges = [float(graph.start_costs[chosen[0]])]
    for i in range(len(chosen) - 1):
        edges.append(float(graph.step_costs[i][chosen[i], chosen[i + 1]]))
    edges.append(float(graph.goal_costs[chosen[-1]]))
    total = 0.0
    for value in edges:
        total += value
    return total, tuple(edges)


def shortest_selection(graph: LayeredGraph) -> SelectionResult:
    """Optimal configuration choice per target for the graph's fixed order.

    The graph is layered and acyclic, so a single backward sweep computes the
    cost-to-Goal of every vertex; a forward walk then picks, layer by layer,
    the lowest-indexed vertex on a minimal path, which makes the reported
    selection the lexicographically smallest among all optima. The returned
    costs are re-accumulated from the Start side so they are arithmetically
    identical to :func:`path_cost` on the same choice.
    """
    n = len(graph.layer_sizes)
    suffix = [None] * n
    suffix[n - 1] = graph.goal_costs
    for i in range(n - 2, -1, -1):
        suffix[i] = np.min(graph.step_costs[i] + suffix[i + 1][None, :], axis=1)

    chosen = [int(np.argmin(graph.start_costs + suffix[0]))]
    for i in range(n - 1):
        scores = graph.step_costs[i][chosen[-1]] + suffix[i + 1]
        chosen.append(int(np.argmin(scores)))

    total, edges = path_cost(graph, chosen)
    return SelectionResult(chosen=tuple(chosen), total_cost=total, per_edge_costs=edges)


def brute_force_selection(
    home: Configuration,
    ordered_ik: list[IkSolutionSet],
    kind: MetricKind,
    params: MetricParams,
) -> SelectionResult:
    """Exhaustive minimum over every combination of per-target configurations.

    Enumerates the full product of layer choices in lexicographic order,
    keeping the first strict minimum, so ties resolve exactly as in
    :func:`shortest_selection`. Guarded: the product of layer sizes must not
    exceed ``BRUTE_FORCE_GUARD``.
    """
    graph = build_layered_graph(home, ordered_ik, kind, params)
    sizes = graph.layer_sizes
    combinations = math.prod(sizes)
    if combinations > BRUTE_FORCE_GUARD:
        raise GuardError(
            f"selection oracle guard: {combinations} combinations exceed "
            f"{BRUTE_FORCE_GUARD}"
        )
    best_total = np.inf
    best: SelectionResult | None = None
    for chosen in itertools.product(*(range(m) for m in sizes)):
        total, edges = path_cost(graph, chosen)
        if total < best_total:
            best_total = total
            best = SelectionResult(chosen=chosen, total_cost=total, per_edge_costs=edges)
    assert best is not None
    return best
