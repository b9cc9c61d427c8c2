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
from .metrics import TILE_ENTRIES, MetricKind, MetricParams, pairwise_cost
from .model import Configuration, GuardError, ordered_sum

#: Enumeration guard for the brute-force oracle (product of layer sizes).
BRUTE_FORCE_GUARD = 10**6


@dataclass(frozen=True)
class LayeredGraph:
    """Start/Goal vertices plus one configuration layer per target, fully priced."""

    start_costs: np.ndarray                 # (m_1,) Start -> layer 0
    step_costs: tuple[np.ndarray, ...]      # (m_i, m_{i+1}) between layers
    goal_costs: np.ndarray                  # (m_n,) last layer -> Goal
    price_calls: int                        # pairwise_cost calls that priced it

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

    @property
    def step_cost_bytes(self) -> int:
        """Bytes held by the (m_i, m_{i+1}) blocks between consecutive layers."""
        return sum(block.nbytes for block in self.step_costs)


@dataclass(frozen=True)
class SelectionResult:
    """Chosen configuration index per target (in order) and the path cost breakdown."""

    chosen: tuple[int, ...]
    total_cost: float
    per_edge_costs: tuple[float, ...]


def _price_runs(sizes) -> list[tuple[int, int]]:
    """``(first, stop)`` per pricing call: step blocks first..stop-1, in order.

    Consecutive blocks between layers of one size m form a run while the run
    holds at most ``TILE_ENTRIES`` entries; every other block is a run of its
    own, however wide.
    """
    runs: list[tuple[int, int]] = []
    for i in range(len(sizes) - 1):
        m = sizes[i]
        first = runs[-1][0] if runs else i
        if runs and sizes[first] == m == sizes[i + 1] and (i + 1 - first) * m * m <= TILE_ENTRIES:
            runs[-1] = (first, i + 1)
        else:
            runs.append((i, i + 1))
    return runs


def build_layered_graph(
    home: Configuration,
    ordered_ik: list[IkSolutionSet],
    kind: MetricKind,
    params: MetricParams,
) -> LayeredGraph:
    """Assemble the graph for targets already in visiting order.

    ``ordered_ik`` is a sequence of :class:`IkSolutionSet`; every set must be
    non-empty, and its (m, dof) array is the layer. Every edge cost is
    evaluated here, under the selected metric, in tiles of about
    ``TILE_ENTRIES`` entries: one :func:`pairwise_cost` call prices the Start
    edges, one the Goal edges, and one each run of step blocks. A run of
    small blocks between layers of equal size goes in as stacked (k, m, dof)
    layers, and its (k, m, m) result is held as k views; a block wider than a
    tile is a run of its own, which ``pairwise_cost`` prices in row bands.
    """
    if len(ordered_ik) == 0:
        raise ValueError("ordered_ik must contain at least one target")
    for entry in ordered_ik:
        if entry.count == 0:
            raise ValueError(f"target {entry.target_id} has an empty solution set")
    layers = [entry.solutions for entry in ordered_ik]
    start_costs = pairwise_cost(kind, params, home, layers[0])[0]
    step_costs = []
    runs = _price_runs([len(layer) for layer in layers])
    for first, stop in runs:
        if stop - first == 1:
            step_costs.append(pairwise_cost(kind, params, layers[first], layers[stop]))
        else:
            run = np.stack(layers[first:stop + 1])
            step_costs.extend(pairwise_cost(kind, params, run[:-1], run[1:]))
    return LayeredGraph(
        start_costs=start_costs,
        step_costs=tuple(step_costs),
        goal_costs=pairwise_cost(kind, params, layers[-1], home)[:, 0],
        price_calls=len(runs) + 2,
    )


def path_cost(graph: LayeredGraph, chosen) -> tuple[float, tuple[float, ...]]:
    """Cost of one Start->Goal path: its edges from the Start side, by ``ordered_sum``."""
    chosen, sizes = tuple(map(int, chosen)), graph.layer_sizes
    if len(chosen) != len(sizes):
        raise ValueError(f"expected {len(sizes)} choices, got {len(chosen)}")
    for layer, (c, m) in enumerate(zip(chosen, sizes)):
        if not 0 <= c < m:
            raise ValueError(f"choice {c} of layer {layer} is outside [0, {m})")
    edges = [float(graph.start_costs[chosen[0]])]
    for i in range(len(chosen) - 1):
        edges.append(float(graph.step_costs[i][chosen[i], chosen[i + 1]]))
    edges.append(float(graph.goal_costs[chosen[-1]]))
    return ordered_sum(edges), tuple(edges)


def shortest_selection(graph: LayeredGraph) -> SelectionResult:
    """Optimal configuration choice per target for the graph's fixed order.

    The graph is layered and acyclic, so one backward sweep computes every
    vertex's cost-to-Goal and records its lowest-index successor on a minimal
    path; a forward walk from the lowest-index best first vertex follows them,
    so the selection is the lexicographically smallest of all optima. The
    returned costs are re-accumulated from the Start side, arithmetically
    identical to :func:`path_cost` on the same choice.
    """
    successors, suffix = [], graph.goal_costs
    for block in reversed(graph.step_costs):
        scores = block + suffix
        successors.append(scores.argmin(axis=1))
        suffix = scores[np.arange(len(scores)), successors[-1]]
        del scores  # only one (m_i, m_{i+1}) temporary is live at a time

    chosen = [int(np.argmin(graph.start_costs + suffix))]
    for successor in reversed(successors):
        chosen.append(int(successor[chosen[-1]]))

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
