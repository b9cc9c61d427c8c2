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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .kinematics import IkSolutionSet
from .metrics import MetricKind, MetricParams, pairwise_cost
from .model import Configuration, GuardError, index_tuple, ordered_sum

#: Enumeration guard for the brute-force oracle (product of layer sizes).
BRUTE_FORCE_GUARD = 10**6


@dataclass(frozen=True)
class LayeredGraph:
    """Start/Goal vertices plus one configuration layer per target.

    A ``LayeredGraph`` comes from :func:`build_layered_graph`: ``step_costs``
    is the :class:`StepBlocks` of its layers, priced when read. The counts
    below come from the layer sizes alone and price nothing.
    """

    start_costs: np.ndarray   # (m_1,) Start -> layer 0
    step_costs: StepBlocks    # (m_i, m_{i+1}) between layers
    goal_costs: np.ndarray    # (m_n,) last layer -> Goal
    price_calls: int          # pairwise_cost calls that price it

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return self.step_costs.sizes

    @property
    def vertex_count(self) -> int:
        """Sum of layer sizes plus the two special vertices."""
        return sum(self.layer_sizes) + 2

    @property
    def edge_count(self) -> int:
        """m_1 + sum_i m_i * m_{i+1} + m_n."""
        sizes = self.layer_sizes
        return sizes[0] + _step_entries(sizes) + sizes[-1]

    @property
    def step_cost_bytes(self) -> int:
        """Bytes of all float64 (m_i, m_{i+1}) step blocks together, not bytes held
        at once: iteration holds one run of blocks at a time, the sweep one band."""
        return np.dtype(float).itemsize * _step_entries(self.layer_sizes)


@dataclass(frozen=True)
class SelectionResult:
    """Chosen configuration index per target (in order) and the path cost breakdown."""

    chosen: tuple[int, ...]
    total_cost: float
    per_edge_costs: tuple[float, ...]


def _price_runs(sizes) -> list[tuple[int, int]]:
    """``(first, stop)`` per pricing call: step blocks first..stop-1, in order.

    Consecutive blocks between layers of one size m form a run while the run
    holds at most ``metrics.TILE_ENTRIES`` entries, read once per call; every
    other block is a run of its own, however wide.
    """
    runs, tile = [], metrics.TILE_ENTRIES
    for i, m in enumerate(sizes[:-1]):
        first = runs[-1][0] if runs else i
        if runs and sizes[first] == m == sizes[i + 1] and (i + 1 - first) * m * m <= tile:
            runs[-1] = (first, i + 1)
        else:
            runs.append((i, i + 1))
    return runs


def _step_entries(sizes) -> int:
    """sum_i m_i * m_{i+1}: the entries of all step blocks."""
    return sum(a * b for a, b in zip(sizes, sizes[1:]))


class StepBlocks:
    """The step blocks of a graph's layers, priced by :func:`pairwise_cost` when read.

    Each run of :func:`_price_runs` is one call on its :meth:`stacks`.
    Iteration prices the runs in order, each as the reader reaches it; none
    is kept, so every read prices anew. A run of small blocks between layers
    of equal size goes in as stacked (k, m, dof) layers, at most one tile and
    so one band, and its (k, m, m) result is read as k views; a block wider
    than a tile is a run of its own, which ``pairwise_cost`` prices in row bands.
    """

    def __init__(self, layers, kind: MetricKind, params: MetricParams):
        self.layers, self.kind, self.params = layers, kind, params
        self.sizes = tuple(len(layer) for layer in layers)
        self.runs = _price_runs(self.sizes)

    def stacks(self, first: int, stop: int):
        """The ``a, b`` stacks that :func:`pairwise_cost` prices blocks first..stop-1 from."""
        if stop - first == 1:
            return self.layers[first], self.layers[stop]
        run = np.stack(self.layers[first:stop + 1])
        return run[:-1], run[1:]

    def __len__(self) -> int:
        return len(self.sizes) - 1

    def __iter__(self):
        for run in self.runs:
            blocks = pairwise_cost(self.kind, self.params, *self.stacks(*run))
            yield from blocks.reshape(-1, *blocks.shape[-2:])


def build_layered_graph(
    home: Configuration,
    ordered_ik: list[IkSolutionSet],
    kind: MetricKind,
    params: MetricParams,
) -> LayeredGraph:
    """Assemble the graph for targets already in visiting order.

    ``ordered_ik`` is a sequence of :class:`IkSolutionSet`; every set must be
    non-empty, and its (m, dof) array is the layer. Only the Start and Goal
    edges are priced here, one :func:`pairwise_cost` call each, under the
    selected metric; the step blocks are a :class:`StepBlocks` over the
    layers, priced in tiles of about ``metrics.TILE_ENTRIES`` entries when read.
    ``price_calls`` counts the two calls made here and the one per run that
    one read of the blocks makes.
    """
    if len(ordered_ik) == 0:
        raise ValueError("ordered_ik must contain at least one target")
    for entry in ordered_ik:
        if entry.count == 0:
            raise ValueError(f"target {entry.target_id} has an empty solution set")
    layers = [entry.solutions for entry in ordered_ik]
    step_costs = StepBlocks(layers, kind, params)
    return LayeredGraph(
        start_costs=pairwise_cost(kind, params, home, layers[0])[0],
        step_costs=step_costs,
        goal_costs=pairwise_cost(kind, params, layers[-1], home)[:, 0],
        price_calls=len(step_costs.runs) + 2,
    )


def _path_sum(graph: LayeredGraph, chosen, steps) -> tuple[float, tuple[float, ...]]:
    """The Start edge of ``chosen``, its ``steps`` and its Goal edge, added by ``ordered_sum``."""
    edges = (float(graph.start_costs[chosen[0]]), *map(float, steps), float(graph.goal_costs[chosen[-1]]))
    return ordered_sum(edges), edges


def path_cost(graph: LayeredGraph, chosen) -> tuple[float, tuple[float, ...]]:
    """Cost of one Start->Goal path of a graph from :func:`build_layered_graph`:
    its edges from the Start side, added by ``ordered_sum``.

    It prices only the chosen step moves, in one :func:`metrics._price` call, the
    per-entry chain of :func:`pairwise_cost`. ``ValueError`` refuses a choice
    that is not an integer (a float, 2.0 too, or a string), the wrong number of
    choices and a choice outside its layer.
    """
    chosen, sizes = index_tuple(chosen, "choice"), graph.layer_sizes
    if len(chosen) != len(sizes):
        raise ValueError(f"expected {len(sizes)} choices, got {len(chosen)}")
    for layer, (c, m) in enumerate(zip(chosen, sizes)):
        if not 0 <= c < m:
            raise ValueError(f"choice {c} of layer {layer} is outside [0, {m})")
    blocks = graph.step_costs
    path = np.array([layer[c] for layer, c in zip(blocks.layers, chosen)])
    return _path_sum(graph, chosen, metrics._price(blocks.kind, blocks.params, path[:-1], path[1:]))


def shortest_selection(graph: LayeredGraph) -> SelectionResult:
    """Optimal configuration choice per target for the fixed order of ``graph``,
    a graph from :func:`build_layered_graph`.

    The graph is layered and acyclic, so one backward sweep over the step
    blocks computes every vertex's cost-to-Goal and records, per layer, each
    vertex's lowest-index successor on a minimal path. It folds a band of
    rows at a time: one :func:`pairwise_cost` call per :class:`StepBlocks`
    run prices them into a reused tile, handed to its ``fold`` keyword, which
    adds the cost-to-Goal row into the tile in place, so it holds one band,
    never a block; a row's minimum lies in its band, so the tile moves no
    bit. A forward walk from the lowest-index best first vertex follows the
    successors, so the selection is the lexicographically smallest of all
    optima. The sweep prices each block once; :func:`path_cost` then prices
    the chosen path.
    """
    # Per layer, each vertex's (lowest-index successor, cost to Goal).
    tails: list = [None] * len(graph.step_costs) + [(None, graph.goal_costs)]

    def fold(first: int, top: int, tile) -> None:
        """Rows top.. of blocks first, first + 1, ... of ``tile``, last block first, in place."""
        run = tile.reshape(-1, *tile.shape[-2:])
        starts = np.arange(0, run[0].size, run.shape[2])  # each row's first entry, flat
        for i in reversed(range(first, first + len(run))):
            best = np.add(run[i - first], tails[i + 1][1], out=run[i - first]).argmin(axis=1)
            new = best, run[i - first].take(best + starts)
            tails[i] = tuple(map(np.concatenate, zip(tails[i], new))) if top else new

    blocks = graph.step_costs
    for first, stop in reversed(blocks.runs):
        pairwise_cost(blocks.kind, blocks.params, *blocks.stacks(first, stop),
                      fold=functools.partial(fold, first))

    chosen = [int(np.argmin(graph.start_costs + tails[0][1]))]
    for successor, _ in tails[:-1]:
        chosen.append(int(successor[chosen[-1]]))
    return SelectionResult(tuple(chosen), *path_cost(graph, chosen))


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
    exceed ``BRUTE_FORCE_GUARD``; within it, the blocks are read once, into a
    tuple, and each combination's edges are added as :func:`path_cost` adds them.
    """
    graph = build_layered_graph(home, ordered_ik, kind, params)
    sizes = graph.layer_sizes
    combinations = math.prod(sizes)
    if combinations > BRUTE_FORCE_GUARD:
        raise GuardError(f"selection oracle guard: {combinations} combinations exceed {BRUTE_FORCE_GUARD}")
    blocks = tuple(graph.step_costs)
    best_total = np.inf
    best: SelectionResult | None = None
    for chosen in itertools.product(*(range(m) for m in sizes)):
        total, edges = _path_sum(graph, chosen, (b[i, j] for b, i, j in zip(blocks, chosen, chosen[1:])))
        if total < best_total:
            best_total = total
            best = SelectionResult(chosen=chosen, total_cost=total, per_edge_costs=edges)
    assert best is not None
    return best
