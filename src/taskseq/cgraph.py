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
    """Start/Goal vertices plus one configuration layer per target, from
    :func:`build_layered_graph`: the layers, the metric that prices moves
    between them, and the Start and Goal edges, the only ones priced at build.
    The counts below come from the layer sizes alone and price nothing."""

    layers: list              # (m_i, dof) configurations per target, in visiting order
    kind: MetricKind
    params: MetricParams
    start_costs: np.ndarray   # (m_1,) Start -> layer 0
    goal_costs: np.ndarray    # (m_n,) last layer -> Goal

    @functools.cached_property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)

    @functools.cached_property
    def runs(self) -> list[tuple[int, int]]:
        """``(first, stop)`` of the step blocks each pricing call takes, by :func:`_price_runs`."""
        return _price_runs(self.layer_sizes)

    @property
    def price_calls(self) -> int:
        """pairwise_cost calls that price the graph: Start, Goal and one per run."""
        return len(self.runs) + 2

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
        at once: a read of ``step_costs`` holds one run of blocks, the sweep one band."""
        return np.dtype(float).itemsize * _step_entries(self.layer_sizes)

    @property
    def step_costs(self):
        """The (m_i, m_{i+1}) step blocks in order, priced anew on each read: one
        :func:`pairwise_cost` call per run, on its :meth:`stacks`, as the reader
        reaches it. A run of k small blocks is one (k, m, m) result read as k views.
        """
        for run in self.runs:
            blocks = pairwise_cost(self.kind, self.params, *self.stacks(*run))
            yield from blocks.reshape(-1, *blocks.shape[-2:])

    def stacks(self, first: int, stop: int):
        """The ``a, b`` stacks that :func:`pairwise_cost` prices blocks first..stop-1 from."""
        if stop - first == 1:
            return self.layers[first], self.layers[stop]
        run = np.stack(self.layers[first:stop + 1])
        return run[:-1], run[1:]


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
    selected metric; the step blocks are priced in tiles of about
    ``metrics.TILE_ENTRIES`` entries when read. ``price_calls`` counts the two
    calls made here and the one per run that one read of the blocks makes.
    """
    if len(ordered_ik) == 0:
        raise ValueError("ordered_ik must contain at least one target")
    for entry in ordered_ik:
        if entry.count == 0:
            raise ValueError(f"target {entry.target_id} has an empty solution set")
    layers = [entry.solutions for entry in ordered_ik]
    return LayeredGraph(layers, kind, params,
                        start_costs=pairwise_cost(kind, params, home, layers[0])[0],
                        goal_costs=pairwise_cost(kind, params, layers[-1], home)[:, 0])


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
    path = np.array([layer[c] for layer, c in zip(graph.layers, chosen)])
    return _path_sum(graph, chosen, metrics._price(graph.kind, graph.params, path[:-1], path[1:]))


def shortest_selection(graph: LayeredGraph) -> SelectionResult:
    """Optimal configuration choice per target for the fixed order of ``graph``,
    a graph from :func:`build_layered_graph`.

    The graph is layered and acyclic, so one backward sweep over the step
    blocks computes every vertex's cost-to-Goal and records, per layer, each
    vertex's lowest-index successor on a minimal path. It folds a band of
    rows at a time: one :func:`pairwise_cost` call per run of ``graph.runs``
    prices them into a reused tile, handed to its ``fold`` keyword, which
    adds the cost-to-Goal row into the tile in place, so it holds one band,
    never a block; a row's minimum lies in its band, so the tile moves no
    bit. A forward walk from the lowest-index best first vertex follows the
    successors, so where every path sum is exact the selection is the
    lexicographically smallest of all optima; under rounding, these sums from
    the Goal side can differ from :func:`path_cost`'s in the last bit. The
    sweep prices each block once; :func:`path_cost` then prices the chosen path.
    """
    # Per layer, each vertex's (lowest-index successor, cost to Goal).
    tails: list = [None] * (len(graph.layers) - 1) + [(None, graph.goal_costs)]

    def fold(first: int, top: int, tile) -> None:
        """Rows top.. of blocks first, first + 1, ... of ``tile``, last block first, in place."""
        run = tile.reshape(-1, *tile.shape[-2:])
        starts = np.arange(0, run[0].size, run.shape[2])  # each row's first entry, flat
        for i in reversed(range(first, first + len(run))):
            best = np.add(run[i - first], tails[i + 1][1], out=run[i - first]).argmin(axis=1)
            new = best, run[i - first].take(best + starts)
            tails[i] = tuple(map(np.concatenate, zip(tails[i], new))) if top else new

    for first, stop in reversed(graph.runs):
        pairwise_cost(graph.kind, graph.params, *graph.stacks(first, stop),
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
    keeping the first strict minimum, so where every path sum is exact, ties
    resolve as in :func:`shortest_selection`. Guarded: the product of layer
    sizes must not exceed ``BRUTE_FORCE_GUARD``; within it, the blocks are read
    once, into a tuple, and each combination's edges are added as
    :func:`path_cost` adds them.
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
