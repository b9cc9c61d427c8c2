"""In-memory spans around the calls ``solve_sequence`` makes into each module.

The tracer swaps a module's public function for a wrapper that records a span
(name, start, end, parent, task id) and hands the call through unchanged. The
swap is made on the module namespace the caller looks the name up in, so
calls made inside the library (``solve_2opt`` seeding itself with
``solve_rnn``, ``build_layered_graph`` pricing blocks with ``pairwise_cost``)
are traced as children of their caller. Nothing under ``src/`` changes;
:meth:`Tracer.patched` restores every original function on exit.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from taskseq import cgraph, pipeline, tsp

#: (module, attribute, span name) for every traced call, in the order
#: solve_sequence makes them. Span names are "<layer>.<function>".
TRACED_CALLS = (
    (pipeline, "resolve_ik_sets", "kinematics.resolve_ik_sets"),
    (tsp, "build_task_distance_matrix", "tsp.build_task_distance_matrix"),
    (tsp, "solve_2opt", "tsp.solve_2opt"),
    (tsp, "solve_rnn", "tsp.solve_rnn"),
    (tsp, "open_order_from_cycle", "tsp.open_order_from_cycle"),
    (tsp, "tour_cost", "tsp.tour_cost"),
    (cgraph, "build_layered_graph", "cgraph.build_layered_graph"),
    (cgraph, "pairwise_cost", "metrics.pairwise_cost"),
    (cgraph, "shortest_selection", "cgraph.shortest_selection"),
    (pipeline, "execute_trajectory_schedule", "pipeline.execute_trajectory_schedule"),
)

ROOT = "pipeline.solve_sequence"


class Tracer:
    """Span store plus the arguments and results of the current task's calls."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, task id]
        self._stack: list[int] = []
        self.task_id = -1
        self.calls: dict[str, list] = defaultdict(list)  # name -> [(args, result)]

    def begin_task(self, task_id: int) -> None:
        self.task_id = task_id
        self.calls = defaultdict(list)

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` and remember its arguments and result."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self.task_id]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        self.calls[name].append((args, result))
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def patched(self):
        """Trace every call in TRACED_CALLS while the block runs."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in TRACED_CALLS]
        try:
            for (module, attr, name), (_, _, fn) in zip(TRACED_CALLS, originals):
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def per_solve(self) -> list[dict]:
        """Per solve: its seconds ("root"), the seconds of its spans summed by
        name, the spans directly under it summed ("layer_sum"), and the
        solve_rnn seconds nested in solve_2opt ("solve_2opt.nested_rnn")."""
        roots: dict[int, dict] = {}
        owner: dict[int, int] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if name == ROOT:
                roots[index] = defaultdict(float, root=end - start)
                owner[index] = index
                continue
            if parent < 0 or parent not in owner:
                continue
            root = owner[parent]
            owner[index] = root
            totals = roots[root]
            totals[name] += end - start
            if parent == root:
                totals["layer_sum"] += end - start
            if name == "tsp.solve_rnn" and self.spans[parent][0] == "tsp.solve_2opt":
                totals["solve_2opt.nested_rnn"] += end - start
        return list(roots.values())

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "task": task}
            for name, start, end, parent, task in self.spans
        ]
