"""The benchmark's workloads: one instance shape per slow layer of the pipeline.

Each workload fixes the task generator's arguments and the pipeline settings;
the per-task generator seeds are derived from the run's ``--seed``. The
``why`` strings are the same one-line reasons that ``BENCHMARK.json`` gives.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str          # generate_random_task mode: "planar" or "explicit_ik"
    n: int             # targets per task
    m_max: int         # explicit_ik: configurations per target uniform in 1..m_max
    step_size: str     # orientation grid step, as the CLI spells it
    metric: str        # configuration-space metric of step 2
    tasks: int         # distinct tasks per run, a multiple of the 3 set-up batches
    yardstick: tuple   # yardstick kinds that imitate the slow layer's work
    why: str

    def params(self) -> dict:
        """Instance parameters for the run header (solver and depot are the defaults)."""
        doc = asdict(self)
        doc.update(tsp_solver="two_opt", include_home_depot=True)
        return doc

    def task_seeds(self, seed: int) -> list[int]:
        """One generator seed per task, a pure function of the workload seed."""
        children = np.random.SeedSequence(seed).spawn(self.tasks)
        return [int(child.generate_state(1)[0]) for child in children]

    def resized(self, n: int | None, tasks: int | None) -> "Workload":
        """The same shape at another size (the smoke test runs tiny instances)."""
        return replace(self, n=n or self.n, tasks=tasks or self.tasks)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ik-dense",
            mode="planar", n=150, m_max=1, step_size="pi/12",
            metric="max_joint_difference", tasks=9,
            yardstick=("scalar", "vector"),
            why="planar n=150, step pi/12 (48 poses per target): IK pooling and its "
                "O(m^2) duplicate scan take most of the solve",
        ),
        Workload(
            name="tour-large",
            mode="planar", n=400, m_max=1, step_size="pi/4",
            metric="max_joint_difference", tasks=6,
            yardstick=("tour", "vector"),
            why="planar n=400, step pi/4 (16 poses per target): the all-starts "
                "nearest-neighbour seed of 2-opt dominates; 400 tiny selection blocks",
        ),
        Workload(
            name="select-wide",
            mode="explicit_ik", n=60, m_max=400, step_size="pi/4",
            metric="linear_interp_duration", tasks=42,
            yardstick=("vector",),
            why="explicit IK, 6-dof, n=60, 1..400 configurations per target, "
                "linear_interp_duration: step-2 edge pricing dominates time and memory",
        ),
    )
}
