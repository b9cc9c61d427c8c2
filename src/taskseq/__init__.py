"""Solver kit for sequencing multi-target robot tasks.

Order task-space targets with a TSP solver, pick one joint configuration per
target optimally for that order via a layered-graph shortest path, and
time-parameterize the result. Brute-force oracles and reference methods are
included for verification and benchmarking.
"""

from types import ModuleType as _ModuleType

from .cgraph import (
    LayeredGraph,
    SelectionResult,
    brute_force_selection,
    build_layered_graph,
    path_cost,
    shortest_selection,
)
from .kinematics import (
    IkSolutionSet,
    Pose2D,
    forward_kinematics,
    ik_3r,
    ik_targets,
    jacobian,
    manipulability,
    wrap_angle,
)
from .metrics import (
    MetricKind,
    MetricParams,
    default_weights,
    edge_cost,
    linear_interp_duration,
    max_joint_difference,
    pairwise_cost,
    trapezoid_duration_1d,
    weighted_euclidean,
)
from .model import (
    Configuration,
    GuardError,
    RobotModel,
    Task,
    TaskTarget,
    generate_random_task,
    planar_arm,
    validate_task,
)
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    baseline_cspace_tsp,
    baseline_gtsp_exact,
    benchmark_run,
    execute_trajectory_schedule,
    resolve_ik_sets,
    solve_sequence,
)
from .tsp import (
    SolverKind,
    TourKind,
    TourOrder,
    brute_force_cycle,
    build_task_distance_matrix,
    open_order_from_cycle,
    solve_2opt,
    solve_exact,
    solve_rnn,
    tour_cost,
)

__version__ = "0.1.0"

# The public names are the import block's, less the submodules it binds.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
