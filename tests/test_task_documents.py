"""Property tests over task documents.

Every document that ``task_from_dict`` accepts must solve through
``solve_sequence`` under each tour solver, or be refused by a size guard
(``GuardError``). The one other refusal depends on the solve settings rather
than on the document: a planar target that the arm reaches at some tool
orientations, but at none of the orientation grid's, has no configuration to
select. Every command-line run, on any document, must end with a documented
exit code and never with a traceback.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from taskseq.cli import main, task_from_dict
from taskseq.kinematics import ik_pool
from taskseq.metrics import MetricKind
from taskseq.model import GuardError
from taskseq.pipeline import PipelineConfig, solve_sequence
from taskseq.tsp import SolverKind

_STEPS = {"pi": math.pi, "pi/2": math.pi / 2, "pi/3": math.pi / 3, "pi/12": math.pi / 12}


def _values(core, edges, wild):
    """Mostly ``core``; now and then a valid edge value, or a value out of range."""
    return st.integers(0, 39).flatmap(
        lambda r: core if r < 32 else st.sampled_from(edges if r < 39 else wild)
    )


_COORDINATES = _values(
    st.floats(-2.0, 2.0), [0.0, -0.0, 1e-300, 2.3, -2.3, 1e50, -1e50], [1e51, -1e154, 1e308]
)
_JOINTS = _values(st.floats(-4.0, 4.0), [0.0, 1e-300, 1e50, -1e50], [-1e51, 1e200, 1e308])
_LIMITS = _values(st.floats(0.01, 10.0), [1.0, 0.5, 1e-50, 1e50], [5e-324, 1e-200, 1e200])
_LINKS = st.one_of(
    st.just([1.0, 0.8, 0.5]),
    st.lists(st.floats(0.1, 3.0), min_size=3, max_size=3),
    st.lists(st.sampled_from([1.0, 1e-50, 1e50]), min_size=3, max_size=3),
)


@st.composite
def task_documents(draw):
    """Task documents over sizes, field mixes, ik-only targets, extreme numbers
    and, now and then, one vector field written as a nested list."""
    planar = draw(st.booleans())
    dof = 3 if planar else draw(st.integers(1, 4))
    robot = {"dof": dof}
    for field in ("vel_max", "acc_max", "weights"):
        if draw(st.booleans()):
            robot[field] = draw(st.lists(_LIMITS, min_size=dof, max_size=dof))
    if planar:
        robot["planar_links"] = draw(_LINKS)
    styles = ["both", "both", "position", "ik"] if planar else ["both", "both", "both", "ik"]
    style = draw(st.sampled_from(styles))
    targets = []
    for i in range(draw(st.sampled_from(range(1, 9)))):
        entry = {"id": i}
        if style != "ik":
            entry["position"] = [draw(_COORDINATES), draw(_COORDINATES)]
        if style != "position":
            rows = draw(st.integers(1, 3))
            entry["ik_solutions"] = [
                [draw(_JOINTS) for _ in range(dof)] for _ in range(rows)
            ]
        targets.append(entry)
    home = [draw(_JOINTS) for _ in range(dof)]
    doc = {"robot": robot, "home": home, "targets": targets}
    if draw(st.integers(0, 7)) == 0:  # now and then one vector field nests its numbers
        fields = [(robot, key) for key in robot if key != "dof"] + [(doc, "home")]
        fields += [(entry, "position") for entry in targets if "position" in entry]
        owner, key = draw(st.sampled_from(fields))
        owner[key] = [[x] for x in owner[key]]
    return doc


def _unreachable_on_grid(task, step):
    """Targets whose planar IK finds no configuration on the orientation grid."""
    return [
        t.id for t in task.targets
        if t.ik_solutions is None and len(ik_pool(task.robot, [t.position], step)[0]) == 0
    ]


@settings(max_examples=300, deadline=None)
@given(
    doc=task_documents(),
    step=st.sampled_from(sorted(_STEPS)),
    metric=st.sampled_from(list(MetricKind)),
    depot=st.booleans(),
)
def test_accepted_documents_solve_under_every_solver(doc, step, metric, depot):
    try:
        task = task_from_dict(doc)
    except ValueError:
        return  # refused with a clean message: nothing to solve
    for solver in SolverKind:
        config = PipelineConfig(tsp_solver=solver, metric=metric, step_size=_STEPS[step],
                                include_home_depot=depot)
        try:
            result = solve_sequence(task, config)
        except GuardError:
            continue
        except ValueError as exc:
            assert "unreachable: no configuration found" in str(exc)
            assert _unreachable_on_grid(task, _STEPS[step])
            return
        assert sorted(result.order.order) == list(range(task.n))
        assert len(result.selection.chosen) == task.n
        assert not math.isnan(result.selection.total_cost)
        assert not math.isnan(result.schedule_duration)
        assert np.isfinite(result.step1_cost)


@settings(max_examples=150, deadline=None)
@given(
    doc=st.one_of(task_documents(), st.builds(dict), st.just([1, 2])),
    step=st.sampled_from(sorted(_STEPS) + ["0", "pi/0", "nan", "1e-320"]),
    metric=st.sampled_from([kind.value for kind in MetricKind]),
    command=st.sampled_from(["solve", "oracle"]),
    what=st.sampled_from(["step2", "tsp", "gtsp"]),
)
def test_every_cli_run_ends_with_a_documented_exit_code(doc, step, metric, command, what):
    with tempfile.TemporaryDirectory() as tmp:
        task, out = Path(tmp) / "task.json", Path(tmp) / "result.json"
        task.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, "--task", str(task), "--step-size", step, "--metric", metric]
        argv += ["--what", what] if command == "oracle" else ["--out", str(out)]
        code = main(argv)
        assert code in ((0, 1, 2) if command == "oracle" else (0, 1))
        if command == "solve" and code == 0:
            result = json.loads(out.read_text(encoding="utf-8"), parse_constant=_refuse)
            assert sorted(result["order"]) == list(range(len(doc["targets"])))


def _refuse(token):
    raise AssertionError(f"result file holds the non-standard JSON token {token}")
