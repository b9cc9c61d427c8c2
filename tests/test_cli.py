import dataclasses
import json
import math
import re
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from taskseq import cli
from taskseq.cli import (
    _config_from_args,
    build_parser,
    main,
    parse_step_size,
    result_to_dict,
    save_json,
    task_from_dict,
    task_to_dict,
)
from taskseq.model import RobotModel, Task, TaskTarget, generate_random_task
from taskseq.metrics import MetricKind
from taskseq.pipeline import BENCHMARK_FIELDS, PipelineConfig, solve_sequence
from taskseq.tsp import SolverKind

CSV_HEADER = ",".join(BENCHMARK_FIELDS)
TIMING_COLUMNS = {"step1_ms", "ik_ms", "step2_ms", "step3_ms"}


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _strip_timings(doc):
    doc = dict(doc)
    doc.pop("timings_ms")
    return doc


def _csv_without_timings(path):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    return [",".join(line.split(",")[i] for i in keep) for line in lines]


def test_parse_step_size():
    assert parse_step_size("pi") == math.pi
    assert parse_step_size("pi/4") == math.pi / 4
    assert parse_step_size("0.5") == 0.5


@dataclasses.dataclass(frozen=True)
class _OtherDefaults(PipelineConfig):
    tsp_solver: SolverKind = SolverKind.RNN
    metric: MetricKind = MetricKind.WEIGHTED_EUCLIDEAN
    step_size: float = math.pi / 2
    rnn_restarts: int = 3
    include_home_depot: bool = False


@pytest.mark.parametrize("command", [["solve", "--out", "r.json"], ["oracle", "--what", "step2"]])
def test_config_flags_left_out_take_the_pipeline_config_defaults(monkeypatch, command):
    argv = [*command, "--task", "t.json"]
    assert _config_from_args(build_parser().parse_args(argv)) == PipelineConfig()
    monkeypatch.setattr(cli, "PipelineConfig", _OtherDefaults)
    other = _OtherDefaults()
    assert all(getattr(other, f) != getattr(PipelineConfig(), f) for f in other.__dataclass_fields__)
    assert _config_from_args(build_parser().parse_args(argv)) == other


def test_step_size_dividing_by_zero_exits_1(tmp_path, capsys):
    with pytest.raises(ValueError, match="divides by zero"):
        parse_step_size("pi/0")
    task = tmp_path / "t.json"
    assert main(["generate", "--n", "3", "--seed", "1", "--out", str(task)]) == 0
    code = main(["solve", "--task", str(task), "--step-size", "pi/0",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "error: step size 'pi/0' divides by zero" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["1e-320", "nan"])
def test_non_finite_step_size_exits_1(tmp_path, capsys, step):
    # 2*pi/1e-320 overflows to inf; nan is neither positive nor finite.
    task = tmp_path / "t.json"
    assert main(["generate", "--n", "3", "--seed", "1", "--out", str(task)]) == 0
    code = main(["solve", "--task", str(task), "--step-size", step,
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "error: step_size" in capsys.readouterr().err


def _task_to_dict_per_value(task):
    """The task file writer that converted one value at a time, the reference for task_to_dict."""
    robot = {
        "dof": task.robot.dof,
        "vel_max": [float(v) for v in task.robot.vel_max],
        "acc_max": [float(v) for v in task.robot.acc_max],
    }
    if task.robot.weights is not None:
        robot["weights"] = [float(v) for v in task.robot.weights]
    if task.robot.planar_links is not None:
        robot["planar_links"] = [float(v) for v in task.robot.planar_links]
    targets = []
    for target in task.targets:
        entry = {"id": target.id}
        if target.position is not None:
            entry["position"] = [float(v) for v in target.position]
        if target.ik_solutions is not None:
            entry["ik_solutions"] = [[float(v) for v in q] for q in target.ik_solutions]
        targets.append(entry)
    return {"robot": robot, "home": [float(v) for v in task.home], "targets": targets}


def test_task_to_dict_writes_the_per_value_bytes():
    tasks = [
        generate_random_task(1 + seed % 9, 1 + seed % 5, seed, mode)
        for mode in ("explicit_ik", "planar")
        for seed in range(20)
    ]
    weighted = RobotModel(dof=2, vel_max=[0.1, 3.0], acc_max=[1.0, 2.5], weights=[1 / 3, 2.0])
    tasks.append(Task(robot=weighted, home=[-0.0, np.pi], targets=[
        TaskTarget(id=0, position=[0.1, -2e-300], ik_solutions=[[1.0, 2.0], [np.e, -0.0]]),
    ]))
    for task in tasks:
        assert json.dumps(task_to_dict(task)) == json.dumps(_task_to_dict_per_value(task))


@pytest.mark.parametrize("mode", ["explicit_ik", "planar"])
def test_task_file_round_trip_keeps_every_configuration_byte(mode):
    for seed in range(10):
        task = generate_random_task(1 + seed, 1 + 3 * seed, seed, mode)
        parsed = task_from_dict(json.loads(json.dumps(task_to_dict(task))))
        assert parsed.home.tobytes() == task.home.tobytes()
        for before, after in zip(task.targets, parsed.targets, strict=True):
            assert after.position.tobytes() == before.position.tobytes()
            if before.ik_solutions is None:
                assert after.ik_solutions is None
            else:
                stack = np.asarray(before.ik_solutions)
                assert np.asarray(after.ik_solutions).shape == stack.shape
                assert np.asarray(after.ik_solutions).tobytes() == stack.tobytes()


def test_generate_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--n", "5", "--m-max", "3", "--seed", "42",
                 "--mode", "explicit_ik", "--out", str(a)]) == 0
    assert main(["generate", "--n", "5", "--m-max", "3", "--seed", "42",
                 "--mode", "explicit_ik", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_zero_targets(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--n", "0", "--out", str(tmp_path / "x.json")])
    assert excinfo.value.code == 2


def test_generate_planar_targets_are_reachable(tmp_path):
    out = tmp_path / "p.json"
    assert main(["generate", "--n", "25", "--mode", "planar", "--seed", "3",
                 "--out", str(out)]) == 0
    task = task_from_dict(_read_json(out))  # raises if any target is unreachable
    assert task.n == 25


def test_solve_result_is_stable_modulo_timings(tmp_path):
    task = tmp_path / "t.json"
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["generate", "--n", "1", "--m-max", "1", "--seed", "0", "--out", str(task)]) == 0
    assert main(["solve", "--task", str(task), "--out", str(r1)]) == 0
    assert main(["solve", "--task", str(task), "--out", str(r2)]) == 0
    assert _strip_timings(_read_json(r1)) == _strip_timings(_read_json(r2))

    doc = _read_json(r1)
    assert doc["order"] == [0]
    assert doc["chosen"] == [0]
    assert doc["counts"] == {
        "n": 1, "total_ik": 1, "edges": 2, "vertices": 3, "step_cost_bytes": 0,
        "price_calls": 2, "poses_tried": 1, "poses_dropped": 0,
        "two_opt_moves": 0, "or_opt_moves": 0, "check_rounds": 0,
    }
    assert doc["schedule_model"]
    assert doc["step1_cost"] >= 0.0 and doc["step2_cost"] >= 0.0


@pytest.mark.parametrize("step_size,restarts", [(math.pi / 2, 3), (np.float64(math.pi / 2), np.int64(3))],
                         ids=["python", "numpy"])
def test_result_file_echoes_every_config_field_as_json_native_values(step_size, restarts):
    config = PipelineConfig(tsp_solver=SolverKind.RNN, metric=MetricKind.WEIGHTED_EUCLIDEAN,
                            step_size=step_size, rnn_restarts=restarts, include_home_depot=False)
    assert all(getattr(config, f) != getattr(PipelineConfig(), f) for f in config.__dataclass_fields__)
    task = generate_random_task(3, 2, seed=4, mode="explicit_ik")
    echo = json.loads(json.dumps(result_to_dict(solve_sequence(task, config), config)))["config"]
    assert PipelineConfig(**echo) == config
    assert echo == {"tsp_solver": "rnn", "metric": "weighted_euclidean", "step_size": math.pi / 2,
                    "rnn_restarts": 3, "include_home_depot": False}
    assert [type(value) for value in echo.values()] == [str, str, float, int, bool]


def test_solve_exact_guard_exits_1(tmp_path, capsys):
    task = tmp_path / "t.json"
    assert main(["generate", "--n", "25", "--mode", "planar", "--seed", "1",
                 "--out", str(task)]) == 0
    code = main(["solve", "--task", str(task), "--solver", "exact",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "guard" in capsys.readouterr().err


def test_solve_linear_interp_consistency(tmp_path):
    task = tmp_path / "t.json"
    out = tmp_path / "r.json"
    assert main(["generate", "--n", "6", "--mode", "planar", "--seed", "5",
                 "--out", str(task)]) == 0
    assert main(["solve", "--task", str(task), "--metric", "linear_interp",
                 "--out", str(out)]) == 0
    doc = _read_json(out)
    assert abs(doc["step2_cost"] - doc["schedule_duration_s"]) <= 1e-9


def test_oracle_step2_and_tsp_match(tmp_path, capsys):
    task = tmp_path / "t.json"
    assert main(["generate", "--n", "6", "--m-max", "3", "--seed", "11",
                 "--out", str(task)]) == 0
    assert main(["oracle", "--task", str(task), "--what", "step2"]) == 0
    assert "MATCH" in capsys.readouterr().out
    assert main(["oracle", "--task", str(task), "--what", "tsp"]) == 0
    assert "MATCH" in capsys.readouterr().out


def test_oracle_step2_compares_the_bits_of_every_edge(tmp_path, capsys, monkeypatch):
    task = tmp_path / "t.json"
    assert main(["generate", "--n", "6", "--m-max", "3", "--seed", "11", "--out", str(task)]) == 0
    oracle = cli.brute_force_selection

    def nudged(*args):  # the same choice and total, one edge a unit in the last place off
        found = oracle(*args)
        edges = (np.nextafter(found.per_edge_costs[0], np.inf), *found.per_edge_costs[1:])
        return dataclasses.replace(found, per_edge_costs=edges)

    monkeypatch.setattr(cli, "brute_force_selection", nudged)
    capsys.readouterr()
    assert main(["oracle", "--task", str(task), "--what", "step2"]) == 1
    assert capsys.readouterr().out.startswith("MISMATCH step2")


def test_no_depot_reaches_solve_and_oracle(tmp_path, capsys):
    task, out = tmp_path / "t.json", tmp_path / "r.json"
    assert main(["generate", "--n", "6", "--m-max", "3", "--seed", "11", "--out", str(task)]) == 0
    assert main(["solve", "--task", str(task), "--no-depot", "--out", str(out)]) == 0
    assert _read_json(out)["config"]["include_home_depot"] is False
    capsys.readouterr()
    assert main(["oracle", "--task", str(task), "--what", "tsp", "--no-depot"]) == 0
    assert capsys.readouterr().out.startswith("MATCH tsp: ")


def test_oracle_gtsp_matches_on_tiny_instance(tmp_path, capsys):
    task = tmp_path / "t.json"
    assert main(["generate", "--n", "4", "--m-max", "2", "--seed", "2",
                 "--out", str(task)]) == 0
    assert main(["oracle", "--task", str(task), "--what", "gtsp"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]  # after the path that generate printed
    assert line.startswith("MATCH gtsp: ")
    fields = dict(token.split("=") for token in line.split()[2:])
    gap = float(fields["gap"])  # the decoupling gap: decoupled over joint step-2 cost
    assert gap == pytest.approx(float(fields["solver"]) / float(fields["oracle"]), rel=1e-5)
    assert gap >= 1.0


def test_oracle_gtsp_refuses_a_joint_optimum_above_the_decoupled_cost(tmp_path, capsys, monkeypatch):
    # The joint DP adds the same entries from Start as path_cost, so its optimum never
    # exceeds the decoupled cost, bit for bit: 5e-13 above it is a MISMATCH.
    task = tmp_path / "t.json"
    assert main(["generate", "--n", "4", "--m-max", "2", "--seed", "2", "--out", str(task)]) == 0

    def above(task, config):
        found = solve_sequence(task, config)
        selection = dataclasses.replace(found.selection, total_cost=found.selection.total_cost + 5e-13)
        return dataclasses.replace(found, selection=selection)

    monkeypatch.setattr(cli, "baseline_gtsp_exact", above)
    capsys.readouterr()
    assert main(["oracle", "--task", str(task), "--what", "gtsp"]) == 1
    assert capsys.readouterr().out.startswith("MISMATCH gtsp")


def _write_explicit_task(path, sizes):
    rng = np.random.default_rng(0)
    robot = RobotModel(dof=2, vel_max=np.ones(2), acc_max=np.ones(2))
    targets = tuple(
        TaskTarget(id=i, position=rng.uniform(0.0, 1.0, 2),
                   ik_solutions=rng.uniform(-math.pi, math.pi, (m, 2)))
        for i, m in enumerate(sizes)
    )
    task = Task(robot=robot, home=np.zeros(2), targets=targets)
    path.write_text(json.dumps(task_to_dict(task)), encoding="utf-8")


def test_oracle_gtsp_guard_exits_2(tmp_path, capsys):
    # 14 targets: 2^14 * 55^2 moves are inside the joint-search bound, 2^14 * 56^2 are not.
    under, over = tmp_path / "under.json", tmp_path / "over.json"
    _write_explicit_task(under, [4] * 13 + [3])
    _write_explicit_task(over, [4] * 14)
    assert main(["oracle", "--task", str(under), "--what", "gtsp"]) == 0
    assert "MATCH" in capsys.readouterr().out
    assert main(["oracle", "--task", str(over), "--what", "gtsp"]) == 2
    assert "guard" in capsys.readouterr().err


def test_oracle_without_a_task_file_reaches_no_verdict(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["oracle", "--task", str(missing), "--what", "step2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_task_file_nested_too_deeply_exits_cleanly(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000, encoding="utf-8")
    assert main(["solve", "--task", str(deep), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["oracle", "--task", str(deep), "--what", "step2"]) == 2
    assert "nests too deeply" in capsys.readouterr().err


def test_configurations_without_positions_are_refused(tmp_path, capsys):
    ik_only = tmp_path / "ik_only.json"
    ik_only.write_text(json.dumps({
        "robot": {"dof": 2}, "home": [0.0, 0.0],
        "targets": [{"id": 0, "ik_solutions": [[0.1, 0.2]]},
                    {"id": 1, "ik_solutions": [[0.3, 0.4]]}],
    }), encoding="utf-8")
    message = ("error: invalid task:\n"
               "  target 0 has ik_solutions but no position, which the tour needs\n"
               "  target 1 has ik_solutions but no position, which the tour needs\n")
    assert main(["solve", "--task", str(ik_only), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == message
    assert main(["oracle", "--task", str(ik_only), "--what", "gtsp"]) == 2
    assert capsys.readouterr().err == message


def test_position_only_targets_need_the_planar_arm(tmp_path, capsys):
    task = tmp_path / "t.json"
    task.write_text(json.dumps({"robot": {"dof": 2}, "home": [0.0, 0.0],
                                "targets": [{"id": 0, "position": [0.5, 0.5]}]}), encoding="utf-8")
    message = "error: invalid task:\n  target 0 has only a position but the robot has no planar links\n"
    assert main(["solve", "--task", str(task), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == message
    assert main(["oracle", "--task", str(task), "--what", "step2"]) == 2
    assert capsys.readouterr().err == message


def test_targets_listed_out_of_id_order_are_refused(tmp_path, capsys):
    task = tmp_path / "t.json"
    assert main(["generate", "--n", "4", "--m-max", "3", "--seed", "1", "--out", str(task)]) == 0
    doc = _read_json(task)
    doc["targets"].reverse()
    task.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    message = "error: invalid task:\n  target ids must be 0..3 in list order, got [3, 2, 1, 0]\n"
    assert main(["solve", "--task", str(task), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == message
    assert main(["oracle", "--task", str(task), "--what", "step2"]) == 2
    assert capsys.readouterr().err == message


def test_benchmark_row_count_and_header(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["benchmark", "--axis", "metric", "--sizes", "5,7", "--repeats", "2",
                 "--seed", "1", "--csv", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 2 * 2  # 3 metrics x 2 sizes x 2 repeats
    assert "\r" not in out.read_text(encoding="utf-8")


def test_benchmark_has_no_m_max_flag(tmp_path):
    # Its instances are planar, and planar generation fixes the configuration count.
    with pytest.raises(SystemExit) as refused:
        main(["benchmark", "--axis", "metric", "--sizes", "5", "--m-max", "3",
              "--csv", str(tmp_path / "b.csv")])
    assert refused.value.code == 2


def test_benchmark_without_a_size_exits_1(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert main(["benchmark", "--axis", "metric", "--sizes", ",", "--csv", str(out)]) == 1
    assert capsys.readouterr().err == "error: a benchmark needs one size and one repeat or more, got (), 1\n"
    assert not out.exists()


def test_save_json_onto_a_directory_leaves_no_temp_file(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        save_json(str(tmp_path / "taken"), {"a": 1})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_benchmark_is_deterministic_modulo_timings(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["benchmark", "--axis", "tsp_solver", "--sizes", "6", "--repeats", "2",
            "--seed", "9"]
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    assert _csv_without_timings(a) == _csv_without_timings(b)


def test_benchmark_step_size_counts_non_decreasing(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["benchmark", "--axis", "step_size", "--sizes", "5", "--seed", "4",
                 "--csv", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    header = CSV_HEADER.split(",")
    variant_col, ik_col = header.index("variant"), header.index("total_ik")
    counts = {row.split(",")[variant_col]: int(row.split(",")[ik_col]) for row in rows}
    ordered = [counts[v] for v in ("pi", "pi/2", "pi/3", "pi/4", "pi/6", "pi/12")]
    assert all(a <= b for a, b in zip(ordered, ordered[1:]))


def test_task_file_round_trip(tmp_path):
    task = tmp_path / "t.json"
    assert main(["generate", "--n", "4", "--m-max", "2", "--seed", "8",
                 "--out", str(task)]) == 0
    doc = _read_json(task)
    parsed = task_from_dict(doc)
    assert parsed.n == 4
    assert parsed.robot.dof == len(doc["home"])


def test_task_file_rejects_mixed_target_styles():
    doc = {
        "robot": {"dof": 2, "vel_max": [1, 1], "acc_max": [1, 1]},
        "home": [0.0, 0.0],
        "targets": [
            {"id": 0, "ik_solutions": [[0.0, 0.0]]},
            {"id": 1, "position": [0.5, 0.5]},
        ],
    }
    with pytest.raises(ValueError, match="mixed"):
        task_from_dict(doc)


def test_task_file_defaults_limits_to_one():
    doc = {
        "robot": {"dof": 2},
        "home": [0.0, 0.0],
        "targets": [{"id": 0, "position": [0.5, 0.5], "ik_solutions": [[0.1, 0.2]]}],
    }
    task = task_from_dict(doc)
    assert list(task.robot.vel_max) == [1.0, 1.0]
    assert list(task.robot.acc_max) == [1.0, 1.0]


def test_invalid_task_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "robot": {"dof": 2, "vel_max": [1, 1], "acc_max": [1, 1]},
        "home": [0.0],
        "targets": [{"id": 0, "ik_solutions": [[0.1, 0.2]]}],
    }), encoding="utf-8")
    assert main(["solve", "--task", str(bad), "--out", str(tmp_path / "r.json")]) == 1
    assert "home length mismatch" in capsys.readouterr().err


def test_target_with_neither_field_is_named_by_the_validation_report(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"robot": {"dof": 2}, "home": [0.0, 0.0], "targets": [{"id": 0}]}),
                   encoding="utf-8")
    assert main(["solve", "--task", str(bad), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == (
        "error: invalid task:\n  target 0 has neither a position nor ik_solutions\n"
    )


def test_overflowing_distances_exit_1_without_a_result(tmp_path, capsys):
    # The targets are 1e307 apart, but the depot (their centroid) and the
    # squares inside the Euclidean norm overflow.
    bad = tmp_path / "far.json"
    bad.write_text(json.dumps({
        "robot": {"dof": 2}, "home": [0.0, 0.0],
        "targets": [{"id": 0, "position": [1.5e308, 0.0], "ik_solutions": [[0.1, 0.2]]},
                    {"id": 1, "position": [1.6e308, 0.0], "ik_solutions": [[0.3, 0.4]]}],
    }), encoding="utf-8")
    out = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", "--task", str(bad), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _task_doc(robot=None, target=None, **fields):
    doc = {"robot": {"dof": 3, **(robot or {})}, "home": [0.0, 0.0, 0.0],
           "targets": [{"id": 0, "position": [0.5, 0.5], "ik_solutions": [[0.1, 0.2, 0.3]],
                        **(target or {})}]}
    return {**doc, **fields}


def test_well_typed_task_doc_solves(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_task_doc()), encoding="utf-8")
    assert main(["solve", "--task", str(good), "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize(
    "doc",
    [
        _task_doc(robot={"dof": [3]}),
        _task_doc(target={"id": None}),
        _task_doc(target={"ik_solutions": 5}),
        _task_doc(home={"q": 0.0}),
        _task_doc(robot={"vel_max": {"q": 1.0}}),
        _task_doc(robot={"dof": 10**12}),  # must fail before any dof-sized allocation
        _task_doc(robot={"dof": "3"}),
        _task_doc(target={"id": "0"}),
        _task_doc(robot={"dof": 3.7}),
        _task_doc(robot={"dof": 3.0}),
        _task_doc(robot={"dof": True}),
        _task_doc(target={"id": False}),
    ],
    ids=["dof-list", "id-null", "ik-solutions-int", "home-object",
         "vel-max-object", "dof-huge", "dof-string", "id-string", "dof-fractional",
         "dof-float", "dof-bool", "id-bool"],
)
def test_task_file_with_wrong_field_type_exits_1(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["solve", "--task", str(bad), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


_WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_the_workflow_parses_and_its_embedded_python_compiles():
    text = _WORKFLOW.read_text(encoding="utf-8")
    bodies = re.findall(r"<<'PY'\n(.*?)\n[ \t]*PY[ \t]*$", text, flags=re.S | re.M)
    assert bodies and len(bodies) == text.count("<<'PY'")
    for body in bodies:
        compile(textwrap.dedent(body), f"{_WORKFLOW.name} heredoc", "exec")
    try:
        import yaml
    except ImportError:  # PyYAML is not a test dependency; the heredocs are checked anyway
        return
    assert yaml.safe_load(text)["jobs"]["tests"]["steps"]
