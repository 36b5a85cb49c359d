"""Command-line interface: artifact generation, exit codes, and output
directory resolution."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest
import yaml

from comoto.benchmark import load_config
from comoto.cli import main
from comoto.human_motion import OBSERVATION_WINDOW
from comoto.kinematics import JointTrajectory, fk_eef, load_trajectory, save_trajectory
from comoto.optimizer import straightline_joint_init
from comoto.scenarios import DT, N_WAYPOINTS, load_scenario

TINY_OVERRIDES = {
    "benchmark": {"families": ["stationary"], "seeds": [1]},
    "optimizer": {"max_iters": 120},
}


@pytest.fixture()
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(TINY_OVERRIDES))
    return path


@pytest.fixture()
def scenario_path(tmp_path):
    out = tmp_path / "scenarios"
    assert main(["gen", "--family", "stationary", "--seeds", "1", "--out", str(out)]) == 0
    return out / "stationary_1.yaml"


def test_gen_writes_scenarios(tmp_path, capsys):
    out = tmp_path / "scen"
    code = main(["gen", "--family", "reaching_far", "--seeds", "1", "2", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 2
    for seed in (1, 2):
        assert (out / f"reaching_far_{seed}.yaml").exists()
    sc = load_scenario(out / "reaching_far_1.yaml")
    assert sc.family == "reaching_far"


def test_gen_default_seeds_come_from_the_config(tmp_path, capsys):
    out = tmp_path / "scen"
    assert main(["gen", "--family", "stationary", "--out", str(out)]) == 0
    capsys.readouterr()
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(f"stationary_{s}.yaml" for s in load_config().seeds)


def test_out_dir_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COMOTO_OUT_DIR", str(tmp_path / "from_env"))
    assert main(["gen", "--family", "stationary", "--seeds", "3"]) == 0
    capsys.readouterr()
    assert (tmp_path / "from_env" / "stationary_3.yaml").exists()


def test_run_tiny_benchmark(tmp_path, tiny_config_path, capsys):
    out = tmp_path / "bench"
    code = main(["run", "--config", str(tiny_config_path), "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "5 rows (0 failed)" in captured.out
    # With no flag, the run's size line comes first, on stderr.
    assert captured.err == "running 1 families x 1 seeds x 5 methods\n"
    # Every run writes the four artifacts.
    assert sorted(p.name for p in out.iterdir()) == ["aggregate.json", "results.csv", "runs.csv", "table.md"]


def test_run_family_and_seed_flags(tmp_path, tiny_config_path, capsys):
    out = tmp_path / "bench"
    code = main(
        [
            "run", "--config", str(tiny_config_path), "--family", "stationary",
            "--seeds", "2", "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 6  # header plus one row per method
    assert all(",2," in ln for ln in lines[1:])


def test_eval_trajectory(tmp_path, scenario_path, capsys):
    sc = load_scenario(scenario_path)
    traj = straightline_joint_init(sc.robot_start, sc.robot_goal, N_WAYPOINTS, DT, OBSERVATION_WINDOW)
    traj_path = tmp_path / "traj.csv"
    save_trajectory(traj, traj_path)
    code = main(["eval", "--scenario", str(scenario_path), "--trajectory", str(traj_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["dst_pct", "vis_pct", "legibility", "nom_dev", "completed"]
    assert report["completed"] is True
    assert 0.0 <= report["dst_pct"] <= 100.0


@pytest.mark.parametrize(
    "retime",
    [
        lambda traj: JointTrajectory(traj.waypoints, traj.dt, 0.0),
        lambda traj: JointTrajectory(traj.waypoints, 0.2, traj.t0),
        lambda traj: JointTrajectory(traj.waypoints, traj.dt * (1 + 1e-8), traj.t0),
        lambda traj: JointTrajectory(traj.waypoints[:-1], traj.dt, traj.t0),
    ],
    ids=["t0-zero", "dt-0.2", "dt-off-by-1e-8", "one-waypoint-short"],
)
def test_eval_rejects_a_trajectory_off_the_scenarios_clock(
    tmp_path, tiny_config_path, scenario_path, capsys, retime
):
    # The metrics pair each waypoint with the nominal's: a file on another clock
    # used to score (dst_pct 90 instead of 100 with t0 = 0 on reaching_far seed 3).
    argv = ["--scenario", str(scenario_path), "--config", str(tiny_config_path)]
    assert main(["solve", *argv, "--out", str(tmp_path)]) == 0
    solved = json.loads(capsys.readouterr().out)["trajectory"]
    assert main(["eval", *argv, "--trajectory", solved]) == 0
    capsys.readouterr()
    path = tmp_path / "retimed.csv"
    save_trajectory(retime(load_trajectory(solved)), path)  # a new timing line and time column
    assert main(["eval", *argv, "--trajectory", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "but the scenario plans 20 at dt=" in err


def test_eval_requires_exactly_one_input(scenario_path, capsys):
    # --trajectory is required
    assert main(["eval", "--scenario", str(scenario_path)]) == 1
    assert "--trajectory" in capsys.readouterr().err


def test_solve_writes_trajectory(tmp_path, tiny_config_path, scenario_path, capsys):
    out = tmp_path / "solve"
    code = main(
        ["solve", "--scenario", str(scenario_path), "--config", str(tiny_config_path),
         "--out", str(out)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["scenario"] == "stationary/1"
    assert summary["final_cost"] <= summary["initial_cost"]
    traj = load_trajectory(summary["trajectory"])
    sc = load_scenario(scenario_path)
    assert np.array_equal(traj.waypoints[0], sc.robot_start)
    assert np.array_equal(traj.waypoints[-1], sc.robot_goal)


def test_solve_verbose_prints_one_json_object_per_iteration(
    tmp_path, tiny_config_path, scenario_path, capsys
):
    out = tmp_path / "solve"
    code = main(
        ["solve", "--scenario", str(scenario_path), "--config", str(tiny_config_path),
         "--out", str(out), "--verbose"]
    )
    assert code == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    entries = [json.loads(line) for line in captured.err.splitlines()]
    assert len(entries) == summary["iterations"] > 0
    assert [e["iteration"] for e in entries] == list(range(1, len(entries) + 1))
    # the CoMOTO weighting sets the five human-aware terms and no obstacle weight
    keys = ["iteration", "total", "step", "distance", "visibility", "legibility", "nominal", "smoothness"]
    assert all(list(e) == keys for e in entries)
    assert entries[-1]["total"] == summary["final_cost"]
    # A grad_tol stop computes one gradient per accepted iterate plus the initial one.
    assert summary["stop_reason"] == "grad_tol"
    assert summary["grad_evals"] == summary["iterations"] + 1


def test_missing_files_exit_one(tmp_path, capsys):
    assert main(["eval", "--scenario", str(tmp_path / "nope.yaml"), "--trajectory", "x.csv"]) == 1
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 1
    capsys.readouterr()


def test_bad_config_value_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("weights:\n  legible: {alpha: -1}\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert "legible_alpha" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_all_zero_distvis_weights_exit_one(tmp_path, capsys):
    # These used to load, and then every Dist+Vis row failed.
    bad = tmp_path / "bad.yaml"
    bad.write_text("weights:\n  distvis: {alpha_dist: 0, alpha_vis: 0, tau_n: 0}\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: weights.distvis needs a positive")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["run", "--family", "stationary", "--seeds", "-1"], None),
        (["gen", "--family", "stationary", "--seeds", "-2"], None),
        (["run"], "benchmark: {seeds: [-3]}\n"),
    ],
    ids=["run-seeds-flag", "gen-seeds-flag", "config-seeds"],
)
def test_negative_seed_exits_one(tmp_path, capsys, argv, config):
    # np.random.default_rng would raise a bare ValueError on these seeds.
    if config is not None:
        path = tmp_path / "seeds.yaml"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert "non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "run"])
def test_repeated_seeds_exit_one(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--family", "stationary", "--seeds", "1", "1", "--out", str(out)]) == 1
    assert "seeds must be non-empty and distinct" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config, expected",
    [
        (["run"], "optimizer: {max_iter: 5}\n", "unknown config key 'optimizer.max_iter'"),
        (["solve"], "optimizer: {max_iters: 0}\n", "max_iters must be an integer and positive, got 0"),
    ],
    ids=["run-unknown-key", "solve-bad-value"],
)
def test_config_file_errors_name_the_file(tmp_path, scenario_path, capsys, argv, config, expected):
    path = tmp_path / "c.yaml"
    path.write_text(config)
    if argv == ["solve"]:
        argv = [*argv, "--scenario", str(scenario_path)]
    capsys.readouterr()
    assert main([*argv, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {path}: {expected}\n"
    assert not (tmp_path / "out").exists()


def test_invalid_yaml_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("optimizer: {max_iters: [1\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad} is not valid YAML")
    assert not (tmp_path / "out").exists()


def _edited(change):
    return lambda text: yaml.safe_dump(change(yaml.safe_load(text)))


@pytest.mark.parametrize(
    "command, corrupt, expected",
    [
        ("eval", _edited(lambda data: {k: v for k, v in data.items() if k != "script"}), "'script'"),
        ("solve", _edited(lambda data: {**data, "robot_goal": [0.0, 0.0]}), "robot_goal"),  # a 7-joint arm
        ("eval", _edited(lambda data: "just a string"), "mapping"),
        ("solve", _edited(lambda data: {"family": "stationary"}), "'script'"),
        ("eval", lambda text: text + "obstacles: [{center: [1\n", "bad.yaml is not valid YAML"),
        ("eval", _edited(lambda data: {**data, "human_object": [0.5, float("nan"), 0.1]}), "human_object"),
        (
            "solve",
            _edited(lambda data: {**data, "script": {**data["script"], "total_duration": 2.5}}),
            "outlasts the human script",
        ),
        (
            "solve",
            _edited(lambda data: {**data, "script": {**data["script"], "seed": -1}}),
            "seed must be an integer and non-negative",
        ),
        (
            "solve",
            _edited(lambda data: {**data, "script": {**data["script"], "move_duration": -1.0}}),
            "move_duration must be finite and non-negative",
        ),
        ("solve", _edited(lambda data: {**data, "observaton": 1.5}), "unknown scenario key 'observaton'"),
        (
            "eval",
            _edited(lambda data: {**data, "script": {**data["script"], "noise_scal": 0.5}}),
            "unknown scenario key 'script.noise_scal'",
        ),
        ("solve", _edited(lambda data: {**data, "chain": "default_config"}), "unknown chain key 'benchmark'"),
        (
            "eval",
            _edited(lambda data: {**data, "script": {**data["script"], "move_duration": "abc"}}),
            "script.move_duration must be finite and non-negative",
        ),
        ("eval", _edited(lambda data: {**data, "obstacles": 5}), "scenario obstacles must be a list, got int"),
        ("solve", _edited(lambda data: {**data, "observation": 1.0}), "unknown scenario key 'observation'"),
    ],
    ids=[
        "no-script", "short-goal", "string", "family-only", "invalid-yaml",
        "nan-human-object", "script-outlasted", "negative-script-seed", "negative-move-duration",
        "misspelled-observation", "misspelled-script-key", "chain-not-a-chain-file", "non-numeric-move-duration",
        "obstacles-not-a-list", "clock-key",
    ],
)
def test_malformed_scenario_exits_one(tmp_path, scenario_path, capsys, command, corrupt, expected):
    bad = tmp_path / "bad.yaml"
    bad.write_text(corrupt(scenario_path.read_text()))
    traj_path = tmp_path / "t.csv"
    save_trajectory(straightline_joint_init(np.zeros(7), np.zeros(7), 3, 0.1), traj_path)
    extra = ["--trajectory", str(traj_path)] if command == "eval" else ["--out", str(tmp_path)]
    assert main([command, "--scenario", str(bad), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and "runtime error" not in err
    assert expected in err


def test_solve_rejects_a_two_coordinate_palm(tmp_path, capsys):
    # A reaching arm moves, so a short point would reach the reach synthesis.
    assert main(["gen", "--family", "reaching_far", "--seeds", "1", "--out", str(tmp_path)]) == 0
    path = tmp_path / "reaching_far_1.yaml"
    data = yaml.safe_load(path.read_text())
    data["script"]["arm_start"]["right_palm"] = [0.5, 0.0]
    path.write_text(yaml.safe_dump(data))
    assert main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: script.arm_start.right_palm must have shape (3,), got (2,)")


@pytest.mark.parametrize("command", ["solve", "eval"])
def test_errors_from_preparing_a_scenario_name_its_file(tmp_path, scenario_path, capsys, command):
    # A stationary scenario whose watched object is the robot's own goal point
    # reads well, but its goal set then holds one point twice.
    sc = load_scenario(scenario_path)
    data = yaml.safe_load(scenario_path.read_text())
    data["human_object"] = fk_eef(sc.chain, sc.robot_goal).tolist()
    path = tmp_path / "coincident.yaml"
    path.write_text(yaml.safe_dump(data))
    traj_path = tmp_path / "t.csv"
    save_trajectory(straightline_joint_init(np.zeros(7), np.zeros(7), 3, 0.1), traj_path)
    extra = ["--trajectory", str(traj_path)] if command == "eval" else ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main([command, "--scenario", str(path), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "goal set contains coincident points" in err


def _not_a_number(line):
    return "abc" + line[line.index(","):]


@pytest.mark.parametrize(
    "edit",
    [_not_a_number, lambda line: line.rsplit(",", 1)[0]],
    ids=["trajectory-non-numeric", "trajectory-short-row"],
)
def test_malformed_csv_exits_one(tmp_path, scenario_path, capsys, edit):
    sc = load_scenario(scenario_path)
    traj = straightline_joint_init(sc.robot_start, sc.robot_goal, N_WAYPOINTS, DT, OBSERVATION_WINDOW)
    bad = tmp_path / "bad.csv"
    save_trajectory(traj, bad)
    lines = bad.read_text().splitlines()
    lines[2] = edit(lines[2])  # the trajectory's first data row
    bad.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--scenario", str(scenario_path), "--trajectory", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: line 3:")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_trajectory_exits_one(tmp_path, scenario_path, capsys, value):
    sc = load_scenario(scenario_path)
    traj = straightline_joint_init(sc.robot_start, sc.robot_goal, N_WAYPOINTS, DT, OBSERVATION_WINDOW)
    bad = tmp_path / "bad.csv"
    save_trajectory(traj, bad)
    lines = bad.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + "," + value  # the first waypoint's last joint
    bad.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--scenario", str(scenario_path), "--trajectory", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: waypoints must be finite, got {float(value)} at index (0, 6)")


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["gen", "--family", "unknown"]) == 1
    assert main(["gen", "--family", "stationary", "--verbose"]) == 1
    assert main(["run", "--verbose"]) == 1  # run always prints its size line
    assert main(["run", "--format", "csv"]) == 1  # every run writes every artifact
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    out = tmp_path / "scen"
    proc = subprocess.run(
        [sys.executable, "-m", "comoto.cli", "gen", "--family", "stationary",
         "--seeds", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (out / "stationary_1.yaml").exists()
