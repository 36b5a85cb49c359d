"""Benchmark scenario generation: determinism, family geometry
contracts, and file round-trips."""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import fields

import numpy as np
import pytest

from comoto.benchmark import load_config, prepare_scenario
from comoto.errors import ContractViolation
from comoto.human_motion import RIGHT_ARM_JOINTS, generate_reach
from comoto.kinematics import fk_eef
from comoto.scenarios import (
    FAMILIES,
    FAR_GAP_MIN,
    GRASP_OFFSET,
    NEAR_GAP_MAX,
    Scenario,
    _FILE_KEYS,
    _SCRIPT_KEYS,
    generate_scenarios,
    load_scenario,
    make_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

SEEDS = (1, 2, 3, 4, 5)


def test_generation_is_deterministic(arm):
    for family in FAMILIES:
        a = make_scenario(family, 3, arm)
        b = make_scenario(family, 3, arm)
        assert np.array_equal(a.robot_start, b.robot_start)
        assert np.array_equal(a.robot_goal, b.robot_goal)
        assert np.array_equal(a.robot_object, b.robot_object)
        assert np.array_equal(a.human_object, b.human_object)
        assert np.array_equal(a.human_script.arm_start, b.human_script.arm_start)
        assert np.array_equal(a.human_script.arm_goal, b.human_script.arm_goal)
        assert a.human_script.move_duration == b.human_script.move_duration
        assert len(a.obstacles) == len(b.obstacles)
        for (ca, ra), (cb, rb) in zip(a.obstacles, b.obstacles):
            assert np.array_equal(ca, cb) and ra == rb


def test_seeds_give_distinct_scenarios(arm):
    for family in FAMILIES:
        objects = [make_scenario(family, s, arm).robot_object for s in SEEDS]
        for i in range(len(objects)):
            for j in range(i + 1, len(objects)):
                assert np.linalg.norm(objects[i] - objects[j]) > 1e-6


def test_family_gap_contracts(arm):
    for seed in SEEDS:
        far = make_scenario("reaching_far", seed, arm)
        assert np.linalg.norm(far.human_object - far.robot_object) >= FAR_GAP_MIN
        near = make_scenario("reaching_near", seed, arm)
        assert np.linalg.norm(near.human_object - near.robot_object) <= NEAR_GAP_MAX


def test_stationary_human_never_moves(arm):
    for seed in SEEDS:
        sc = make_scenario("stationary", seed, arm)
        assert sc.human_script.noise_scale == 0.0
        truth = generate_reach(sc.human_script, sc.human_rate)
        for name in RIGHT_ARM_JOINTS:
            track = truth.samples[name]
            assert np.max(np.abs(track - track[0])) == 0.0


def test_goal_configuration_reaches_the_object(arm):
    for family in FAMILIES:
        sc = make_scenario(family, 2, arm)
        grasp = sc.robot_object + GRASP_OFFSET
        assert np.linalg.norm(fk_eef(arm, sc.robot_goal) - grasp) <= 1e-4
        lo, hi = arm.joint_limits[:, 0], arm.joint_limits[:, 1]
        for q in (sc.robot_start, sc.robot_goal):
            assert np.all(q >= lo) and np.all(q <= hi)


def test_scenario_timing_properties(arm):
    sc = make_scenario("reaching_far", 1, arm)
    assert sc.robot_t0 == sc.observation
    assert sc.dt == pytest.approx(sc.horizon / (sc.n_waypoints - 1))
    assert sc.human_script.total_duration >= sc.observation + sc.horizon
    assert np.array_equal(sc.goal_point, fk_eef(arm, sc.robot_goal))
    assert sc.predictor_goal is not None
    assert make_scenario("stationary", 1, arm).predictor_goal is None


def test_generate_scenarios_order_and_count(arm):
    scs = generate_scenarios("reaching_near", SEEDS)
    assert [sc.seed for sc in scs] == list(SEEDS)
    assert all(sc.family == "reaching_near" for sc in scs)
    with pytest.raises(ContractViolation):
        make_scenario("unheard_of", 1, arm)
    for family in FAMILIES:
        with pytest.raises(ContractViolation, match="^seed must be an integer and non-negative, got -1$"):
            make_scenario(family, -1, arm)


@pytest.mark.parametrize("seed", [1.5, 1.0, "1", None])
def test_make_scenario_takes_an_integer_seed(arm, seed):
    with pytest.raises(ContractViolation, match=f"^seed must be an integer and non-negative, got {seed!r}$"):
        make_scenario("stationary", seed, arm)


def test_family_contract_validation(arm):
    sc = make_scenario("reaching_far", 1, arm)
    data = scenario_to_dict(sc)
    data["human_object"] = data["robot_object"]  # gap collapses to the grasp offset
    with pytest.raises(ContractViolation):
        scenario_from_dict(data)


def test_malformed_obstacles_raise_contract_violation(arm):
    data = scenario_to_dict(make_scenario("reaching_far", 1, arm))
    center, radius = data["obstacles"][0]["center"], data["obstacles"][0]["radius"]
    cases = [
        ({"center": center[:2], "radius": radius}, r"obstacle center must have shape \(3,\), got \(2,\)"),
        ({"center": center, "radius": -0.1}, "obstacle radius must be finite and positive"),
        ({"center": center, "radius": float("nan")}, "obstacle radius must be finite and positive"),
    ]
    for obstacle, message in cases:
        with pytest.raises(ContractViolation, match=message):
            prepare_scenario(scenario_from_dict({**data, "obstacles": [obstacle]}), load_config())


@pytest.mark.parametrize("entry", [(np.zeros(3),), np.zeros(3), 0.06, (np.zeros(3), 0.06, 1.0)])
def test_obstacle_entries_that_are_not_pairs_raise_contract_violation(arm, entry):
    sc = make_scenario("stationary", 1, arm)
    with pytest.raises(ContractViolation, match=r"^each obstacle must be a \(center, radius\) pair, got "):
        dataclasses.replace(sc, obstacles=(entry,))


@pytest.mark.parametrize("side", ["arm_start", "arm_goal"])
def test_scenario_file_missing_a_right_arm_joint_names_it(arm, side):
    data = scenario_to_dict(make_scenario("reaching_far", 1, arm))
    del data["script"][side]["right_elbow"]
    with pytest.raises(ContractViolation, match="^scenario is missing key 'right_elbow'$"):
        scenario_from_dict(data)


def test_scenario_file_reads_the_arm_poses_in_joint_order(arm):
    # The file names each joint; the script holds (4, 3) rows in RIGHT_ARM_JOINTS
    # order whatever the file's order, and joint names beyond those are ignored
    # on load and not written back.
    sc = make_scenario("reaching_far", 1, arm)
    data = scenario_to_dict(sc)
    assert list(data["script"]["arm_start"]) == list(data["script"]["arm_goal"]) == list(RIGHT_ARM_JOINTS)
    for side in ("arm_start", "arm_goal"):
        data["script"][side] = {"head": [0.0, 0.0, 1.0], **dict(reversed(data["script"][side].items()))}
    back = scenario_from_dict(data)
    for side in ("arm_start", "arm_goal"):
        assert getattr(back.human_script, side).tobytes() == getattr(sc.human_script, side).tobytes()
    assert scenario_to_dict(back) == scenario_to_dict(sc)


def _with_value(data, path, value):
    """A deep copy of ``data`` with the entry at the key ``path`` set to ``value``."""
    data = copy.deepcopy(data)
    *parents, key = path
    target = data
    for parent in parents:
        target = target[parent]
    target[key] = value
    return data


@pytest.mark.parametrize(
    "path",
    [("observaton",), ("script", "noise_scal"), ("obstacles", 0, "radiu")],
    ids=["top-level", "script", "obstacle"],
)
def test_scenario_file_rejects_keys_it_does_not_know(arm, path):
    # A misspelled key used to be dropped, and its setting silently took its default.
    data = _with_value(scenario_to_dict(make_scenario("reaching_far", 1, arm)), path, 0.5)
    dotted = ".".join(map(str, path))
    with pytest.raises(ContractViolation, match=f"^unknown scenario key '{dotted}'$"):
        scenario_from_dict(data)


def test_scenario_reader_knows_the_keys_the_writer_writes(arm):
    data = scenario_to_dict(make_scenario("reaching_far", 1, arm))
    assert set(_FILE_KEYS) == set(data)
    assert set(_SCRIPT_KEYS) == set(data["script"])


def test_scenario_whose_chain_is_not_a_chain_file_says_so(arm):
    data = {**scenario_to_dict(make_scenario("stationary", 1, arm)), "chain": "default_config"}
    with pytest.raises(ContractViolation, match=r"default_config\.yaml: unknown chain key 'benchmark'$"):
        scenario_from_dict(data)


NAN, INF = float("nan"), float("inf")

BAD_SCENARIO_VALUES = [
    (("robot_start", 2), NAN, "robot_start must be finite"),
    (("robot_goal", 0), INF, "robot_goal must be finite"),
    (("robot_object", 1), NAN, "robot_object must be finite"),
    (("human_object", 0), NAN, "human_object must be finite"),
    (("observation",), -1.0, "observation must be finite and positive"),
    (("observation",), NAN, "observation must be finite and positive"),
    (("horizon",), 0.0, "horizon must be finite and positive"),
    (("horizon",), INF, "horizon must be finite and positive"),
    (("observation",), 5.0, "outlasts the human script"),
    (("horizon",), 2.5, "outlasts the human script"),
    (("script", "total_duration"), 2.9, "outlasts the human script"),
    (("human_rate",), NAN, "human_rate must be finite and positive"),
    (("human_rate",), INF, "human_rate must be finite and positive"),
    (("human_rate",), -100.0, "human_rate must be finite and positive"),
    (("n_waypoints",), 2, "n_waypoints must be at least 3"),
    (("script", "move_duration"), NAN, "move_duration must be finite"),
    (("script", "total_duration"), INF, "total_duration must be finite"),
    (("script", "noise_scale"), NAN, "noise_scale must be finite and non-negative"),
    (("script", "arm_goal", "right_wrist", 1), NAN, r"^arm_goal\.right_wrist must be finite"),
    # Integer keys are whole numbers, not truncated.
    (("n_waypoints",), 20.5, "n_waypoints must be an integer"),
    (("seed",), 1.9, "seed must be an integer and non-negative"),
    (("script", "seed"), 1.9, "seed must be an integer"),
]


@pytest.mark.parametrize(
    "path, value, message",
    BAD_SCENARIO_VALUES,
    ids=[f"{'.'.join(map(str, path))}={value}" for path, value, _ in BAD_SCENARIO_VALUES],
)
def test_non_finite_or_out_of_range_scenario_values_rejected(path, value, message):
    data = scenario_to_dict(make_scenario("reaching_far", 1))
    with pytest.raises(ContractViolation, match=message):
        scenario_from_dict(_with_value(data, path, value))


def test_missing_optional_scenario_keys_take_the_field_defaults(arm):
    data = scenario_to_dict(make_scenario("stationary", 1, arm))
    for key in ("observation", "horizon", "n_waypoints", "human_rate"):
        del data[key]
    sc = scenario_from_dict(data)
    for field in fields(Scenario):
        if field.name in ("observation", "horizon", "n_waypoints", "human_rate"):
            assert getattr(sc, field.name) == field.default


def test_whole_float_integer_keys_load_as_int(arm):
    # As the run config reads them: 20.0 is the integer 20.
    data = scenario_to_dict(make_scenario("stationary", 1, arm))
    data.update(seed=1.0, n_waypoints=20.0)
    data["script"]["seed"] = float(data["script"]["seed"])
    sc = scenario_from_dict(data)
    for value in (sc.seed, sc.n_waypoints, sc.human_script.seed):
        assert type(value) is int
    assert (sc.seed, sc.n_waypoints) == (1, 20)


def test_scenario_yaml_round_trip(tmp_path, arm):
    for family in FAMILIES:
        sc = make_scenario(family, 4, arm)
        path = tmp_path / f"{family}.yaml"
        save_scenario(sc, path)
        back = load_scenario(path)
        assert back.family == sc.family
        assert back.seed == sc.seed
        assert np.array_equal(back.robot_start, sc.robot_start)
        assert np.array_equal(back.robot_goal, sc.robot_goal)
        assert np.array_equal(back.robot_object, sc.robot_object)
        assert np.array_equal(back.human_object, sc.human_object)
        assert back.human_script.move_duration == sc.human_script.move_duration
        assert back.human_script.noise_scale == sc.human_script.noise_scale
        assert back.human_script.seed == sc.human_script.seed
        assert np.array_equal(back.human_script.arm_start, sc.human_script.arm_start)
        assert np.array_equal(back.human_script.arm_goal, sc.human_script.arm_goal)
        assert len(back.obstacles) == len(sc.obstacles)
        for (ca, ra), (cb, rb) in zip(back.obstacles, sc.obstacles):
            assert np.array_equal(ca, cb) and ra == rb
        assert back.n_waypoints == sc.n_waypoints
        assert back.horizon == sc.horizon


def test_scenario_uses_default_chain_when_unspecified():
    sc = make_scenario("stationary", 1)
    assert isinstance(sc, Scenario)
    assert sc.chain.n_joints == 7


@pytest.mark.parametrize("load", [load_scenario, load_config])
def test_invalid_yaml_raises_contract_violation_naming_the_file(tmp_path, load):
    path = tmp_path / "broken.yaml"
    path.write_text("optimizer: {max_iters: [1\n")
    with pytest.raises(ContractViolation, match="broken.yaml is not valid YAML"):
        load(path)
