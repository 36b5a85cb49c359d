"""Benchmark scenario generation: determinism, family geometry
contracts, and file round-trips."""

from __future__ import annotations

import copy
import dataclasses
import re

import numpy as np
import pytest
import yaml

from comoto.benchmark import load_config, prepare_scenario
from comoto.errors import ContractViolation
from comoto.human_motion import OBSERVATION_WINDOW, RIGHT_ARM_JOINTS, generate_reach
from comoto.kinematics import fk_eef
from comoto.scenarios import (
    DT,
    FAMILIES,
    FAR_GAP_MIN,
    GRASP_OFFSET,
    HORIZON,
    HUMAN_RATE,
    N_WAYPOINTS,
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
        truth = generate_reach(sc.human_script, HUMAN_RATE)
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
    # The paper's clock: 1 s observed, then 2 s planned over 20 waypoints, on
    # ground truth sampled at 100 Hz.
    assert (OBSERVATION_WINDOW, HORIZON, N_WAYPOINTS, HUMAN_RATE) == (1.0, 2.0, 20, 100.0)
    assert DT == 2.0 / 19
    sc = make_scenario("reaching_far", 1, arm)
    assert sc.human_script.total_duration >= OBSERVATION_WINDOW + HORIZON
    bundle = prepare_scenario(sc, load_config())
    assert (bundle.nominal.n_waypoints, bundle.nominal.dt, bundle.nominal.t0) == (N_WAYPOINTS, DT, OBSERVATION_WINDOW)
    assert bundle.truth.rate == HUMAN_RATE
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
        ({"center": center[:2], "radius": radius}, r"^obstacles\.0\.center must have shape \(3,\), got \(2,\)$"),
        ({"center": center, "radius": -0.1}, r"^obstacles\.0\.radius must be finite and positive, got -0\.1$"),
        ({"center": center, "radius": float("nan")}, r"^obstacles\.0\.radius must be finite and positive, got nan$"),
    ]
    for obstacle, message in cases:
        with pytest.raises(ContractViolation, match=message):
            prepare_scenario(scenario_from_dict({**data, "obstacles": [obstacle]}), load_config())


@pytest.mark.parametrize("entry", [(np.zeros(3),), np.zeros(3), 0.06, (np.zeros(3), 0.06, 1.0)])
def test_obstacle_entries_that_are_not_pairs_raise_contract_violation(arm, entry):
    sc = make_scenario("stationary", 1, arm)
    with pytest.raises(ContractViolation, match=r"^each obstacle must be a \(center, radius\) pair, got "):
        dataclasses.replace(sc, obstacles=(entry,))


def test_scenario_file_reads_the_arm_poses_in_joint_order(arm):
    # The file names each joint; the script holds (4, 3) rows in RIGHT_ARM_JOINTS
    # order whatever the file's order.
    sc = make_scenario("reaching_far", 1, arm)
    data = scenario_to_dict(sc)
    assert list(data["script"]["arm_start"]) == list(data["script"]["arm_goal"]) == list(RIGHT_ARM_JOINTS)
    for side in ("arm_start", "arm_goal"):
        data["script"][side] = dict(reversed(data["script"][side].items()))
    back = scenario_from_dict(data)
    for side in ("arm_start", "arm_goal"):
        assert getattr(back.human_script, side).tobytes() == getattr(sc.human_script, side).tobytes()
    assert scenario_to_dict(back) == scenario_to_dict(sc)


@pytest.mark.parametrize("side", ["arm_start", "arm_goal"])
def test_scenario_file_arm_pose_with_an_extra_joint_is_rejected(arm, side):
    # A joint outside RIGHT_ARM_JOINTS used to be dropped on load.
    data = scenario_to_dict(make_scenario("reaching_far", 1, arm))
    data["script"][side]["head"] = [0.0, 0.0, 1.0]
    with pytest.raises(ContractViolation, match=f"^unknown scenario key 'script.{side}.head'$"):
        scenario_from_dict(data)


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
    [
        ("observaton",), ("script", "noise_scal"), ("obstacles", 0, "radiu"),
        # The planning clock is fixed, so the keys that once set it are unknown.
        ("observation",), ("horizon",), ("n_waypoints",), ("human_rate",),
    ],
    ids=["top-level", "script", "obstacle", "observation", "horizon", "n_waypoints", "human_rate"],
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


def test_a_file_that_sets_the_planning_clock_is_rejected(tmp_path, arm):
    # The older format wrote the clock after the chain; the clock is now fixed.
    data = scenario_to_dict(make_scenario("stationary", 1, arm))
    clock = {"observation": 1.0, "horizon": 2.0, "n_waypoints": 20, "human_rate": 100.0}
    head = {key: data.pop(key) for key in ("family", "seed", "chain")}
    path = tmp_path / "older.yaml"
    path.write_text(yaml.safe_dump({**head, **clock, **data}, sort_keys=False))
    with pytest.raises(ContractViolation, match=f"^{re.escape(str(path))}: unknown scenario key 'observation'$"):
        load_scenario(path)


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
    (("script", "total_duration"), 2.9, "outlasts the human script"),
    (("script", "move_duration"), NAN, "move_duration must be finite"),
    (("script", "total_duration"), INF, "total_duration must be finite"),
    (("script", "noise_scale"), NAN, "noise_scale must be finite and non-negative"),
    (("script", "arm_goal", "right_wrist", 1), NAN, r"^script\.arm_goal\.right_wrist must be finite"),
    # Integer keys are whole numbers, not truncated.
    (("seed",), 1.9, "seed must be an integer and non-negative"),
    (("script", "seed"), 1.9, "seed must be an integer"),
    # YAML's true is a bool, not the number 1.
    (("obstacles", 0, "radius"), True, r"^obstacles\.0\.radius must be finite and positive, got True$"),
    (("seed",), True, "^seed must be an integer and non-negative, got True$"),
    (("script", "noise_scale"), True, "^script.noise_scale must be finite and non-negative, got True$"),
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


#: Every leaf of a scenario file, by its key path.
SCENARIO_LEAVES = [
    *[(key,) for key in _FILE_KEYS if key not in ("script", "obstacles")],
    *[("script", key) for key in _SCRIPT_KEYS if key not in ("arm_start", "arm_goal")],
    *[("script", side, joint) for side in ("arm_start", "arm_goal") for joint in RIGHT_ARM_JOINTS],
    ("obstacles", 0, "center"),
    ("obstacles", 0, "radius"),
    ("obstacles",),
]


@pytest.mark.parametrize("value", ["abc", {"x": 1.0}, [[1.0], [2.0, 3.0]]], ids=["string", "mapping", "ragged"])
@pytest.mark.parametrize("path", SCENARIO_LEAVES, ids=[".".join(map(str, path)) for path in SCENARIO_LEAVES])
def test_scenario_value_of_the_wrong_type_names_its_key(arm, path, value):
    # Each used to raise "malformed scenario: <TypeError or ValueError>" without its key.
    data = _with_value(scenario_to_dict(make_scenario("reaching_far", 1, arm)), path, value)
    with pytest.raises(ContractViolation) as info:
        scenario_from_dict(data)
    message = str(info.value)
    dotted = ".".join(map(str, path))
    assert message.startswith((dotted, f"unknown {dotted}", f"scenario {dotted}")), message
    assert "malformed" not in message


MISSING_KEYS = [
    *[(key,) for key in _FILE_KEYS],
    *[("script", key) for key in _SCRIPT_KEYS],
    *[("script", side, "right_elbow") for side in ("arm_start", "arm_goal")],
    ("obstacles", 0, "radius"),
]


@pytest.mark.parametrize("path", MISSING_KEYS, ids=[".".join(map(str, path)) for path in MISSING_KEYS])
def test_scenario_file_missing_a_key_names_it(arm, path):
    # Every key the writer writes is required; none falls back to a default.
    data = scenario_to_dict(make_scenario("stationary", 1, arm))
    *parents, key = path
    target = data
    for parent in parents:
        target = target[parent]
    del target[key]
    dotted = ".".join(map(str, path))
    with pytest.raises(ContractViolation, match=f"^scenario is missing key '{dotted}'$"):
        scenario_from_dict(data)


def test_whole_float_integer_keys_load_as_int(arm):
    # As the run config reads them: 20.0 is the integer 20.
    data = scenario_to_dict(make_scenario("stationary", 1, arm))
    data.update(seed=1.0)
    data["script"]["seed"] = float(data["script"]["seed"])
    sc = scenario_from_dict(data)
    for value in (sc.seed, sc.human_script.seed):
        assert type(value) is int
    assert sc.seed == 1


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
