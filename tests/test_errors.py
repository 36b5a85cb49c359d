"""The one scalar check and the one array check, and every record's scalar
settings and every array input run through them; the read-only arrays that
check returns, and the frozen result records."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import CFG

from comoto.baselines import ExecutionTrace
from comoto.costs import CostContext, CostReport
from comoto.errors import ContractViolation, check_array, check_real
from comoto.human_motion import (
    HumanTrajectory,
    PredictedHumanTrajectory,
    ReachScript,
    generate_reach,
    load_skeleton_offsets,
    predict,
)
from comoto.kinematics import (
    ChainSpec,
    JointTrajectory,
    default_chain,
    fk_eef,
    frame_origins_and_axes,
    solve_position_ik,
)
from comoto.metrics import METRIC_NAMES, GoalSet, MetricReport, evaluate_run
from comoto.optimizer import OptResult, straightline_joint_init
from comoto.scenarios import make_scenario


@pytest.mark.parametrize(
    "value, bound, integer",
    [
        (-1.5, "", False),
        (0, "non-negative", False),
        (np.float64(1e-300), "positive", False),
        (np.int64(3), "positive", True),
        (0, "non-negative", True),
    ],
)
def test_check_real_accepts_finite_numbers_in_range(value, bound, integer):
    check_real(value, "x", bound, integer)


@pytest.mark.parametrize(
    "value, bound, integer, message",
    [
        (math.nan, "", False, "x must be finite, got nan"),
        (-math.inf, "", False, "x must be finite, got -inf"),
        ("1", "", False, "x must be finite, got '1'"),
        (None, "non-negative", False, "x must be finite and non-negative, got None"),
        (1j, "", False, "x must be finite, got 1j"),
        (np.zeros(2), "", False, r"x must be finite, got array\(\[0., 0.\]\)"),
        (-1e-300, "non-negative", False, "x must be finite and non-negative, got -1e-300"),
        (0.0, "positive", False, "x must be finite and positive, got 0.0"),
        (2.0, "", True, "x must be an integer, got 2.0"),
        (0, "positive", True, "x must be an integer and positive, got 0"),
        (math.inf, "positive", True, "x must be an integer and positive, got inf"),
        # YAML reads true as a bool, which Python counts as the integer 1.
        (True, "positive", True, "x must be an integer and positive, got True"),
        (False, "non-negative", False, "x must be finite and non-negative, got False"),
        (np.True_, "", False, "x must be finite, got np.True_"),
        (np.False_, "", True, "x must be an integer, got np.False_"),
    ],
)
def test_check_real_rejects_with_a_message_naming_the_value(value, bound, integer, message):
    with pytest.raises(ContractViolation, match=f"^{message}$"):
        check_real(value, "x", bound, integer)


_SCENARIO = make_scenario("stationary", 1)

#: One valid instance of every record that holds scalar settings.
RECORDS = [
    CFG.comoto_weights,
    CFG.optimizer,
    CFG.speed_adjust,
    CFG.prediction,
    CFG,
    _SCENARIO,
    _SCENARIO.human_script,
    JointTrajectory(np.zeros((3, 2)), 0.1, 1.0),
    HumanTrajectory(("head",), np.zeros((2, 1, 3)), 10.0),
    PredictedHumanTrajectory(("head",), np.zeros((1, 1, 3)), np.eye(3)[None, None], 0.1, 1.0),
]

#: (record, field) for every field holding an int or a float (not a bool).
SCALAR_FIELDS = [
    (record, f.name)
    for record in RECORDS
    for f in dataclasses.fields(record)
    if type(getattr(record, f.name)) in (int, float)
]


def test_every_record_has_scalar_settings():
    counts = {type(r).__name__: sum(r is record for record, _ in SCALAR_FIELDS) for r in RECORDS}
    assert counts == {
        "CostWeights": 6, "OptimizerOptions": 3, "SpeedAdjustParams": 4,
        "PredictorOptions": 2, "RunConfig": 3, "Scenario": 1, "ReachScript": 4,
        "JointTrajectory": 2, "HumanTrajectory": 1, "PredictedHumanTrajectory": 2,
    }


CONFIG_KEYS = {
    "legible_alpha": "weights.legible.alpha", "separation_threshold": "metrics.separation_threshold",
    "fov_deg": "metrics.fov_deg",
}


@pytest.mark.parametrize("value", ["1", None, math.nan, True])
@pytest.mark.parametrize(
    "record, name", SCALAR_FIELDS, ids=[f"{type(r).__name__}.{name}" for r, name in SCALAR_FIELDS]
)
def test_every_scalar_setting_rejects_a_non_number(record, name, value):
    # The run config's flat fields are named by their config keys.
    key = CONFIG_KEYS[name] if record is CFG else name
    with pytest.raises(ContractViolation, match=f"^{re.escape(key)} must be "):
        dataclasses.replace(record, **{name: value})


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("move_duration", -1.0, "move_duration must be finite and non-negative, got -1.0"),
        ("total_duration", 0.0, "total_duration must be finite and positive, got 0.0"),
    ],
)
def test_reach_script_durations_have_a_sign(name, value, message):
    # A negative move_duration would put the synthesized arm at its goal from t = 0.
    with pytest.raises(ContractViolation, match=f"^{message}$"):
        dataclasses.replace(_SCENARIO.human_script, **{name: value})


@pytest.mark.parametrize(
    "value, shape, expected",
    [
        ([1, 2, 3], (3,), [1.0, 2.0, 3.0]),
        (np.arange(6, dtype=np.int32).reshape(2, 3), (None, 3), [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]),
        ((np.float32(0.5), 2), (None,), [0.5, 2.0]),
        (np.zeros((0, 2)), (None, 2), np.zeros((0, 2))),
        (7, (), 7.0),
    ],
)
def test_check_array_returns_a_new_float64_array(value, shape, expected):
    array = check_array(value, "x", shape)
    assert array.dtype == np.float64 and not array.flags.writeable
    assert array.shape == np.shape(expected) and np.array_equal(array, expected)
    assert not (isinstance(value, np.ndarray) and np.shares_memory(array, value))


@pytest.mark.parametrize(
    "value, shape, message",
    [
        ([1.0, 2.0], (3,), r"x must have shape \(3,\), got \(2,\)"),
        (np.zeros((2, 3)), (None, 4), r"x must have shape \(\*, 4\), got \(2, 3\)"),
        (np.zeros(3), (1, 3), r"x must have shape \(1, 3\), got \(3,\)"),
        (np.zeros((4, 1, 3)), (None, 2, 3), r"x must have shape \(\*, 2, 3\), got \(4, 1, 3\)"),
        ([0.0, math.nan, 1.0], (3,), r"x must be finite, got nan at index \(1,\)"),
        ([[0.0, 1.0], [2.0, -math.inf]], (2, 2), r"x must be finite, got -inf at index \(1, 1\)"),
        ([[0.0, 1.0], [2.0]], (None, 2), "x must be a rectangular array of numbers"),
        ("abc", (3,), "x must be a rectangular array of numbers"),
        (["1", "2", "3"], (3,), "x must be a rectangular array of numbers"),
        (None, (3,), "x must be a rectangular array of numbers"),
        ([1.0, None, 2.0], (3,), "x must be a rectangular array of numbers"),
        ([1j, 0, 0], (3,), "x must be a rectangular array of numbers"),
        ([True, False, True], (3,), "x must be a rectangular array of numbers"),
    ],
)
def test_check_array_rejects_with_a_message_naming_the_input(value, shape, message):
    with pytest.raises(ContractViolation, match=f"^{message}$"):
        check_array(value, "x", shape)


def test_check_array_can_leave_the_finite_test_to_its_caller():
    assert np.isnan(check_array([math.nan], "x", (1,), finite=False)).all()
    with pytest.raises(ContractViolation, match="^x must have shape"):
        check_array([math.nan], "x", (2,), finite=False)


_CHAIN = default_chain()
_LIMITS = np.array([[-1.0, 1.0], [-1.0, 1.0]])
_COVS = np.broadcast_to(np.eye(3), (1, 2, 3, 3))
_TRACE = {"timestamps": np.arange(3.0), "configs": np.zeros((3, 2)), "completed": True}
_TRAJ = JointTrajectory(np.zeros((3, 7)), 0.1)
_GOALS = GoalSet(np.array([1.0, 0.0, 0.0]), (np.array([0.0, 1.0, 0.0]),))
_HEAD = HumanTrajectory(("head",), np.ones((2, 1, 3)), 10.0)
_OBSERVED = generate_reach(_SCENARIO.human_script, 100.0).prefix(1.0)


#: (owner, name, a build of the owner from a value, a valid value): every array
#: input, named as its messages start.
ARRAY_INPUTS = [
    ("ChainSpec", "dh", lambda v: ChainSpec(v, _LIMITS), np.zeros((2, 4))),
    ("ChainSpec", "joint_limits", lambda v: ChainSpec(np.zeros((2, 4)), v), _LIMITS),
    ("JointTrajectory", "waypoints", lambda v: JointTrajectory(v, 0.1), np.zeros((3, 2))),
    ("frame_origins_and_axes", "q", lambda v: frame_origins_and_axes(_CHAIN, v), np.zeros(7)),
    ("solve_position_ik", "q0", lambda v: solve_position_ik(_CHAIN, np.zeros(3), v), np.zeros(7)),
    ("solve_position_ik", "target", lambda v: solve_position_ik(_CHAIN, v, np.zeros(7)), np.zeros(3)),
    ("straightline_joint_init", "start", lambda v: straightline_joint_init(v, np.ones(2), 3, 0.1), np.zeros(2)),
    ("straightline_joint_init", "goal", lambda v: straightline_joint_init(np.zeros(2), v, 3, 0.1), np.ones(2)),
    ("HumanTrajectory", "tracks", lambda v: HumanTrajectory(("head",), v, 10.0), np.zeros((2, 1, 3))),
    *[
        ("ReachScript", side, lambda v, side=side: dataclasses.replace(_SCENARIO.human_script, **{side: v}),
         getattr(_SCENARIO.human_script, side))
        for side in ("arm_start", "arm_goal")
    ],
    ("predict", "goal", lambda v: predict(_OBSERVED, 3, 0.1, v, options=CFG.prediction), np.ones(3)),
    ("PredictedHumanTrajectory", "mean_tracks",
     lambda v: PredictedHumanTrajectory(("head",), v, _COVS, 0.1), np.zeros((1, 2, 3))),
    ("PredictedHumanTrajectory", "cov_tracks",
     lambda v: PredictedHumanTrajectory(("head",), np.zeros((1, 2, 3)), v, 0.1), _COVS),
    ("ExecutionTrace", "timestamps", lambda v: ExecutionTrace(**{**_TRACE, "timestamps": v}), np.arange(3.0)),
    ("ExecutionTrace", "configs", lambda v: ExecutionTrace(**{**_TRACE, "configs": v}), np.zeros((3, 2))),
    ("ExecutionTrace", "min_separation", lambda v: ExecutionTrace(**_TRACE, min_separation=v), np.zeros(3)),
    ("ExecutionTrace", "speed_scale", lambda v: ExecutionTrace(**_TRACE, speed_scale=v), np.zeros(3)),
    *[
        ("Scenario", name, lambda v, name=name: dataclasses.replace(_SCENARIO, **{name: v}),
         getattr(_SCENARIO, name))
        for name in ("robot_start", "robot_goal", "robot_object", "human_object")
    ],
    ("Scenario", "obstacles.0.center",
     lambda v: dataclasses.replace(_SCENARIO, obstacles=((v, 0.06),)), _SCENARIO.obstacles[0][0]),
    ("CostContext", "goal_config", lambda v: CostContext(_CHAIN, v), np.zeros(7)),
    ("CostContext", "object_pos", lambda v: CostContext(_CHAIN, np.zeros(7), object_pos=v), np.zeros(3)),
    ("CostContext", "obstacles.0.center",
     lambda v: CostContext(_CHAIN, np.zeros(7), obstacles=((v, 0.1),)), np.zeros(3)),
    ("GoalSet", "true_goal", lambda v: GoalSet(v, _GOALS.distractors), _GOALS.true_goal),
    ("GoalSet", "distractors[0]", lambda v: GoalSet(_GOALS.true_goal, (v,)), _GOALS.distractors[0]),
    ("evaluate_run", "gaze_target",
     lambda v: evaluate_run(_CHAIN, _TRAJ, _HEAD, _TRAJ, _GOALS, v, 0.3, 120.0), np.array([2.0, 0.0, 1.0])),
]


def _nan(valid: np.ndarray) -> np.ndarray:
    bad = valid.copy()
    bad.flat[bad.size // 2] = math.nan
    return bad


#: Inputs whose length sets the others': their wrong length is one axis too many.
SELF_SIZED = {"timestamps", "start"}

#: kind -> (the bad value made from a valid one, a fragment its message holds).
#: The wrong length is one entry short on every axis.
BAD_ARRAYS = {
    "wrong-length": (lambda valid: valid[tuple(slice(-1) for _ in valid.shape)], "shape|rows"),
    "nan": (_nan, "finite"),
    "ragged": (lambda valid: [valid.tolist(), valid.tolist()[:-1]], "must be a rectangular array of numbers"),
    "string": (lambda valid: "abc", "must be a rectangular array of numbers"),
}


def test_every_array_input_accepts_its_valid_value():
    for _, _, build, valid in ARRAY_INPUTS:
        build(valid)


@pytest.mark.parametrize("kind", BAD_ARRAYS)
@pytest.mark.parametrize(
    "owner, name, build, valid", ARRAY_INPUTS, ids=[f"{owner}.{name}" for owner, name, _, _ in ARRAY_INPUTS]
)
def test_every_array_input_rejects_bad_shape_and_non_finite(owner, name, build, valid, kind):
    make_bad, fragment = BAD_ARRAYS[kind]
    valid = np.asarray(valid)
    bad = valid[None] if kind == "wrong-length" and name in SELF_SIZED else make_bad(valid)
    with pytest.raises(ContractViolation, match=f"^{re.escape(name)}.*({fragment})"):
        build(bad)


_SCRIPT = ReachScript(np.zeros((4, 3)), np.ones((4, 3)), 1.0, 3.0)
_PREDICTION = PredictedHumanTrajectory(("head",), np.zeros((1, 2, 3)), _COVS, 0.1)
_CONTEXT = CostContext(_CHAIN, np.zeros(7), object_pos=np.zeros(3), obstacles=((np.zeros(3), 0.1),))

#: Every array field of every record but ``ExecutionTrace``, and the packaged offsets.
READ_ONLY_ARRAYS = {
    "ChainSpec.dh": _CHAIN.dh,
    "ChainSpec.base_pose": _CHAIN.base_pose,
    "ChainSpec.joint_limits": _CHAIN.joint_limits,
    "JointTrajectory.waypoints": _TRAJ.waypoints,
    "HumanTrajectory.tracks": _HEAD.tracks,
    "ReachScript.arm_start": _SCRIPT.arm_start,
    "ReachScript.arm_goal": _SCRIPT.arm_goal,
    "PredictedHumanTrajectory.mean_tracks": _PREDICTION.mean_tracks,
    "PredictedHumanTrajectory.cov_tracks": _PREDICTION.cov_tracks,
    "CostContext.goal_config": _CONTEXT.goal_config,
    "CostContext.object_pos": _CONTEXT.object_pos,
    "CostContext.obstacles.0.center": _CONTEXT.obstacles[0][0],
    **{
        f"Scenario.{name}": getattr(_SCENARIO, name)
        for name in ("robot_start", "robot_goal", "robot_object", "human_object")
    },
    "Scenario.obstacles.0.center": _SCENARIO.obstacles[0][0],
    "GoalSet.true_goal": _GOALS.true_goal,
    "GoalSet.distractors[0]": _GOALS.distractors[0],
    "load_skeleton_offsets()": load_skeleton_offsets(),
}


@pytest.mark.parametrize("array", READ_ONLY_ARRAYS.values(), ids=READ_ONLY_ARRAYS)
def test_every_record_array_refuses_writes(array):
    before = array.copy()
    with pytest.raises(ValueError, match="read-only"):
        array[(0,) * array.ndim] = 1.0
    assert np.array_equal(array, before)


def test_a_chain_refuses_a_dh_write_that_its_fk_constants_would_not_see():
    chain = default_chain()
    eef = fk_eef(chain, np.zeros(7))
    with pytest.raises(ValueError, match="read-only"):
        chain.dh[1, 0] = 0.5
    assert np.array_equal(fk_eef(chain, np.zeros(7)), eef)


_COST_REPORT = CostReport(total=0.0, per_cost={}, diagnostics={})
_RESULTS = [
    (MetricReport(**dict.fromkeys(METRIC_NAMES, 0.0)), "dst_pct"),
    (_COST_REPORT, "total"),
    (OptResult(_TRAJ, 0, "grad_tol", 0, _COST_REPORT, _COST_REPORT, 0.0), "iterations"),
]


@pytest.mark.parametrize("record, name", _RESULTS, ids=[type(r).__name__ for r, _ in _RESULTS])
def test_result_records_are_frozen(record, name):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, 1)
