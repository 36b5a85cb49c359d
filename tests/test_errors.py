"""The one scalar check, and every record's scalar settings run through it."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from conftest import CFG, cost_context

from comoto.errors import ContractViolation, check_real
from comoto.human_motion import HumanTrajectory, PredictedHumanTrajectory
from comoto.kinematics import JointTrajectory, default_chain
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
    ],
)
def test_check_real_rejects_with_a_message_naming_the_value(value, bound, integer, message):
    with pytest.raises(ContractViolation, match=f"^{message}$"):
        check_real(value, "x", bound, integer)


_SCENARIO = make_scenario("stationary", 1)

#: One valid instance of every record that holds scalar settings.
RECORDS = [
    CFG.comoto_weights,
    cost_context(default_chain(), np.zeros(7)),
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
        "CostWeights": 6, "CostContext": 2, "OptimizerOptions": 3, "SpeedAdjustParams": 4,
        "PredictorOptions": 3, "RunConfig": 11, "Scenario": 5, "ReachScript": 4,
        "JointTrajectory": 2, "HumanTrajectory": 1, "PredictedHumanTrajectory": 2,
    }


@pytest.mark.parametrize("value", ["1", None, math.nan])
@pytest.mark.parametrize(
    "record, name", SCALAR_FIELDS, ids=[f"{type(r).__name__}.{name}" for r, name in SCALAR_FIELDS]
)
def test_every_scalar_setting_rejects_a_non_number(record, name, value):
    with pytest.raises(ContractViolation, match=f"^{name} must be "):
        dataclasses.replace(record, **{name: value})
