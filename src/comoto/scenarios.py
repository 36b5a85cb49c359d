"""Deterministic desk-scale scenario generation for the three families.

A scenario puts the robot base at the origin of a shared tabletop
(z = 0) with the human across a 0.8 m table (+x).  The human right arm
executes one scripted reach; the robot moves from a raised start to a
grasp point above its own object.  All geometry is jittered per seed
through a generator keyed on (family, seed), so a seed fully
determines the scenario.

The planning clock is fixed, as in the paper's protocol: the robot
watches the human for ``human_motion.OBSERVATION_WINDOW`` (1 s), then
plans ``HORIZON`` (2 s) over ``N_WAYPOINTS`` (20) waypoints, ``DT``
apart, against ground truth sampled at ``HUMAN_RATE`` (100 Hz).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .costs import check_spheres
from .errors import ContractViolation, check_array, check_real
from .fileio import check_keys, load_yaml
from .human_motion import OBSERVATION_WINDOW, RIGHT_ARM_JOINTS, ReachScript
from .kinematics import ChainSpec, default_chain, fk_eef, load_chain, solve_position_ik

Array = np.ndarray

FAMILIES = ("stationary", "reaching_far", "reaching_near")
FAMILY_IDS = {"stationary": 1, "reaching_far": 2, "reaching_near": 3}

#: Grasp approach height above an object, meters.
GRASP_OFFSET = np.array([0.0, 0.0, 0.02])

#: Far/near constraints on the object gap, meters.
FAR_GAP_MIN = 0.6
NEAR_GAP_MAX = 0.15

#: The planning clock of every scenario, in s and Hz (see the module docstring).
HORIZON = 2.0
N_WAYPOINTS = 20
DT = HORIZON / (N_WAYPOINTS - 1)
HUMAN_RATE = 100.0

_IK_SEED_CONFIG = np.array([0.0, 0.7, 0.0, -1.2, 0.0, 0.9, 0.0])


@dataclass(frozen=True)
class Scenario:
    """One benchmark task: robot motion goal plus a scripted human."""

    family: str
    seed: int
    chain: ChainSpec
    robot_start: Array
    robot_goal: Array
    robot_object: Array
    human_object: Array
    human_script: ReachScript
    obstacles: tuple = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ContractViolation(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        n = self.chain.n_joints
        shapes = {"robot_start": (n,), "robot_goal": (n,), "robot_object": (3,), "human_object": (3,)}
        for name, shape in shapes.items():
            object.__setattr__(self, name, check_array(getattr(self, name), name, shape))
        check_real(self.seed, "seed", "non-negative", integer=True)
        end, track = OBSERVATION_WINDOW + HORIZON, self.human_script.total_duration
        if end > track:
            raise ContractViolation(
                f"observation + horizon ({end!r} s) outlasts the human script's total_duration ({track!r} s)"
            )
        object.__setattr__(self, "obstacles", check_spheres(self.obstacles, "radius"))
        gap = float(np.linalg.norm(self.human_object - self.robot_object))
        if self.family == "reaching_far" and gap < FAR_GAP_MIN:
            raise ContractViolation(f"reaching_far needs an object gap >= {FAR_GAP_MIN}, got {gap:.3f}")
        if self.family == "reaching_near" and gap > NEAR_GAP_MAX:
            raise ContractViolation(f"reaching_near needs an object gap <= {NEAR_GAP_MAX}, got {gap:.3f}")
        script = self.human_script
        if self.family == "stationary" and not np.array_equal(script.arm_start, script.arm_goal):
            raise ContractViolation("stationary scenarios must have arm_goal == arm_start")

    @property
    def goal_point(self) -> Array:
        return fk_eef(self.chain, self.robot_goal)

    @property
    def predictor_goal(self) -> Array | None:
        """Palm goal handed to the predictor; None when the human holds still."""
        if self.family == "stationary":
            return None
        return self.human_script.arm_goal[RIGHT_ARM_JOINTS.index("right_palm")]


def _arm_pose(rng: np.random.Generator) -> Array:
    """A seated right-arm pose, in ``RIGHT_ARM_JOINTS`` order."""
    shoulder = np.array([1.00, -0.08, 0.42]) + rng.uniform(-1, 1, 3) * [0.02, 0.06, 0.02]
    palm = shoulder + np.array([-0.20, -0.10, -0.30]) + rng.uniform(-1, 1, 3) * [0.02, 0.04, 0.02]
    elbow = shoulder + 0.5 * (palm - shoulder) + np.array([0.0, -0.05, 0.04])
    wrist = shoulder + 0.85 * (palm - shoulder) + np.array([0.0, 0.0, 0.01])
    return np.stack([shoulder, elbow, wrist, palm])


def _solve_config(chain: ChainSpec, target: Array, q0: Array, what: str) -> Array:
    q = solve_position_ik(chain, target, q0)
    err = float(np.linalg.norm(fk_eef(chain, q) - target))
    if err > 1e-4:
        raise ContractViolation(f"could not reach the {what} point {target} (residual {err:.2e})")
    return q


def make_scenario(family: str, seed: int, chain: ChainSpec | None = None) -> Scenario:
    """Build one deterministic scenario; the seed controls all jitter."""
    if family not in FAMILIES:
        raise ContractViolation(f"unknown family {family!r}; expected one of {FAMILIES}")
    check_real(seed, "seed", "non-negative", integer=True)
    if chain is None:
        chain = default_chain()
    rng = np.random.default_rng([FAMILY_IDS[family], seed])

    arm_start = _arm_pose(rng)
    robot_object = np.array([0.52, -0.26, 0.12]) + rng.uniform(-1, 1, 3) * [0.03, 0.03, 0.02]
    eef_start = np.array([0.32, 0.30, 0.45]) + rng.uniform(-1, 1, 3) * [0.03, 0.03, 0.03]

    if family == "stationary":
        human_object = np.array([0.78, 0.10, 0.12]) + rng.uniform(-1, 1, 3) * [0.03, 0.03, 0.02]
        arm_goal = arm_start
        noise_scale = 0.0
    elif family == "reaching_far":
        human_object = np.array([0.50, 0.38, 0.12]) + rng.uniform(-1, 1, 3) * [0.03, 0.03, 0.02]
        gap_vec = human_object - robot_object
        gap = float(np.linalg.norm(gap_vec))
        if gap < FAR_GAP_MIN + 0.02:
            human_object = robot_object + gap_vec / gap * (FAR_GAP_MIN + 0.02)
    else:
        tight = seed % 2 == 1  # alternate tight and wide gaps across seeds
        gap = 0.035 if tight else 0.10 + 0.04 * float(rng.random())
        # Object sits on the robot's approach corridor just beyond its
        # goal, so paths that overshoot toward it read as ambiguous.
        direction = (robot_object + GRASP_OFFSET) - eef_start
        direction[2] = 0.0
        direction /= np.linalg.norm(direction)
        human_object = robot_object + gap * direction

    if family != "stationary":
        palm_goal = human_object + GRASP_OFFSET
        arm_goal = arm_start + (palm_goal - arm_start[RIGHT_ARM_JOINTS.index("right_palm")])
        noise_scale = 0.008

    move_duration = 1.1 + 0.2 * float(rng.random())
    script = ReachScript(
        arm_start=arm_start,
        arm_goal=arm_goal,
        move_duration=move_duration,
        total_duration=3.0,
        noise_scale=noise_scale,
        seed=FAMILY_IDS[family] * 10_000 + seed,
    )

    robot_start = _solve_config(chain, eef_start, _IK_SEED_CONFIG, "start")
    robot_goal = _solve_config(chain, robot_object + GRASP_OFFSET, robot_start, "goal")

    # Centered on the joint-interpolated path so the nominal has to bend
    # around it, displaced laterally away from the watched object so the
    # bend goes toward that side of the workspace.  The near family gets a
    # larger sphere later along the path: with both objects close together
    # the detour must happen near the goal to affect the approach at all.
    if family == "reaching_near":
        frac, radius, offset = 0.65, 0.09, 0.05
    else:
        frac, radius, offset = 0.5, 0.06, 0.035
    mid = fk_eef(chain, robot_start + frac * (robot_goal - robot_start))
    tangent = (robot_object + GRASP_OFFSET) - eef_start
    tangent /= np.linalg.norm(tangent)
    lateral = (mid - human_object) - np.dot(mid - human_object, tangent) * tangent
    norm = float(np.linalg.norm(lateral))
    if norm > 1e-9:
        lateral /= norm
    else:
        lateral = np.array([0.0, 0.0, 1.0])
    obstacle_center = mid + offset * lateral + rng.uniform(-1, 1, 3) * [0.015, 0.015, 0.015]
    obstacles = ((obstacle_center, radius),)

    return Scenario(
        family=family,
        seed=seed,
        chain=chain,
        robot_start=robot_start,
        robot_goal=robot_goal,
        robot_object=robot_object,
        human_object=human_object,
        human_script=script,
        obstacles=obstacles,
    )


def generate_scenarios(family: str, seeds) -> list[Scenario]:
    """Deterministic scenario per seed for one family, on the packaged arm."""
    chain = default_chain()
    return [make_scenario(family, int(s), chain) for s in seeds]


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "family": sc.family,
        "seed": sc.seed,
        "chain": sc.chain.name,
        "robot_start": [float(v) for v in sc.robot_start],
        "robot_goal": [float(v) for v in sc.robot_goal],
        "robot_object": [float(v) for v in sc.robot_object],
        "human_object": [float(v) for v in sc.human_object],
        "obstacles": [
            {"center": [float(v) for v in c], "radius": float(r)} for c, r in sc.obstacles
        ],
        "script": {
            "arm_start": dict(zip(RIGHT_ARM_JOINTS, sc.human_script.arm_start.tolist())),
            "arm_goal": dict(zip(RIGHT_ARM_JOINTS, sc.human_script.arm_goal.tolist())),
            "move_duration": sc.human_script.move_duration,
            "total_duration": sc.human_script.total_duration,
            "noise_scale": sc.human_script.noise_scale,
            "seed": sc.human_script.seed,
        },
    }


def _whole(value):
    """A whole float as an int, as the run config reads one (20.0 reads as 20); any
    other value as it is, for the records to check (20.5 is a ``ContractViolation``)."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _real(value, key: str, bound: str) -> float:
    """``value`` as a float, after ``check_real`` under the dotted ``key`` and ``bound``."""
    check_real(value, key, bound)
    return float(value)


def _arm_rows(script: dict, name: str) -> Array:
    """The (4, 3) rows, in ``RIGHT_ARM_JOINTS`` order, of the mapping of joint name to point at ``script[name]``."""
    check_keys(script[name], RIGHT_ARM_JOINTS, "scenario", ("script", name), required=True)
    return np.stack([check_array(script[name][joint], f"script.{name}.{joint}", (3,)) for joint in RIGHT_ARM_JOINTS])


#: The keys ``scenario_to_dict`` writes: the ``Scenario`` fields, with the reach script under ``script``.
_FILE_KEYS = tuple("script" if f.name == "human_script" else f.name for f in fields(Scenario))
_SCRIPT_KEYS = tuple(f.name for f in fields(ReachScript))


def scenario_from_dict(data: dict) -> Scenario:
    """Scenario from a mapping with every key of ``scenario_to_dict``'s and no other.

    The chain is the packaged one named by the ``chain`` key.  A value of
    the wrong type or range raises a ``ContractViolation`` that names its
    dotted key.
    """
    check_keys(data, _FILE_KEYS, "scenario", required=True)
    script = data["script"]
    check_keys(script, _SCRIPT_KEYS, "scenario", ("script",), required=True)
    obstacles = data["obstacles"]
    if not isinstance(obstacles, list):
        raise ContractViolation(f"scenario obstacles must be a list, got {type(obstacles).__name__}")
    for i, obstacle in enumerate(obstacles):
        check_keys(obstacle, ("center", "radius"), "scenario", ("obstacles", i), required=True)
    script_seed = _whole(script["seed"])
    check_real(script_seed, "script.seed", "non-negative", integer=True)
    return Scenario(
        family=data["family"],
        seed=_whole(data["seed"]),
        chain=load_chain(data["chain"]),
        robot_start=data["robot_start"],
        robot_goal=data["robot_goal"],
        robot_object=data["robot_object"],
        human_object=data["human_object"],
        human_script=ReachScript(
            arm_start=_arm_rows(script, "arm_start"),
            arm_goal=_arm_rows(script, "arm_goal"),
            move_duration=_real(script["move_duration"], "script.move_duration", "non-negative"),
            total_duration=_real(script["total_duration"], "script.total_duration", "positive"),
            noise_scale=_real(script["noise_scale"], "script.noise_scale", "non-negative"),
            seed=script_seed,
        ),
        obstacles=tuple(
            (
                check_array(o["center"], f"obstacles.{i}.center", (3,)),
                _real(o["radius"], f"obstacles.{i}.radius", "positive"),
            )
            for i, o in enumerate(obstacles)
        ),
    )


def save_scenario(sc: Scenario, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(scenario_to_dict(sc), sort_keys=False))


def load_scenario(path: str | Path) -> Scenario:
    return load_yaml(Path(path), scenario_from_dict)
