"""Evaluation metrics, always computed against ground-truth human motion.

Four measures per run: percentage of steps with separation above a
threshold, percentage of steps with the end effector inside the human's
field of view, a goal-inference (legibility) score normalized so chance
is 0 and certainty 100, and squared deviation from the nominal
trajectory.  Optimized trajectories are evaluated on their waypoint
grid; executed traces on their realized control ticks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .baselines import ExecutionTrace, min_separations
from .errors import ContractViolation, check_array, check_real
from .human_motion import HumanTrajectory
from .kinematics import ChainSpec, JointTrajectory, fk_points_batch

Array = np.ndarray


@dataclass(frozen=True)
class GoalSet:
    """True goal plus at least one distractor, all distinct, meters."""

    true_goal: Array
    distractors: tuple

    def __post_init__(self):
        true_goal = check_array(self.true_goal, "true_goal", (3,))
        distractors = tuple(check_array(d, f"distractors[{i}]", (3,)) for i, d in enumerate(self.distractors))
        if len(distractors) < 1:
            raise ContractViolation("goal set needs at least one distractor")
        pts = [true_goal, *distractors]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if np.linalg.norm(pts[i] - pts[j]) < 1e-9:
                    raise ContractViolation("goal set contains coincident points")
        object.__setattr__(self, "true_goal", true_goal)
        object.__setattr__(self, "distractors", distractors)

    @property
    def all_goals(self) -> list:
        return [self.true_goal, *self.distractors]


@dataclass(frozen=True)
class MetricReport:
    """One run's metric values.

    The fields are the metric columns of the benchmark's ``results.csv``
    and ``runs.csv`` and the keys ``comoto eval`` prints, in this order.
    """

    #: Percent of steps whose minimum human-robot distance exceeds the
    #: separation threshold.
    dst_pct: float
    #: Percent of steps with the end effector inside the gaze-centered field
    #: of view: the gaze ray runs from the head to the target object, and a
    #: step counts when the head-to-eef direction is within half the field
    #: of view of that ray.  Steps with a degenerate gaze count as not visible.
    vis_pct: float
    #: Goal-inference score, 100 at certainty and 0 at chance level.  Per
    #: step, the posterior over goals uses the exponentiated path-length
    #: ratio per goal with straight-line optimal costs; the time-weighted
    #: posterior of the true goal is mapped through ``(p - 1/K) * K / (K - 1)``
    #: and scaled to percent.
    legibility: float
    #: Sum of squared end-effector distances to the nominal, meters^2; an
    #: executed trace is first sampled on the nominal's waypoint clock.
    nom_dev: float
    completed: bool = True


#: The averaged metrics: every field but the ``completed`` status.
METRIC_NAMES = tuple(f.name for f in fields(MetricReport) if f.name != "completed")

#: Steps per block of ``evaluate_run``'s FK and human sampling.  Bounds the
#: (block, n+1, 4, 4) transform stack and the (block, J, 3) human joints that
#: a long execution trace would otherwise allocate in one piece.
FK_BLOCK = 256


# The metrics over precomputed robot points, so that evaluate_run needs
# one FK pass and one human interpolation for all of them.


def check_fov_deg(fov_deg: float) -> None:
    """Raise a ``ContractViolation`` unless ``fov_deg`` is finite and in (0, 360]."""
    check_real(fov_deg, "fov_deg")
    if not 0 < fov_deg <= 360:
        raise ContractViolation(f"fov_deg must be in (0, 360], got {fov_deg!r}")


def _visibility_pct(eef: Array, head: Array, target: Array, fov_deg: float) -> float:
    gaze = target[None, :] - head
    to_eef = eef - head
    n_gaze = np.linalg.norm(gaze, axis=1)
    n_eef = np.linalg.norm(to_eef, axis=1)
    ok = (n_gaze > 1e-9) & (n_eef > 1e-9)
    if not np.all(ok):
        warnings.warn("degenerate gaze or eef-at-head steps counted as not visible")
    cosang = np.einsum("ta,ta->t", gaze, to_eef) / np.maximum(n_gaze * n_eef, 1e-300)
    angle = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    visible = ok & (angle <= fov_deg / 2.0)
    return float(100.0 * np.count_nonzero(visible) / eef.shape[0])


def _legibility_score(eef: Array, goals: GoalSet) -> float:
    T = eef.shape[0]
    seg_len = np.linalg.norm(np.diff(eef, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg_len)])
    all_goals = goals.all_goals
    K = len(all_goals)
    P = np.empty((K, T))
    for gi, g in enumerate(all_goals):
        r = np.linalg.norm(eef - g[None, :], axis=1)
        P[gi] = np.exp(r[0] - s - r)
    denom = P.sum(axis=0)
    p_true = np.where(denom > 1e-300, P[0] / np.maximum(denom, 1e-300), 1.0 / K)
    f = np.arange(T, 0, -1, dtype=float)
    weighted = float(np.sum(p_true * f) / np.sum(f))
    return float(100.0 * (weighted - 1.0 / K) * K / (K - 1.0))


def _nominal_dev(chain: ChainSpec, eef: Array, nominal: JointTrajectory) -> float:
    if eef.shape[0] != nominal.n_waypoints:
        raise ContractViolation("trajectory and nominal must have equal waypoint counts")
    eef_nom = fk_points_batch(chain, nominal.waypoints)[:, -1]
    return float(np.sum(np.linalg.norm(eef - eef_nom, axis=1) ** 2))


def evaluate_run(
    chain: ChainSpec,
    planned,
    human_truth: HumanTrajectory,
    nominal: JointTrajectory,
    goals: GoalSet,
    gaze_target: Array,
    threshold: float,
    fov_deg: float,
) -> MetricReport:
    """All four metrics for one planned trajectory or executed trace.

    One FK pass over the evaluated configurations and one sampling of
    the human tracks serve every metric, both in blocks of ``FK_BLOCK``
    steps: ``HumanTrajectory.positions_at`` gives a block's (B, J, 3)
    joints, which one ``min_separations`` call takes as they are, and
    the head (which ``joints`` must name) is read by its index.  An
    executed trace adds one FK pass over its samples on the nominal clock.
    ``threshold`` (meters, positive) and ``fov_deg`` (in (0, 360]) are
    the run config's ``metrics`` section.
    """
    gaze_target = check_array(gaze_target, "gaze_target", (3,))
    check_real(threshold, "threshold", "positive")
    check_fov_deg(fov_deg)
    if isinstance(planned, ExecutionTrace):
        times, configs = planned.timestamps, planned.configs
    elif isinstance(planned, JointTrajectory):
        times, configs = planned.times, planned.waypoints
    else:
        raise ContractViolation(f"cannot evaluate object of type {type(planned).__name__}")
    if "head" not in human_truth.joints:
        raise ContractViolation("ground truth has no head track")
    head_joint = human_truth.joints.index("head")
    # The metrics after the separation count need only the end effector and the head.
    T = times.shape[0]
    eef, head = np.empty((T, 3)), np.empty((T, 3))
    separated = 0
    for start in range(0, T, FK_BLOCK):
        block = slice(start, start + FK_BLOCK)
        robot = fk_points_batch(chain, configs[block])
        human = human_truth.positions_at(times[block])
        separated += int(np.count_nonzero(min_separations(robot, human) > threshold))
        eef[block], head[block] = robot[:, -1], human[:, head_joint]
    dst = 100.0 * separated / T
    vis = _visibility_pct(eef, head, gaze_target, fov_deg)
    leg = _legibility_score(eef, goals)
    if isinstance(planned, ExecutionTrace):
        aligned = planned.configs_at(nominal.times)  # the trace on the nominal clock
        nom = _nominal_dev(chain, fk_points_batch(chain, aligned)[:, -1], nominal)
        completed = planned.completed
    else:
        nom = _nominal_dev(chain, eef, nominal)
        completed = True
    return MetricReport(dst_pct=dst, vis_pct=vis, legibility=leg, nom_dev=nom, completed=completed)


def aggregate(reports: list[MetricReport]) -> dict[str, tuple[float, float]]:
    """Per-metric (mean, sample standard deviation); one report gives SD 0."""
    if len(reports) == 0:
        raise ContractViolation("need at least one report to aggregate")
    out = {}
    for name in METRIC_NAMES:
        vals = np.asarray([getattr(r, name) for r in reports], dtype=float)
        sd = 0.0 if vals.size == 1 else float(np.std(vals, ddof=1))
        out[name] = (float(np.mean(vals)), sd)
    return out
