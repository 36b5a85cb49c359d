"""Evaluation metrics with exact hand-built cases: separation fractions,
field-of-view boundaries, chance-level goal inference, and squared
nominal deviation."""

from __future__ import annotations

import numpy as np
import pytest

from comoto.baselines import ExecutionTrace
from comoto.errors import ContractViolation
from comoto.human_motion import HumanTrajectory
from comoto.kinematics import JointTrajectory, fk_points_batch
from comoto.metrics import (
    FK_BLOCK,
    GoalSet,
    MetricReport,
    _legibility_score,
    _nominal_dev,
    _visibility_pct,
    aggregate,
    evaluate_run,
)

from conftest import CFG

# planar two-link configurations with hand-known robot points
Q_NEAR = [0.0, 0.0]  # points (0,0,0), (1,0,0), (2,0,0)
Q_FAR = [np.pi, 0.0]  # points (0,0,0), (-1,0,0), (-2,0,0)

GOALS = GoalSet(true_goal=np.array([2.0, 0.0, 0.0]), distractors=(np.array([0.5, 2.0, 0.0]),))


def fixed_human(position, n=600, rate=100.0) -> HumanTrajectory:
    track = np.tile(np.asarray(position, dtype=float), (n, 1, 1))
    return HumanTrajectory(("head",), track, rate)


def human_from(tracks: dict, rate) -> HumanTrajectory:
    """Ground truth from per-joint (T, 3) tracks, in the dict's order."""
    return HumanTrajectory(tuple(tracks), np.stack(list(tracks.values()), axis=1), rate)


def metrics(chain, planned, human, target=(0.5, 2.0, 0.0), goals=GOALS, nominal=None, **settings):
    """``evaluate_run`` with the packaged config's threshold and field of view;
    ``planned`` is its own nominal unless one is given."""
    settings = {"threshold": CFG.separation_threshold, "fov_deg": CFG.fov_deg, **settings}
    nominal = planned if nominal is None else nominal
    return evaluate_run(
        chain, planned, human, nominal, goals, gaze_target=np.asarray(target), **settings
    )


def test_separation_fractions_exact(planar2):
    human = fixed_human([2.15, 0.0, 0.0])  # 0.15 from the near pose, 2.15 from the far one
    assert 0.15 < CFG.separation_threshold < 2.15
    near4 = JointTrajectory(np.tile(Q_NEAR, (4, 1)), dt=0.1)
    far4 = JointTrajectory(np.tile(Q_FAR, (4, 1)), dt=0.1)
    half = JointTrajectory(np.array([Q_NEAR, Q_NEAR, Q_FAR, Q_FAR]), dt=0.1)
    assert metrics(planar2, far4, human).dst_pct == 100.0
    assert metrics(planar2, near4, human).dst_pct == 0.0
    assert metrics(planar2, half, human).dst_pct == 50.0


def test_separation_matches_all_pairs_reference(arm):
    rng = np.random.default_rng(4)
    n_steps, rate = 700, 100.0
    configs = 0.4 * rng.standard_normal((n_steps, arm.n_joints)).cumsum(axis=0) / np.sqrt(n_steps)
    traj = JointTrajectory(configs, dt=1.0 / rate)
    tracks = {
        name: np.array([0.5, 0.0, 0.4]) + 0.3 * rng.standard_normal(3)
        + 0.02 * rng.standard_normal((n_steps, 3)).cumsum(axis=0)
        for name in ("head", "joint1", "joint2", "joint3", "joint4")
    }
    human = human_from(tracks, rate)
    robot = fk_points_batch(arm, configs)
    stacked = human.positions_at(traj.times)  # (T,J,3)
    diff = robot[:, None, :, :] - stacked[:, :, None, :]
    min_dist = np.sqrt(np.min(np.sum(diff**2, axis=3), axis=(1, 2)))
    for threshold in np.quantile(min_dist, [0.1, 0.5, 0.9]):
        want = 100.0 * np.count_nonzero(min_dist > threshold) / n_steps
        assert metrics(arm, traj, human, threshold=threshold).dst_pct == want


def whole_trace_evaluate_run(chain, planned, human_truth, nominal, goals, gaze_target, threshold, fov_deg):
    """``evaluate_run`` as first written: FK and the human tracks over the
    whole trace at once, the separation as a percentage of those steps."""
    if isinstance(planned, ExecutionTrace):
        times, configs = planned.timestamps, planned.configs
    else:
        times, configs = planned.times, planned.waypoints
    robot = fk_points_batch(chain, configs)
    human = human_truth.positions_at(times)
    min_sq = np.full(robot.shape[:2], np.inf)
    for j in range(human.shape[1]):
        np.minimum(min_sq, np.sum((robot - human[:, j, None, :]) ** 2, axis=2), out=min_sq)
    min_dist = np.sqrt(np.min(min_sq, axis=1))
    dst = float(100.0 * np.count_nonzero(min_dist > threshold) / robot.shape[0])
    eef = robot[:, -1]
    vis = _visibility_pct(eef, human[:, human_truth.joints.index("head")], gaze_target, fov_deg)
    leg = _legibility_score(eef, goals)
    if isinstance(planned, ExecutionTrace):
        aligned = planned.configs_at(nominal.times)
        nom = _nominal_dev(chain, fk_points_batch(chain, aligned)[:, -1], nominal)
        completed = planned.completed
    else:
        nom = _nominal_dev(chain, eef, nominal)
        completed = True
    return MetricReport(dst_pct=dst, vis_pct=vis, legibility=leg, nom_dev=nom, completed=completed), min_dist


def test_evaluate_run_in_blocks_matches_whole_trace(arm):
    rng = np.random.default_rng(9)
    n_steps, rate = 2 * FK_BLOCK + 37, 100.0
    configs = 0.6 * rng.standard_normal((n_steps, arm.n_joints)).cumsum(axis=0) / np.sqrt(n_steps)
    tracks = {
        name: np.array([0.5, 0.0, 0.4]) + 0.3 * rng.standard_normal(3)
        + 0.02 * rng.standard_normal((n_steps, 3)).cumsum(axis=0)
        for name in ("head", "joint1", "joint2", "joint3")
    }
    human = human_from(tracks, rate)
    traj = JointTrajectory(configs, dt=1.0 / rate)
    own_nominal = JointTrajectory(configs[::-1], dt=1.0 / rate)
    nominal = JointTrajectory(configs[::40], dt=40.0 / rate)
    trace = ExecutionTrace(traj.times + 0.25, configs, completed=False)
    goals = GoalSet(true_goal=np.array([0.6, 0.2, 0.5]), distractors=(np.array([0.3, -0.5, 0.6]),))
    target = np.array([0.4, 0.3, 0.9])
    for planned, nom in ((traj, own_nominal), (trace, nominal)):
        _, min_dist = whole_trace_evaluate_run(arm, planned, human, nom, goals, target, 0.0, 90.0)
        threshold = float(np.median(min_dist))
        args = (arm, planned, human, nom, goals, target, threshold, 90.0)
        want, _ = whole_trace_evaluate_run(*args)
        got = evaluate_run(*args)
        assert 0.0 < got.dst_pct < 100.0 and 0.0 < got.vis_pct < 100.0
        for name in ("dst_pct", "vis_pct", "legibility", "nom_dev"):
            assert np.float64(getattr(got, name)).tobytes() == np.float64(getattr(want, name)).tobytes()
        assert got.completed == want.completed


def running_minimum_separations(robot, human):
    """Each step's separation as the separation count first computed it: a
    running minimum of squared distances over the human joints, summed
    over the last axis."""
    min_sq = np.full(robot.shape[:2], np.inf)
    for j in range(human.shape[1]):
        diff = robot - human[:, j, None, :]
        np.minimum(min_sq, np.sum(diff**2, axis=2), out=min_sq)
    return np.sqrt(np.min(min_sq, axis=1))


def test_dst_pct_matches_running_minimum_at_exact_threshold(arm):
    # A trace over two full FK blocks and a partial one; each threshold is
    # one step's separation exactly, so that step counts as not separated
    # only if the kernel gives it the reference's bits, and every sixth
    # step is one, so that a kernel adding x + (y + z) is caught.
    rng = np.random.default_rng(12)
    n_steps, rate = 2 * FK_BLOCK + 91, 100.0
    configs = 0.5 * rng.standard_normal((n_steps, arm.n_joints)).cumsum(axis=0) / np.sqrt(n_steps)
    tracks = {
        name: np.array([0.5, -0.1, 0.5]) + 0.3 * rng.standard_normal(3)
        + 0.02 * rng.standard_normal((n_steps, 3)).cumsum(axis=0)
        for name in ("head", "right_shoulder", "right_elbow", "right_wrist", "right_palm")
    }
    human = human_from(tracks, rate)
    traj = JointTrajectory(configs, dt=1.0 / rate)
    want = running_minimum_separations(fk_points_batch(arm, configs), human.positions_at(traj.times))
    for step in [*range(0, n_steps, 6), n_steps - 1, int(np.argmax(want))]:
        threshold = float(want[step])
        expected = 100.0 * np.count_nonzero(want > threshold) / n_steps
        assert 0.0 <= expected < 100.0
        got = metrics(arm, traj, human, threshold=threshold).dst_pct
        assert np.float64(got).tobytes() == np.float64(expected).tobytes(), step


def test_visibility_fov_boundary(planar2):
    # head at the origin, eef fixed at (2, 0, 0): the gaze target sets the angle
    human = fixed_human([0.0, 0.0, 0.0])
    traj = JointTrajectory(np.tile(Q_NEAR, (4, 1)), dt=0.1)

    def target_at(deg):
        rad = np.radians(deg)
        return np.array([np.cos(rad), np.sin(rad), 0.0])

    half = CFG.fov_deg / 2.0  # the field of view's half-aperture
    assert metrics(planar2, traj, human, target_at(half - 10.0)).vis_pct == 100.0
    assert metrics(planar2, traj, human, target_at(half + 10.0)).vis_pct == 0.0
    assert metrics(planar2, traj, human, target_at(half - 0.001)).vis_pct == 100.0
    assert metrics(planar2, traj, human, target_at(half + 0.001)).vis_pct == 0.0


def test_visibility_counts_mixed_steps(planar2):
    human = fixed_human([0.0, 0.0, 0.0])
    # eef at (2,0,0) for two steps then (-2,0,0) for two: target along +x
    traj = JointTrajectory(np.array([Q_NEAR, Q_NEAR, Q_FAR, Q_FAR]), dt=0.1)
    assert metrics(planar2, traj, human, [1.0, 0, 0]).vis_pct == 50.0


def test_legibility_chance_level_is_zero(planar2):
    # the whole path sits on the perpendicular bisector of the two goals
    traj = JointTrajectory(np.tile(Q_NEAR, (5, 1)), dt=0.1)
    goals = GoalSet(true_goal=np.array([1.0, 1.0, 0.0]), distractors=(np.array([1.0, -1.0, 0.0]),))
    assert abs(metrics(planar2, traj, fixed_human([0.0, 3.0, 0.0]), goals=goals).legibility) <= 1e-12


def test_legibility_sign_tracks_the_pursued_goal(planar2):
    goals = GoalSet(true_goal=np.array([0.0, 2.0, 0.0]), distractors=(np.array([2.0, 0.0, 0.0]),))
    toward_true = JointTrajectory(
        np.stack([np.linspace(0.0, np.pi / 2, 6), np.zeros(6)], axis=1), dt=0.1
    )
    toward_distractor = JointTrajectory(
        np.stack([np.linspace(np.pi / 2, 0.0, 6), np.zeros(6)], axis=1), dt=0.1
    )
    human = fixed_human([0.0, 3.0, 0.0])
    toward_true = metrics(planar2, toward_true, human, goals=goals).legibility
    assert metrics(planar2, toward_distractor, human, goals=goals).legibility < 0.0
    # score is bounded by construction
    assert 0.0 < toward_true <= 100.0


def test_nominal_deviation_hand_value(planar2):
    nominal = JointTrajectory(np.tile(Q_NEAR, (4, 1)), dt=0.1)
    same = JointTrajectory(np.tile(Q_NEAR, (4, 1)), dt=0.1)
    rotated = JointTrajectory(np.tile([np.pi / 2, 0.0], (4, 1)), dt=0.1)
    human = fixed_human([0.0, 3.0, 0.0])
    assert metrics(planar2, same, human, nominal=nominal).nom_dev == 0.0
    # eef (2,0,0) vs (0,2,0): squared distance 8 at each of 4 steps
    assert metrics(planar2, rotated, human, nominal=nominal).nom_dev == pytest.approx(32.0, rel=1e-12)
    longer = JointTrajectory(np.tile(Q_NEAR, (5, 1)), dt=0.1)
    with pytest.raises(ContractViolation):
        metrics(planar2, longer, human, nominal=nominal)


def test_aggregate_mean_and_sample_sd():
    reports = [
        MetricReport(dst_pct=100.0, vis_pct=40.0, legibility=80.0, nom_dev=0.0),
        MetricReport(dst_pct=90.0, vis_pct=60.0, legibility=90.0, nom_dev=2.0),
    ]
    stats = aggregate(reports)
    assert stats["legibility"][0] == pytest.approx(85.0, abs=1e-12)
    assert abs(stats["legibility"][1] - 7.0710678) <= 1e-3
    assert stats["dst_pct"] == (95.0, pytest.approx(7.0710678, abs=1e-3))
    single = aggregate(reports[:1])
    assert single["legibility"] == (80.0, 0.0)
    with pytest.raises(ContractViolation):
        aggregate([])


def test_goal_set_validation():
    g = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ContractViolation):
        GoalSet(true_goal=g, distractors=())
    with pytest.raises(ContractViolation):
        GoalSet(true_goal=g, distractors=(g.copy(),))
    ok = GoalSet(true_goal=g, distractors=(np.array([0.0, 1.0, 0.0]),))
    assert len(ok.all_goals) == 2


def test_trace_alignment_on_nominal_clock(planar2):
    nominal = JointTrajectory(np.array([[0.0, 0.0], [0.2, 0.0], [0.4, 0.0]]), dt=0.5, t0=1.0)
    trace = ExecutionTrace(
        timestamps=np.array([1.0, 3.0]),
        configs=np.array([[0.0, 0.0], [0.4, 0.0]]),
        completed=True,
    )
    aligned = trace.configs_at(nominal.times)
    assert np.allclose(aligned, [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]], atol=1e-12)


def test_evaluate_run_handles_trajectories_and_traces(planar2):
    human = fixed_human([0.0, 3.0, 0.0])
    nominal = JointTrajectory(np.tile(Q_NEAR, (4, 1)), dt=0.1)
    planned = metrics(planar2, nominal, human)
    assert planned.completed
    assert planned.nom_dev == 0.0
    trace = ExecutionTrace(
        timestamps=nominal.times, configs=nominal.waypoints, completed=False
    )
    executed = metrics(planar2, trace, human, nominal=nominal)
    assert not executed.completed
    assert executed.nom_dev == pytest.approx(planned.nom_dev, abs=1e-12)
    assert executed.dst_pct == planned.dst_pct


def test_unknown_planned_type_rejected(planar2):
    human = fixed_human([0.0, 3.0, 0.0])
    nominal = JointTrajectory(np.tile(Q_NEAR, (4, 1)), dt=0.1)
    with pytest.raises(ContractViolation):
        metrics(planar2, "not a trajectory", human, nominal=nominal)


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"threshold": float("nan")}, "threshold must be finite and positive, got nan"),
        ({"threshold": 0.0}, "threshold must be finite and positive, got 0.0"),
        ({"threshold": "0.3"}, "threshold must be finite and positive, got '0.3'"),
        ({"fov_deg": -5.0}, r"fov_deg must be in \(0, 360\], got -5.0"),
        ({"fov_deg": 0.0}, r"fov_deg must be in \(0, 360\], got 0.0"),
        ({"fov_deg": 361.0}, r"fov_deg must be in \(0, 360\], got 361.0"),
        ({"fov_deg": float("nan")}, "fov_deg must be finite, got nan"),
    ],
)
def test_evaluate_run_checks_threshold_and_fov_as_the_run_config_does(planar2, settings, message):
    traj = JointTrajectory(np.tile(Q_NEAR, (4, 1)), dt=0.1)
    with pytest.raises(ContractViolation, match=f"^{message}$"):
        metrics(planar2, traj, fixed_human([0.0, 3.0, 0.0]), **settings)


def test_visibility_needs_head_track(planar2):
    traj = JointTrajectory(np.tile(Q_NEAR, (4, 1)), dt=0.1)
    headless = HumanTrajectory(("right_palm",), np.zeros((10, 1, 3)), rate=100.0)
    with pytest.raises(ContractViolation):
        metrics(planar2, traj, headless)
