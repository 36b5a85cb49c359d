"""Evaluation metrics with exact hand-built cases: separation fractions,
field-of-view boundaries, chance-level goal inference, and squared
nominal deviation."""

from __future__ import annotations

import numpy as np
import pytest

from comoto.baselines import ExecutionTrace
from comoto.benchmark import evaluate_planned, load_config, prepare_scenario, run_method
from comoto.errors import ContractViolation
from comoto.human_motion import HumanTrajectory
from comoto.kinematics import JointTrajectory, fk_points_batch
from comoto.metrics import (
    GoalSet,
    MetricReport,
    aggregate,
    evaluate_run,
    metric_legibility,
    metric_nominal_dev,
    metric_separation,
    metric_visibility,
    trace_at_nominal_times,
)
from comoto.scenarios import make_scenario

# planar two-link configurations with hand-known robot points
Q_NEAR = [0.0, 0.0]  # points (0,0,0), (1,0,0), (2,0,0)
Q_FAR = [np.pi, 0.0]  # points (0,0,0), (-1,0,0), (-2,0,0)


def fixed_human(position, n=600, rate=100.0) -> HumanTrajectory:
    track = np.tile(np.asarray(position, dtype=float), (n, 1))
    return HumanTrajectory({"head": track}, rate)


def test_separation_fractions_exact(planar2):
    human = fixed_human([2.15, 0.0, 0.0])  # 0.15 from the near pose, 2.15 from the far one
    near4 = JointTrajectory(np.tile(Q_NEAR, (4, 1)), dt=0.1)
    far4 = JointTrajectory(np.tile(Q_FAR, (4, 1)), dt=0.1)
    half = JointTrajectory(np.array([Q_NEAR, Q_NEAR, Q_FAR, Q_FAR]), dt=0.1)
    assert metric_separation(planar2, far4, human, threshold=0.20) == 100.0
    assert metric_separation(planar2, near4, human, threshold=0.20) == 0.0
    assert metric_separation(planar2, half, human, threshold=0.20) == 50.0


def test_separation_matches_all_pairs_reference(arm):
    rng = np.random.default_rng(4)
    n_steps, rate = 700, 100.0
    configs = 0.4 * rng.standard_normal((n_steps, arm.n_joints)).cumsum(axis=0) / np.sqrt(n_steps)
    traj = JointTrajectory(configs, dt=1.0 / rate)
    tracks = {
        f"joint{j}": np.array([0.5, 0.0, 0.4]) + 0.3 * rng.standard_normal(3)
        + 0.02 * rng.standard_normal((n_steps, 3)).cumsum(axis=0)
        for j in range(5)
    }
    human = HumanTrajectory(tracks, rate)
    robot = fk_points_batch(arm, configs)
    stacked = np.stack(list(human.positions_at(traj.times).values()), axis=1)  # (T,J,3)
    diff = robot[:, None, :, :] - stacked[:, :, None, :]
    min_dist = np.sqrt(np.min(np.sum(diff**2, axis=3), axis=(1, 2)))
    for threshold in np.quantile(min_dist, [0.1, 0.5, 0.9]):
        want = 100.0 * np.count_nonzero(min_dist > threshold) / n_steps
        assert metric_separation(arm, traj, human, threshold) == want


def test_visibility_fov_boundary(planar2):
    # head at the origin, eef fixed at (2, 0, 0): the gaze target sets the angle
    human = fixed_human([0.0, 0.0, 0.0])
    traj = JointTrajectory(np.tile(Q_NEAR, (4, 1)), dt=0.1)

    def target_at(deg):
        rad = np.radians(deg)
        return np.array([np.cos(rad), np.sin(rad), 0.0])

    # half-aperture of a 160 degree field of view is 80 degrees
    assert metric_visibility(planar2, traj, human, target_at(70.0), fov_deg=160.0) == 100.0
    assert metric_visibility(planar2, traj, human, target_at(90.0), fov_deg=160.0) == 0.0
    assert metric_visibility(planar2, traj, human, target_at(79.999), fov_deg=160.0) == 100.0
    assert metric_visibility(planar2, traj, human, target_at(80.001), fov_deg=160.0) == 0.0


def test_visibility_counts_mixed_steps(planar2):
    human = fixed_human([0.0, 0.0, 0.0])
    # eef at (2,0,0) for two steps then (-2,0,0) for two: target along +x
    traj = JointTrajectory(np.array([Q_NEAR, Q_NEAR, Q_FAR, Q_FAR]), dt=0.1)
    assert metric_visibility(planar2, traj, human, np.array([1.0, 0, 0]), fov_deg=160.0) == 50.0


def test_legibility_chance_level_is_zero(planar2):
    # the whole path sits on the perpendicular bisector of the two goals
    traj = JointTrajectory(np.tile(Q_NEAR, (5, 1)), dt=0.1)
    goals = GoalSet(true_goal=np.array([1.0, 1.0, 0.0]), distractors=(np.array([1.0, -1.0, 0.0]),))
    assert abs(metric_legibility(planar2, traj, goals)) <= 1e-12


def test_legibility_sign_tracks_the_pursued_goal(planar2):
    goals = GoalSet(true_goal=np.array([0.0, 2.0, 0.0]), distractors=(np.array([2.0, 0.0, 0.0]),))
    toward_true = JointTrajectory(
        np.stack([np.linspace(0.0, np.pi / 2, 6), np.zeros(6)], axis=1), dt=0.1
    )
    toward_distractor = JointTrajectory(
        np.stack([np.linspace(np.pi / 2, 0.0, 6), np.zeros(6)], axis=1), dt=0.1
    )
    assert metric_legibility(planar2, toward_true, goals) > 0.0
    assert metric_legibility(planar2, toward_distractor, goals) < 0.0
    # score is bounded by construction
    assert -100.0 <= metric_legibility(planar2, toward_true, goals) <= 100.0


def test_nominal_deviation_hand_value(planar2):
    nominal = JointTrajectory(np.tile(Q_NEAR, (4, 1)), dt=0.1)
    same = JointTrajectory(np.tile(Q_NEAR, (4, 1)), dt=0.1)
    rotated = JointTrajectory(np.tile([np.pi / 2, 0.0], (4, 1)), dt=0.1)
    assert metric_nominal_dev(planar2, same, nominal) == 0.0
    # eef (2,0,0) vs (0,2,0): squared distance 8 at each of 4 steps
    assert metric_nominal_dev(planar2, rotated, nominal) == pytest.approx(32.0, rel=1e-12)
    with pytest.raises(ContractViolation):
        metric_nominal_dev(planar2, JointTrajectory(np.tile(Q_NEAR, (5, 1)), dt=0.1), nominal)


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
    aligned = trace_at_nominal_times(trace, nominal)
    assert np.allclose(aligned.waypoints, [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]], atol=1e-12)
    assert aligned.dt == nominal.dt
    assert aligned.t0 == nominal.t0


def test_evaluate_run_handles_trajectories_and_traces(planar2):
    human = fixed_human([0.0, 3.0, 0.0])
    nominal = JointTrajectory(np.tile(Q_NEAR, (4, 1)), dt=0.1)
    goals = GoalSet(true_goal=np.array([2.0, 0.0, 0.0]), distractors=(np.array([0.5, 2.0, 0.0]),))
    target = np.array([0.5, 2.0, 0.0])
    planned = evaluate_run(planar2, nominal, human, nominal, goals, gaze_target=target)
    assert planned.completed
    assert planned.nom_dev == 0.0
    trace = ExecutionTrace(
        timestamps=nominal.times, configs=nominal.waypoints, completed=False
    )
    executed = evaluate_run(planar2, trace, human, nominal, goals, gaze_target=target)
    assert not executed.completed
    assert executed.nom_dev == pytest.approx(planned.nom_dev, abs=1e-12)
    assert executed.dst_pct == planned.dst_pct


def test_evaluate_run_equals_the_four_metrics_bit_for_bit(arm):
    # evaluate_run (here through the benchmark's evaluate_planned) shares
    # one FK pass between the metrics; each public metric_* runs its own.
    cfg = load_config()
    sc = make_scenario("reaching_near", 2, arm)
    bundle = prepare_scenario(sc, cfg)
    nominal = bundle.nominal
    bent = nominal.copy()
    rng = np.random.default_rng(0)
    bent.waypoints[1:-1] += 0.05 * rng.standard_normal(bent.waypoints[1:-1].shape)
    trace, _ = run_method("Speed-Adj", bundle, cfg)
    assert isinstance(trace, ExecutionTrace)
    for planned in (nominal, bent, trace):
        report = evaluate_planned(bundle, planned, cfg)
        aligned = trace_at_nominal_times(planned, nominal) if planned is trace else planned
        want = (
            metric_separation(arm, planned, bundle.truth, cfg.separation_threshold),
            metric_visibility(arm, planned, bundle.truth, sc.human_object, cfg.fov_deg),
            metric_legibility(arm, planned, bundle.goals),
            metric_nominal_dev(arm, aligned, nominal),
        )
        got = (report.dst_pct, report.vis_pct, report.legibility, report.nom_dev)
        assert [np.float64(v).tobytes() for v in got] == [np.float64(v).tobytes() for v in want]
    assert 0.0 < report.nom_dev


def test_unknown_planned_type_rejected(planar2):
    human = fixed_human([0.0, 3.0, 0.0])
    with pytest.raises(ContractViolation):
        metric_separation(planar2, "not a trajectory", human)


def test_visibility_needs_head_track(planar2):
    traj = JointTrajectory(np.tile(Q_NEAR, (4, 1)), dt=0.1)
    headless = HumanTrajectory({"right_palm": np.zeros((10, 3))}, rate=100.0)
    with pytest.raises(ContractViolation):
        metric_visibility(planar2, traj, headless, np.array([1.0, 0, 0]))
