"""Synthetic human reaches and the Gaussian-tube motion predictor."""

from __future__ import annotations

import dataclasses
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import CFG

from comoto import human_motion
from comoto.errors import ContractViolation
from comoto.fileio import read_yaml
from comoto.human_motion import (
    EXTRAPOLATED_JOINTS,
    MAX_STEP_AT_100HZ,
    OBSERVATION_WINDOW,
    RIGHT_ARM_JOINTS,
    HumanTrajectory,
    PredictedHumanTrajectory,
    PredictorOptions,
    ReachScript,
    extrapolate_skeleton,
    generate_reach,
    load_skeleton_offsets,
    minimum_jerk_fraction,
    predict,
    sample_rows,
    sample_rows_many,
)


def make_pose(palm: np.ndarray) -> np.ndarray:
    """A (4, 3) right-arm pose in ``RIGHT_ARM_JOINTS`` order."""
    palm = np.asarray(palm, dtype=float)
    shoulder = palm + np.array([0.2, 0.1, 0.3])
    return np.stack([shoulder, shoulder + 0.5 * (palm - shoulder), shoulder + 0.85 * (palm - shoulder), palm])


def make_script(goal_shift, move_duration=1.0, total_duration=2.5, noise_scale=0.0, seed=0):
    start = make_pose(np.array([0.7, 0.2, 0.1]))
    goal = start + np.asarray(goal_shift, dtype=float)
    return ReachScript(start, goal, move_duration, total_duration, noise_scale, seed)


def test_minimum_jerk_fraction_values():
    taus = np.linspace(0.0, 1.0, 101)
    oracle = 10 * taus**3 - 15 * taus**4 + 6 * taus**5
    assert np.max(np.abs(minimum_jerk_fraction(taus) - oracle)) <= 1e-15
    assert minimum_jerk_fraction(0.0) == 0.0
    assert minimum_jerk_fraction(1.0) == 1.0
    assert minimum_jerk_fraction(0.5) == pytest.approx(0.5, abs=1e-15)
    # clamped outside the unit interval
    assert minimum_jerk_fraction(-0.3) == 0.0
    assert minimum_jerk_fraction(1.7) == 1.0
    assert np.all(np.diff(minimum_jerk_fraction(taus)) >= 0)


def test_generate_reach_endpoints_and_hold():
    script = make_script([0.0, 0.25, 0.0])
    truth = generate_reach(script, rate=100.0)
    assert truth.n_samples == 251
    assert truth.duration == pytest.approx(2.5)
    for j, name in enumerate(RIGHT_ARM_JOINTS):
        track = truth.samples[name]
        assert np.allclose(track[0], script.arm_start[j], atol=1e-15)
        # on goal at move_duration and frozen afterwards
        k_move = int(round(script.move_duration * 100.0))
        assert np.allclose(track[k_move], script.arm_goal[j], atol=1e-12)
        assert np.max(np.abs(track[k_move:] - track[k_move])) == 0.0


def test_generate_reach_stationary_is_constant():
    start = make_pose(np.array([0.7, 0.2, 0.1]))
    script = ReachScript(start, start, move_duration=0.0, total_duration=2.0)
    truth = generate_reach(script, rate=100.0)
    for j, name in enumerate(RIGHT_ARM_JOINTS):
        assert np.max(np.abs(truth.samples[name] - start[j])) == 0.0
    shoulder = start[RIGHT_ARM_JOINTS.index("right_shoulder")]
    for offset, name in zip(load_skeleton_offsets(), EXTRAPOLATED_JOINTS):
        assert np.allclose(truth.samples[name], shoulder + offset, atol=1e-15)


def test_generate_reach_step_bound_with_noise():
    # inter-sample displacement stays physically plausible at 100 Hz
    for seed in range(8):
        script = make_script([0.1, 0.3, -0.1], noise_scale=0.01, seed=seed)
        truth = generate_reach(script, rate=100.0)
        for name in truth.joints:
            steps = np.linalg.norm(np.diff(truth.samples[name], axis=0), axis=1)
            assert np.max(steps) <= MAX_STEP_AT_100HZ


def test_generate_reach_deterministic():
    a = generate_reach(make_script([0.1, 0.2, 0.0], noise_scale=0.008, seed=4), rate=100.0)
    b = generate_reach(make_script([0.1, 0.2, 0.0], noise_scale=0.008, seed=4), rate=100.0)
    for name in a.joints:
        assert np.array_equal(a.samples[name], b.samples[name])


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -100.0, "100"])
def test_generate_reach_rejects_bad_rate(rate):
    with pytest.raises(ContractViolation, match="rate must be finite and positive"):
        generate_reach(make_script([0.1, 0.2, 0.0]), rate)


def test_reach_script_validation():
    start = make_pose(np.array([0.7, 0.2, 0.1]))
    with pytest.raises(ContractViolation):
        ReachScript(start, start, move_duration=3.0, total_duration=2.0)
    with pytest.raises(ContractViolation):
        ReachScript(start, start, move_duration=1.0, total_duration=2.0, noise_scale=-0.1)
    with pytest.raises(ContractViolation, match=r"^seed must be an integer and non-negative, got -1$"):
        ReachScript(start, start, move_duration=1.0, total_duration=2.0, seed=-1)
    with pytest.raises(ContractViolation, match=r"^arm_start must have shape \(4, 3\), got \(3, 3\)$"):
        ReachScript(start[:3], start, move_duration=1.0, total_duration=2.0)


def test_reach_script_poses_are_read_only_float_copies():
    start = make_pose(np.array([0.7, 0.2, 0.1]))
    script = ReachScript(start, start.tolist(), move_duration=1.0, total_duration=2.0)
    start[:] = 0.0
    for pose in (script.arm_start, script.arm_goal):
        assert pose.shape == (len(RIGHT_ARM_JOINTS), 3) and pose.dtype == np.float64 and pose.all()
        with pytest.raises(ValueError, match="read-only"):
            pose[0, 0] = 1.0


def test_trajectory_prefix_and_interpolation():
    track = np.stack([np.arange(5.0), np.zeros(5), np.zeros(5)], axis=1)
    traj = HumanTrajectory(("right_palm", "head"), np.stack([track, -track], axis=1), rate=2.0)
    assert traj.duration == pytest.approx(2.0)
    assert traj.tracks.shape == (5, 2, 3)
    assert list(traj.samples) == list(traj.joints)
    for j, name in enumerate(traj.joints):
        assert np.shares_memory(traj.samples[name], traj.tracks)
        assert traj.samples[name].tobytes() == traj.tracks[:, j].tobytes()
    pre = traj.prefix(1.0)
    assert pre.n_samples == 3 and pre.joints == traj.joints
    assert np.array_equal(pre.samples["right_palm"], track[:3])
    assert traj.prefix(0.0).n_samples == traj.prefix(-0.0).n_samples == 1
    for duration in (2.0, 2.4, 1e300):  # at most the whole record
        assert np.array_equal(traj.prefix(duration).tracks, traj.tracks)
    mid = traj.positions_at(np.array([0.25]))  # (B, J, 3) in joints order
    assert mid.shape == (1, 2, 3)
    assert np.allclose(mid, [[[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]]], atol=1e-15)
    held = traj.positions_at(np.array([-1.0, 99.0]))[:, traj.joints.index("right_palm")]
    assert np.allclose(held, [[0.0, 0, 0], [4.0, 0, 0]], atol=1e-15)


@pytest.mark.parametrize("duration", [-1.0, -1e-9, math.nan, math.inf, -math.inf])
def test_trajectory_prefix_rejects_negative_or_non_finite_duration(duration):
    traj = HumanTrajectory(("head",), np.zeros((301, 1, 3)), rate=100.0)
    with pytest.raises(ContractViolation, match="prefix duration"):
        traj.prefix(duration)


def test_trajectory_validation():
    # One track per named joint, and one name per joint.
    for joints in (("a", "b"), ("a", "b", "c")):
        shape = rf"\(\*, {len(joints)}, 3\), got \(4, 1, 3\)$"
        with pytest.raises(ContractViolation, match=rf"^tracks \(a \(T, 3\) track per joint\) must have shape {shape}"):
            HumanTrajectory(joints, np.zeros((4, 1, 3)), rate=10.0)
    with pytest.raises(ContractViolation, match="distinct joint names"):
        HumanTrajectory(("a", "a"), np.zeros((4, 2, 3)), rate=10.0)
    with pytest.raises(ContractViolation):
        HumanTrajectory(("a",), np.zeros((4, 1, 3)), rate=0.0)


# Each case's ``samples`` is its (joints, tracks) pair.
@pytest.mark.parametrize(
    "samples, rate, message",
    [
        ((("head",), np.zeros((5, 1, 3))), math.nan, "rate"),
        ((("head",), np.zeros((5, 1, 3))), math.inf, "rate"),
        ((("head",), np.zeros((5, 1, 3))), -1.0, "rate"),
        ((("head",), np.zeros((5, 1, 2))), 100.0, r"\(T, 3\)"),
        ((("head",), np.zeros((5, 3))), 100.0, r"\(T, 3\)"),
        ((("head",), np.zeros((0, 1, 3))), 100.0, r"\(T, 3\)"),
        (((), np.zeros((5, 0, 3))), 100.0, r"\(T, 3\)"),
        ((("head",), np.full((5, 1, 3), math.nan)), 100.0, "finite"),
        ((("head", "right_palm"), np.array([[[0.0] * 3] * 2] * 4 + [[[0.0] * 3, [0.0, math.inf, 0.0]]])), 100.0, "finite"),
        ((("a",), [[[0, 0, 0]], [[0, 0]]]), 10.0, "rectangular array of numbers"),
        ((("a",), np.zeros((2, 1, 3))), "100", "rate"),
        ((("a",), np.zeros((2, 1, 3))), None, "rate"),
    ],
)
def test_trajectory_rejects_bad_rate_shape_and_samples(samples, rate, message):
    with pytest.raises(ContractViolation, match=message):
        HumanTrajectory(*samples, rate)


def test_trajectory_state_is_read_only_and_copied():
    # The stacked arrays are a trajectory's only state: nothing can be
    # assigned beside them, and the caller's arrays are copied, not shared.
    tracks = np.zeros((5, 2, 3))
    truth = HumanTrajectory(("head", "right_palm"), tracks, rate=10.0)
    tracks[:] = 1.0
    assert not truth.tracks.any()
    with pytest.raises(TypeError):
        truth.samples["head"] = np.ones((5, 3))
    for array in (truth.samples["head"], truth.tracks):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert not truth.tracks.any()
    # Frozen: no field can be swapped past the constructor's checks.
    for name, value in (("joints", ("head",)), ("tracks", np.zeros((5, 1, 3))), ("rate", 20.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(truth, name, value)
    assert truth.joints == ("head", "right_palm") and truth.positions_at([0.0]).shape == (1, 2, 3)

    observed = constant_velocity_truth([0.0, 0.1, 0.0])
    pred = predict(observed, horizon=5, step=0.1, options=CFG.prediction)
    full = extrapolate_skeleton(pred)
    doubled = dataclasses.replace(full, cov_tracks=2.0 * full.cov_tracks)
    for p in (pred, full, full.with_isotropic_covariance(), doubled):
        assert not hasattr(p, "means") and not hasattr(p, "covariances")
        for field in dataclasses.fields(p):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, field.name, getattr(p, field.name))
        for stack in (p.mean_tracks, p.cov_tracks):
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0] = 1.0
    means = np.zeros((1, 3, 3))
    covs = np.broadcast_to(np.eye(3), (1, 3, 3, 3)).copy()
    p = PredictedHumanTrajectory(("head",), means, covs, step=0.1)
    means[:] = 1.0
    covs[:] = 2.0 * np.eye(3)
    assert not p.mean_tracks.any() and np.array_equal(p.cov_tracks[0, 0], np.eye(3))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_positions_at_rejects_non_finite_times(t):
    # A NaN index would become an arbitrary integer row index in sample_rows_many.
    traj = HumanTrajectory(("head",), np.zeros((5, 1, 3)), rate=10.0)
    with pytest.raises(ContractViolation, match="finite times"):
        traj.positions_at(np.array([0.1, t]))


#: |sample_rows - np.interp| on samples in [-1, 1]: each form rounds a few
#: products and sums of magnitude at most 1, so they differ by a few ulp of
#: 1.0 (2.2e-16); 1.5e5 such draws differed by one ulp at most.
INTERP_ATOL = 1e-15


@pytest.mark.parametrize("shape", [(9, 3), (9, 4, 3), (1, 3)])
def test_sample_rows_forms_agree_hold_rows_and_match_interp(shape):
    rng = np.random.default_rng(21)
    samples = rng.uniform(-1.0, 1.0, shape)
    T = shape[0]
    last = T - 1
    samples[min(2, last)] = -0.0  # a held row must come back as it is, zero signs and all
    xs = np.concatenate([
        [0.0, -0.0, float(last), -0.5, -3.0, last + 0.25, last + 7.0],
        np.arange(T, dtype=float),
        rng.uniform(-2.0, T + 1.0, 300),
    ])
    batched = sample_rows_many(samples, xs)
    assert batched.shape == (xs.size, *shape[1:])
    for x, row in zip(xs, batched):
        assert sample_rows(samples, x).tobytes() == row.tobytes(), x
        exact = 0 if x <= 0 else last if x >= last else int(x) if x == int(x) else None
        if exact is not None:
            assert row.tobytes() == samples[exact].tobytes(), x
    flat = samples.reshape(T, -1)
    want = np.stack([np.interp(xs, np.arange(T), flat[:, c]) for c in range(flat.shape[1])], axis=1)
    assert np.max(np.abs(batched.reshape(xs.size, -1) - want)) <= INTERP_ATOL


def constant_velocity_truth(v, rate=100.0, duration=1.2):
    n = int(round(duration * rate)) + 1
    t = np.arange(n)[:, None] / rate
    tracks = make_pose(np.array([0.7, 0.2, 0.1])) + t[:, None] * np.asarray(v, dtype=float)
    return HumanTrajectory(RIGHT_ARM_JOINTS, tracks, rate)


def test_predict_constant_velocity_mean():
    v = np.array([0.1, -0.05, 0.02])
    observed = constant_velocity_truth(v)
    pred = predict(observed, horizon=12, step=0.1, goal=None, options=CFG.prediction)
    assert pred.joints == RIGHT_ARM_JOINTS
    for j, name in enumerate(RIGHT_ARM_JOINTS):
        last = observed.samples[name][-1]
        for k in range(12):
            want = last + 0.1 * k * v
            assert np.max(np.abs(pred.mean_tracks[j, k] - want)) <= 1e-9


def test_predict_covariance_tube():
    observed = constant_velocity_truth([0.1, 0.0, 0.0])
    opts = PredictorOptions(sigma0=0.03, kappa=0.05)
    pred = predict(observed, horizon=10, step=0.1, goal=None, options=opts)
    t_ahead = 0.1 * np.arange(10)
    var = opts.sigma0**2 + (opts.kappa * t_ahead) ** 2
    for cov in pred.cov_tracks:
        for k in range(10):
            assert np.allclose(cov[k], var[k] * np.eye(3), atol=1e-15)
            vals = np.linalg.eigvalsh(cov[k])
            assert np.all(vals > 0)


def test_predict_tube_has_no_floor_but_sigma0():
    # sigma0 is the tube's only floor: at 5 mm the first steps' SDs stay below 0.01 m.
    observed = constant_velocity_truth([0.1, 0.0, 0.0])
    opts = dataclasses.replace(CFG.prediction, sigma0=0.005)
    pred = predict(observed, horizon=10, step=0.1, goal=None, options=opts)
    var = opts.sigma0**2 + (opts.kappa * (0.1 * np.arange(10))) ** 2
    want = np.broadcast_to(var[:, None, None] * np.eye(3), pred.cov_tracks.shape)
    assert pred.cov_tracks.tobytes() == np.ascontiguousarray(want).tobytes()


def test_predict_goal_blend_hits_goal():
    v = np.array([0.05, 0.0, 0.0])
    observed = constant_velocity_truth(v)
    goal = observed.samples["right_palm"][-1] + np.array([0.3, 0.0, 0.0])
    pred = predict(observed, horizon=15, step=0.1, goal=goal, options=CFG.prediction)
    # step 0 coincides with the end of observation
    for j, name in enumerate(pred.joints):
        assert np.allclose(pred.mean_tracks[j, 0], observed.samples[name][-1], atol=1e-12)
    # the final blended step puts the palm on the goal
    palm = pred.joints.index("right_palm")
    assert np.max(np.abs(pred.mean_tracks[palm, -1] - goal)) <= 1e-9
    assert pred.t0 == pytest.approx(observed.duration)
    assert np.allclose(pred.t0 + pred.step * np.arange(pred.horizon), observed.duration + 0.1 * np.arange(15), atol=1e-12)


@pytest.mark.parametrize(
    "field, value",
    [
        ("sigma0", -1.0),
        ("sigma0", float("nan")),
        ("kappa", -0.1),
        ("kappa", float("inf")),
        ("sigma0", 0.0),
        ("sigma0", float("inf")),
    ],
)
def test_predictor_options_reject_bad_values(field, value):
    with pytest.raises(ContractViolation):
        dataclasses.replace(CFG.prediction, **{field: value})


def test_predict_validation():
    observed = constant_velocity_truth([0.1, 0.0, 0.0])
    with pytest.raises(ContractViolation):
        predict(observed, horizon=0, step=0.1, options=CFG.prediction)
    for horizon in (2.5, "3", 3.0, None):
        with pytest.raises(ContractViolation, match=f"^horizon must be an integer and positive, got {horizon!r}$"):
            predict(observed, horizon=horizon, step=0.1, options=CFG.prediction)
    for step in (0.0, math.nan, math.inf, "0.1"):
        with pytest.raises(ContractViolation, match="step must be finite and positive"):
            predict(observed, horizon=5, step=step, options=CFG.prediction)
    short = constant_velocity_truth([0.1, 0.0, 0.0], duration=0.5 * OBSERVATION_WINDOW)
    with pytest.raises(ContractViolation):
        predict(short, horizon=5, step=0.1, options=CFG.prediction)
    missing = HumanTrajectory(("right_palm",), observed.samples["right_palm"][:, None], rate=observed.rate)
    with pytest.raises(ContractViolation):
        predict(missing, horizon=5, step=0.1, options=CFG.prediction)


def test_predicted_trajectory_validation():
    palm = ("right_palm",)
    eye = np.broadcast_to(np.eye(3), (1, 4, 3, 3)).copy()
    means = np.zeros((1, 4, 3))
    with pytest.raises(ContractViolation, match=r"^cov_tracks must have shape \(1, 4, 3, 3\), got \(0, 4, 3, 3\)$"):
        PredictedHumanTrajectory(palm, means, np.zeros((0, 4, 3, 3)), step=0.1)
    with pytest.raises(ContractViolation, match=r"^mean_tracks must have shape \(2, \*, 3\), got \(1, 4, 3\)$"):
        PredictedHumanTrajectory(palm + ("head",), means, eye, step=0.1)
    with pytest.raises(ContractViolation, match="distinct joint names"):
        PredictedHumanTrajectory(palm * 2, np.zeros((2, 4, 3)), np.concatenate([eye, eye]), step=0.1)
    skew = eye.copy()
    skew[0, 0, 0, 1] = 0.5
    with pytest.raises(ContractViolation):
        PredictedHumanTrajectory(palm, means, skew, step=0.1)
    for step in (0.0, -0.1, math.nan, math.inf, "0.1"):
        with pytest.raises(ContractViolation, match="step must be finite and positive"):
            PredictedHumanTrajectory(palm, means, eye, step=step)
    for t0 in (math.nan, math.inf, -math.inf, "0"):
        with pytest.raises(ContractViolation, match="t0 must be finite"):
            PredictedHumanTrajectory(palm, means, eye, step=0.1, t0=t0)
    nan_mean = np.zeros((1, 4, 3))
    nan_mean[0, 2, 1] = math.nan
    with pytest.raises(ContractViolation, match=r"^mean_tracks must be finite, got nan at index \(0, 2, 1\)$"):
        PredictedHumanTrajectory(palm, nan_mean, eye, step=0.1)
    indefinite, infinite = eye * 0.01, eye.copy()
    indefinite[0, 2] = np.diag([0.01, 0.01, -0.01])
    infinite[0, 1, 0, 0] = np.inf
    for bad, message in ((indefinite, "positive definite"), (infinite, "finite")):
        with pytest.raises(ContractViolation, match=f"right_palm is not {message}"):
            PredictedHumanTrajectory(palm, means, bad, step=0.1)
    flat_cov = np.full((1, 4, 3), 0.01)
    with pytest.raises(ContractViolation, match=r"^cov_tracks must have shape \(1, 4, 3, 3\), got \(1, 4, 3\)$"):
        PredictedHumanTrajectory(palm, means, flat_cov, step=0.1)
    planar_means = np.zeros((1, 4, 2))
    with pytest.raises(ContractViolation, match=r"^mean_tracks must have shape \(1, \*, 3\), got \(1, 4, 2\)$"):
        PredictedHumanTrajectory(palm, planar_means, eye, step=0.1)
    with pytest.raises(ContractViolation, match="horizon of at least 1 step"):
        PredictedHumanTrajectory(palm, np.zeros((1, 0, 3)), np.zeros((1, 0, 3, 3)), step=0.1)


@pytest.mark.parametrize("field", ["mean_tracks", "cov_tracks"])
def test_predicted_trajectory_rejects_ragged_stacks(field):
    stacks = {"mean_tracks": np.zeros((1, 2, 3)), "cov_tracks": np.broadcast_to(np.eye(3), (1, 2, 3, 3))}
    ragged = {
        "mean_tracks": [[[0.0, 0.0, 0.0], [0.0, 0.0]]],
        "cov_tracks": [[np.eye(3).tolist(), np.eye(2).tolist()]],
    }
    stacks[field] = ragged[field]
    with pytest.raises(ContractViolation, match="rectangular array of numbers"):
        PredictedHumanTrajectory(("head",), **stacks, step=0.1)


def test_predicted_trajectory_names_the_first_bad_joint():
    # Each check runs over all joints at once; the message names the first
    # joint, in the prediction's order, that fails any of them.
    eye = np.broadcast_to(np.eye(3), (4, 3, 3)).copy()
    skew, infinite, indefinite = eye.copy(), eye.copy(), eye.copy()
    skew[1, 0, 2] = 0.5
    infinite[2, 1, 1] = np.inf
    indefinite[3] = np.diag([1.0, -1.0, 1.0])
    cases = [
        ({"a": eye, "b": skew, "c": infinite}, "b is not symmetric"),
        ({"a": eye, "b": infinite, "c": skew}, "b is not finite"),
        ({"a": indefinite, "b": infinite, "c": eye}, "a is not positive definite"),
        ({"a": eye, "b": eye, "c": indefinite}, "c is not positive definite"),
    ]
    for covs, message in cases:
        means = np.zeros((len(covs), 4, 3))
        with pytest.raises(ContractViolation, match=message):
            PredictedHumanTrajectory(tuple(covs), means, np.stack(list(covs.values())), step=0.1)


def test_covariance_scaling_helpers():
    observed = constant_velocity_truth([0.1, 0.0, 0.0])
    pred = predict(observed, horizon=6, step=0.1, options=CFG.prediction)
    doubled = dataclasses.replace(pred, cov_tracks=2.0 * pred.cov_tracks)
    flat = pred.with_isotropic_covariance()
    for p in (doubled, flat):
        assert p.joints == pred.joints and (p.step, p.t0) == (pred.step, pred.t0)
        assert p.mean_tracks.tobytes() == pred.mean_tracks.tobytes()
    assert np.allclose(doubled.cov_tracks, 2.0 * pred.cov_tracks, atol=1e-15)
    assert np.allclose(flat.cov_tracks, np.broadcast_to(np.eye(3), (4, 6, 3, 3)), atol=1e-15)
    with pytest.raises(ContractViolation, match="not positive definite"):
        dataclasses.replace(pred, cov_tracks=-1.0 * pred.cov_tracks)
    with pytest.raises(ContractViolation, match="not positive definite"):
        dataclasses.replace(pred, cov_tracks=np.broadcast_to(-np.eye(3), pred.cov_tracks.shape))


def test_extrapolate_skeleton_offsets():
    observed = constant_velocity_truth([0.0, 0.1, 0.0])
    pred = predict(observed, horizon=8, step=0.1, options=CFG.prediction)
    full = extrapolate_skeleton(pred)
    offsets = load_skeleton_offsets()
    assert full.joints == RIGHT_ARM_JOINTS + EXTRAPOLATED_JOINTS
    shoulder = full.joints.index("right_shoulder")
    for offset, name in zip(offsets, EXTRAPOLATED_JOINTS):
        j = full.joints.index(name)
        want = full.mean_tracks[shoulder] + offset
        assert full.mean_tracks[j].tobytes() == want.tobytes(), name
        assert full.cov_tracks[j].tobytes() == full.cov_tracks[shoulder].tobytes(), name
    # An extrapolated joint the input has is replaced where it stands; the
    # joints it lacks follow in EXTRAPOLATED_JOINTS order.
    rows = [RIGHT_ARM_JOINTS.index("right_palm"), 0, RIGHT_ARM_JOINTS.index("right_shoulder")]
    mixed = PredictedHumanTrajectory(
        ("right_palm", "head", "right_shoulder"), pred.mean_tracks[rows], pred.cov_tracks[rows], step=0.1
    )
    got = extrapolate_skeleton(mixed)
    rest = tuple(name for name in EXTRAPOLATED_JOINTS if name != "head")
    assert got.joints == ("right_palm", "head", "right_shoulder") + rest
    assert got.mean_tracks[0].tobytes() == pred.mean_tracks[rows[0]].tobytes()
    head = offsets[EXTRAPOLATED_JOINTS.index("head")]
    assert got.mean_tracks[1].tobytes() == (mixed.mean_tracks[2] + head).tobytes()
    for j, name in enumerate(rest, start=3):
        assert got.mean_tracks[j].tobytes() == full.mean_tracks[full.joints.index(name)].tobytes(), name
    with pytest.raises(ContractViolation):
        extrapolate_skeleton(
            PredictedHumanTrajectory(
                ("right_palm",), np.zeros((1, 3, 3)), np.broadcast_to(np.eye(3), (1, 3, 3, 3)), step=0.1
            )
        )


def test_predictions_stack_read_only_tracks():
    observed = constant_velocity_truth([0.0, 0.1, 0.0])
    pred = predict(observed, horizon=8, step=0.1, options=CFG.prediction)
    full = extrapolate_skeleton(pred)
    assert pred.joints == RIGHT_ARM_JOINTS
    assert full.joints == RIGHT_ARM_JOINTS + EXTRAPOLATED_JOINTS
    for p in (pred, full):
        assert p.mean_tracks.shape == (len(p.joints), 8, 3)
        assert p.cov_tracks.shape == (len(p.joints), 8, 3, 3)
        assert not p.mean_tracks.flags.writeable and not p.cov_tracks.flags.writeable
    offsets = load_skeleton_offsets()
    shoulder = pred.joints.index("right_shoulder")
    for j, name in enumerate(full.joints):
        arm = pred.joints.index(name) if name in pred.joints else None
        if arm is None:
            want = pred.mean_tracks[shoulder] + offsets[EXTRAPOLATED_JOINTS.index(name)]
        else:
            want = pred.mean_tracks[arm]
        assert full.mean_tracks[j].tobytes() == want.tobytes(), name
        want_cov = pred.cov_tracks[shoulder if arm is None else arm]
        assert full.cov_tracks[j].tobytes() == want_cov.tobytes(), name
    with pytest.raises(ValueError, match="read-only"):
        full.cov_tracks[full.joints.index("head"), 0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        full.mean_tracks[0, 0, 0] = 1.0


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    rate=st.sampled_from((32.0, 64.0, 128.0)),
    observation=st.floats(1.0, 3.0),
    with_goal=st.booleans(),
)
def test_prefix_and_predict_read_the_rows_positions_at_samples(seed, rate, observation, with_goal):
    # Joints in a shuffled order with two the predictor does not read; at a
    # power-of-two rate, k / rate * rate is k exactly, so positions_at returns
    # sample rows as they are.
    rng = np.random.default_rng(seed)
    joints = tuple(rng.permutation(RIGHT_ARM_JOINTS + ("head", "torso")).tolist())
    n = int(2.5 * rate) + 1
    start = rng.uniform(-1, 1, (1, len(joints), 3))
    tracks = start + 0.01 * rng.standard_normal((n, len(joints), 3)).cumsum(axis=0)
    truth = HumanTrajectory(joints, tracks, rate)
    observed = truth.prefix(observation)
    count = int(round(min(observation, truth.duration) * rate)) + 1
    assert observed.joints == joints
    assert observed.tracks.tobytes() == tracks[:count].tobytes()
    rows = truth.positions_at(np.arange(count) / rate)
    assert rows.tobytes() == observed.tracks.tobytes()
    arm_rows = rows[:, [joints.index(name) for name in RIGHT_ARM_JOINTS]]
    goal = rng.uniform(-1, 1, 3) if with_goal else None
    got = predict(observed, 6, 0.1, goal, options=CFG.prediction)
    want = predict(HumanTrajectory(RIGHT_ARM_JOINTS, arm_rows, rate), 6, 0.1, goal, options=CFG.prediction)
    assert got.joints == want.joints == RIGHT_ARM_JOINTS
    assert got.mean_tracks.tobytes() == want.mean_tracks.tobytes()
    assert got.cov_tracks.tobytes() == want.cov_tracks.tobytes()
    assert got.t0 == want.t0 == observed.duration


def test_skeleton_offsets_cover_extrapolated_joints():
    # One row per extrapolated joint, in EXTRAPOLATED_JOINTS order, as the file gives it.
    offsets = load_skeleton_offsets()
    assert offsets.shape == (len(EXTRAPOLATED_JOINTS), 3) and offsets.dtype == np.float64
    by_name = read_yaml(resources.files("comoto.data").joinpath("skeleton_offsets.yaml"))
    for offset, name in zip(offsets, EXTRAPOLATED_JOINTS):
        assert offset.tolist() == by_name[name], name


def test_packaged_skeleton_offsets_are_parsed_once_and_read_only(monkeypatch):
    first = load_skeleton_offsets()
    monkeypatch.setattr(human_motion, "read_yaml", lambda path: pytest.fail(f"re-read {path}"))
    assert load_skeleton_offsets() is first
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 1.0
