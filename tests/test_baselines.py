"""Comparison methods: obstacle-clearing nominal planning, reactive
speed adjustment with hand-computable timing, and the two reduced
optimization baselines."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from conftest import CFG, cost_context
from test_costs import build_problem, fd_gradient

from comoto import baselines
from comoto.baselines import (
    ExecutionTrace,
    SpeedAdjustParams,
    distvis_optimize,
    legible_optimize,
    min_separations,
    nominal_trajectory,
    speed_adjusted_execute,
)
from comoto.benchmark import prepare_scenario
from comoto.costs import CostWeights, ObjectivePass, WeightedObjective, _obstacle_term
from comoto.errors import ContractViolation
from comoto.human_motion import HumanTrajectory
from comoto.kinematics import JointTrajectory, fk_points_batch, frame_origins_and_axes
from comoto.optimizer import OptimizerOptions, straightline_joint_init
from comoto.scenarios import make_scenario

SPEED = SpeedAdjustParams(d_stop=0.06, d_slow=0.20, control_rate=100.0, timeout_factor=3.0)


def constant_human(position, duration=10.0, rate=100.0) -> HumanTrajectory:
    n = int(round(duration * rate)) + 1
    track = np.tile(np.asarray(position, dtype=float), (n, 1, 1))
    return HumanTrajectory(("right_palm",), track, rate)


def stationary_nominal(config, n=4, dt=0.1) -> JointTrajectory:
    return JointTrajectory(np.tile(np.asarray(config, dtype=float), (n, 1)), dt)


def test_nominal_without_obstacles_is_straight_line(arm):
    start = np.array([0.0, 0.6, 0.0, -1.1, 0.0, 0.8, 0.0])
    goal = np.array([0.4, 0.8, -0.2, -0.8, 0.1, 1.0, 0.3])
    nom, solve = nominal_trajectory(
        cost_context(arm, goal), start, (), n_waypoints=12, dt=0.1, t0=0.0,
        smooth_weight=1e-3, obstacle_weight=200.0, margin=0.05,
    )
    assert solve is None
    line = straightline_joint_init(start, goal, 12, 0.1)
    assert np.array_equal(nom.waypoints, line.waypoints)


def test_nominal_clears_sphere_on_path(arm):
    start = np.array([0.0, 0.6, 0.0, -1.1, 0.0, 0.8, 0.0])
    goal = np.array([0.5, 0.9, -0.3, -0.7, 0.2, 1.1, 0.4])
    line = straightline_joint_init(start, goal, 20, 0.1)
    center = fk_points_batch(arm, line.waypoints)[10, -1]  # on the straight path
    radius, margin = 0.06, 0.05
    nom, solve = nominal_trajectory(
        cost_context(arm, goal), start, ((center, radius),), n_waypoints=20, dt=0.1, t0=0.0,
        smooth_weight=1e-3, obstacle_weight=200.0, margin=margin,
    )
    assert solve.trajectory is nom
    dist = np.linalg.norm(fk_points_batch(arm, nom.waypoints) - center, axis=2)
    assert np.min(dist) >= radius + margin / 2.0
    assert np.array_equal(nom.waypoints[0], start)
    assert np.array_equal(nom.waypoints[-1], goal)


def test_obstacle_penalty_hand_value(planar2):
    q = np.tile([0.0, 0.0], (3, 1))  # points (0,0,0), (1,0,0), (2,0,0) at each waypoint
    # a sphere of radius 0.05 with a 0.05 margin: clearance radius 0.1
    ctx = cost_context(planar2, q[-1], obstacles=(((1.0, 0.02, 0.0), 0.05 + 0.05),))
    value, _ = _obstacle_term(fk_points_batch(planar2, q), np.array([[1.0, 0.02, 0.0]]), np.array([0.1]), 2.0)
    # only the middle point penetrates: hinge = 0.05 + 0.05 - 0.02 = 0.08
    assert value == pytest.approx(3 * 0.08**2, rel=1e-12)
    objective_pass = ObjectivePass(q, WeightedObjective(ctx, CostWeights(alpha_obstacle=2.0), 0.1, len(q)))
    assert objective_pass.per_cost == {"obstacle": value}
    assert objective_pass.total == 2.0 * value


def test_obstacle_penalty_gradient_matches_fd(planar2):
    rng = np.random.default_rng(8)
    q = 0.3 * rng.standard_normal((4, 2))
    ctx = cost_context(planar2, q[-1], obstacles=(((1.0, 0.3, 0.0), 0.6 + 0.2),))
    problem = WeightedObjective(ctx, CostWeights(alpha_obstacle=3.0), 0.1, len(q))
    objective_pass = ObjectivePass(q, problem)
    obstacle = objective_pass.per_cost["obstacle"]
    assert objective_pass.total == 3.0 * obstacle and obstacle > 0
    assert np.max(np.abs(objective_pass.gradient() - fd_gradient(q, problem))) <= 1e-6


def test_min_separation_hand_value(planar2):
    human = np.array([[1.0, 0.5, 0.0], [5.0, 5.0, 5.0]])
    robot = frame_origins_and_axes(planar2, np.array([0.0, 0.0]))[0]
    assert min_separations(robot, human) == pytest.approx(0.5, abs=1e-12)


def test_speed_adjust_full_speed_far_human(planar2):
    nominal = straightline_joint_init(np.array([0.0, 0.0]), np.array([0.4, 0.2]), 4, 0.1)
    args = (planar2, nominal, constant_human([1.0, 5.0, 0.0]), SPEED)
    trace = speed_adjusted_execute(*args)
    assert trace.completed
    assert np.all(trace.speed_scale == 1.0)
    assert trace.duration == pytest.approx(nominal.duration, abs=1e-9)
    # The last full advance is inside the first fast-forward block, and a
    # partial tick follows it.
    assert trace.timestamps[-1] - trace.timestamps[-2] < 1.0 / SPEED.control_rate
    assert_same_trace(trace, reference_speed_adjusted_execute(*args))
    assert np.array_equal(trace.configs[0], nominal.waypoints[0])
    assert np.allclose(trace.configs[-1], nominal.waypoints[-1], atol=1e-12)
    assert np.all(trace.min_separation >= 5.0 - 2.5)


def test_speed_adjust_half_speed_doubles_duration(planar2):
    # hold the arm still so the separation stays exactly halfway between
    # d_stop and d_slow: progress scale is 0.5 the whole way
    nominal = stationary_nominal([0.0, 0.0], n=4, dt=0.1)
    trace = speed_adjusted_execute(planar2, nominal, constant_human([1.0, 0.13, 0.0]), SPEED)
    assert trace.completed
    assert np.all(np.abs(trace.speed_scale - 0.5) <= 1e-12)
    assert trace.duration == pytest.approx(2.0 * nominal.duration, abs=1e-9)


def test_speed_adjust_stops_and_times_out(planar2):
    nominal = straightline_joint_init(np.array([0.0, 0.0]), np.array([0.4, 0.2]), 4, 0.1)
    args = (planar2, nominal, constant_human([1.0, 0.03, 0.0]), SPEED)
    trace = speed_adjusted_execute(*args)
    assert not trace.completed
    # One stop from the first tick to the timeout tick (tick 90, inside the
    # second fast-forward block).
    assert_same_trace(trace, reference_speed_adjusted_execute(*args))
    assert trace.timestamps[0] == nominal.t0
    assert np.all(trace.speed_scale == 0.0)
    assert np.all(trace.configs == trace.configs[0])
    assert trace.duration == pytest.approx(3.0 * nominal.duration, abs=1e-9)


def test_speed_adjust_explicit_timeout(planar2):
    p = dataclasses.replace(SPEED, timeout_factor=0.5)
    nominal = straightline_joint_init(np.array([0.0, 0.0]), np.array([0.4, 0.2]), 4, 0.1)
    args = (planar2, nominal, constant_human([1.0, 0.03, 0.0]), p)
    trace = speed_adjusted_execute(*args)
    assert not trace.completed
    assert trace.duration == pytest.approx(0.5 * nominal.duration, abs=1e-9)
    assert_same_trace(trace, reference_speed_adjusted_execute(*args))


def reference_min_separation(chain, q, human_points):
    """The single-configuration separation as first written: the
    batched FK of one configuration, and squares summed over the last axis."""
    robot = fk_points_batch(chain, q[None])[0]
    diff = robot[None, :, :] - human_points[:, None, :]
    return math.sqrt(np.add.reduce(diff * diff, axis=2).min())


@pytest.mark.parametrize("B", [1, 5, 64])
def test_separations_bit_identical_to_reference(arm, B):
    rng = np.random.default_rng(B)
    Q = rng.uniform(-2.0, 2.0, (B, arm.n_joints))
    humans = rng.uniform(-1.0, 1.0, (B, 11, 3))
    # One human joint exactly on a robot point: separation 0.0.
    humans[0, 3] = fk_points_batch(arm, Q[:1])[0, 4]
    want = np.array([reference_min_separation(arm, q, h) for q, h in zip(Q, humans)])
    assert want[0] == 0.0
    single = [min_separations(frame_origins_and_axes(arm, q)[0], h) for q, h in zip(Q, humans)]
    assert np.array(single).tobytes() == want.tobytes()
    assert min_separations(fk_points_batch(arm, Q), humans).tobytes() == want.tobytes()


def reference_speed_adjusted_execute(chain, nominal, human_truth, p):
    """The per-tick loop as first written: four lists grown a tick at a time,
    copied into arrays at the end, and the speed scale clamped by ``np.clip``;
    the configuration and the human pose are its own blends, not the library's."""
    D = nominal.duration
    timeout = p.timeout_factor * D
    dtick = 1.0 / p.control_rate
    tracks = np.stack([human_truth.samples[name] for name in human_truth.joints], axis=1)  # (T,J,3)
    waypoints = nominal.waypoints

    def human_at(t):
        # At an exact sample index this is row + 0 * next row; the library gives
        # the row itself.  They differ only in a zero's sign, which the squares drop.
        idx = t * human_truth.rate
        last = tracks.shape[0] - 1
        if idx <= 0:
            return tracks[0]
        if idx >= last:
            return tracks[last]
        i0 = int(idx)
        frac = idx - i0
        return (1.0 - frac) * tracks[i0] + frac * tracks[i0 + 1]

    def config_at(u):
        k = u / nominal.dt
        i0 = min(int(k), waypoints.shape[0] - 2)
        frac = k - i0
        if frac <= 0.0:
            return waypoints[i0]
        if frac >= 1.0:
            return waypoints[i0 + 1]
        return (1.0 - frac) * waypoints[i0] + frac * waypoints[i0 + 1]

    u, t = 0.0, nominal.t0
    times, configs, seps, speeds = [], [], [], []
    completed = False
    while True:
        qcur = config_at(u)
        d = reference_min_separation(chain, qcur, human_at(t))
        s = float(np.clip((d - p.d_stop) / (p.d_slow - p.d_stop), 0.0, 1.0))
        times.append(t)
        configs.append(qcur)
        seps.append(d)
        speeds.append(s)
        if u >= D:
            completed = True
            break
        if t - nominal.t0 >= timeout - 1e-12:
            break
        advance = s * dtick
        if advance > 0 and u + advance >= D:
            t += (D - u) / s
            u = D
        else:
            u += advance
            t += dtick
    return ExecutionTrace(
        np.asarray(times), np.asarray(configs), completed, np.asarray(seps), np.asarray(speeds)
    )


def assert_same_trace(got, want):
    assert got.completed == want.completed
    for name in ("timestamps", "configs", "min_separation", "speed_scale"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("seed, ticks, completed", [(1, 6001, False), (2, 2002, True)])
def test_speed_adjust_matches_reference_loop_at_1khz(arm, seed, ticks, completed):
    cfg = dataclasses.replace(CFG, speed_adjust=dataclasses.replace(CFG.speed_adjust, control_rate=1000.0))
    bundle = prepare_scenario(make_scenario("reaching_near", seed, arm), cfg)
    args = (arm, bundle.nominal, bundle.truth, cfg.speed_adjust)
    trace = speed_adjusted_execute(*args)
    assert (len(trace.timestamps), trace.completed) == (ticks, completed)
    assert_same_trace(trace, reference_speed_adjusted_execute(*args))


def test_speed_adjust_matches_reference_loop_at_half_speed(planar2):
    # Slowed the whole way, so the run ends on a partial tick at s = 0.5.
    nominal = stationary_nominal([0.0, 0.0], n=4, dt=0.1)
    args = (planar2, nominal, constant_human([1.0, 0.13, 0.0]), SPEED)
    assert_same_trace(speed_adjusted_execute(*args), reference_speed_adjusted_execute(*args))


def approach_and_retreat_human() -> HumanTrajectory:
    """A palm over the planar arm's middle joint that comes within d_stop and
    leaves again: speed scale 1, a ramp down, 0, a ramp up, then 1 again."""
    y = np.concatenate([
        np.full(8, 0.5), np.linspace(0.5, 0.03, 6), np.full(6, 0.03), np.linspace(0.03, 0.5, 6), np.full(40, 0.5),
    ])
    palm = np.stack([np.ones_like(y), y, np.zeros_like(y)], axis=1)
    return HumanTrajectory(("right_palm",), palm[:, None], 100.0)


def plateau_runs(speed_scale):
    """The trace's runs of speed scale: 1, 0 or a ramp value in between."""
    kinds = ["one" if s == 1.0 else "zero" if s == 0.0 else "ramp" for s in speed_scale]
    return [kind for i, kind in enumerate(kinds) if i == 0 or kinds[i - 1] != kind]


def test_speed_adjust_keeps_zero_signs_at_exact_waypoint_ticks(planar2):
    # At 128 Hz and dt = 0.125 s the ticks land exactly on waypoints, where a
    # configuration is the waypoint itself: its -0.0 entries stay -0.0.
    nominal = JointTrajectory(np.array([[0.3, 0.1], [-0.0, -0.0], [0.2, 0.1], [0.4, 0.2]]), 0.125)
    args = (planar2, nominal, constant_human([1.0, 5.0, 0.0]), dataclasses.replace(SPEED, control_rate=128.0))
    trace = speed_adjusted_execute(*args)
    assert trace.completed and np.all(trace.speed_scale == 1.0)
    assert np.signbit(trace.configs[16]).all()
    assert_same_trace(trace, reference_speed_adjusted_execute(*args))


@pytest.mark.parametrize("block", [1, 5, baselines.FAST_FORWARD_TICKS])
def test_speed_adjust_matches_reference_loop_leaving_and_reentering_plateaus(planar2, monkeypatch, block):
    monkeypatch.setattr(baselines, "FAST_FORWARD_TICKS", block)
    nominal = straightline_joint_init(np.array([0.0, 0.0]), np.array([0.1, -0.05]), 4, 0.1)
    args = (planar2, nominal, approach_and_retreat_human(), dataclasses.replace(SPEED, control_rate=1000.0))
    trace = speed_adjusted_execute(*args)
    assert trace.completed
    assert plateau_runs(trace.speed_scale) == ["one", "ramp", "zero", "ramp", "one"]
    assert_same_trace(trace, reference_speed_adjusted_execute(*args))


def test_speed_adjust_matches_reference_loop_at_100hz(arm):
    bundle = prepare_scenario(make_scenario("reaching_near", 1, arm), CFG)
    args = (arm, bundle.nominal, bundle.truth, CFG.speed_adjust)
    trace = speed_adjusted_execute(*args)
    # It times out after leaving the s = 1 plateau for good.
    assert (len(trace.timestamps), trace.completed) == (601, False)
    assert plateau_runs(trace.speed_scale)[:2] == ["one", "ramp"]
    assert_same_trace(trace, reference_speed_adjusted_execute(*args))


def test_speed_adjust_params_validation():
    with pytest.raises(TypeError):
        SpeedAdjustParams()  # no defaults: the run config's speed_adjust section sets them
    with pytest.raises(ContractViolation):
        dataclasses.replace(SPEED, d_stop=0.3, d_slow=0.2)
    with pytest.raises(ContractViolation):
        dataclasses.replace(SPEED, d_stop=0.0)
    with pytest.raises(ContractViolation):
        dataclasses.replace(SPEED, control_rate=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("d_slow", math.inf),
        ("d_stop", math.nan),
        ("control_rate", math.inf),  # a zero control tick: the executor would never advance
        ("control_rate", math.nan),
        ("timeout_factor", -1.0),
        ("timeout_factor", 0.0),
        ("timeout_factor", math.inf),
        ("timeout_factor", math.nan),
    ],
)
def test_speed_adjust_params_reject_non_finite_and_out_of_range(field, value):
    with pytest.raises(ContractViolation) as excinfo:
        dataclasses.replace(SPEED, **{field: value})
    assert field in str(excinfo.value)


def test_execution_trace_validation_and_interpolation():
    with pytest.raises(ContractViolation):
        ExecutionTrace(timestamps=np.array([0.0, 0.0]), configs=np.zeros((2, 2)), completed=True)
    with pytest.raises(ContractViolation):
        ExecutionTrace(timestamps=np.array([0.0, 1.0]), configs=np.zeros((3, 2)), completed=True)
    trace = ExecutionTrace(
        timestamps=np.array([0.0, 1.0, 2.0]),
        configs=np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]]),
        completed=True,
    )
    assert trace.duration == pytest.approx(2.0)
    mid = trace.configs_at(np.array([0.5]))
    assert np.allclose(mid, [[0.5, 1.0]], atol=1e-12)
    held = trace.configs_at(np.array([-1.0, 10.0]))
    assert np.allclose(held, [[0.0, 0.0], [2.0, 4.0]], atol=1e-12)


@pytest.mark.parametrize(
    "timestamps, configs, message",
    [
        ([0.0, math.nan, 2.0], np.zeros((3, 2)), "finite"),  # NaN passes np.diff(...) <= 0
        ([0.0, 1.0, math.inf], np.zeros((3, 2)), "finite"),
        ([0.0, 1.0, 2.0], [[0.0, 0.0], [math.nan, 0.0], [1.0, 1.0]], "finite"),
        (np.empty(0), np.empty((0, 2)), "one or more ticks"),  # .duration would raise IndexError
        ([0.0, 1.0], [[0.0, 0.0], [0.0]], "rectangular array of numbers"),
        ([0.0, 1.0], [[0.0, "a"], [0.0, 0.0]], "rectangular array of numbers"),
        ([0.0, "later"], np.zeros((2, 2)), "rectangular array of numbers"),
    ],
)
def test_execution_trace_rejects_non_finite_and_empty(timestamps, configs, message):
    with pytest.raises(ContractViolation, match=message):
        ExecutionTrace(timestamps=timestamps, configs=configs, completed=False)


def test_execution_trace_copies_its_arrays_and_keeps_them_writeable():
    times, configs = np.array([0.0, 1.0]), np.zeros((2, 2))
    trace = ExecutionTrace(times, configs, True)
    assert not np.shares_memory(trace.timestamps, times)
    assert not np.shares_memory(trace.configs, configs)
    trace.configs[1] += 1.0  # perfbench's self-test corrupts a built trace in place
    assert configs[1].tolist() == [0.0, 0.0]


def test_legible_optimize_improves_legibility(arm):
    init, ctx = build_problem(arm, seed=31, n_waypoints=10)
    opts = OptimizerOptions(max_iters=150, grad_tol=1e-8, step_init=0.02)
    result = legible_optimize(ctx, init, opts, alpha=10.0)
    assert result.final_report.total <= result.initial_report.total
    assert result.final_report.per_cost["legibility"] < result.initial_report.per_cost["legibility"]
    assert np.array_equal(result.trajectory.waypoints[-1], ctx.goal_config)
    # the objective is exactly linear in the shared weight scale
    double = legible_optimize(ctx, init, opts, alpha=20.0)
    assert double.initial_report.total == pytest.approx(2.0 * result.initial_report.total, rel=1e-12)


def test_distvis_ignores_the_uncertainty_model(arm):
    init, ctx = build_problem(arm, seed=32, n_waypoints=8)
    opts = OptimizerOptions(max_iters=60, grad_tol=1e-8, step_init=0.02)
    a = distvis_optimize(ctx, init, opts, alpha_dist=0.05, alpha_vis=0.2, tau_n=0.002)
    pred = ctx.prediction
    scaled = dataclasses.replace(ctx, prediction=dataclasses.replace(pred, cov_tracks=7.0 * pred.cov_tracks))
    b = distvis_optimize(scaled, init, opts, alpha_dist=0.05, alpha_vis=0.2, tau_n=0.002)
    assert np.array_equal(a.trajectory.waypoints, b.trajectory.waypoints)
    assert a.final_report.total == b.final_report.total


def test_distvis_requires_prediction(arm):
    nominal = straightline_joint_init(np.zeros(7), np.ones(7) * 0.2, 5, 0.1)
    ctx = cost_context(arm, np.ones(7) * 0.2, nominal=nominal)
    opts = OptimizerOptions(max_iters=10, grad_tol=1e-8, step_init=0.02)
    with pytest.raises(ContractViolation):
        distvis_optimize(ctx, nominal, opts, 0.05, 0.2, 0.5)
