"""Projected gradient descent: recovery oracles, endpoint handling and
convergence bookkeeping."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from test_costs import COMBINED_WEIGHTS, build_problem, method_weightings

from comoto import costs as costs_module
from comoto import optimizer as optimizer_module
from comoto.baselines import TAU_S_RATIO
from comoto.costs import COST_NAMES, CostContext, CostWeights, ObjectivePass, WeightedObjective
from comoto.errors import ContractViolation
from comoto.kinematics import JointTrajectory, fk_points_batch
from comoto.optimizer import OptimizerOptions, optimize, straightline_joint_init


VALID_OPTIONS = OptimizerOptions(max_iters=500, grad_tol=1e-4, step_init=0.05)


def perturbed_line(chain, start, goal, n, dt, seed, scale=0.3):
    q = straightline_joint_init(start, goal, n, dt).waypoints.copy()
    rng = np.random.default_rng(seed)
    q[1:-1] += scale * rng.standard_normal(q[1:-1].shape)
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    q[1:-1] = np.clip(q[1:-1], lo, hi)
    return JointTrajectory(q, dt)


def test_straightline_init_hand_values():
    line = straightline_joint_init(np.array([0.0, 0.0]), np.array([1.0, 2.0]), 3, 0.5, t0=1.0)
    assert np.allclose(line.waypoints, [[0, 0], [0.5, 1.0], [1.0, 2.0]], atol=1e-15)
    assert line.dt == 0.5
    assert line.t0 == 1.0
    assert np.array_equal(line.waypoints[-1], [1.0, 2.0])
    with pytest.raises(ContractViolation, match="^N must be at least 3, got 2$"):
        straightline_joint_init(np.zeros(2), np.ones(2), 2, 0.5)


@pytest.mark.parametrize("N", [20.5, 3.0, "3", None])
def test_straightline_init_takes_an_integer_waypoint_count(N):
    with pytest.raises(ContractViolation, match=f"^N must be an integer, got {N!r}$"):
        straightline_joint_init(np.zeros(2), np.ones(2), N, 0.5)


def test_smoothness_only_recovers_straight_line(arm):
    start = np.array([0.0, 0.6, 0.0, -1.1, 0.0, 0.8, 0.0])
    goal = np.array([0.5, 0.9, -0.3, -0.7, 0.2, 1.1, 0.4])
    n, dt = 10, 0.2
    init = perturbed_line(arm, start, goal, n, dt, seed=5)
    ctx = CostContext(arm, goal)
    # the second-difference quadratic is ill-conditioned: give descent room
    opts = OptimizerOptions(max_iters=30000, grad_tol=1e-10, step_init=0.05)
    result = optimize(ctx, CostWeights(alpha_smooth=1.0), init, opts)
    want = straightline_joint_init(start, goal, n, dt).waypoints
    err = np.max(np.abs(result.trajectory.waypoints[1:-1] - want[1:-1]))
    assert err <= 1e-6
    assert result.converged
    assert np.array_equal(result.trajectory.waypoints[0], start)
    assert np.array_equal(result.trajectory.waypoints[-1], goal)


def test_zero_gradient_start_returns_immediately(arm):
    # the nominal term is exactly minimized on the nominal itself
    start = np.array([0.0, 0.6, 0.0, -1.1, 0.0, 0.8, 0.0])
    goal = start + 0.3
    nominal = straightline_joint_init(start, goal, 8, 0.1)
    ctx = CostContext(arm, goal, nominal=nominal)
    opts = OptimizerOptions(max_iters=500, grad_tol=1e-4, step_init=0.05)
    result = optimize(ctx, CostWeights(alpha_nominal=1.0), nominal, opts)
    assert result.converged
    assert result.iterations == 0
    assert np.array_equal(result.trajectory.waypoints, nominal.waypoints)


def test_endpoints_bit_identical_across_problems(arm):
    for seed in range(6):
        init, ctx = build_problem(arm, seed=seed, n_waypoints=9)
        opts = OptimizerOptions(max_iters=40, grad_tol=1e-10, step_init=0.02)
        result = optimize(ctx, COMBINED_WEIGHTS, init, opts)
        assert np.array_equal(result.trajectory.waypoints[0], init.waypoints[0])
        assert np.array_equal(result.trajectory.waypoints[-1], ctx.goal_config)


def test_descent_never_increases_total(arm):
    init, ctx = build_problem(arm, seed=11, n_waypoints=10)
    opts = OptimizerOptions(max_iters=80, grad_tol=1e-10, step_init=0.02, verbose=True)
    result = optimize(ctx, COMBINED_WEIGHTS, init, opts)
    totals = [result.initial_report.total] + [entry["total"] for entry in result.trace]
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
    assert result.final_report.total <= result.initial_report.total
    assert result.final_report.total == pytest.approx(totals[-1], rel=1e-12)


_WEIGHT_FIELDS = dict(zip(COST_NAMES, (f.name for f in dataclasses.fields(CostWeights))))


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(
    weights=st.dictionaries(st.sampled_from(COST_NAMES), st.floats(0.01, 2.0), min_size=1),
    seed=st.integers(0, 2**16),
    scale=st.floats(0.0, 0.3),
)
@example(weights={"legibility": 250.0, "smoothness": TAU_S_RATIO * 250.0}, seed=0, scale=0.1)
@example(weights={"visibility": 0.2, "nominal": 0.5}, seed=1, scale=0.3)
def test_accepted_iterates_never_increase_total(arm, weights, seed, scale):
    # Any subset of the six terms, those with no all-point term included,
    # from a randomly perturbed start: every accepted iterate passed the
    # Armijo test, so no traced total exceeds the one before it.
    traj, ctx = build_problem(arm, seed=seed, n_waypoints=8)
    obstacle = fk_points_batch(arm, traj.waypoints)[4, -1]
    ctx = dataclasses.replace(ctx, obstacles=((obstacle, 0.15),))
    init = perturbed_line(arm, traj.waypoints[0], ctx.goal_config, 8, traj.dt, seed, scale)
    w = CostWeights(**{_WEIGHT_FIELDS[name]: value for name, value in weights.items()})
    opts = OptimizerOptions(max_iters=25, grad_tol=1e-10, step_init=0.02, verbose=True)
    result = optimize(ctx, w, init, opts)
    totals = [result.initial_report.total] + [entry["total"] for entry in result.trace]
    assert len(totals) == result.iterations + 1 - (result.stop_reason == "line_search")
    assert all(b <= a for a, b in zip(totals, totals[1:])), totals


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(
    weights=st.dictionaries(st.sampled_from(COST_NAMES), st.floats(0.01, 200.0), min_size=1),
    max_iters=st.integers(1, 20),
    grad_tol=st.floats(1e-10, 10.0),
    step_init=st.floats(1e-4, 1.0),
    seed=st.integers(0, 2**16),
)
def test_endpoints_bit_identical_for_any_weights_and_options(
    arm, weights, max_iters, grad_tol, step_init, seed
):
    # Any positive subset of the six terms, the obstacle included, and any
    # valid options: the start and goal come back with the inputs' bytes,
    # zero signs too (the start holds a -0.0 joint, the goal a -0.0 that
    # equals the context's +0.0 goal joint).
    traj, ctx = build_problem(arm, seed=seed, n_waypoints=8)
    goal = ctx.goal_config.copy()
    goal[2] = 0.0
    obstacle = fk_points_batch(arm, traj.waypoints)[4, -1]
    ctx = dataclasses.replace(ctx, goal_config=goal, obstacles=((obstacle, 0.15),))
    q = perturbed_line(arm, traj.waypoints[0], goal, 8, traj.dt, seed).waypoints.copy()
    q[0, 1] = -0.0
    q[-1, 2] = -0.0
    init = JointTrajectory(q, traj.dt)
    start, end = init.waypoints[0].tobytes(), init.waypoints[-1].tobytes()
    w = CostWeights(**{_WEIGHT_FIELDS[name]: value for name, value in weights.items()})
    opts = OptimizerOptions(max_iters=max_iters, grad_tol=grad_tol, step_init=step_init)
    result = optimize(ctx, w, init, opts)
    assert result.trajectory.waypoints[0].tobytes() == start
    assert result.trajectory.waypoints[-1].tobytes() == end


def test_optimizer_is_deterministic(arm):
    traj, ctx = build_problem(arm, seed=13, n_waypoints=8)
    opts = OptimizerOptions(max_iters=60, grad_tol=1e-10, step_init=0.02)
    a = optimize(ctx, COMBINED_WEIGHTS, traj, opts)
    b = optimize(ctx, COMBINED_WEIGHTS, traj, opts)
    assert np.array_equal(a.trajectory.waypoints, b.trajectory.waypoints)
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.final_report.total == b.final_report.total


def test_init_must_end_at_goal(arm):
    traj, ctx = build_problem(arm, seed=1, n_waypoints=5)
    q = traj.waypoints.copy()
    q[-1] += 1e-9
    bad = JointTrajectory(q, traj.dt)
    with pytest.raises(ContractViolation):
        optimize(ctx, COMBINED_WEIGHTS, bad, VALID_OPTIONS)


def test_result_reports_and_gradient_shape(arm):
    init, ctx = build_problem(arm, seed=2, n_waypoints=7)
    opts = OptimizerOptions(max_iters=10, grad_tol=1e-10, step_init=0.02)
    result = optimize(ctx, COMBINED_WEIGHTS, init, opts)
    assert set(result.initial_report.per_cost) >= {
        "distance",
        "visibility",
        "legibility",
        "nominal",
        "smoothness",
    }
    assert result.wall_time >= 0.0
    assert result.iterations <= opts.max_iters


def test_solve_evaluates_no_unweighted_term(arm, monkeypatch):
    # The context supplies every term's inputs, but a Legible solve weights
    # legibility and smoothness only: no other term may run, not even for a report.
    init, ctx = build_problem(arm, seed=3, n_waypoints=8)

    def unweighted(*args, **kwargs):
        raise AssertionError("an unweighted term was evaluated")

    for name in ("_distance_term", "_visibility_term", "_nominal_term"):
        monkeypatch.setattr(costs_module, name, unweighted)
    w = CostWeights(alpha_legibility=250.0, alpha_smooth=TAU_S_RATIO * 250.0)
    result = optimize(ctx, w, init, OptimizerOptions(max_iters=5, grad_tol=1e-10, step_init=0.02))
    assert result.iterations == 5
    for report in (result.initial_report, result.final_report):
        assert list(report.per_cost) == ["legibility", "smoothness"]


def test_joint_limits_respected(arm):
    init, ctx = build_problem(arm, seed=9, n_waypoints=8)
    opts = OptimizerOptions(max_iters=50, grad_tol=1e-10, step_init=0.5)
    result = optimize(ctx, COMBINED_WEIGHTS, init, opts)
    lo, hi = arm.joint_limits[:, 0], arm.joint_limits[:, 1]
    assert np.all(result.trajectory.waypoints[1:-1] >= lo - 1e-15)
    assert np.all(result.trajectory.waypoints[1:-1] <= hi + 1e-15)


def test_options_validation():
    with pytest.raises(TypeError):
        OptimizerOptions()  # no defaults: the run config's optimizer section sets them
    with pytest.raises(ContractViolation):
        dataclasses.replace(VALID_OPTIONS, max_iters=0)
    # A fractional or non-finite cap is never reached: the solve would run to grad_tol.
    for max_iters in (2.5, math.nan, math.inf):
        with pytest.raises(ContractViolation, match="max_iters must be an integer"):
            dataclasses.replace(VALID_OPTIONS, max_iters=max_iters)
    with pytest.raises(ContractViolation):
        dataclasses.replace(VALID_OPTIONS, grad_tol=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("grad_tol", math.nan),
        ("grad_tol", math.inf),
        ("step_init", -1.0),
        ("step_init", math.nan),
    ],
)
def test_options_reject_non_finite_and_out_of_range(field, value):
    with pytest.raises(ContractViolation):
        dataclasses.replace(VALID_OPTIONS, **{field: value})


class UphillPass(ObjectivePass):
    """A pass whose gradient points uphill, so no line-search step is accepted."""

    def gradient(self):
        return -super().gradient()


def counted_optimize(monkeypatch, *args, pass_class=ObjectivePass):
    """Run ``optimize`` with ``pass_class`` and count its value passes and
    gradients from outside.

    Every pass but the first (the initial point) is a value evaluation;
    a gradient counts once however often it is read.
    """
    calls = {"value": -1, "grad": 0}

    class CountingPass(pass_class):
        def __init__(self, *pass_args, **pass_kwargs):
            super().__init__(*pass_args, **pass_kwargs)
            calls["value"] += 1

        def gradient(self):
            calls["grad"] += self._grad is None
            return super().gradient()

    monkeypatch.setattr(optimizer_module, "ObjectivePass", CountingPass)
    result = optimize(*args)
    assert (result.value_evals, result.grad_evals) == (calls["value"], calls["grad"])
    return result


def test_stop_reason_and_evaluation_counts(arm, monkeypatch):
    init, ctx = build_problem(arm, seed=4, n_waypoints=6)

    capped = counted_optimize(
        monkeypatch, ctx, COMBINED_WEIGHTS, init, OptimizerOptions(max_iters=5, grad_tol=1e-10, step_init=0.05)
    )
    assert (capped.stop_reason, capped.converged, capped.iterations) == ("max_iters", False, 5)
    assert capped.grad_evals == 6 and capped.value_evals >= 5

    loose = counted_optimize(
        monkeypatch, ctx, COMBINED_WEIGHTS, init, dataclasses.replace(VALID_OPTIONS, grad_tol=1e6)
    )
    assert (loose.stop_reason, loose.converged, loose.iterations) == ("grad_tol", True, 0)
    assert (loose.value_evals, loose.grad_evals) == (0, 1)

    # A convex smoothness cost: every step along its negated gradient raises it.
    opts = OptimizerOptions(max_iters=50, grad_tol=1e-10, step_init=0.05)
    w = CostWeights(alpha_smooth=1.0)
    stuck = counted_optimize(monkeypatch, ctx, w, init, opts, pass_class=UphillPass)
    assert (stuck.stop_reason, stuck.converged, stuck.iterations) == ("line_search", False, 1)
    assert stuck.grad_evals == 1 and stuck.value_evals > 1


def reference_optimize(ctx, w, init, opts):
    """The descent loop with every point evaluated from scratch, each on a
    problem of its own.

    Returns (waypoints, iterations, stop_reason, initial, final), where
    initial and final are the reports at the first and last iterates.
    """
    q, dt = init.waypoints.copy(), init.dt
    lo, hi = ctx.chain.joint_limits[:, 0], ctx.chain.joint_limits[:, 1]
    initial = current = ObjectivePass(q, WeightedObjective(ctx, w, dt, len(q)))
    step, iterations, stop_reason = opts.step_init, 0, "max_iters"
    for iteration in range(opts.max_iters):
        total, grad = current.total, current.gradient()
        g = grad[1:-1]
        if float(np.max(np.abs(g))) < opts.grad_tol:
            break
        iterations = iteration + 1
        while step >= optimizer_module.MIN_STEP:
            q_new = q.copy()
            q_new[1:-1] = np.clip(q[1:-1] - step * g, lo, hi)
            trial = ObjectivePass(q_new, WeightedObjective(ctx, w, dt, len(q))).total
            if trial <= total + optimizer_module.ARMIJO_C * float(np.sum(g * (q_new[1:-1] - q[1:-1]))):
                break
            step *= optimizer_module.STEP_SHRINK
        else:
            stop_reason = "line_search"
            break
        q = q_new
        current = ObjectivePass(q, WeightedObjective(ctx, w, dt, len(q)))
        step *= optimizer_module.STEP_GROW
    if float(np.max(np.abs(current.gradient()[1:-1]))) < opts.grad_tol:
        stop_reason = "grad_tol"
    return q, iterations, stop_reason, initial.report(), current.report()


def assert_report_equals(report, want, name):
    assert np.float64(report.total).tobytes() == np.float64(want.total).tobytes(), name
    assert list(report.per_cost.items()) == list(want.per_cost.items()), name
    assert report.diagnostics == want.diagnostics, name


@pytest.mark.parametrize("max_iters, grad_tol", [(25, 1e-10), (400, 0.5)])
def test_optimize_matches_loop_that_recomputes_every_iterate(arm, max_iters, grad_tol):
    traj, ctx = build_problem(arm, seed=7, n_waypoints=10)
    opts = OptimizerOptions(max_iters=max_iters, grad_tol=grad_tol, step_init=0.02)
    for name, (c, w) in method_weightings(arm, traj, ctx).items():
        result = optimize(c, w, traj, opts)
        q, iterations, stop_reason, initial, final = reference_optimize(c, w, traj, opts)
        assert np.array_equal(result.trajectory.waypoints, q), name
        assert (result.iterations, result.stop_reason) == (iterations, stop_reason), name
        assert_report_equals(result.initial_report, initial, name)
        assert_report_equals(result.final_report, final, name)


def test_nominal_solve_reports_its_obstacle_term_by_name(arm):
    traj, ctx = build_problem(arm, seed=2, n_waypoints=10)
    c, w = method_weightings(arm, traj, ctx)["nominal"]
    opts = OptimizerOptions(max_iters=5, grad_tol=1e-10, step_init=0.05, verbose=True)
    result = optimize(c, w, traj, opts)
    assert result.initial_report.per_cost["obstacle"] > 0 and result.trace
    smooth, obstacle = (result.final_report.per_cost[name] for name in ("smoothness", "obstacle"))
    assert result.final_report.total == w.alpha_smooth * smooth + w.alpha_obstacle * obstacle
    assert all(set(e) == {"iteration", "total", "step", "smoothness", "obstacle"} for e in result.trace)
