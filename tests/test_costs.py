"""The six cost terms: hand values, independent oracles, and analytic
gradients against central finite differences."""

from __future__ import annotations

import dataclasses
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from conftest import CFG

from comoto import costs
from comoto.baselines import NOMINAL_MARGIN, NOMINAL_WEIGHTS, TAU_S_RATIO
from comoto.costs import (
    COST_NAMES,
    EPS_M,
    CostContext,
    CostWeights,
    ObjectivePass,
    WeightedObjective,
    _distance_inputs,
    _distance_term,
    _legibility_term,
    _nominal_term,
    _obstacle_term,
    _repeat_means,
    _smoothness_term,
    _visibility_term,
)
from comoto.errors import ContractViolation
from comoto.human_motion import (
    EXTRAPOLATED_JOINTS,
    RIGHT_ARM_JOINTS,
    HumanTrajectory,
    PredictedHumanTrajectory,
    extrapolate_skeleton,
    load_skeleton_offsets,
    predict,
)
from comoto.kinematics import (
    ChainSpec,
    JointTrajectory,
    _batch_frames,
    all_point_jacobians_batch,
    fk_eef,
    fk_points_batch,
)
from comoto.optimizer import straightline_joint_init

HUMAN_JOINTS = ("right_shoulder", "right_elbow", "right_wrist", "right_palm", "head")


def make_prediction(rng: np.random.Generator, n_steps: int, step: float) -> PredictedHumanTrajectory:
    """Random but well-conditioned tracks: means drift, covariances are PD."""
    means, covs = np.empty((len(HUMAN_JOINTS), n_steps, 3)), np.empty((len(HUMAN_JOINTS), n_steps, 3, 3))
    for j in range(len(HUMAN_JOINTS)):
        base = np.array([0.7, 0.25, 0.35]) + 0.15 * rng.uniform(-1, 1, 3)
        drift = 0.03 * rng.standard_normal((n_steps, 3)).cumsum(axis=0)
        means[j] = base + drift
        for k in range(n_steps):
            A = 0.05 * rng.standard_normal((3, 3))
            covs[j, k] = A @ A.T + (0.02 + 0.02 * rng.random()) * np.eye(3)
    return PredictedHumanTrajectory(HUMAN_JOINTS, means, covs, step)


def build_problem(chain, seed: int, n_waypoints: int):
    """One seeded planning problem with every context field populated."""
    rng = np.random.default_rng(seed)
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    mid, span = 0.5 * (lo + hi), 0.2 * (hi - lo)
    start = mid + span * rng.uniform(-1, 1, chain.n_joints)
    goal = mid + span * rng.uniform(-1, 1, chain.n_joints)
    dt = 2.0 / (n_waypoints - 1)
    nominal = straightline_joint_init(start, goal, n_waypoints, dt)
    q = nominal.waypoints.copy()
    q[1:-1] += 0.04 * rng.standard_normal(q[1:-1].shape)
    traj = JointTrajectory(q, dt)
    ctx = CostContext(
        chain,
        goal,
        prediction=make_prediction(rng, n_waypoints, dt),
        nominal=nominal,
        object_pos=np.array([0.65, 0.1, 0.2]) + 0.1 * rng.uniform(-1, 1, 3),
    )
    return traj, ctx


def fd_gradient(q, problem, h=1e-6):
    """Central finite differences of ``problem``'s weighted objective, full grid."""
    grad = np.zeros_like(q)
    for t in range(q.shape[0]):
        for j in range(q.shape[1]):
            qp, qm = q.copy(), q.copy()
            qp[t, j] += h
            qm[t, j] -= h
            grad[t, j] = (ObjectivePass(qp, problem).total - ObjectivePass(qm, problem).total) / (2.0 * h)
    return grad


def rel_error(analytic, numeric):
    scale = max(float(np.max(np.abs(numeric))), 1e-8)
    return float(np.max(np.abs(analytic - numeric))) / scale


SINGLE_TERM_WEIGHTS = {
    "distance": CostWeights(alpha_dist=1.0),
    "visibility": CostWeights(alpha_vis=1.0),
    "legibility": CostWeights(alpha_legibility=1.0),
    "nominal": CostWeights(alpha_nominal=1.0),
    "smoothness": CostWeights(alpha_smooth=1.0),
}

COMBINED_WEIGHTS = CostWeights(
    alpha_dist=0.8, alpha_vis=0.5, alpha_legibility=1.2, alpha_nominal=0.7, alpha_smooth=0.3
)


def term(name, traj, ctx):
    """One cost term at ``traj``, read from the objective's pass."""
    problem = WeightedObjective(ctx, SINGLE_TERM_WEIGHTS[name], traj.dt, traj.n_waypoints)
    return ObjectivePass(traj.waypoints, problem).per_cost[name]


def mahalanobis_proximity(d, cov, eps_m: float) -> float:
    """Oracle for one distance-term entry: 1 / max(d' cov^-1 d, eps_m)."""
    d = np.asarray(d, dtype=float)
    m = float(d @ np.linalg.solve(np.asarray(cov, dtype=float), d))
    return 1.0 / max(m, eps_m)


def gaze_angle(object_pos, head, eef) -> float:
    """Oracle for one visibility-term angle: in [0, pi] at the head, between
    the object and the end effector."""
    u = np.asarray(object_pos, dtype=float) - head
    w = np.asarray(eef, dtype=float) - head
    nu, nw = np.linalg.norm(u), np.linalg.norm(w)
    if nu < 1e-9 or nw < 1e-9:
        raise ContractViolation("gaze angle undefined: object or eef coincides with the head")
    c = np.clip(u @ w / (nu * nw), -1.0, 1.0)
    return float(np.arccos(c))


def test_mahalanobis_proximity_hand_values():
    assert mahalanobis_proximity([1.0, 0, 0], np.eye(3), EPS_M) == pytest.approx(1.0, abs=1e-15)
    assert mahalanobis_proximity([1.0, 0, 0], 4.0 * np.eye(3), EPS_M) == pytest.approx(4.0, abs=1e-12)
    # contact is clamped, not infinite
    assert mahalanobis_proximity([0.0, 0, 0], np.eye(3), EPS_M) == 1.0 / EPS_M
    assert mahalanobis_proximity([0.0, 0, 0], np.eye(3), eps_m=0.01) == pytest.approx(100.0)


def test_gaze_angle_hand_values():
    head = np.zeros(3)
    obj = np.array([1.0, 0, 0])
    assert gaze_angle(obj, head, np.array([0.0, 1.0, 0])) == pytest.approx(np.pi / 2, abs=1e-12)
    assert gaze_angle(obj, head, np.array([2.0, 0, 0])) == pytest.approx(0.0, abs=1e-12)
    assert gaze_angle(obj, head, np.array([-3.0, 0, 0])) == pytest.approx(np.pi, abs=1e-12)
    with pytest.raises(ContractViolation):
        gaze_angle(obj, head, head)


def test_legibility_straight_path_is_minus_one():
    eef = np.linspace([0.0, 0, 0], [1.0, 0, 0], 6)
    f = np.arange(6, 0, -1.0)
    value, _ = _legibility_term(eef, np.array([1.0, 0, 0]), f, float(f.sum()), 1.0)
    assert value == pytest.approx(-1.0, abs=1e-12)


def test_legibility_at_goal_trajectory(planar2):
    goal = np.array([0.4, -0.2])
    traj = JointTrajectory(np.tile(goal, (5, 1)), dt=0.25)
    ctx = CostContext(planar2, goal)
    assert term("legibility", traj, ctx) == pytest.approx(-1.0, abs=1e-12)


def test_legibility_detour_costs_more(planar2):
    goal = np.array([0.0, 0.0])
    straight = straightline_joint_init(np.array([np.pi / 2, 0.0]), goal, 7, 0.1)
    q = straight.waypoints.copy()
    q[1:-1, 1] += 0.8
    bent = JointTrajectory(q, straight.dt)
    ctx = CostContext(planar2, goal)
    assert term("legibility", straight, ctx) < term("legibility", bent, ctx)
    assert -1.0 <= term("legibility", straight, ctx) < 0.0


def test_smoothness_hand_values(planar2):
    q = np.array([[0.0], [0.0], [1.0]])
    value, _ = _smoothness_term(q, 1.0, 1.0)
    assert value == pytest.approx(1.0, abs=1e-15)
    value, _ = _smoothness_term(q, 2.0, 1.0)
    assert value == pytest.approx(1.0 / 16.0, abs=1e-15)
    # a uniformly sampled line has zero acceleration
    line = straightline_joint_init(np.zeros(2), np.ones(2), 9, 0.1)
    assert term("smoothness", line, CostContext(planar2, np.ones(2))) == pytest.approx(0.0, abs=1e-18)


def test_cost_distance_matches_loop_oracle(arm):
    traj, ctx = build_problem(arm, seed=21, n_waypoints=4)
    got = term("distance", traj, ctx)
    points = fk_points_batch(arm, traj.waypoints)
    want = 0.0
    for mean, cov in zip(ctx.prediction.mean_tracks, ctx.prediction.cov_tracks):
        for t in range(traj.n_waypoints):
            for p in range(points.shape[1]):
                want += mahalanobis_proximity(mean[t] - points[t, p], cov[t], EPS_M)
    assert got == pytest.approx(want, rel=1e-12)


def einsum_distance_term(points, means, inv_covs, eps_m):
    """The distance term with Sigma^-1 d as an einsum over the untransposed
    inverse: the reference for the stacked-GEMM formulation."""
    d = means[:, :, None, :] - points[None, :, :, :]
    sd = np.einsum("jtab,jtpb->jtpa", inv_covs, d)
    m = np.einsum("jtpa,jtpa->jtp", d, sd)
    value = float(np.sum(1.0 / np.maximum(m, eps_m)))
    coeff = np.where(m < eps_m, 0.0, 2.0 / np.maximum(m, eps_m) ** 2)
    dval_dp = np.einsum("jtp,jtpa->tpa", coeff, sd)
    return value, lambda jacs: np.einsum("tpan,tpa->tn", jacs, dval_dp)


def test_distance_term_matches_einsum_reference(arm, monkeypatch):
    # Bit for bit on the isotropic covariances the pipeline builds
    # (sigma^2(t) I from `predict`, I for Dist+Vis); to rounding on general
    # SPD ones.  eps_m = 20 clamps part of the (joint, step, point) triples.
    # A pass clamps at the module's EPS_M, read at each pass.
    for seed in range(3):
        traj, ctx = build_problem(arm, seed=seed, n_waypoints=12)
        pred = ctx.prediction
        points, jacs = all_point_jacobians_batch(arm, traj.waypoints)
        p = stand_in_pass(arm, traj.waypoints)
        sigma2 = 0.02**2 + (0.08 * (pred.t0 + pred.step * np.arange(pred.horizon))) ** 2
        tube = PredictedHumanTrajectory(
            pred.joints,
            pred.mean_tracks,
            np.broadcast_to(sigma2[:, None, None] * np.eye(3), pred.cov_tracks.shape),
            pred.step,
        )
        cases = [(tube, True), (pred.with_isotropic_covariance(), True), (pred, False)]
        for (prediction, exact), eps_m in itertools.product(cases, (1e-4, 20.0)):
            inv_covs = np.linalg.inv(prediction.cov_tracks)
            means, inv_covs_t = _distance_inputs(prediction)
            want, want_pullback = einsum_distance_term(points, means, inv_covs, eps_m)
            got, pullback = _distance_term(
                points, _repeat_means(means, points.shape[1]), inv_covs_t, eps_m, 1.0
            )
            monkeypatch.setattr(costs, "EPS_M", eps_m)
            problem = WeightedObjective(
                dataclasses.replace(ctx, prediction=prediction), SINGLE_TERM_WEIGHTS["distance"],
                traj.dt, traj.n_waypoints,
            )
            objective_pass = ObjectivePass(traj.waypoints, problem)
            assert objective_pass.per_cost["distance"] == pytest.approx(got, rel=1e-12)
            grad = pulled(pullback, p)
            assert rel_error(objective_pass.gradient(), grad) <= 1e-12
            if exact:
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                assert np.array_equal(grad, want_pullback(jacs))
            else:
                assert got == pytest.approx(want, rel=1e-12)
                assert rel_error(grad, want_pullback(jacs)) <= 1e-12


def visibility_oracle(traj, ctx) -> tuple[float, list[float]]:
    """The visibility term summed step by step, each gaze angle divided by the
    predicted head spread as it is, and the gaze angles."""
    eef = fk_points_batch(ctx.chain, traj.waypoints)[:, -1]
    j = ctx.prediction.joints.index("head")
    heads, covs = ctx.prediction.mean_tracks[j], ctx.prediction.cov_tracks[j]
    angles = [gaze_angle(ctx.object_pos, heads[t], eef[t]) for t in range(traj.n_waypoints)]
    return sum(a / math.sqrt(np.trace(cov) / 3.0) for a, cov in zip(angles, covs)), angles


def with_head_spread(ctx, spread):
    """``ctx`` with the head's covariance at step ``k`` replaced by ``spread[k]**2 I``."""
    pred = ctx.prediction
    covs = np.array(pred.cov_tracks)
    covs[pred.joints.index("head")] = np.asarray(spread, dtype=float)[:, None, None] ** 2 * np.eye(3)
    return dataclasses.replace(ctx, prediction=dataclasses.replace(pred, cov_tracks=covs))


def test_cost_visibility_matches_loop_oracle(arm):
    traj, ctx = build_problem(arm, seed=22, n_waypoints=5)
    assert term("visibility", traj, ctx) == pytest.approx(visibility_oracle(traj, ctx)[0], rel=1e-12)


def test_visibility_divides_by_a_head_spread_below_the_predictor_floor(arm):
    # Only the predictor's sigma0 floors the spread; a hand-built prediction's 5 mm spread is used as it is.
    traj, ctx = build_problem(arm, seed=22, n_waypoints=5)
    ctx = with_head_spread(ctx, np.full(5, 0.005))
    assert 0.005 < CFG.prediction.sigma0
    problem = WeightedObjective(ctx, SINGLE_TERM_WEIGHTS["visibility"], traj.dt, traj.n_waypoints)
    assert problem.sigma_head == pytest.approx(np.full(5, 0.005), rel=1e-15)


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(
    seed=st.integers(0, 2**16),
    spread=st.lists(st.floats(1e-3, 1e-2), min_size=6, max_size=6),
)
def test_visibility_under_small_head_spreads_matches_the_oracle_and_finite_differences(arm, seed, spread):
    traj, ctx = build_problem(arm, seed=seed, n_waypoints=6)
    ctx = with_head_spread(ctx, spread)
    want, angles = visibility_oracle(traj, ctx)
    assume(min(angles) > 1e-3 and math.pi - max(angles) > 1e-3)  # away from arccos's kinks
    problem = WeightedObjective(ctx, SINGLE_TERM_WEIGHTS["visibility"], traj.dt, traj.n_waypoints)
    assert ObjectivePass(traj.waypoints, problem).per_cost["visibility"] == pytest.approx(want, rel=1e-12)
    grad = ObjectivePass(traj.waypoints, problem).gradient()
    assert rel_error(grad, fd_gradient(traj.waypoints, problem)) <= 1e-4


def squared_mahalanobis(pred, points):
    """(J, T, K, P) squared Mahalanobis distances from each predicted joint at step t
    to ``points[t]`` (K, P, 3), for isotropic covariances."""
    d = pred.mean_tracks[:, :, None, None] - points
    return np.sum(d * d, axis=-1) / pred.cov_tracks[:, :, None, None, 0, 0]


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(
    seed=st.integers(0, 2**16),
    distance=st.floats(4.0, 8.0),
    nearest=st.floats(2.5, 12.0),
)
def test_distance_gradient_just_above_the_eps_m_clamp(arm, seed, distance, nearest):
    # Two joints sit `distance` m from each step's robot points, with isotropic
    # spreads wide enough that the nearest point's m is `nearest` * eps_m and
    # every point's m lies in [2, 50] * eps_m, where 1/m is steepest but unclamped.
    traj, ctx = build_problem(arm, seed=seed, n_waypoints=6)
    points = fk_points_batch(arm, traj.waypoints)  # (T, P, 3)
    directions = np.random.default_rng(seed).standard_normal((2, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = points.mean(axis=1) + distance * directions[:, None, :]  # (2, T, 3)
    d2 = np.sum((means[:, :, None] - points) ** 2, axis=-1)  # (2, T, P)
    var = d2.min(axis=2) / (nearest * EPS_M)
    pred = ctx.prediction
    tube = PredictedHumanTrajectory(
        ("head", "right_palm"), means, var[..., None, None] * np.eye(3), pred.step, pred.t0
    )
    ctx = dataclasses.replace(ctx, prediction=tube)
    m = squared_mahalanobis(tube, points[:, None])
    assert 2.0 * EPS_M <= m.min() and m.max() <= 50.0 * EPS_M
    # No central-difference step crosses the clamp: q[t, j] +- h moves only step t's points.
    h = 1e-6
    shifts = np.concatenate([h * np.eye(arm.n_joints), -h * np.eye(arm.n_joints)])
    shifted = fk_points_batch(arm, (traj.waypoints[:, None, :] + shifts).reshape(-1, arm.n_joints))
    shifted = shifted.reshape(traj.n_waypoints, len(shifts), *points.shape[1:])
    assert squared_mahalanobis(tube, shifted).min() > EPS_M
    problem = WeightedObjective(ctx, SINGLE_TERM_WEIGHTS["distance"], traj.dt, traj.n_waypoints)
    grad = ObjectivePass(traj.waypoints, problem).gradient()
    assert rel_error(grad, fd_gradient(traj.waypoints, problem, h)) <= 1e-4


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(
    seed=st.integers(0, 2**16),
    gap=st.lists(st.floats(1e-3, 1e-2), min_size=6, max_size=6),
)
def test_visibility_gradient_with_the_end_effector_beside_the_head(arm, seed, gap):
    # The predicted head sits gap[t] m from the end effector at step t, in a random
    # direction, where the gaze angle turns fastest with the end effector.
    traj, ctx = build_problem(arm, seed=seed, n_waypoints=6)
    eef = fk_points_batch(arm, traj.waypoints)[:, -1]
    directions = np.random.default_rng(seed).standard_normal((6, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    pred = ctx.prediction
    means = np.array(pred.mean_tracks)
    means[pred.joints.index("head")] = eef + np.asarray(gap)[:, None] * directions
    ctx = dataclasses.replace(ctx, prediction=dataclasses.replace(pred, mean_tracks=means))
    want, angles = visibility_oracle(traj, ctx)
    assume(min(angles) > 1e-3 and math.pi - max(angles) > 1e-3)  # away from arccos's kinks
    problem = WeightedObjective(ctx, SINGLE_TERM_WEIGHTS["visibility"], traj.dt, traj.n_waypoints)
    assert ObjectivePass(traj.waypoints, problem).per_cost["visibility"] == pytest.approx(want, rel=1e-12)
    grad = ObjectivePass(traj.waypoints, problem).gradient()
    assert rel_error(grad, fd_gradient(traj.waypoints, problem)) <= 1e-4


def test_cost_nominal_matches_loop_oracle(arm):
    traj, ctx = build_problem(arm, seed=23, n_waypoints=6)
    got = term("nominal", traj, ctx)
    eef = fk_points_batch(arm, traj.waypoints)[:, -1]
    eef_nom = fk_points_batch(arm, ctx.nominal.waypoints)[:, -1]
    want = float(np.sum(np.linalg.norm(eef - eef_nom, axis=1)))
    assert got == pytest.approx(want, rel=1e-12)
    assert term("nominal", ctx.nominal, ctx) == 0.0


def test_gradients_match_finite_differences(arm):
    rng = np.random.default_rng(0)
    worst = 0.0
    for seed in range(12):
        n = int(rng.integers(3, 21))
        traj, ctx = build_problem(arm, seed=seed, n_waypoints=n)
        for w in (*SINGLE_TERM_WEIGHTS.values(), COMBINED_WEIGHTS):
            problem = WeightedObjective(ctx, w, traj.dt, n)
            grad = ObjectivePass(traj.waypoints, problem).gradient()
            numeric = fd_gradient(traj.waypoints, problem)
            worst = max(worst, rel_error(grad, numeric))
    assert worst <= 1e-4


def test_total_is_weighted_sum_of_terms(arm):
    for seed in range(5):
        traj, ctx = build_problem(arm, seed=seed, n_waypoints=8)
        problem = WeightedObjective(ctx, COMBINED_WEIGHTS, traj.dt, traj.n_waypoints)
        report = ObjectivePass(traj.waypoints, problem).report()
        weights = COMBINED_WEIGHTS.as_dict()
        want = sum(weights[name] * report.per_cost[name] for name in report.per_cost)
        assert abs(report.total - want) <= 1e-10
        assert list(report.per_cost) == [name for name in COST_NAMES if weights[name] > 0]


def method_weightings(arm, traj, ctx):
    """(ctx, weights) like the Legible, Dist+Vis, CoMOTO and nominal solves.

    The nominal context holds one sphere (radius 0.1 plus the nominal's
    margin) centred on the path's middle end-effector point.
    """
    obstacle = fk_points_batch(arm, traj.waypoints)[traj.n_waypoints // 2, -1]
    nominal_ctx = CostContext(arm, ctx.goal_config, obstacles=((obstacle, 0.1 + NOMINAL_MARGIN),))
    return {
        "legible": (ctx, CostWeights(alpha_legibility=250.0, alpha_smooth=TAU_S_RATIO * 250.0)),
        "distvis": (ctx, CFG.distvis_weights),
        "comoto": (ctx, COMBINED_WEIGHTS),
        "nominal": (nominal_ctx, NOMINAL_WEIGHTS),
    }


def test_value_only_total_bit_identical_to_gradient_total(arm):
    # A pass's own values against another pass's report at the same waypoints.
    for seed in range(4):
        traj, ctx = build_problem(arm, seed=seed, n_waypoints=12)
        for name, (c, w) in method_weightings(arm, traj, ctx).items():
            problem = WeightedObjective(c, w, traj.dt, traj.n_waypoints)
            value_only = ObjectivePass(traj.waypoints, problem)
            full = ObjectivePass(traj.waypoints, problem).report()
            assert np.float64(value_only.total).tobytes() == np.float64(full.total).tobytes(), name
            assert all(v == full.per_cost[term] for term, v in value_only.per_cost.items()), name
            if name == "nominal":
                assert full.per_cost["obstacle"] > 0, "the obstacle must touch the path"


def test_value_only_reports_exactly_the_weighted_terms(arm):
    traj, ctx = build_problem(arm, seed=1, n_waypoints=8)
    for name, (c, w) in method_weightings(arm, traj, ctx).items():
        objective_pass = ObjectivePass(traj.waypoints, WeightedObjective(c, w, traj.dt, traj.n_waypoints))
        want = [term for term, weight in w.as_dict().items() if weight > 0]
        assert list(objective_pass.per_cost) == want, name
        assert list(objective_pass.report().per_cost) == want, name


#: The visibility term's arrays a ``WeightedObjective`` derives, ``None`` without their inputs.
VISIBILITY_ARRAYS = ("sigma_head", "head", "gaze", "gaze_norm", "gaze_unit")


def reference_derived(ctx):
    """The arrays a ``WeightedObjective`` derives from ``ctx``, built here from
    ``fk_eef``, ``fk_points_batch`` and the prediction's stacks."""
    pred, obj = ctx.prediction, ctx.object_pos
    ref = types.SimpleNamespace(
        goal_point=fk_eef(ctx.chain, ctx.goal_config),
        nominal_eef=None if ctx.nominal is None else fk_points_batch(ctx.chain, ctx.nominal.waypoints)[:, -1],
        centers=np.array([c for c, _ in ctx.obstacles], dtype=float).reshape(-1, 3),
        clearance=np.array([r for _, r in ctx.obstacles], dtype=float),
        **dict.fromkeys(VISIBILITY_ARRAYS),
    )
    if pred is not None and "head" in pred.joints and obj is not None:
        cov = pred.cov_tracks[pred.joints.index("head")]
        ref.sigma_head = np.sqrt(cov.diagonal(axis1=1, axis2=2).sum(axis=1) / 3.0)
        ref.head = pred.mean_tracks[pred.joints.index("head")]
        ref.gaze = obj[None, :] - ref.head
        ref.gaze_norm = np.linalg.norm(ref.gaze, axis=1)
        ref.gaze_unit = ref.gaze / np.where(ref.gaze_norm > 1e-9, ref.gaze_norm, 1.0)[:, None]
    return ref


def stand_in_pass(chain, q):
    """What a kernel's pullback reads of an ``ObjectivePass`` at ``q``, built
    afresh: the FK ``frames`` and the point and end-effector Jacobians."""
    jacs = all_point_jacobians_batch(chain, q)[1]
    return types.SimpleNamespace(frames=_batch_frames(chain, q), point_jacobians=jacs, eef_jacobians=jacs[:, -1])


def pulled(pullback, p):
    """The term ``pullback`` returns from the stand-in pass ``p``, over every waypoint."""
    rows, term = pullback(p)
    assert rows is ...
    return term


def reference_gradient(q, dt, ctx, w):
    """The gradient assembled term by term from freshly computed Jacobians,
    weighted terms in ``COST_NAMES`` order.  The obstacle pullback is
    weighted inside its kernel; the other kernels run at weight 1.0, which
    multiplies exactly, and their weights are applied here."""
    weights = w.as_dict()
    p = stand_in_pass(ctx.chain, q)
    points = p.frames[0]
    eef = points[:, -1]
    f = np.arange(len(q), 0, -1, dtype=float)
    ref = reference_derived(ctx)

    def distance():
        means, inv_covs_t = _distance_inputs(ctx.prediction)
        point_means = _repeat_means(means, points.shape[1])
        return pulled(_distance_term(points, point_means, inv_covs_t, EPS_M, 1.0)[1], p)

    def obstacle():
        # Its pullback returns the rows of the penetrating waypoints only.
        rows, term = _obstacle_term(points, ref.centers, ref.clearance, weights["obstacle"])[1](p)
        full = np.zeros_like(q)
        full[rows] = term
        return full

    pullbacks = {
        "distance": distance,
        "visibility": lambda: pulled(_visibility_term(eef, ref, 1.0)[1], p),
        "legibility": lambda: pulled(_legibility_term(eef, ref.goal_point, f, float(f.sum()), 1.0)[1], p),
        "nominal": lambda: pulled(_nominal_term(eef, ref.nominal_eef, 1.0)[1], p),
        "smoothness": lambda: pulled(_smoothness_term(q, dt, 1.0)[1], p),
        "obstacle": obstacle,
    }
    grad = np.zeros_like(q)
    for name in COST_NAMES:
        if weights[name] > 0:
            grad += pullbacks[name]() if name == "obstacle" else weights[name] * pullbacks[name]()
    return grad


def test_trial_gradient_and_report_bit_identical_to_gradient_call(arm):
    # An accepted line-search trial, run on the solve's problem after an
    # earlier iterate, yields the next gradient and, at the end, the report;
    # both must equal a pass on a fresh problem bit for bit.
    for seed in range(3):
        traj, ctx = build_problem(arm, seed=seed, n_waypoints=12)
        for name, (c, w) in method_weightings(arm, traj, ctx).items():
            q, dt = traj.waypoints, traj.dt
            fresh = ObjectivePass(q, WeightedObjective(c, w, dt, len(q)))
            grad, full = fresh.gradient(), fresh.report()
            problem = WeightedObjective(c, w, dt, len(q))
            ObjectivePass(q + 0.01, problem).report()
            trial = ObjectivePass(q, problem)
            assert np.array_equal(trial.gradient(), grad), name
            assert np.array_equal(grad, reference_gradient(q, dt, c, w)), name
            assert trial.gradient() is trial.gradient(), name
            report = trial.report()
            assert np.float64(report.total).tobytes() == np.float64(full.total).tobytes(), name
            assert list(report.per_cost.items()) == list(full.per_cost.items()), name
            assert report.diagnostics == full.diagnostics, name


def test_eef_only_gradient_bit_identical_to_all_point_slice(arm):
    # Weighting no all-point term, a pass builds the end-effector Jacobians
    # alone; its gradient must keep every byte of the one the pullbacks give
    # from the last row of all the point Jacobians.
    for seed in range(3):
        traj, ctx = build_problem(arm, seed=seed, n_waypoints=20)
        q, dt = traj.waypoints, traj.dt
        for w in (
            method_weightings(arm, traj, ctx)["legible"][1],
            CostWeights(alpha_vis=0.2, alpha_nominal=0.5),
            CostWeights(alpha_legibility=1.2, alpha_nominal=0.7, alpha_smooth=0.3),
        ):
            problem = WeightedObjective(ctx, w, dt, len(q))
            assert "distance" not in problem.weighted
            got = ObjectivePass(q, problem).gradient()
            assert got.tobytes() == reference_gradient(q, dt, ctx, w).tobytes(), w


def count_jacobian_builds(monkeypatch) -> dict[str, int]:
    """From here on, the calls of ``costs._point_jacobians`` and ``costs._eef_jacobians``, by name."""
    calls = {"_point_jacobians": 0, "_eef_jacobians": 0}
    for name in calls:

        def counted(*args, name=name, build=getattr(costs, name)):
            calls[name] += 1
            return build(*args)

        monkeypatch.setattr(costs, name, counted)
    return calls


def test_smoothness_only_pass_runs_no_forward_kinematics(arm):
    traj, ctx = build_problem(arm, seed=2, n_waypoints=8)
    q, dt, w = traj.waypoints, traj.dt, SINGLE_TERM_WEIGHTS["smoothness"]
    problem = WeightedObjective(ctx, w, dt, len(q))

    def no_fk(q):
        raise AssertionError("a smoothness-only pass ran forward kinematics")

    problem.frames = no_fk
    objective_pass = ObjectivePass(q, problem)
    assert list(objective_pass.report().per_cost) == ["smoothness"]
    assert np.array_equal(objective_pass.gradient(), reference_gradient(q, dt, ctx, w))


def test_value_only_pass_builds_no_jacobian(arm, monkeypatch):
    # A rejected line-search trial reads the total and nothing else: no
    # method's pass may build a Jacobian before its gradient is asked for.
    traj, ctx = build_problem(arm, seed=2, n_waypoints=12)
    calls = count_jacobian_builds(monkeypatch)
    passes = {
        name: ObjectivePass(traj.waypoints, WeightedObjective(c, w, traj.dt, traj.n_waypoints))
        for name, (c, w) in method_weightings(arm, traj, ctx).items()
    }
    for objective_pass in passes.values():
        objective_pass.report()
    assert calls == {"_point_jacobians": 0, "_eef_jacobians": 0}
    passes["legible"].gradient()
    assert calls == {"_point_jacobians": 0, "_eef_jacobians": 1}


def test_eef_terms_read_the_slice_of_the_point_jacobians(arm, monkeypatch):
    # With distance weighted, the eef terms' Jacobians are the last point's
    # rows of the all-point build; without it, the eef build runs alone.
    traj, ctx = build_problem(arm, seed=2, n_waypoints=12)
    q, dt = traj.waypoints, traj.dt
    calls = count_jacobian_builds(monkeypatch)
    objective_pass = ObjectivePass(q, WeightedObjective(ctx, COMBINED_WEIGHTS, dt, len(q)))
    objective_pass.gradient()
    assert calls == {"_point_jacobians": 1, "_eef_jacobians": 0}
    assert np.shares_memory(objective_pass.eef_jacobians, objective_pass.point_jacobians)
    no_distance = dataclasses.replace(COMBINED_WEIGHTS, alpha_dist=0.0)
    ObjectivePass(q, WeightedObjective(ctx, no_distance, dt, len(q))).gradient()
    assert calls == {"_point_jacobians": 1, "_eef_jacobians": 1}


def dense_obstacle_term(q, ctx, weight):
    """The obstacle value and weighted gradient as computed before the
    pullback went row-sparse: every waypoint's point Jacobians through
    both einsums."""
    points, jacs = all_point_jacobians_batch(ctx.chain, q)
    ref = reference_derived(ctx)
    diff = points[:, :, None, :] - ref.centers
    dist = np.linalg.norm(diff, axis=3)
    pen = np.maximum(0.0, ref.clearance - dist)
    coeff = np.where(pen > 0, -2.0 * weight * pen / np.maximum(dist, 1e-12), 0.0)
    dval_dp = np.einsum("tps,tpsa->tpa", coeff, diff)
    return float((pen**2).sum()), np.einsum("tpan,tpa->tn", jacs, dval_dp)


def sphere_touching(points, row, point):
    """A sphere 1.7 mm from ``points[row, point]`` that no other waypoint reaches:
    its clearance is half the distance to the nearest point of any other."""
    center = points[row, point] + 1e-3
    others = np.delete(np.linalg.norm(points - center, axis=2), row, axis=0)
    return center, 0.5 * float(others.min())


@pytest.mark.parametrize(
    "case", ["no_row", "one_row", "first_row", "last_row", "first_and_last", "every_row"]
)
def test_obstacle_gradient_row_sparse_bit_identical_to_dense(arm, case):
    # The pullback builds Jacobians and runs its einsums only for waypoints
    # where some point penetrates; its gradient must keep every byte of the
    # dense pullback's, with 1-3 spheres, alone and after the other terms.
    traj, ctx = build_problem(arm, seed=5, n_waypoints=12)
    q, dt, N = traj.waypoints, traj.dt, traj.n_waypoints
    points = fk_points_batch(arm, q)
    far = (np.array([5.0, 5.0, 5.0]), 0.1)
    spheres, want_rows = {
        "no_row": ([far], []),
        "one_row": ([sphere_touching(points, 6, -1), sphere_touching(points, 6, 4)], [6]),
        "first_row": ([sphere_touching(points, 0, -1)], [0]),
        "last_row": (
            [far, sphere_touching(points, N - 1, -1), sphere_touching(points, N - 1, 5)],
            [N - 1],
        ),
        "first_and_last": (
            [sphere_touching(points, 0, -1), sphere_touching(points, N - 1, -1)],
            [0, N - 1],
        ),
        # The base point sits in every waypoint and its Jacobian is all
        # (signed) zeros; the second sphere covers the whole end-effector path.
        "every_row": (
            [(points[0, 0] + 0.01, 0.05), (points[:, -1].mean(axis=0), 2.0)],
            list(range(N)),
        ),
    }[case]
    c = dataclasses.replace(ctx, obstacles=tuple(spheres))
    combined = {name: v for name, v in dataclasses.asdict(COMBINED_WEIGHTS).items() if v > 0}
    ref = reference_derived(c)
    for obstacle_weight, others in ((3.0, {}), (200.0, {"alpha_smooth": 1e-3}), (50.0, combined)):
        w = CostWeights(**others, alpha_obstacle=obstacle_weight)
        want_value, dense = dense_obstacle_term(q, c, obstacle_weight)
        value, pullback = _obstacle_term(points, ref.centers, ref.clearance, obstacle_weight)
        rows, _ = pullback(stand_in_pass(arm, q))
        assert list(rows) == want_rows
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        want = reference_gradient(q, dt, c, CostWeights(**others)) if others else np.zeros_like(q)
        want += dense
        got = ObjectivePass(q, WeightedObjective(c, w, dt, N)).gradient()
        assert got.tobytes() == want.tobytes(), (case, w)


def test_covariance_doubling_moves_costs(arm):
    for seed in range(5):
        traj, ctx = build_problem(arm, seed=seed, n_waypoints=10)
        doubled = dataclasses.replace(
            ctx, prediction=dataclasses.replace(ctx.prediction, cov_tracks=2.0 * ctx.prediction.cov_tracks)
        )
        # preconditions: far from the proximity clamp, and no head spread below sigma0
        points = fk_points_batch(arm, traj.waypoints)
        m_min = np.inf
        for mean, cov in zip(ctx.prediction.mean_tracks, ctx.prediction.cov_tracks):
            for t in range(traj.n_waypoints):
                inv = np.linalg.inv(cov[t])
                d = mean[t] - points[t]
                m_min = min(m_min, float(np.min(np.einsum("pa,ab,pb->p", d, inv, d))))
        assert m_min > 100.0 * EPS_M
        head_cov = ctx.prediction.cov_tracks[ctx.prediction.joints.index("head")]
        assert np.min(np.sqrt(np.trace(head_cov, axis1=1, axis2=2) / 3.0)) >= CFG.prediction.sigma0
        problems = [WeightedObjective(c, COMBINED_WEIGHTS, traj.dt, traj.n_waypoints) for c in (ctx, doubled)]
        before, after = (ObjectivePass(traj.waypoints, problem).per_cost for problem in problems)
        assert after["distance"] > before["distance"]
        assert after["visibility"] < before["visibility"]


def test_cost_weights_validation():
    with pytest.raises(ContractViolation):
        CostWeights(alpha_dist=-0.1, alpha_smooth=1.0)
    with pytest.raises(ContractViolation):
        CostWeights()
    w = CostWeights(alpha_smooth=2.0)
    assert w.as_dict()["smoothness"] == 2.0


@pytest.mark.parametrize(
    "field",
    ["alpha_dist", "alpha_vis", "alpha_legibility", "alpha_nominal", "alpha_smooth", "alpha_obstacle"],
)
def test_cost_weights_reject_non_finite(field):
    for bad in (math.nan, math.inf):
        with pytest.raises(ContractViolation):
            CostWeights(**{"alpha_smooth": 1.0, field: bad})


def test_context_validation(arm, planar2):
    with pytest.raises(ContractViolation):
        CostContext(arm, np.zeros(3))
    valid = CostContext(planar2, np.zeros(2))
    with pytest.raises(TypeError):
        dataclasses.replace(valid, eps_m=1e-4)  # the distance clamp is the constant EPS_M
    with pytest.raises(TypeError):
        dataclasses.replace(valid, sigma_floor=0.01)  # the predictor's sigma0 is the only floor
    rng = np.random.default_rng(1)
    pred = make_prediction(rng, 6, 0.1)
    nominal = straightline_joint_init(np.zeros(2), np.ones(2), 5, 0.1)
    with pytest.raises(ContractViolation):
        CostContext(planar2, np.ones(2), prediction=pred, nominal=nominal)
    with pytest.raises(ContractViolation, match="not positive definite"):
        dataclasses.replace(pred, cov_tracks=0.0 * pred.cov_tracks)
    # The stacks the costs read are read-only: no singular covariance gets past that check.
    with pytest.raises(ValueError, match="read-only"):
        pred.cov_tracks[-1] = 0.0
    # The distance inputs still reject a stack swapped in past the prediction's own check.
    singular = pred.with_isotropic_covariance()
    object.__setattr__(singular, "cov_tracks", np.zeros_like(pred.cov_tracks))
    with pytest.raises(ContractViolation, match="not invertible"):
        _distance_inputs(singular)


def test_context_prediction_runs_on_the_nominal_clock(arm):
    _, ctx = build_problem(arm, seed=0, n_waypoints=20)  # dt = 2/19 s
    pred = ctx.prediction
    # An observation between two 100 Hz human samples shifts the prediction by up to 5 ms.
    dataclasses.replace(ctx, prediction=dataclasses.replace(pred, t0=pred.t0 + 0.005))
    for bad in (
        dataclasses.replace(pred, step=0.5),  # waypoint k would meet the human 0.5 k s ahead
        dataclasses.replace(pred, step=pred.step * (1 + 1e-6)),
        dataclasses.replace(pred, t0=pred.t0 + pred.step / 2),
        dataclasses.replace(pred, t0=pred.t0 - pred.step),
    ):
        with pytest.raises(ContractViolation, match="^prediction must run on the nominal's clock: step "):
            dataclasses.replace(ctx, prediction=bad)


def test_time_weights_default_and_custom(planar2):
    ctx = CostContext(planar2, np.zeros(2))
    problem = WeightedObjective(ctx, CostWeights(alpha_legibility=1.0), 0.1, 4)
    assert np.array_equal(problem.time_weights, [4.0, 3.0, 2.0, 1.0])
    assert problem.time_weight_sum == 10.0


def test_weight_without_inputs_rejected(planar2):
    traj = straightline_joint_init(np.zeros(2), np.ones(2), 4, 0.1)
    ctx = CostContext(planar2, np.ones(2))
    for w in (CostWeights(alpha_dist=1.0), CostWeights(alpha_vis=1.0), CostWeights(alpha_nominal=1.0)):
        with pytest.raises(ContractViolation):
            WeightedObjective(ctx, w, traj.dt, traj.n_waypoints)


def test_obstacle_weight_without_obstacles_rejected(planar2):
    traj = straightline_joint_init(np.zeros(2), np.ones(2), 4, 0.1)
    ctx = CostContext(planar2, np.ones(2))
    w = CostWeights(alpha_smooth=1.0, alpha_obstacle=1.0)
    with pytest.raises(ContractViolation, match="obstacle weight set but the context lacks its inputs"):
        WeightedObjective(ctx, w, traj.dt, traj.n_waypoints)


def test_context_rejects_malformed_obstacles(planar2):
    with pytest.raises(ContractViolation, match=r"^obstacles\.0\.center must have shape \(3,\), got \(2,\)$"):
        CostContext(planar2, np.zeros(2), obstacles=((np.array([0.5, 0.0]), 0.1),))
    with pytest.raises(ContractViolation, match=r"^obstacles\.0\.clearance must be finite and positive, got -0\.1$"):
        CostContext(planar2, np.zeros(2), obstacles=((np.array([0.5, 0.0, 0.0]), -0.1),))
    for center, radius in (([0.5, math.nan, 0.0], 0.1), ([0.5, 0.0, 0.0], math.inf)):
        with pytest.raises(ContractViolation):
            CostContext(planar2, np.zeros(2), obstacles=((np.array(center), radius),))
    for entry in ((np.zeros(3),), np.zeros(3), 0.1, (np.zeros(3), 0.1, 1.0)):
        with pytest.raises(ContractViolation, match=r"^each obstacle must be a \(center, clearance\) pair, got "):
            CostContext(planar2, np.zeros(2), obstacles=(entry,))
    ctx = CostContext(planar2, np.zeros(2), obstacles=((np.array([0.5, 0.0, 0.0]), 0.1),))
    problem = WeightedObjective(ctx, CostWeights(alpha_obstacle=1.0), 0.1, 4)
    assert problem.centers.shape == (1, 3) and problem.clearance.shape == (1,)


@pytest.mark.parametrize(
    "second, message",
    [
        ((np.ones(3), 0.0), r"^obstacles\.1\.clearance must be finite and positive, got 0\.0$"),
        ((np.ones(3), "0.1"), r"^obstacles\.1\.clearance must be finite and positive, got '0\.1'$"),
        (([1.0, math.nan, 1.0], 0.1), r"^obstacles\.1\.center must be finite, got nan at index \(1,\)$"),
        ((np.ones(2), 0.1), r"^obstacles\.1\.center must have shape \(3,\), got \(2,\)$"),
    ],
    ids=["zero-clearance", "text-clearance", "nan-center", "short-center"],
)
def test_context_names_a_bad_obstacle_by_its_index(planar2, second, message):
    with pytest.raises(ContractViolation, match=message):
        CostContext(planar2, np.zeros(2), obstacles=((np.zeros(3), 0.1), second))


@pytest.mark.parametrize("case", ["full", "spheres", "long", "no_head", "bare", "object_on_head"])
def test_problem_derives_every_array_bit_for_bit(arm, case):
    # "long" runs the nominal's FK on one 300-waypoint batch.
    traj, ctx = build_problem(arm, seed=3, n_waypoints=300 if case == "long" else 9)
    pred = ctx.prediction
    head = pred.joints.index("head")
    if case == "spheres":
        ctx = dataclasses.replace(ctx, obstacles=(([0.5, 0.1, 0.3], 0.2), (np.array([0.6, -0.1, 0.4]), 1)))
    elif case == "no_head":
        keep = [j for j in range(len(pred.joints)) if j != head]
        headless = PredictedHumanTrajectory(
            tuple(pred.joints[j] for j in keep), pred.mean_tracks[keep], pred.cov_tracks[keep], pred.step
        )
        ctx = dataclasses.replace(ctx, prediction=headless)
    elif case == "bare":
        ctx = CostContext(arm, ctx.goal_config)
    elif case == "object_on_head":
        ctx = dataclasses.replace(ctx, object_pos=pred.mean_tracks[head, 4].copy())
    problem = WeightedObjective(ctx, CostWeights(alpha_smooth=1.0), traj.dt, traj.n_waypoints)
    ref = reference_derived(ctx)
    names = ["goal_point", "centers", "clearance", *VISIBILITY_ARRAYS]
    # nominal_eef is derived on first use, and only a problem with a nominal uses it.
    for name in names + (["nominal_eef"] if ref.nominal_eef is not None else []):
        got, want = getattr(problem, name), getattr(ref, name)
        if want is None:
            assert got is None, name
        else:
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
    assert problem.centers.shape == ((2, 3) if case == "spheres" else (0, 3))
    if case == "object_on_head":
        assert problem.gaze_norm[4] == 0.0 and np.all(problem.gaze_unit[4] == 0.0)


def test_context_fields_cannot_be_assigned(arm):
    traj, ctx = build_problem(arm, seed=0, n_waypoints=5)
    ctx = dataclasses.replace(ctx, obstacles=((np.array([0.5, 0.0, 0.3]), 0.1),))
    assert set(vars(ctx)) == {f.name for f in dataclasses.fields(CostContext)}
    for f in dataclasses.fields(CostContext):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ctx, f.name, getattr(ctx, f.name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.goal_config = np.zeros(7)
    # A changed goal is a new context, and each problem derives the goal point from it.
    moved = dataclasses.replace(ctx, goal_config=np.zeros(7))
    problem = WeightedObjective(moved, CostWeights(alpha_legibility=1.0), traj.dt, traj.n_waypoints)
    assert problem.goal_point.tobytes() == fk_eef(arm, np.zeros(7)).tobytes()


@st.composite
def random_problems(draw):
    """A 2-7 joint DH chain, one problem on it with a sphere obstacle near its
    middle end-effector point, and valid random weights."""
    n = draw(st.integers(2, 7))
    row = st.tuples(
        st.floats(0.05, 0.4),  # a, m
        st.floats(-math.pi, math.pi),  # alpha
        st.floats(-0.3, 0.4),  # d, m
        st.floats(-math.pi, math.pi),  # theta offset
    )
    dh = np.array(draw(st.lists(row, min_size=n, max_size=n)))
    chain = ChainSpec(dh=dh, joint_limits=np.tile([-math.pi, math.pi], (n, 1)))
    traj, ctx = build_problem(chain, draw(st.integers(0, 2**16)), draw(st.integers(3, 8)))
    eef = fk_points_batch(chain, traj.waypoints)[traj.n_waypoints // 2, -1]
    offset = np.array(draw(st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3)))
    ctx = dataclasses.replace(ctx, obstacles=((eef + offset, draw(st.floats(0.05, 0.3))),))
    alpha = st.one_of(st.just(0.0), st.floats(0.01, 2.0))
    values = draw(st.lists(alpha, min_size=len(COST_NAMES), max_size=len(COST_NAMES)))
    assume(any(v > 0 for v in values))
    names = [f.name for f in dataclasses.fields(CostWeights)]
    return traj, ctx, CostWeights(**dict(zip(names, values)))


def kink_distance(traj, ctx) -> float:
    """How near the problem lies to a point where a term is not differentiable.

    The kinks: the squared Mahalanobis distance at its clamp ``EPS_M``; the
    end effector on the head or on the gaze ray; a zero-length end-effector
    segment; an end effector on the goal point (but the last, which sits on
    it exactly) or on the nominal's (but the two endpoints); a robot point on
    an obstacle's centre or on its clearance sphere.
    """
    points = fk_points_batch(ctx.chain, traj.waypoints)
    eef = points[:, -1]
    pred = ctx.prediction
    d = pred.mean_tracks[:, :, None, :] - points[None]
    inv = np.linalg.inv(pred.cov_tracks)
    m = np.einsum("jtpa,jtab,jtpb->jtp", d, inv, d)
    head = pred.mean_tracks[pred.joints.index("head")]
    to_eef = np.linalg.norm(eef - head, axis=1)
    angles = [gaze_angle(ctx.object_pos, h, e) for h, e in zip(head, eef)]
    ref = reference_derived(ctx)
    to_centers = np.linalg.norm(points[:, :, None, :] - ref.centers, axis=3)
    return min(
        float(np.min(m)) - EPS_M,
        float(np.min(to_eef)),
        min(angles),
        math.pi - max(angles),
        float(np.min(np.linalg.norm(np.diff(eef, axis=0), axis=1))),
        float(np.min(np.linalg.norm(eef[:-1] - ref.goal_point, axis=1))),
        float(np.min(np.linalg.norm(eef[1:-1] - ref.nominal_eef[1:-1], axis=1))),
        float(np.min(to_centers)),
        float(np.min(np.abs(to_centers - ref.clearance))),
    )


# No shrink phase: shrinking a failing draw took minutes, and the failing
# example is reported as drawn.
@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(random_problems())
def test_gradients_match_finite_differences_on_random_dh_chains(problem):
    traj, ctx, w = problem
    assume(kink_distance(traj, ctx) > 1e-3)
    problem = WeightedObjective(ctx, w, traj.dt, traj.n_waypoints)
    grad = ObjectivePass(traj.waypoints, problem).gradient()
    assert rel_error(grad, fd_gradient(traj.waypoints, problem)) <= 1e-4


def reference_distance_inputs(means: dict, covs: dict, joints) -> tuple[np.ndarray, np.ndarray]:
    """The distance inputs stacked joint by joint from per-joint dicts, in ``joints`` order."""
    stacked_means = np.stack([np.asarray(means[j], dtype=float) for j in joints])
    inv_covs = np.linalg.inv(np.stack([np.asarray(covs[j], dtype=float) for j in joints]))
    return stacked_means, np.ascontiguousarray(np.swapaxes(inv_covs, -1, -2))


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 12),
    step=st.floats(0.02, 0.3),
    with_goal=st.booleans(),
    factor=st.floats(0.1, 10.0),
)
def test_distance_inputs_match_per_joint_reference_along_the_prediction_pipeline(
    seed, horizon, step, with_goal, factor
):
    # predict -> extrapolate_skeleton -> with_isotropic_covariance / scaled covariances,
    # each checked against per-joint dicts built here, in the joint order the
    # distance term sums over: the right arm, then the extrapolated joints.
    # The pipeline gives every joint the same covariances, so a last case gives
    # each joint its own, listed in the reverse order.
    rng = np.random.default_rng(seed)
    rate = 100.0
    t = np.arange(int(round(1.2 * rate)) + 1)[:, None] / rate
    tracks = np.stack([rng.uniform(-1, 1, 3) + t * rng.uniform(-0.3, 0.3, 3) for _ in RIGHT_ARM_JOINTS], axis=1)
    goal = rng.uniform(-1, 1, 3) if with_goal else None
    arm = predict(HumanTrajectory(RIGHT_ARM_JOINTS, tracks, rate), horizon, step, goal, options=CFG.prediction)
    full = extrapolate_skeleton(arm)
    order = RIGHT_ARM_JOINTS + EXTRAPOLATED_JOINTS
    assert arm.joints == RIGHT_ARM_JOINTS and full.joints == order

    offsets = load_skeleton_offsets()
    means = {name: np.array(arm.mean_tracks[j]) for j, name in enumerate(arm.joints)}
    covs = {name: np.array(arm.cov_tracks[j]) for j, name in enumerate(arm.joints)}
    for k, name in enumerate(EXTRAPOLATED_JOINTS):
        means[name] = means["right_shoulder"] + offsets[k]
        covs[name] = covs["right_shoulder"]
    eye = np.broadcast_to(np.eye(3), (horizon, 3, 3))
    cases = [
        (arm, means, covs, RIGHT_ARM_JOINTS),
        (full, means, covs, order),
        (full.with_isotropic_covariance(), means, dict.fromkeys(order, eye), order),
        (
            dataclasses.replace(full, cov_tracks=np.broadcast_to(factor * np.eye(3), full.cov_tracks.shape)),
            means,
            dict.fromkeys(order, factor * eye),
            order,
        ),
        (
            dataclasses.replace(full, cov_tracks=factor * full.cov_tracks),
            means,
            {k: factor * v for k, v in covs.items()},
            order,
        ),
    ]
    distinct = {name: (1.0 + j) * covs[name] for j, name in enumerate(reversed(order))}
    stacked = (np.stack([means[name] for name in order]), np.stack([distinct[name] for name in order]))
    cases.append((PredictedHumanTrajectory(order, *stacked, step), means, distinct, order))
    for pred, want_means, want_covs, joints in cases:
        got = _distance_inputs(pred)
        want = reference_distance_inputs(want_means, want_covs, joints)
        for got_array, want_array in zip(got, want):
            assert got_array.shape == want_array.shape
            assert got_array.tobytes() == want_array.tobytes()
