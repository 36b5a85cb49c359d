"""The distance, visibility and legibility kernels against reference
copies of their earlier formulation, which derived the gaze ray, the
legibility weight sum and every row norm in each pass: values, pullbacks
and degenerate-step diagnostics equal bit for bit, on random problems and
at the kinks."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from test_costs import build_problem, pulled, reference_derived, stand_in_pass

from comoto.costs import (
    EPS_M,
    CostWeights,
    ObjectivePass,
    WeightedObjective,
    _distance_inputs,
    _distance_term,
    _legibility_term,
    _repeat_means,
    _visibility_term,
)
from comoto.human_motion import PredictedHumanTrajectory
from comoto.kinematics import all_point_jacobians_batch, fk_eef

_TINY = 1e-12


def reference_distance_term(points, means, inv_covs_t, eps_m):
    P = points.shape[1]
    d = np.repeat(means[:, :, None, :], P, axis=2) - points[None]
    sd = np.matmul(d, inv_covs_t)
    m = np.einsum("jtpa,jtpa->jtp", d, sd)
    clamped = m < eps_m
    value = float(np.sum(1.0 / np.maximum(m, eps_m)))

    def pullback(jacs):
        coeff = np.where(clamped, 0.0, 2.0 / np.maximum(m, eps_m) ** 2)
        dval_dp = np.einsum("jtp,jtpa->tpa", coeff, sd)
        return np.einsum("tpan,tpa->tn", jacs, dval_dp)

    return value, pullback


def reference_visibility_term(eef, head_means, sigma_head, object_pos):
    u = object_pos[None, :] - head_means
    w = eef - head_means
    nu = np.linalg.norm(u, axis=1)
    nw = np.linalg.norm(w, axis=1)
    ok = (nu > 1e-9) & (nw > 1e-9)
    flagged = [int(t) for t in np.nonzero(~ok)[0]]
    safe_nu = np.where(ok, nu, 1.0)
    safe_nw = np.where(ok, nw, 1.0)
    c = np.clip(np.einsum("ta,ta->t", u, w) / (safe_nu * safe_nw), -1.0, 1.0)
    theta = np.where(ok, np.arccos(c), 0.0)
    value = float(np.sum(theta / sigma_head))

    def pullback(eef_jac):
        sin2 = 1.0 - c**2
        diffbl = ok & (sin2 > _TINY)
        safe_sin = np.sqrt(np.where(diffbl, sin2, 1.0))
        u_hat = u / safe_nu[:, None]
        w_hat = w / safe_nw[:, None]
        dtheta_dw = -(u_hat - c[:, None] * w_hat) / (safe_nw * safe_sin)[:, None]
        dtheta_dw = np.where(diffbl[:, None], dtheta_dw, 0.0)
        return np.einsum("tan,ta->tn", eef_jac, dtheta_dw / sigma_head[:, None])

    return value, pullback, flagged


def reference_legibility_term(eef, goal, f):
    N = eef.shape[0]
    W = float(f.sum())
    seg = np.diff(eef, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg_len)])
    to_goal = eef - goal[None, :]
    r = np.linalg.norm(to_goal, axis=1)
    L_full = r[0]
    P = np.exp(L_full - s - r)
    value = -float(np.sum(f * P) / W)

    def pullback(eef_jac):
        wp = f * P
        A = np.cumsum(wp[::-1])[::-1]
        B = A - wp
        u_hat = np.where(seg_len[:, None] > _TINY, seg / np.maximum(seg_len, _TINY)[:, None], 0.0)
        g_hat = np.where(r[:, None] > _TINY, to_goal / np.maximum(r, _TINY)[:, None], 0.0)
        dv = np.zeros((N, 3))
        dv[1:] -= A[1:, None] * u_hat
        dv[:-1] += B[:-1, None] * u_hat
        dv -= wp[:, None] * g_hat
        if L_full > _TINY:
            dv[0] += A[0] * to_goal[0] / L_full
        dv /= W
        return np.einsum("tan,ta->tn", eef_jac, -dv)

    return value, pullback


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_kernels_match(q, ctx, goal, eps_m=EPS_M):
    """Each kernel against its reference at ``q``, the legibility goal at
    ``goal`` and the distance clamp at ``eps_m``; returns the flagged steps
    and the visibility gradient."""
    points, jacs = all_point_jacobians_batch(ctx.chain, q)
    eef, eef_jac = points[:, -1], jacs[:, -1]
    p = stand_in_pass(ctx.chain, q)

    means, inv_covs_t = _distance_inputs(ctx.prediction)
    got, pullback = _distance_term(
        points, _repeat_means(means, points.shape[1]), inv_covs_t, eps_m, 1.0
    )
    want, want_pullback = reference_distance_term(points, means, inv_covs_t, eps_m)
    assert same_bits(got, want)
    assert same_bits(pulled(pullback, p), want_pullback(jacs))

    head = ctx.prediction.mean_tracks[ctx.prediction.joints.index("head")]
    problem = WeightedObjective(ctx, CostWeights(alpha_vis=1.0), 0.1, len(q))
    got, pullback, flagged = _visibility_term(eef, problem, 1.0)
    want, want_pullback, want_flagged = reference_visibility_term(
        eef, head, reference_derived(ctx).sigma_head, ctx.object_pos
    )
    vis_grad = want_pullback(eef_jac)
    assert same_bits(got, want)
    assert same_bits(pulled(pullback, p), vis_grad)
    assert flagged == want_flagged
    diagnostics = ObjectivePass(q, problem).diagnostics
    assert diagnostics == ({"visibility_degenerate_steps": want_flagged} if want_flagged else {})

    f = np.arange(len(q), 0, -1, dtype=float)
    got, pullback = _legibility_term(eef, goal, f, float(f.sum()), 1.0)
    want, want_pullback = reference_legibility_term(eef, goal, f)
    assert same_bits(got, want)
    assert same_bits(pulled(pullback, p), want_pullback(eef_jac))
    return want_flagged, vis_grad


def with_head_step(ctx, k, point):
    """``ctx`` with the head's mean at step ``k`` moved to ``point``."""
    pred = ctx.prediction
    means = pred.mean_tracks.copy()
    means[pred.joints.index("head"), k] = point
    moved = PredictedHumanTrajectory(pred.joints, means, pred.cov_tracks, pred.step)
    return dataclasses.replace(ctx, prediction=moved)


@pytest.mark.parametrize("seed", range(6))
def test_kernels_equal_references_on_random_problems(arm, seed):
    traj, ctx = build_problem(arm, seed=seed, n_waypoints=4 + 3 * seed)
    flagged, _ = assert_kernels_match(traj.waypoints, ctx, fk_eef(arm, ctx.goal_config))
    assert flagged == []


def test_kernels_equal_references_at_the_kinks(arm):
    traj, ctx = build_problem(arm, seed=11, n_waypoints=9)
    q, goal = traj.waypoints, fk_eef(arm, ctx.goal_config)
    eef = all_point_jacobians_batch(arm, q)[0][:, -1]

    # The end effector exactly on the head at step 3: flagged, no gradient there.
    flagged, grad = assert_kernels_match(q, with_head_step(ctx, 3, eef[3]), goal)
    assert flagged == [3]
    assert np.all(grad[3] == 0.0)

    # The attended object on the head at step 5.
    head = ctx.prediction.joints.index("head")
    at_head = dataclasses.replace(ctx, object_pos=ctx.prediction.mean_tracks[head, 5].copy())
    flagged, _ = assert_kernels_match(q, at_head, goal)
    assert flagged == [5]

    # A zero-length end-effector segment between steps 4 and 5.
    still = q.copy()
    still[5] = still[4]
    still_eef = all_point_jacobians_batch(arm, still)[0][:, -1]
    assert np.array_equal(still_eef[4], still_eef[5])
    assert_kernels_match(still, ctx, goal)

    # The end effector on the goal point, at the first, a middle and the last step.
    for k in (0, 4, -1):
        assert_kernels_match(q, ctx, eef[k].copy())

    # An eps_m that clamps part of the (joint, step, point) triples.
    points = all_point_jacobians_batch(arm, q)[0]
    means, inv_covs_t = _distance_inputs(ctx.prediction)
    d = means[:, :, None, :] - points[None]
    m = np.einsum("jtpa,jtpa->jtp", d, np.matmul(d, inv_covs_t))
    assert 0 < np.count_nonzero(m < 20.0) < m.size
    assert_kernels_match(q, ctx, goal, eps_m=20.0)
