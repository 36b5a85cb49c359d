"""The five trajectory costs, their weighted sum, and analytic gradients.

Terms (all summed over waypoints):

- ``distance``: inverse Mahalanobis-squared proximity between every
  robot point and every predicted human joint; uncertainty widens the
  effective keep-out region.
- ``visibility``: angle at the human head between the attended object
  and the end effector, divided by the head-position spread.
- ``legibility``: negative time-weighted goal probability of the end
  effector path (probability ratio of exponentiated path lengths).
- ``nominal``: Cartesian end-effector deviation from the nominal
  trajectory (unsquared; the squared variant lives in metrics).
- ``smoothness``: squared finite-difference acceleration in joint space.

Every gradient is analytic, chained through the position Jacobians, and
checkable against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .human_motion import PredictedHumanTrajectory
from .kinematics import (
    ChainSpec,
    JointTrajectory,
    all_point_jacobians_batch,
    fk_eef,
    fk_points_batch,
)

Array = np.ndarray

COST_NAMES = ("distance", "visibility", "legibility", "nominal", "smoothness")

#: Mahalanobis-squared clamp: bounds the distance cost as separation -> 0.
EPS_M = 1e-4

#: Lower bound on the head-position spread used by the visibility cost.
SIGMA_FLOOR = 0.01

_TINY = 1e-12


@dataclass(frozen=True)
class CostWeights:
    """Non-negative weights for the five cost terms."""

    alpha_dist: float = 0.0
    alpha_vis: float = 0.0
    alpha_legibility: float = 0.0
    alpha_nominal: float = 0.0
    alpha_smooth: float = 0.0

    def __post_init__(self):
        vals = self.as_dict()
        if not all(math.isfinite(v) and v >= 0 for v in vals.values()):
            raise ContractViolation(f"cost weights must be finite and non-negative, got {vals}")
        if all(v == 0 for v in vals.values()):
            raise ContractViolation("at least one cost weight must be positive")

    def as_dict(self) -> dict[str, float]:
        return {
            "distance": self.alpha_dist,
            "visibility": self.alpha_vis,
            "legibility": self.alpha_legibility,
            "nominal": self.alpha_nominal,
            "smoothness": self.alpha_smooth,
        }


@dataclass
class CostContext:
    """Fixed inputs for evaluating one planning problem.

    The prediction must already live on the trajectory's waypoint grid
    (equal horizon).  ``object_pos`` is the point the human attends to
    (anchor of the gaze ray); ``goal_config`` is the configuration the
    trajectory must end at.  Immutable after construction.
    """

    chain: ChainSpec
    goal_config: Array
    prediction: PredictedHumanTrajectory | None = None
    nominal: JointTrajectory | None = None
    object_pos: Array | None = None
    legibility_weights: Array | None = None
    eps_m: float = EPS_M
    sigma_floor: float = SIGMA_FLOOR

    def __post_init__(self):
        self.goal_config = np.asarray(self.goal_config, dtype=float)
        if self.goal_config.shape != (self.chain.n_joints,):
            raise ContractViolation("goal_config dimension does not match the chain")
        if self.object_pos is not None:
            self.object_pos = np.asarray(self.object_pos, dtype=float).reshape(3)
        if self.eps_m <= 0 or self.sigma_floor <= 0:
            raise ContractViolation("eps_m and sigma_floor must be positive")
        if self.prediction is not None and self.nominal is not None:
            if self.prediction.horizon != self.nominal.n_waypoints:
                raise ContractViolation(
                    "prediction horizon must equal the nominal waypoint count"
                )
        if self.legibility_weights is not None:
            f = np.asarray(self.legibility_weights, dtype=float)
            if np.any(f < 0) or f.sum() <= 0:
                raise ContractViolation("legibility weights must be >= 0 with positive sum")
            self.legibility_weights = f
        self._goal_point = fk_eef(self.chain, self.goal_config)
        self._nominal_eef = (
            None
            if self.nominal is None
            else fk_points_batch(self.chain, self.nominal.waypoints)[:, -1]
        )
        if self.prediction is not None:
            names = list(self.prediction.joints)
            self._joint_names = names
            self._means = np.stack([self.prediction.means[j] for j in names])
            covs = np.stack([self.prediction.covariances[j] for j in names])
            try:
                self._inv_covs = np.linalg.inv(covs)
            except np.linalg.LinAlgError as exc:
                raise ContractViolation(f"prediction covariance not invertible: {exc}")
            if "head" in names:
                head_cov = self.prediction.covariances["head"]
                spread = np.sqrt(np.trace(head_cov, axis1=1, axis2=2) / 3.0)
                self._sigma_head = np.maximum(spread, self.sigma_floor)
            else:
                self._sigma_head = None
        else:
            self._joint_names = None
            self._means = None
            self._inv_covs = None
            self._sigma_head = None

    @property
    def goal_point(self) -> Array:
        """End-effector position of the goal configuration."""
        return self._goal_point

    def time_weights(self, n_steps: int) -> Array:
        """Per-step legibility weights f; defaults to N - k (front-loaded)."""
        if self.legibility_weights is not None:
            f = self.legibility_weights
            if f.shape[0] != n_steps:
                raise ContractViolation("legibility weight count must equal waypoint count")
            return f
        return np.arange(n_steps, 0, -1, dtype=float)


@dataclass
class CostReport:
    """Objective breakdown at one trajectory.

    ``total`` equals the weight-scaled sum of ``per_cost`` entries (an
    extra baseline-specific term, if any, enters with weight 1).
    ``gradient`` covers the free decision variables: the interior
    waypoints, flattened row-major.
    """

    total: float
    per_cost: dict[str, float]
    gradient: Array | None
    weights: dict[str, float] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def mahalanobis_proximity(d: Array, cov: Array, eps_m: float = EPS_M) -> float:
    """One proximity term: 1 / max(d' cov^-1 d, eps_m)."""
    d = np.asarray(d, dtype=float)
    m = float(d @ np.linalg.solve(np.asarray(cov, dtype=float), d))
    return 1.0 / max(m, eps_m)


def gaze_angle(object_pos: Array, head: Array, eef: Array) -> float:
    """Angle in [0, pi] at the head between the object and the end effector."""
    u = np.asarray(object_pos, dtype=float) - head
    w = np.asarray(eef, dtype=float) - head
    nu, nw = np.linalg.norm(u), np.linalg.norm(w)
    if nu < 1e-9 or nw < 1e-9:
        raise ContractViolation("gaze angle undefined: object or eef coincides with the head")
    c = np.clip(u @ w / (nu * nw), -1.0, 1.0)
    return float(np.arccos(c))


def path_length(traj: JointTrajectory, chain: ChainSpec) -> float:
    """Cartesian end-effector path length, meters."""
    eef = fk_points_batch(chain, traj.waypoints)[:, -1]
    return float(np.linalg.norm(np.diff(eef, axis=0), axis=1).sum())


def goal_probability(
    traj_prefix_length: float, remaining_straightline: float, full_straightline: float
) -> float:
    """Probability ratio exp(-(prefix + remaining)) / exp(-full).

    All arguments are Cartesian end-effector distances (meters); the
    result is <= 1 whenever the prefix is no shorter than optimal.
    """
    if min(traj_prefix_length, remaining_straightline, full_straightline) < 0:
        raise ContractViolation("path lengths must be non-negative")
    return float(np.exp(full_straightline - traj_prefix_length - remaining_straightline))


# ---------------------------------------------------------------------------
# Term evaluators over precomputed forward kinematics
# ---------------------------------------------------------------------------


def _distance_term(
    points: Array, jacs: Array | None, means: Array, inv_covs: Array, eps_m: float
) -> tuple[float, Array | None]:
    # points (N,P,3); means (J,N,3); inv_covs (J,N,3,3)
    d = means[:, :, None, :] - points[None, :, :, :]  # (J,N,P,3)
    sd = np.einsum("jtab,jtpb->jtpa", inv_covs, d)
    m = np.einsum("jtpa,jtpa->jtp", d, sd)
    clamped = m < eps_m
    value = float(np.sum(1.0 / np.maximum(m, eps_m)))
    if jacs is None:
        return value, None
    coeff = np.where(clamped, 0.0, 2.0 / np.maximum(m, eps_m) ** 2)
    dval_dp = np.einsum("jtp,jtpa->tpa", coeff, sd)
    grad = np.einsum("tpan,tpa->tn", jacs, dval_dp)
    return value, grad


def _visibility_term(
    eef: Array,
    eef_jac: Array | None,
    head_means: Array,
    sigma_head: Array,
    object_pos: Array,
) -> tuple[float, Array | None, list[int]]:
    u = object_pos[None, :] - head_means  # gaze ray per step
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
    if eef_jac is None:
        return value, None, flagged
    sin2 = 1.0 - c**2
    diffbl = ok & (sin2 > _TINY)
    safe_sin = np.sqrt(np.where(diffbl, sin2, 1.0))
    u_hat = u / safe_nu[:, None]
    w_hat = w / safe_nw[:, None]
    dtheta_dw = -(u_hat - c[:, None] * w_hat) / (safe_nw * safe_sin)[:, None]
    dtheta_dw = np.where(diffbl[:, None], dtheta_dw, 0.0)
    grad = np.einsum("tan,ta->tn", eef_jac, dtheta_dw / sigma_head[:, None])
    return value, grad, flagged


def _legibility_term(
    eef: Array, eef_jac: Array | None, goal: Array, f: Array
) -> tuple[float, Array | None]:
    N = eef.shape[0]
    W = float(f.sum())
    if W <= 0:
        raise ContractViolation("legibility time weights sum to zero")
    seg = np.diff(eef, axis=0)  # (N-1,3)
    seg_len = np.linalg.norm(seg, axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg_len)])
    to_goal = eef - goal[None, :]
    r = np.linalg.norm(to_goal, axis=1)
    L_full = r[0]
    P = np.exp(L_full - s - r)  # <= 1 by the triangle inequality
    value = -float(np.sum(f * P) / W)
    if eef_jac is None:
        return value, None
    wp = f * P
    A = np.cumsum(wp[::-1])[::-1]  # A[n] = sum_{k>=n} f_k P_k
    B = A - wp
    u_hat = np.where(seg_len[:, None] > _TINY, seg / np.maximum(seg_len, _TINY)[:, None], 0.0)
    g_hat = np.where(r[:, None] > _TINY, to_goal / np.maximum(r, _TINY)[:, None], 0.0)
    dv = np.zeros((N, 3))
    dv[1:] -= A[1:, None] * u_hat  # path-length sensitivity of the arriving segment
    dv[:-1] += B[:-1, None] * u_hat  # and of the departing segment
    dv -= wp[:, None] * g_hat  # remaining-straight-line sensitivity
    if L_full > _TINY:
        dv[0] += A[0] * to_goal[0] / L_full  # the optimal-cost normalizer moves with e_0
    dv /= W
    grad = np.einsum("tan,ta->tn", eef_jac, -dv)
    return value, grad


def _nominal_term(
    eef: Array, eef_jac: Array | None, nominal_eef: Array
) -> tuple[float, Array | None]:
    diff = eef - nominal_eef
    dist = np.linalg.norm(diff, axis=1)
    value = float(dist.sum())
    if eef_jac is None:
        return value, None
    direction = np.where(dist[:, None] > _TINY, diff / np.maximum(dist, _TINY)[:, None], 0.0)
    grad = np.einsum("tan,ta->tn", eef_jac, direction)
    return value, grad


def _smoothness_term(q: Array, dt: float, with_grad: bool) -> tuple[float, Array | None]:
    acc = (q[2:] - 2.0 * q[1:-1] + q[:-2]) / dt**2
    value = float(np.sum(acc**2))
    if not with_grad:
        return value, None
    grad = np.zeros_like(q)
    a2 = 2.0 * acc / dt**2
    grad[:-2] += a2
    grad[1:-1] -= 2.0 * a2
    grad[2:] += a2
    return value, grad


# ---------------------------------------------------------------------------
# Public per-cost entry points
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ContractViolation(message)


def cost_distance(traj: JointTrajectory, ctx: CostContext) -> float:
    """Inverse Mahalanobis-squared proximity, summed over steps/joints/points."""
    _require(ctx.prediction is not None, "distance cost needs a prediction in the context")
    _require(
        ctx.prediction.horizon == traj.n_waypoints,
        "prediction horizon must equal the trajectory waypoint count",
    )
    points = fk_points_batch(ctx.chain, traj.waypoints)
    value, _ = _distance_term(points, None, ctx._means, ctx._inv_covs, ctx.eps_m)
    return value


def cost_visibility(traj: JointTrajectory, ctx: CostContext) -> float:
    """Gaze-to-eef angle over head-position spread, summed over steps."""
    _require(ctx.prediction is not None, "visibility cost needs a prediction in the context")
    _require(ctx._sigma_head is not None, "visibility cost needs a head track in the prediction")
    _require(ctx.object_pos is not None, "visibility cost needs object_pos in the context")
    _require(
        ctx.prediction.horizon == traj.n_waypoints,
        "prediction horizon must equal the trajectory waypoint count",
    )
    eef = fk_points_batch(ctx.chain, traj.waypoints)[:, -1]
    value, _, _ = _visibility_term(
        eef, None, ctx.prediction.means["head"], ctx._sigma_head, ctx.object_pos
    )
    return value


def cost_legibility(traj: JointTrajectory, ctx: CostContext) -> float:
    """Negative time-weighted goal probability of the eef path (in [-1, 0))."""
    eef = fk_points_batch(ctx.chain, traj.waypoints)[:, -1]
    value, _ = _legibility_term(eef, None, ctx.goal_point, ctx.time_weights(traj.n_waypoints))
    return value


def cost_nominal(traj: JointTrajectory, ctx: CostContext) -> float:
    """Unsquared Cartesian eef deviation from the nominal trajectory, meters."""
    _require(ctx.nominal is not None, "nominal cost needs a nominal trajectory in the context")
    _require(
        ctx.nominal.n_waypoints == traj.n_waypoints and ctx.nominal.dt == traj.dt,
        "nominal and trajectory must share waypoint count and dt",
    )
    eef = fk_points_batch(ctx.chain, traj.waypoints)[:, -1]
    value, _ = _nominal_term(eef, None, ctx._nominal_eef)
    return value


def cost_smoothness(traj: JointTrajectory) -> float:
    """Sum of squared joint accelerations (second differences over dt^2)."""
    value, _ = _smoothness_term(traj.waypoints, traj.dt, with_grad=False)
    return value


def evaluate_objective(
    q: Array,
    dt: float,
    ctx: CostContext,
    w: CostWeights,
    with_grad: bool = True,
    extra_cost=None,
) -> tuple[float, Array | None, dict[str, float], dict]:
    """Weighted objective over raw waypoints; gradient spans all waypoints.

    ``extra_cost(q, points, jacs, with_grad) -> (value, grad)`` lets a
    caller add one baseline-specific term (entering with weight 1).
    Returns ``(total, grad, per_cost, diagnostics)``.

    A gradient call reports every term in ``per_cost``: a term whose
    inputs the context lacks reads 0.0.  A value-only call
    (``with_grad=False``, as in line-search trials) computes only the
    positively weighted terms, so its ``per_cost`` holds exactly those
    plus ``extra``; the total is the same, since an unweighted term adds
    0.0 to it.
    """
    weights = w.as_dict()
    has_inputs = {
        "distance": ctx.prediction is not None,
        "visibility": ctx.prediction is not None
        and ctx._sigma_head is not None
        and ctx.object_pos is not None,
        "nominal": ctx.nominal is not None,
    }
    for name, ok in has_inputs.items():
        _require(ok or weights[name] == 0, f"{name} weight set but the context lacks its inputs")
    if has_inputs["distance"]:
        _require(
            ctx.prediction.horizon == q.shape[0],
            "prediction horizon must equal the trajectory waypoint count",
        )
    if has_inputs["nominal"]:
        _require(
            ctx.nominal.n_waypoints == q.shape[0],
            "nominal and trajectory must share waypoint count",
        )

    if with_grad:
        # Every term the context supports, so reports carry the full
        # breakdown; legibility needs only the end effector, so it comes
        # free with any FK pass.
        has_fk = any(has_inputs.values()) or weights["legibility"] > 0 or extra_cost is not None
        computed = {**has_inputs, "legibility": has_fk, "smoothness": True}
    else:
        # An unweighted term adds exactly 0.0 to the total.
        computed = {name: weights[name] > 0 for name in COST_NAMES}
    need_fk = extra_cost is not None or any(computed[name] for name in COST_NAMES[:4])

    points = jacs = eef = eef_jac = None
    if need_fk:
        if with_grad:
            points, jacs = all_point_jacobians_batch(ctx.chain, q)
            eef, eef_jac = points[:, -1], jacs[:, -1]
        else:
            points = fk_points_batch(ctx.chain, q)
            eef = points[:, -1]

    per_cost: dict[str, float] = {}
    grads: dict[str, Array] = {}
    diagnostics: dict = {}

    if computed["distance"]:
        per_cost["distance"], grads["distance"] = _distance_term(
            points,
            jacs if weights["distance"] > 0 else None,
            ctx._means,
            ctx._inv_covs,
            ctx.eps_m,
        )
    if computed["visibility"]:
        per_cost["visibility"], grads["visibility"], flagged = _visibility_term(
            eef,
            eef_jac if weights["visibility"] > 0 else None,
            ctx.prediction.means["head"],
            ctx._sigma_head,
            ctx.object_pos,
        )
        if flagged:
            diagnostics["visibility_degenerate_steps"] = flagged
    if computed["legibility"]:
        per_cost["legibility"], grads["legibility"] = _legibility_term(
            eef,
            eef_jac if weights["legibility"] > 0 else None,
            ctx.goal_point,
            ctx.time_weights(q.shape[0]),
        )
    if computed["nominal"]:
        per_cost["nominal"], grads["nominal"] = _nominal_term(
            eef, eef_jac if weights["nominal"] > 0 else None, ctx._nominal_eef
        )
    if computed["smoothness"]:
        per_cost["smoothness"], grads["smoothness"] = _smoothness_term(q, dt, with_grad)

    total = sum(weights[name] * per_cost[name] for name in COST_NAMES if name in per_cost)
    grad_total = None
    if with_grad:
        per_cost = {name: per_cost.get(name, 0.0) for name in COST_NAMES}
        grad_total = np.zeros_like(q)
        for name in COST_NAMES:
            if weights[name] > 0:
                grad_total += weights[name] * grads[name]

    if extra_cost is not None:
        val, grad = extra_cost(q, points, jacs, with_grad)
        per_cost["extra"] = val
        total += val
        if with_grad and grad is not None:
            grad_total += grad

    if not np.isfinite(total):
        raise ContractViolation("objective evaluated to a non-finite value")
    return total, grad_total, per_cost, diagnostics


def objective(traj: JointTrajectory, ctx: CostContext, w: CostWeights) -> CostReport:
    """Weighted total, per-cost breakdown, and interior-waypoint gradient."""
    total, grad, per_cost, diagnostics = evaluate_objective(
        traj.waypoints, traj.dt, ctx, w, with_grad=True
    )
    weights = w.as_dict()
    if "extra" in per_cost:
        weights["extra"] = 1.0
    return CostReport(
        total=total,
        per_cost=per_cost,
        gradient=grad[1:-1].ravel().copy(),
        weights=weights,
        diagnostics=diagnostics,
    )
