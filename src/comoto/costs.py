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
    _batch_frames,
    _point_jacobians,
    fk_eef,
    fk_points_batch,
)

Array = np.ndarray

#: Each term, in reporting order, and the ``CostWeights`` field that weights it.
_ALPHA = {
    "distance": "alpha_dist",
    "visibility": "alpha_vis",
    "legibility": "alpha_legibility",
    "nominal": "alpha_nominal",
    "smoothness": "alpha_smooth",
}
COST_NAMES = tuple(_ALPHA)

_TINY = 1e-12


def _row_norms(x: Array) -> Array:
    """``np.linalg.norm(x, axis=1)`` for real ``x``, bit for bit, in one call."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


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
        return {name: getattr(self, alpha) for name, alpha in _ALPHA.items()}


@dataclass
class CostContext:
    """Fixed inputs for evaluating one planning problem.

    The prediction must already live on the trajectory's waypoint grid
    (equal horizon).  ``object_pos`` is the point the human attends to
    (anchor of the gaze ray); ``goal_config`` is the configuration the
    trajectory must end at.  ``eps_m`` and ``sigma_floor`` are the run
    config's ``costs`` section: ``eps_m`` clamps the squared Mahalanobis
    distance from below, so the distance cost stays bounded as the
    separation goes to 0, and ``sigma_floor`` bounds the head-position
    spread the visibility cost divides by.  Immutable after construction.
    """

    chain: ChainSpec
    goal_config: Array
    eps_m: float
    sigma_floor: float
    prediction: PredictedHumanTrajectory | None = None
    nominal: JointTrajectory | None = None
    object_pos: Array | None = None
    legibility_weights: Array | None = None

    def __post_init__(self):
        self.goal_config = np.asarray(self.goal_config, dtype=float)
        if self.goal_config.shape != (self.chain.n_joints,):
            raise ContractViolation("goal_config dimension does not match the chain")
        if self.object_pos is not None:
            self.object_pos = np.asarray(self.object_pos, dtype=float).reshape(3)
        for name in ("eps_m", "sigma_floor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ContractViolation(f"{name} must be finite and positive, got {value!r}")
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
        self._means = self._inv_covs_t = self._sigma_head = self._gaze = None
        if self.prediction is not None:
            names = list(self.prediction.joints)
            self._means = np.stack([self.prediction.means[j] for j in names])
            covs = np.stack([self.prediction.covariances[j] for j in names])
            try:
                inv_covs = np.linalg.inv(covs)
            except np.linalg.LinAlgError as exc:
                raise ContractViolation(f"prediction covariance not invertible: {exc}")
            # Transposed and C-contiguous, the layout `_distance_term`'s matmul takes.
            self._inv_covs_t = np.ascontiguousarray(np.swapaxes(inv_covs, -1, -2))
            if "head" in names:
                head_cov = self.prediction.covariances["head"]
                spread = np.sqrt(np.trace(head_cov, axis1=1, axis2=2) / 3.0)
                self._sigma_head = np.maximum(spread, self.sigma_floor)
        if self._sigma_head is not None and self.object_pos is not None:
            # The visibility term's gaze ray from the head to the object, per step.
            self._head = self.prediction.means["head"]
            self._gaze = self.object_pos - self._head
            self._gaze_norm = nu = _row_norms(self._gaze)
            self._gaze_unit = self._gaze / np.where(nu > 1e-9, nu, 1.0)[:, None]

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


def mahalanobis_proximity(d: Array, cov: Array, eps_m: float) -> float:
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
#
# Each returns ``(value, pullback)``.  The pullback keeps the value
# pass's intermediates and maps the point Jacobians (distance) or the
# end-effector Jacobians (the eef terms) to the term's gradient over all
# waypoints; the smoothness pullback takes no argument.
# ---------------------------------------------------------------------------


def _distance_term(points: Array, ctx: CostContext):
    # points (N,P,3); means (J,N,3); inv_covs_t (J,N,3,3), each inverse transposed.
    # sd = Sigma^-1 d as one stacked GEMM of each (P,3) block of d by its
    # transposed inverse.  Every prediction the pipeline builds is isotropic
    # (sigma^2(t) I, or I for Dist+Vis), so the inverse is exactly diagonal,
    # its off-diagonal products are exact zeros and no summation order can
    # change a bit.  Repeating the means builds d faster than a broadcast
    # difference; d is rebuilt per call, since a copy on the context would
    # keep a (J,N,P,3) array alive for every planning problem.
    eps_m = ctx.eps_m
    d = np.repeat(ctx._means[:, :, None, :], points.shape[1], axis=2) - points[None]  # (J,N,P,3)
    sd = np.matmul(d, ctx._inv_covs_t)
    m = np.einsum("jtpa,jtpa->jtp", d, sd)
    m_clamped = np.maximum(m, eps_m)
    value = float((1.0 / m_clamped).sum())

    def pullback(jacs: Array) -> Array:
        coeff = np.where(m < eps_m, 0.0, 2.0 / m_clamped**2)
        dval_dp = np.einsum("jtp,jtpa->tpa", coeff, sd)
        return np.einsum("tpan,tpa->tn", jacs, dval_dp)

    return value, pullback


def _visibility_term(eef: Array, ctx: CostContext):
    """Returns ``(value, pullback, flagged)``; ``flagged`` lists degenerate steps."""
    u, nu, sigma_head = ctx._gaze, ctx._gaze_norm, ctx._sigma_head
    w = eef - ctx._head
    nw = _row_norms(w)
    ok = (nu > 1e-9) & (nw > 1e-9)
    flagged = [] if ok.all() else [int(t) for t in np.nonzero(~ok)[0]]
    safe_nw = np.where(ok, nw, 1.0)
    c = np.clip(np.einsum("ta,ta->t", u, w) / (np.where(ok, nu, 1.0) * safe_nw), -1.0, 1.0)
    theta = np.where(ok, np.arccos(c), 0.0)
    value = float((theta / sigma_head).sum())

    def pullback(eef_jac: Array) -> Array:
        sin2 = 1.0 - c**2
        diffbl = ok & (sin2 > _TINY)
        safe_sin = np.sqrt(np.where(diffbl, sin2, 1.0))
        w_hat = w / safe_nw[:, None]
        dtheta_dw = -(ctx._gaze_unit - c[:, None] * w_hat) / (safe_nw * safe_sin)[:, None]
        dtheta_dw = np.where(diffbl[:, None], dtheta_dw, 0.0)
        return np.einsum("tan,ta->tn", eef_jac, dtheta_dw / sigma_head[:, None])

    return value, pullback, flagged


def _legibility_term(eef: Array, goal: Array, f: Array, W: float):
    # f: the per-step time weights; W: their sum, positive.
    N = eef.shape[0]
    seg = eef[1:] - eef[:-1]  # (N-1,3)
    seg_len = _row_norms(seg)
    s = np.concatenate([[0.0], seg_len.cumsum()])
    to_goal = eef - goal
    r = _row_norms(to_goal)
    L_full = r[0]
    wp = f * np.exp(L_full - s - r)  # f_k P_k, with P <= 1 by the triangle inequality
    value = -float(wp.sum() / W)

    def pullback(eef_jac: Array) -> Array:
        A = wp[::-1].cumsum()[::-1]  # A[n] = sum_{k>=n} f_k P_k
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
        return np.einsum("tan,ta->tn", eef_jac, -dv)

    return value, pullback


def _nominal_term(eef: Array, nominal_eef: Array):
    diff = eef - nominal_eef
    dist = _row_norms(diff)
    value = float(dist.sum())

    def pullback(eef_jac: Array) -> Array:
        direction = np.where(dist[:, None] > _TINY, diff / np.maximum(dist, _TINY)[:, None], 0.0)
        return np.einsum("tan,ta->tn", eef_jac, direction)

    return value, pullback


def _smoothness_term(q: Array, dt: float):
    acc = (q[2:] - 2.0 * q[1:-1] + q[:-2]) / dt**2
    value = float((acc**2).sum())

    def pullback() -> Array:
        grad = np.zeros(q.shape)
        a2 = 2.0 * acc / dt**2
        grad[:-2] += a2
        grad[1:-1] -= 2.0 * a2
        grad[2:] += a2
        return grad

    return value, pullback


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ContractViolation(message)


class WeightedObjective:
    """What every ``ObjectivePass`` of one planning problem shares.

    Construction checks once that the context supplies each weighted
    term's inputs for ``n_waypoints`` waypoints, and fixes the weights,
    the terms a pass computes (``weighted``) or can report
    (``supported``) and the legibility time weights.
    """

    def __init__(self, ctx: CostContext, w: CostWeights, dt: float, n_waypoints: int, extra_cost=None):
        self.ctx, self.dt, self.extra_cost = ctx, dt, extra_cost
        self.weights = weights = w.as_dict()
        has_inputs = {
            "distance": ctx.prediction is not None,
            "visibility": ctx._gaze is not None,
            "nominal": ctx.nominal is not None,
        }
        for name, ok in has_inputs.items():
            _require(ok or weights[name] == 0, f"{name} weight set but the context lacks its inputs")
        if has_inputs["distance"]:
            _require(
                ctx.prediction.horizon == n_waypoints,
                "prediction horizon must equal the trajectory waypoint count",
            )
        if has_inputs["nominal"]:
            _require(
                ctx.nominal.n_waypoints == n_waypoints,
                "nominal and trajectory must share waypoint count",
            )
        # Legibility needs only the end effector, so it comes free with any FK pass.
        has_fk = any(has_inputs.values()) or weights["legibility"] > 0 or extra_cost is not None
        has_inputs.update(legibility=has_fk, smoothness=True)
        self.supported = [name for name in COST_NAMES if has_inputs[name]]
        self.weighted = [name for name in COST_NAMES if weights[name] > 0]
        if has_inputs["legibility"]:
            self.time_weights = ctx.time_weights(n_waypoints)
            self.time_weight_sum = float(self.time_weights.sum())
            _require(self.time_weight_sum > 0, "legibility time weights sum to zero")


class ObjectivePass:
    """The weighted objective of ``problem`` at waypoints ``q``, kept for its gradient.

    Construction runs forward kinematics once (when any term needs it)
    and computes the positively weighted terms.  ``gradient()`` then
    builds the point Jacobians from the stored frames and adds the
    weighted terms' pullbacks in ``COST_NAMES`` order, then the
    ``extra_cost`` gradient; it computes once and returns the same array
    on later calls.  ``report()`` adds every other term the context
    supports, from the same frames, and returns the full breakdown.

    ``extra_cost(q, points, jacs, with_grad) -> (value, grad)`` adds one
    baseline-specific term with weight 1; it is called without
    Jacobians for the value and again with them for the gradient.
    ``total`` sums the weighted terms only; an unweighted term would add
    exactly 0.0 to it, so the report's total is the same.  The pass
    keeps a reference to ``q``: do not modify it while the pass is used.
    """

    def __init__(self, q: Array, problem: WeightedObjective):
        self.q, self.problem = q, problem
        self._frames = None
        self._values: dict[str, float] = {}
        self._pullbacks: dict = {}
        self._grad = None
        self.diagnostics: dict = {}
        self._add_terms(problem.weighted)
        self.total = sum(problem.weights[name] * value for name, value in self._values.items())
        self.extra = None
        if problem.extra_cost is not None:
            self.extra, _ = problem.extra_cost(q, self._fk()[0], None, False)
            self.total += self.extra
        if not math.isfinite(self.total):
            raise ContractViolation("objective evaluated to a non-finite value")

    def _fk(self) -> tuple[Array, Array]:
        if self._frames is None:
            self._frames = _batch_frames(self.problem.ctx.chain, self.q)
        return self._frames

    def _add_terms(self, names) -> None:
        problem, ctx = self.problem, self.problem.ctx
        names = [name for name in names if name not in self._values]
        if names and names != ["smoothness"]:
            points = self._fk()[0]
            eef = points[:, -1]
        for name in names:
            if name == "distance":
                value, pullback = _distance_term(points, ctx)
            elif name == "visibility":
                value, pullback, flagged = _visibility_term(eef, ctx)
                if flagged:
                    self.diagnostics["visibility_degenerate_steps"] = flagged
            elif name == "legibility":
                value, pullback = _legibility_term(
                    eef, ctx.goal_point, problem.time_weights, problem.time_weight_sum
                )
            elif name == "nominal":
                value, pullback = _nominal_term(eef, ctx._nominal_eef)
            else:
                value, pullback = _smoothness_term(self.q, problem.dt)
            self._values[name] = value
            self._pullbacks[name] = pullback

    @property
    def per_cost(self) -> dict[str, float]:
        """The weighted terms in ``COST_NAMES`` order, then ``extra``."""
        out = {name: self._values[name] for name in self.problem.weighted}
        if self.problem.extra_cost is not None:
            out["extra"] = self.extra
        return out

    def gradient(self) -> Array:
        """Gradient of ``total`` over all waypoints."""
        if self._grad is None:
            problem = self.problem
            points = jacs = eef_jac = None
            if problem.extra_cost is not None or problem.weighted != ["smoothness"]:
                points, axes = self._fk()
                jacs = _point_jacobians(points, axes)
                eef_jac = jacs[:, -1]
            grad = np.zeros(self.q.shape)
            for name in problem.weighted:
                pullback = self._pullbacks[name]
                if name == "smoothness":
                    term = pullback()
                else:
                    term = pullback(jacs if name == "distance" else eef_jac)
                grad += problem.weights[name] * term
            if problem.extra_cost is not None:
                _, extra_grad = problem.extra_cost(self.q, points, jacs, True)
                if extra_grad is not None:
                    grad += extra_grad
            self._grad = grad
        return self._grad

    def report(self) -> CostReport:
        """Every term, the total and the interior-waypoint gradient.

        ``per_cost`` lists all five terms, 0.0 for one whose inputs the
        context lacks, then ``extra``.
        """
        self._add_terms(self.problem.supported)
        per_cost = {name: self._values.get(name, 0.0) for name in COST_NAMES}
        weights = dict(self.problem.weights)
        if self.problem.extra_cost is not None:
            per_cost["extra"] = self.extra
            weights["extra"] = 1.0
        return CostReport(
            total=self.total,
            per_cost=per_cost,
            gradient=self.gradient()[1:-1].ravel().copy(),
            weights=weights,
            diagnostics=dict(self.diagnostics),
        )


def evaluate_objective(
    q: Array,
    dt: float,
    ctx: CostContext,
    w: CostWeights,
    with_grad: bool = True,
    extra_cost=None,
) -> tuple[float, Array | None, dict[str, float], dict]:
    """Weighted objective over raw waypoints; gradient spans all waypoints.

    One ``ObjectivePass`` as a tuple ``(total, grad, per_cost,
    diagnostics)``.  A gradient call takes ``per_cost`` from the pass's
    ``report()``: every term, 0.0 for one whose inputs the context
    lacks.  A value-only call (``with_grad=False``) computes only the
    positively weighted terms, so its ``per_cost`` holds exactly those
    plus ``extra``; its total is the same bit for bit.  The optimizer
    sets up one ``WeightedObjective`` per solve and builds its passes
    directly, so that an accepted line-search trial yields its own
    gradient without a second FK pass.
    """
    p = ObjectivePass(q, WeightedObjective(ctx, w, dt, q.shape[0], extra_cost))
    if not with_grad:
        return p.total, None, p.per_cost, p.diagnostics
    r = p.report()
    return r.total, p.gradient(), r.per_cost, r.diagnostics


def objective(traj: JointTrajectory, ctx: CostContext, w: CostWeights) -> CostReport:
    """Weighted total, per-cost breakdown, and interior-waypoint gradient."""
    problem = WeightedObjective(ctx, w, traj.dt, traj.n_waypoints)
    return ObjectivePass(traj.waypoints, problem).report()
