"""The six trajectory costs, their weighted sum, and analytic gradients.

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
- ``obstacle``: squared hinge ``max(0, clearance - dist)**2`` between every
  robot point and every sphere obstacle; the nominal plan's clearance,
  a workspace potential pulled back through the point Jacobians as in
  CHOMP (Ratliff et al., ICRA 2009).

A planning problem (``WeightedObjective``) computes and reports only the
terms it weights positively; the others are never evaluated.  Every
gradient is analytic, chained through the position Jacobians, and
checkable against central finite differences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, check_array, check_real
from .human_motion import PredictedHumanTrajectory
from .kinematics import (
    ChainSpec,
    Frames,
    JointTrajectory,
    _eef_jacobians,
    _point_jacobians,
    fk_eef,
)

Array = np.ndarray

#: Each term, in reporting order, and the ``CostWeights`` field that weights it.
_ALPHA = {
    "distance": "alpha_dist",
    "visibility": "alpha_vis",
    "legibility": "alpha_legibility",
    "nominal": "alpha_nominal",
    "smoothness": "alpha_smooth",
    "obstacle": "alpha_obstacle",
}
COST_NAMES = tuple(_ALPHA)
#: The terms over the end effector alone.
_EEF_TERMS = ("visibility", "legibility", "nominal")

_TINY = 1e-12

#: Floor of the squared Mahalanobis distance, dimensionless: the distance
#: cost stays bounded as a separation goes to 0.
EPS_M = 1e-4


def _row_norms(x: Array) -> Array:
    """``np.linalg.norm(x, axis=-1)`` for real ``x``, bit for bit, without the wrapper."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


@dataclass(frozen=True)
class CostWeights:
    """Non-negative weights for the six cost terms."""

    alpha_dist: float = 0.0
    alpha_vis: float = 0.0
    alpha_legibility: float = 0.0
    alpha_nominal: float = 0.0
    alpha_smooth: float = 0.0
    alpha_obstacle: float = 0.0

    def __post_init__(self):
        for alpha in _ALPHA.values():
            check_real(getattr(self, alpha), alpha, "non-negative")
        if not any(self.as_dict().values()):
            raise ContractViolation("at least one cost weight must be positive")

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, alpha) for name, alpha in _ALPHA.items()}


@dataclass(frozen=True)
class CostContext:
    """The validated inputs of one planning problem.

    The prediction must already live on the nominal's waypoint grid:
    equal horizon, ``step`` equal to its ``dt``, and ``t0`` within half a
    step of its ``t0``.  ``object_pos`` is the point the human attends to
    (anchor of the gaze ray); ``goal_config`` is the configuration the
    trajectory must end at.  The distance cost clamps the squared
    Mahalanobis distance at ``EPS_M``; the visibility cost divides by the
    predicted head-position spread as it is, and the one floor on it is
    the predictor's ``PredictorOptions.sigma0``.  ``obstacles``
    holds ``(center, clearance radius)`` pairs of spheres the robot points
    keep out of.  Frozen (``dataclasses.replace`` makes a checked copy), and
    holds no derived array: each solve's ``WeightedObjective`` derives them.
    """

    chain: ChainSpec
    goal_config: Array
    prediction: PredictedHumanTrajectory | None = None
    nominal: JointTrajectory | None = None
    object_pos: Array | None = None
    obstacles: tuple = ()

    def __post_init__(self):
        goal_config = check_array(self.goal_config, "goal_config", (self.chain.n_joints,))
        object.__setattr__(self, "goal_config", goal_config)
        if self.object_pos is not None:
            object.__setattr__(self, "object_pos", check_array(self.object_pos, "object_pos", (3,)))
        pred, nominal = self.prediction, self.nominal
        if pred is not None and nominal is not None:
            if pred.horizon != nominal.n_waypoints:
                raise ContractViolation(
                    "prediction horizon must equal the nominal waypoint count"
                )
            if not math.isclose(pred.step, nominal.dt, rel_tol=1e-9) or abs(pred.t0 - nominal.t0) >= pred.step / 2:
                raise ContractViolation(
                    f"prediction must run on the nominal's clock: step {pred.step!r} and t0 {pred.t0!r}, "
                    f"nominal dt {nominal.dt!r} and t0 {nominal.t0!r}"
                )
        object.__setattr__(self, "obstacles", check_spheres(self.obstacles, "clearance"))


def check_spheres(obstacles, radius_name: str) -> tuple:
    """``obstacles``, a sequence of ``(center, radius)`` pairs, with each center a new (3,) float64 array and
    each radius a float; a ``ContractViolation`` unless each center is finite and each radius finite and positive."""
    for sphere in obstacles:
        if not isinstance(sphere, (tuple, list)) or len(sphere) != 2:
            raise ContractViolation(f"each obstacle must be a (center, {radius_name}) pair, got {sphere!r}")
        check_real(sphere[1], f"obstacle {radius_name}", "positive")
    return tuple((check_array(center, "obstacle center", (3,)), float(radius)) for center, radius in obstacles)


@dataclass(frozen=True)
class CostReport:
    """Objective breakdown at one trajectory.

    ``per_cost`` holds the positively weighted terms in ``COST_NAMES``
    order, and ``total`` is their weight-scaled sum.  ``diagnostics``
    holds the weighted terms' findings (``visibility_degenerate_steps``).
    """

    total: float
    per_cost: dict[str, float]
    diagnostics: dict


# ---------------------------------------------------------------------------
# Term evaluators over precomputed forward kinematics
#
# Each returns ``(value, pullback)``.  The pullback keeps the value
# pass's intermediates and maps the point Jacobians (the all-point terms,
# distance and obstacle) or the end-effector Jacobians (the eef terms) to
# the term's gradient over all waypoints; the smoothness pullback takes no
# argument.
# ---------------------------------------------------------------------------


def _distance_inputs(prediction: PredictedHumanTrajectory) -> tuple[Array, Array]:
    """The prediction's (J,N,3) ``mean_tracks`` and its (J,N,3,3) transposed inverse covariances."""
    try:
        inv_covs = np.linalg.inv(prediction.cov_tracks)
    except np.linalg.LinAlgError as exc:
        raise ContractViolation(f"prediction covariance not invertible: {exc}")
    # Transposed and C-contiguous, the layout `_distance_term`'s matmul takes.
    return prediction.mean_tracks, np.ascontiguousarray(np.swapaxes(inv_covs, -1, -2))


def _repeat_means(means: Array, n_points: int) -> Array:
    """(J,N,P,3): each of the (J,N,3) means once per robot point.

    A difference with this contiguous array builds the distance term's
    ``d`` faster than a broadcast one, with the same bits.
    """
    return np.repeat(means[:, :, None, :], n_points, axis=2)


def _distance_term(points: Array, point_means: Array, inv_covs_t: Array, eps_m: float):
    # points (N,P,3); point_means (J,N,P,3), from _repeat_means; inv_covs_t
    # (J,N,3,3), each inverse transposed.  sd = Sigma^-1 d as one stacked GEMM
    # of each (P,3) block of d by its transposed inverse.  Every prediction
    # the pipeline builds is isotropic (sigma^2(t) I, or I for Dist+Vis), so
    # the inverse is exactly diagonal, its off-diagonal products are exact
    # zeros and no summation order can change a bit.
    d = point_means - points[None]  # (J,N,P,3)
    sd = np.matmul(d, inv_covs_t)
    m = np.einsum("jtpa,jtpa->jtp", d, sd)
    m_clamped = np.maximum(m, eps_m)
    value = float((1.0 / m_clamped).sum())

    def pullback(jacs: Array) -> Array:
        coeff = np.where(m < eps_m, 0.0, 2.0 / m_clamped**2)
        dval_dp = np.einsum("jtp,jtpa->tpa", coeff, sd)
        return np.einsum("tpan,tpa->tn", jacs, dval_dp)

    return value, pullback


def _visibility_term(eef: Array, problem: WeightedObjective):
    """``(value, pullback, flagged)`` from ``problem``'s gaze ray and head spread;
    ``flagged`` lists degenerate steps."""
    u, nu, sigma_head = problem.gaze, problem.gaze_norm, problem.sigma_head
    w = eef - problem.head
    nw = _row_norms(w)
    ok = (nu > 1e-9) & (nw > 1e-9)
    flagged = [] if ok.all() else [int(t) for t in np.nonzero(~ok)[0]]
    safe_nw = np.where(ok, nw, 1.0)
    c = np.einsum("ta,ta->t", u, w) / (np.where(ok, nu, 1.0) * safe_nw)
    c = np.minimum(np.maximum(c, -1.0), 1.0)  # np.clip's operation without its wrapper
    theta = np.where(ok, np.arccos(c), 0.0)
    value = float((theta / sigma_head).sum())

    def pullback(eef_jac: Array) -> Array:
        sin2 = 1.0 - c**2
        diffbl = ok & (sin2 > _TINY)
        safe_sin = np.sqrt(np.where(diffbl, sin2, 1.0))
        w_hat = w / safe_nw[:, None]
        dtheta_dw = -(problem.gaze_unit - c[:, None] * w_hat) / (safe_nw * safe_sin)[:, None]
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


def _obstacle_term(points: Array, centers: Array, clearance: Array, weight: float):
    # points (N,P,3), centers (S,3) and clearance (S,) of the S spheres; diff,
    # dist and pen are (N,P,S[,3]).  The pullback comes weighted: the weight
    # enters its coefficient ahead of the einsums, and every nominal plan, so
    # every benchmark row, depends on that rounding.
    diff = points[:, :, None, :] - centers
    dist = _row_norms(diff)
    pen = np.maximum(0.0, clearance - dist)
    value = float((pen**2).sum())

    def pullback(frames: tuple[Array, Array]) -> tuple[Array, Array]:
        """``(rows, term)``: the waypoints where some point penetrates, and
        their gradient rows, from the pass's FK ``(points, axes)``.

        Every other row of the gradient would be a sum of products with a
        zero coefficient, so ±0.0.  The gradient it is added to holds no
        -0.0 (it starts from +0.0, and a sum is -0.0 only when both addends
        are), so adding ±0.0 changes no bit.  Each kept row is computed as
        in the dense einsums: the Jacobians of the kept rows have the same
        per-row layout, and an einsum sums each row in the same order.
        """
        rows = np.flatnonzero((pen > 0).any(axis=(1, 2)))
        sub_pen, sub_dist = pen[rows], dist[rows]
        coeff = np.where(sub_pen > 0, -2.0 * weight * sub_pen / np.maximum(sub_dist, _TINY), 0.0)
        dval_dp = np.einsum("tps,tpsa->tpa", coeff, diff[rows])
        jacs = _point_jacobians(*(f[rows] for f in frames))
        return rows, np.einsum("tpan,tpa->tn", jacs, dval_dp)

    return value, pullback


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ContractViolation(message)


class WeightedObjective:
    """What every ``ObjectivePass`` of one planning problem shares.

    Construction checks once that the context supplies each weighted
    term's inputs for ``n_waypoints`` waypoints, and fixes the weights,
    the terms a pass computes and reports (``weighted``), the weighted
    end-effector terms (``eef_terms``), the legibility time weights and
    the FK buffers (``frames``) every pass runs its forward kinematics
    in, so the passes of one problem must not run concurrently.  It
    derives every array a term reads from the context, once per solve:
    the spheres' ``centers`` and ``clearance`` and the visibility term's
    ``sigma_head``, ``head``, ``gaze``, ``gaze_norm`` and ``gaze_unit``
    (``None`` without a head or an object) here, and ``goal_point``,
    ``nominal_eef`` and ``distance_inputs`` on the first pass that needs
    them.
    """

    def __init__(self, ctx: CostContext, w: CostWeights, dt: float, n_waypoints: int):
        self.ctx, self.dt = ctx, dt
        self.weights = weights = w.as_dict()
        prediction = ctx.prediction
        sees_head = prediction is not None and "head" in prediction.joints
        has_inputs = {
            "distance": prediction is not None,
            "visibility": sees_head and ctx.object_pos is not None,
            "nominal": ctx.nominal is not None,
            "obstacle": len(ctx.obstacles) > 0,
        }
        for name, ok in has_inputs.items():
            _require(ok or weights[name] == 0, f"{name} weight set but the context lacks its inputs")
        if has_inputs["distance"]:
            _require(
                prediction.horizon == n_waypoints,
                "prediction horizon must equal the trajectory waypoint count",
            )
        if has_inputs["nominal"]:
            _require(
                ctx.nominal.n_waypoints == n_waypoints,
                "nominal and trajectory must share waypoint count",
            )
        self.weighted = [name for name in COST_NAMES if weights[name] > 0]
        self.eef_terms = tuple(name for name in self.weighted if name in _EEF_TERMS)
        # Legibility's per-step weights f = N - k, front-loaded.
        self.time_weights = np.arange(n_waypoints, 0, -1, dtype=float)
        self.time_weight_sum = float(self.time_weights.sum())
        self.frames = Frames(ctx.chain, (n_waypoints,))
        self.centers = np.reshape([c for c, _ in ctx.obstacles], (-1, 3))
        self.clearance = np.array([r for _, r in ctx.obstacles], dtype=float)
        self.sigma_head = self.head = self.gaze = self.gaze_norm = self.gaze_unit = None
        if has_inputs["visibility"]:
            head = prediction.joints.index("head")
            self.sigma_head = np.sqrt(np.trace(prediction.cov_tracks[head], axis1=1, axis2=2) / 3.0)
            self.head = prediction.mean_tracks[head]
            self.gaze = ctx.object_pos - self.head
            self.gaze_norm = nu = _row_norms(self.gaze)
            self.gaze_unit = self.gaze / np.where(nu > 1e-9, nu, 1.0)[:, None]

    @functools.cached_property
    def goal_point(self) -> Array:
        """The goal configuration's end-effector point."""
        return fk_eef(self.ctx.chain, self.ctx.goal_config)

    @functools.cached_property
    def nominal_eef(self) -> Array:
        """The nominal's end-effector path, run in ``frames``: each pass copies its FK out first."""
        return self.frames(self.ctx.nominal.waypoints)[0][:, -1].copy()

    @functools.cached_property
    def distance_inputs(self) -> tuple[Array, Array]:
        """The distance term's means, repeated per robot point, and
        transposed inverse covariances.

        Built on the first distance pass of a solve and dropped with the
        solve, so that no context keeps the (J,N,P,3) means.
        """
        means, inv_covs_t = _distance_inputs(self.ctx.prediction)
        return _repeat_means(means, self.ctx.chain.n_joints + 1), inv_covs_t


class ObjectivePass:
    """The weighted objective of ``problem`` at waypoints ``q``, kept for its gradient.

    Construction runs forward kinematics once (when any term needs it)
    and computes the positively weighted terms; no other term is ever
    evaluated.  ``gradient()`` then builds, from the stored frames, every
    point's Jacobian when the distance term is weighted and the end
    effector's alone otherwise (the obstacle pullback builds the rows of
    the waypoints it touches), and adds the weighted terms' pullbacks in
    ``COST_NAMES`` order; it computes once and returns the same array on
    later calls.  ``report()`` packs what the pass holds.  The pass
    keeps a reference to ``q``: do not modify it while the pass is used.
    """

    def __init__(self, q: Array, problem: WeightedObjective):
        self.q, self.problem = q, problem
        self._frames = None
        self._values: dict[str, float] = {}
        self._pullbacks: dict = {}
        self._grad = None
        self.diagnostics: dict = {}
        if problem.weighted != ["smoothness"]:
            points = self._fk()[0]
            eef = points[:, -1]
        for name in problem.weighted:
            if name == "distance":
                value, pullback = _distance_term(points, *problem.distance_inputs, EPS_M)
            elif name == "visibility":
                value, pullback, flagged = _visibility_term(eef, problem)
                if flagged:
                    self.diagnostics["visibility_degenerate_steps"] = flagged
            elif name == "legibility":
                value, pullback = _legibility_term(
                    eef, problem.goal_point, problem.time_weights, problem.time_weight_sum
                )
            elif name == "nominal":
                value, pullback = _nominal_term(eef, problem.nominal_eef)
            elif name == "obstacle":
                value, pullback = _obstacle_term(
                    points, problem.centers, problem.clearance, problem.weights[name]
                )
            else:
                value, pullback = _smoothness_term(self.q, problem.dt)
            self._values[name] = value
            self._pullbacks[name] = pullback
        self.total = sum(problem.weights[name] * value for name, value in self._values.items())
        if not math.isfinite(self.total):
            raise ContractViolation("objective evaluated to a non-finite value")

    def _fk(self) -> tuple[Array, Array]:
        if self._frames is None:
            # Copies: the problem's FK buffers belong to the next pass.
            self._frames = tuple(f.copy() for f in self.problem.frames(self.q))
        return self._frames

    @property
    def per_cost(self) -> dict[str, float]:
        """The weighted terms in ``COST_NAMES`` order, the order they were computed in."""
        return dict(self._values)

    def gradient(self) -> Array:
        """Gradient of ``total`` over all waypoints."""
        if self._grad is None:
            problem = self.problem
            jacs = eef_jac = None
            if "distance" in problem.weighted:
                jacs = _point_jacobians(*self._fk())
                eef_jac = jacs[:, -1]
            elif problem.eef_terms:
                eef_jac = _eef_jacobians(*self._fk())
            grad = np.zeros(self.q.shape)
            for name in problem.weighted:
                pullback = self._pullbacks[name]
                if name == "obstacle":
                    # Weighted already, and only the rows of penetrating waypoints.
                    rows, term = pullback(self._fk())
                    grad[rows] += term
                    continue
                if name == "smoothness":
                    term = pullback()
                else:
                    term = pullback(jacs if name == "distance" else eef_jac)
                grad += problem.weights[name] * term
            self._grad = grad
        return self._grad

    def report(self) -> CostReport:
        """The total, the weighted terms and their diagnostics, as computed."""
        return CostReport(self.total, self.per_cost, dict(self.diagnostics))


def evaluate_objective(
    q: Array,
    dt: float,
    ctx: CostContext,
    w: CostWeights,
    with_grad: bool = True,
    unused=None,
) -> tuple[float, Array | None, dict[str, float], dict]:
    """``(total, gradient over all waypoints or None, per_cost, diagnostics)``
    of one ``ObjectivePass`` on a new ``WeightedObjective``.

    Exists only for ``perfbench/checks.py``, which calls it with six
    positional arguments (the sixth is ignored), and for the benchmark's
    tracer, which probes it.  The optimizer and the tests build their
    problem and passes directly.  ``per_cost`` holds the weighted terms.
    """
    p = ObjectivePass(q, WeightedObjective(ctx, w, dt, q.shape[0]))
    return p.total, p.gradient() if with_grad else None, p.per_cost, p.diagnostics
