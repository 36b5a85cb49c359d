"""Projected gradient descent over interior waypoints.

The goal constraint is enforced by construction: the first and last
waypoints are excluded from the decision variables, so the returned
trajectory's endpoints are bit-identical to the inputs.  Steps use
backtracking line search (Armijo condition, ``ARMIJO_C``) with a
persistent step size that shrinks by ``STEP_SHRINK`` on rejection, down
to ``MIN_STEP``, and grows by ``STEP_GROW`` on acceptance; joint limits
are enforced by clamping after each trial step.

Each iterate is evaluated once.  A solve sets up one
``WeightedObjective``; each line-search trial is an ``ObjectivePass`` of
it over the positively weighted terms, and the accepted trial's
``gradient()`` reuses its forward kinematics and term intermediates, so
no iterate is evaluated twice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .costs import CostContext, CostReport, CostWeights, ObjectivePass, WeightedObjective
from .errors import ContractViolation, check_array, check_real
from .kinematics import JointTrajectory

Array = np.ndarray

#: Line-search step factor after a rejected trial.
STEP_SHRINK = 0.5
#: Step factor after an accepted iterate.
STEP_GROW = 1.4
#: Sufficient-decrease fraction of the Armijo condition.
ARMIJO_C = 1e-4
#: The line search gives up below this step.
MIN_STEP = 1e-14


@dataclass(frozen=True)
class OptimizerOptions:
    """Descent-loop settings: the ``optimizer`` section of the run config."""

    max_iters: int
    grad_tol: float
    step_init: float
    verbose: bool = False

    def __post_init__(self):
        check_real(self.max_iters, "max_iters", "positive", integer=True)
        for name in ("grad_tol", "step_init"):
            check_real(getattr(self, name), name, "positive")


@dataclass(frozen=True)
class OptResult:
    """Outcome of one solve.

    ``stop_reason`` is ``"grad_tol"`` (converged), ``"max_iters"`` (the
    iteration cap) or ``"line_search"`` (no step down to ``MIN_STEP``
    satisfied the Armijo condition).  ``value_evals`` counts the value
    passes (the line-search trials).  The reports, at the initial and the
    final iterate, hold the positively weighted terms.  With
    ``OptimizerOptions.verbose``, ``trace`` holds one dict per accepted
    iterate: ``iteration``, ``total``, ``step``, and the positively
    weighted terms by name.
    """

    trajectory: JointTrajectory
    iterations: int
    stop_reason: str
    value_evals: int
    initial_report: CostReport
    final_report: CostReport
    wall_time: float
    trace: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "grad_tol"

    @property
    def grad_evals(self) -> int:
        """Gradients computed: one at the initial point and one per accepted iterate."""
        return self.iterations if self.stop_reason == "line_search" else self.iterations + 1


def straightline_joint_init(start: Array, goal: Array, N: int, dt: float, t0: float = 0.0) -> JointTrajectory:
    """Joint-space linear interpolation with bit-exact endpoints."""
    check_real(N, "N", integer=True)
    if N < 3:
        raise ContractViolation(f"N must be at least 3, got {N}")
    start = check_array(start, "start", (None,))
    goal = check_array(goal, "goal", start.shape)
    s = np.linspace(0.0, 1.0, N)[:, None]
    waypoints = start[None, :] + s * (goal - start)[None, :]
    waypoints[0] = start
    waypoints[-1] = goal
    return JointTrajectory(waypoints, dt, t0)


def optimize(
    ctx: CostContext,
    w: CostWeights,
    init: JointTrajectory,
    opts: OptimizerOptions,
) -> OptResult:
    """Minimize the weighted objective over the interior waypoints.

    The first and last waypoints of ``init`` are held fixed; ``init``
    must already end at the context's goal configuration.  Accepted
    iterates never increase the total cost; termination is on the
    max-norm of the interior gradient or on ``max_iters``.
    """
    t_start = time.perf_counter()
    if not np.array_equal(init.waypoints[-1], ctx.goal_config):
        raise ContractViolation("init must end exactly at the goal configuration")

    q = init.waypoints.copy()
    dt = init.dt
    lo = ctx.chain.joint_limits[:, 0]
    hi = ctx.chain.joint_limits[:, 1]

    problem = WeightedObjective(ctx, w, dt, q.shape[0])
    current = ObjectivePass(q, problem)
    initial_report = current.report()
    total, grad = current.total, current.gradient()

    step = opts.step_init
    stop_reason = "max_iters"
    iterations = value_evals = 0
    trace = []
    while True:
        g = grad[1:-1]
        if float(np.abs(g).max()) < opts.grad_tol:
            stop_reason = "grad_tol"
            break
        if iterations == opts.max_iters:
            break
        iterations += 1
        accepted = False
        while step >= MIN_STEP:
            q_new = q.copy()
            # np.clip's elementwise operation without its Python wrapper.
            q_new[1:-1] = np.minimum(np.maximum(q[1:-1] - step * g, lo), hi)
            delta = q_new[1:-1] - q[1:-1]
            value_evals += 1
            trial = ObjectivePass(q_new, problem)
            if trial.total <= total + ARMIJO_C * float((g * delta).sum()):
                accepted = True
                break
            step *= STEP_SHRINK
        if not accepted:
            stop_reason = "line_search"  # keep the best-so-far iterate
            break
        q, current = q_new, trial
        total, grad = current.total, current.gradient()
        if opts.verbose:
            entry = {"iteration": iterations, "total": total, "step": step}
            trace.append({**entry, **current.per_cost})
        step *= STEP_GROW

    final_report = current.report()
    trajectory = JointTrajectory(q, dt, init.t0)
    return OptResult(
        trajectory=trajectory,
        iterations=iterations,
        stop_reason=stop_reason,
        value_evals=value_evals,
        initial_report=initial_report,
        final_report=final_report,
        wall_time=time.perf_counter() - t_start,
        trace=trace,
    )
