"""The four comparison methods: nominal planning, reactive speed
adjustment, legibility-only optimization, and distance+visibility
optimization without an uncertainty model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .costs import CostContext, CostWeights
from .errors import ContractViolation, check_array, check_real
from .human_motion import HumanTrajectory, sample_rows, sample_rows_many
from .kinematics import ChainSpec, Frames, JointTrajectory
from .optimizer import OptimizerOptions, OptResult, optimize, straightline_joint_init

Array = np.ndarray

#: Ratio of the smoothness regularizer to the legibility weight.
TAU_S_RATIO = 1e-3

#: The nominal solve's settings.  All 15 paper-grid nominal solves stop
#: at this iteration cap, short of ``grad_tol``.
NOMINAL_OPTIONS = OptimizerOptions(max_iters=300, grad_tol=1e-3, step_init=0.05)
#: The nominal solve's weights: a smooth path, kept clear of the obstacles.
NOMINAL_WEIGHTS = CostWeights(alpha_smooth=1e-3, alpha_obstacle=200.0)
#: The clearance the nominal keeps from each obstacle, added to its radius, m.
NOMINAL_MARGIN = 0.05


@dataclass(frozen=True)
class SpeedAdjustParams:
    """Reactive execution settings: the ``speed_adjust`` section of the run config.

    Stop/slow separations (m), control rate (Hz), and the timeout as a
    multiple of the nominal duration.
    """

    d_stop: float
    d_slow: float
    control_rate: float
    timeout_factor: float

    def __post_init__(self):
        for name in ("d_stop", "d_slow", "control_rate", "timeout_factor"):
            check_real(getattr(self, name), name, "positive")
        if self.d_stop >= self.d_slow:
            raise ContractViolation(f"need d_stop < d_slow, got {self.d_stop!r} and {self.d_slow!r}")


@dataclass(frozen=True)
class ExecutionTrace:
    """Timestamped realized execution of a planned path.  Frozen.

    The constructor copies ``timestamps``, ``configs`` and the per-tick
    ``min_separation`` and ``speed_scale``, when given.  The arrays
    stay writeable: perfbench's self-test writes one config of a built
    trace in place, to check that its trace check notices.
    """

    timestamps: Array
    configs: Array
    completed: bool
    min_separation: Array | None = None
    speed_scale: Array | None = None

    def __post_init__(self):
        timestamps = check_array(self.timestamps, "timestamps", (None,))
        n = timestamps.shape[0]
        if n == 0:
            raise ContractViolation("timestamps must hold one or more ticks")
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "configs", check_array(self.configs, "configs", (n, None)))
        for name in ("min_separation", "speed_scale"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_array(getattr(self, name), name, (n,)))
        for array in (self.timestamps, self.configs, self.min_separation, self.speed_scale):
            if array is not None:
                array.flags.writeable = True  # perfbench's self-test writes trace.configs[k] (ROADMAP item 1)
        if np.any(np.diff(timestamps) <= 0):
            raise ContractViolation("timestamps must be strictly increasing")

    def configs_at(self, times: Array) -> Array:
        """Linearly interpolated configurations, held at the boundaries."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        return np.stack(
            [np.interp(times, self.timestamps, self.configs[:, j]) for j in range(self.configs.shape[1])],
            axis=1,
        )


def nominal_trajectory(
    ctx: CostContext,
    start: Array,
    obstacles,
    n_waypoints: int,
    dt: float,
    t0: float,
) -> tuple[JointTrajectory, OptResult | None]:
    """Default trajectory with no human: smooth and obstacle-clearing.

    Runs from ``start`` to ``ctx.goal_config`` on ``ctx.chain``; the
    context's prediction, nominal and object are not used.  The solve
    weighs ``NOMINAL_WEIGHTS`` under ``NOMINAL_OPTIONS``, and its
    obstacle term keeps the robot points ``NOMINAL_MARGIN`` clear of each
    ``(center, radius)`` sphere.  Returns the trajectory and the solve
    that made it, whose ``stop_reason`` says why it stopped.  With no
    obstacles the trajectory is exactly the joint-space straight line,
    and there is no solve (``None``).
    """
    init = straightline_joint_init(start, ctx.goal_config, n_waypoints, dt, t0)
    if len(obstacles) == 0:
        return init, None
    ctx = replace(ctx, obstacles=tuple((c, r + NOMINAL_MARGIN) for c, r in obstacles))
    result = optimize(ctx, NOMINAL_WEIGHTS, init, NOMINAL_OPTIONS)
    return result.trajectory, result


def min_separations(robot: Array, humans: Array) -> Array | float:
    """Smallest robot-point to human-joint distance per configuration.

    ``robot`` is (..., P, 3) and ``humans`` (..., J, 3) over one leading
    batch shape, the result's; with no batch axis the result is a float.
    Each pair's x, y and z squares are added in that order in both
    layouts.  One configuration sums its (J, P, 3) squares over the last
    axis, which NumPy adds as ``(x + y) + z``, in fewer calls than the
    component-major form; a batch runs component-major, (3, J, P, B),
    which is about twice as fast from 64 configurations, because each
    ufunc loops over the batch instead of a length-3 axis.
    """
    if robot.ndim == 2:
        diff = robot - humans[:, None]
        diff *= diff
        return math.sqrt(np.add.reduce(diff, axis=2).min())
    diff = robot.T[:, None] - humans.T[:, :, None]
    diff *= diff  # in place: a block then holds one (3, J, P, B) buffer
    total = np.add(diff[0], diff[1], out=diff[0])
    total += diff[2]
    return np.sqrt(np.minimum.reduce(total, axis=(0, 1)))


#: Ticks that Speed-Adj evaluates as one block while its speed scale holds
#: at exactly 0 or 1.
FAST_FORWARD_TICKS = 64


def speed_adjusted_execute(
    chain: ChainSpec,
    nominal: JointTrajectory,
    human_truth: HumanTrajectory,
    p: SpeedAdjustParams,
) -> ExecutionTrace:
    """Follow the nominal path, scaling progress by human separation.

    The joint-space path is never altered: every emitted configuration
    lies on the nominal polyline.  Progress per control tick is scaled
    by ``s(d) = clamp((d - d_stop) / (d_slow - d_stop), 0, 1)`` with d
    the current minimum human-robot separation (ground truth; this is a
    sensor-driven method); the human pose is held at its last sample
    beyond the recorded horizon.  Tick 0 is at ``nominal.t0`` and path
    position 0; each later tick adds ``dtick = 1 / control_rate`` to the
    clock and ``s * dtick`` to the path position u, s the previous
    tick's scale, unless that would reach the path end D: a final
    partial tick then lands on D at the previous clock plus
    ``(D - u) / s``, and the trace is ``completed``.  The clock is one
    ``np.add.accumulate`` of t0 and dtick increments, made before the
    first tick; the first tick whose ``clock - t0`` is at or past
    ``timeout_factor * D - 1e-12`` is the last a run records.

    A single tick samples the path and the human pose (``sample_rows``),
    runs the FK of one configuration in a ``Frames`` built once per
    execution (one ``np.dot`` per chain link), and takes
    ``min_separations`` of that one configuration.  While s is exactly 1
    (far from the human) or 0 (stopped), the next ticks' path positions
    are known before they are evaluated, so ``FAST_FORWARD_TICKS`` of
    them are evaluated as one block, in a second ``Frames`` built once
    per execution, and kept up to the first tick whose scale changes,
    whose full advance would reach the path end, or that times out.  A
    block gives every tick the bits the tick-by-tick loop gives it: the
    same clock, path positions from the same sequential adds
    (``np.add.accumulate``), configurations and human poses from
    ``sample_rows_many`` (the human's through
    ``HumanTrajectory.positions_at``), batched FK that builds each row
    as one configuration's ``Frames`` does (``np.matmul`` and ``np.dot``
    run the same BLAS product), and ``min_separations`` over the block,
    whose component-major sums add each pair's squares in the last-axis
    order.
    """
    D = nominal.duration
    timeout = p.timeout_factor * D
    dtick = 1.0 / p.control_rate
    waypoints, dt = nominal.waypoints, nominal.dt
    tracks, rate = human_truth.tracks, human_truth.rate
    d_stop, d_span = p.d_stop, p.d_slow - p.d_stop
    frames = Frames(chain)
    n_block = FAST_FORWARD_TICKS
    block_frames = Frames(chain, (n_block,))

    # Tick k's clock: t0 plus k sequential adds of dtick, which round by half an ulp
    # each, far below a tick in all; so tick ceil(timeout * rate) + 1 is past the
    # timeout, and a block from there reads n_block - 1 more.
    times = np.full(math.ceil(timeout * p.control_rate) + n_block + 1, dtick)
    times[0] = nominal.t0
    np.add.accumulate(times, out=times)
    n = 1 + int(np.count_nonzero(times - nominal.t0 < timeout - 1e-12))  # ticks to the timeout's, inclusive
    seps, speeds = np.empty(n), np.empty(n)
    configs = np.empty((n, waypoints.shape[1]))
    steps = np.empty(n_block + 1)  # a block's path start, then its advances

    def tick(k: int, u: float) -> float:
        """Evaluate and record tick k at path position u; returns its scale."""
        qcur = sample_rows(waypoints, u / dt)
        d = min_separations(frames(qcur)[0], sample_rows(tracks, times[k] * rate))
        s = min(max((d - d_stop) / d_span, 0.0), 1.0)
        seps[k], speeds[k] = d, s
        configs[k] = qcur
        return s

    def fast_forward(k: int, u: float, s: float) -> tuple[int, float, float]:
        """Evaluate ticks k.. as one block after a tick at scale s, and record
        them up to the first whose scale changes or whose full advance would
        reach the path end, and at most up to tick n - 1.  Returns the next k
        and the last recorded tick's path position and scale."""
        advance = s * dtick
        steps[0], steps[1:] = u, advance
        us = np.add.accumulate(steps)[1:]
        qs = sample_rows_many(waypoints, us / dt)
        ds = min_separations(block_frames(qs)[0], human_truth.positions_at(times[k:k + n_block]))
        ss = np.minimum(np.maximum((ds - d_stop) / d_span, 0.0), 1.0)
        ends = (ss != s) | (us + advance >= D)
        m = min(int(ends.argmax()) + 1 if ends.any() else n_block, n - k)
        seps[k:k + m], speeds[k:k + m] = ds[:m], ss[:m]
        configs[k:k + m] = qs[:m]
        return k + m, float(us[m - 1]), float(ss[m - 1])

    u = 0.0
    s = tick(0, u)
    k = 1
    while u < D and k < n:
        advance = s * dtick
        if advance > 0 and u + advance >= D:
            times[k] = times[k - 1] + (D - u) / s  # partial tick: land exactly on the path end
            u = D
        elif s == 1.0 or s == 0.0:
            k, u, s = fast_forward(k, u, s)
            continue
        else:
            u += advance
        s = tick(k, u)
        k += 1

    return ExecutionTrace(
        timestamps=times[:k],
        configs=configs[:k],
        completed=bool(u >= D),
        min_separation=seps[:k],
        speed_scale=speeds[:k],
    )


def legible_optimize(
    ctx: CostContext,
    init: JointTrajectory,
    opts: OptimizerOptions,
    alpha: float,
) -> OptResult:
    """Optimize legibility alone (plus a small smoothness regularizer)."""
    w = CostWeights(alpha_legibility=alpha, alpha_smooth=TAU_S_RATIO * alpha)
    return optimize(ctx, w, init, opts)


def distvis_optimize(
    ctx: CostContext,
    init: JointTrajectory,
    opts: OptimizerOptions,
    w: CostWeights,
) -> OptResult:
    """Optimize separation and visibility with no uncertainty model.

    The prediction covariance is replaced by the identity (the source
    method is deterministic).  ``w`` weighs distance and visibility, and
    a small nominal-anchor weight ``alpha_nominal`` keeps the problem
    well-posed.
    """
    if ctx.prediction is None:
        raise ContractViolation("distance+visibility baseline needs a prediction")
    flat_ctx = replace(ctx, prediction=ctx.prediction.with_isotropic_covariance())
    return optimize(flat_ctx, w, init, opts)

