"""The four comparison methods: nominal planning, reactive speed
adjustment, legibility-only optimization, and distance+visibility
optimization without an uncertainty model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .costs import CostContext, CostWeights
from .errors import ContractViolation, check_real, float_array
from .human_motion import HumanTrajectory, sample_rows, sample_rows_many
from .kinematics import ChainSpec, Frames, JointTrajectory, fk_points_batch
from .optimizer import OptimizerOptions, OptResult, optimize, straightline_joint_init

Array = np.ndarray

#: Ratio of the smoothness regularizer to the legibility weight.
TAU_S_RATIO = 1e-3

#: The nominal solve's settings.  All 15 paper-grid nominal solves stop
#: at this iteration cap, short of ``grad_tol``.
NOMINAL_OPTIONS = OptimizerOptions(max_iters=300, grad_tol=1e-3, step_init=0.05)


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

    The constructor copies ``timestamps`` and ``configs``.  The arrays
    stay writeable: perfbench's self-test writes one config of a built
    trace in place, to check that its trace check notices.
    """

    timestamps: Array
    configs: Array
    completed: bool
    min_separation: Array | None = None
    speed_scale: Array | None = None

    def __post_init__(self):
        for name in ("timestamps", "configs"):
            object.__setattr__(self, name, float_array(getattr(self, name), f"trace {name}"))
        if self.timestamps.ndim != 1 or self.configs.ndim != 2:
            raise ContractViolation("trace needs 1-D timestamps and 2-D configs")
        n = self.timestamps.shape[0]
        if n == 0 or n != self.configs.shape[0]:
            raise ContractViolation("trace needs one or more ticks, with equal numbers of timestamps and configs")
        if not (np.isfinite(self.timestamps).all() and np.isfinite(self.configs).all()):
            raise ContractViolation("trace timestamps and configs must be finite")
        if np.any(np.diff(self.timestamps) <= 0):
            raise ContractViolation("trace timestamps must be strictly increasing")

    @property
    def duration(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0])

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
    smooth_weight: float,
    obstacle_weight: float,
    margin: float,
) -> tuple[JointTrajectory, OptResult | None]:
    """Default trajectory with no human: smooth and obstacle-clearing.

    Runs from ``start`` to ``ctx.goal_config`` on ``ctx.chain``; the
    context's prediction, nominal and object are not used.  The obstacle
    term keeps the robot points ``margin`` clear of each ``(center,
    radius)`` sphere.  Returns the trajectory and the solve that made
    it, whose ``stop_reason`` says why it stopped.  With no obstacles
    the trajectory is exactly the joint-space straight line, and there
    is no solve (``None``).
    """
    init = straightline_joint_init(start, ctx.goal_config, n_waypoints, dt, t0)
    if len(obstacles) == 0:
        return init, None
    ctx = replace(ctx, obstacles=tuple((c, r + margin) for c, r in obstacles))
    weights = CostWeights(alpha_smooth=smooth_weight, alpha_obstacle=obstacle_weight)
    result = optimize(ctx, weights, init, NOMINAL_OPTIONS)
    return result.trajectory, result


def min_separations(robot: Array, humans: Array) -> Array:
    """Smallest robot-point to human-joint distance per configuration.

    ``robot`` is (..., P, 3) and ``humans`` (..., J, 3) over one leading
    batch shape, the result's.  Component-major, each pair's x, y and z
    squares are added in that order, as a sum over a length-3 last axis
    adds them.
    """
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
    sensor-driven method).  Returns ``completed=False`` if
    ``timeout_factor * nominal.duration`` elapses before the path end;
    the human pose is held at its last sample beyond the recorded horizon.

    A single tick runs one single-configuration ``Frames`` FK, built once
    per execution and overwritten by each tick, and ``min_separations``.
    While s is exactly 1 (far from the human) or 0 (stopped), the next
    ticks' clock and path position are known before they are evaluated,
    so up to ``FAST_FORWARD_TICKS`` of them are evaluated as one block
    and kept up to the first tick whose scale changes, which times out,
    or whose full advance would reach the path end; the tick-by-tick
    step resumes from there.  The block gives every tick the bits the
    tick-by-tick loop gives it: its clock and path position are the
    same sequential adds (``np.add.accumulate``), each configuration
    and human pose comes from the shared row sampler (``sample_rows``
    for a tick, ``sample_rows_many`` for a block, the human's through
    ``HumanTrajectory.positions_at``), whose two forms give the same
    bits, batched FK builds each row as a single configuration's
    ``Frames`` does, and the separations are ``min_separations`` over
    the block.
    """
    D = nominal.duration
    timeout = p.timeout_factor * D
    dtick = 1.0 / p.control_rate
    waypoints, dt = nominal.waypoints, nominal.dt
    tracks, rate = human_truth.tracks, human_truth.rate

    # Ticks fall at t0 + k * dtick until the timeout, k <= ceil(timeout * rate);
    # one more absorbs the rounding of the accumulated clock.
    capacity = math.ceil(timeout * p.control_rate) + 2
    times, seps, speeds = np.empty(capacity), np.empty(capacity), np.empty(capacity)
    configs = np.empty((capacity, waypoints.shape[1]))
    d_stop, d_span = p.d_stop, p.d_slow - p.d_stop
    t0, deadline = nominal.t0, timeout - 1e-12
    frames = Frames(chain)
    steps = np.empty(FAST_FORWARD_TICKS + 1)  # a block's start, then its increments

    def tick(k: int, t: float, u: float) -> float:
        """Evaluate and record tick k at clock t and path position u; returns its scale."""
        if k == capacity:
            raise ContractViolation(f"Speed-Adj ran past its {capacity} preallocated ticks")
        qcur = sample_rows(waypoints, u / dt)
        d = float(min_separations(frames(qcur)[0], sample_rows(tracks, t * rate)))
        s = min(max((d - d_stop) / d_span, 0.0), 1.0)
        times[k], seps[k], speeds[k] = t, d, s
        configs[k] = qcur
        return s

    def fast_forward(k: int, t: float, u: float, s: float) -> tuple[int, float, float, float]:
        """Evaluate ticks k.. as one block after a tick at scale s, and record
        them up to the first whose scale changes, which times out, or whose
        full advance would reach the path end.  Returns the next k and the
        last recorded tick's clock, path position and scale."""
        n = min(FAST_FORWARD_TICKS, capacity - k)
        advance = s * dtick
        block = steps[:n + 1]
        block[0], block[1:] = t, dtick
        ts = np.add.accumulate(block)[1:]
        block[0], block[1:] = u, advance
        us = np.add.accumulate(block)[1:]
        qs = sample_rows_many(waypoints, us / dt)
        ds = min_separations(fk_points_batch(chain, qs), human_truth.positions_at(ts))
        ss = np.minimum(np.maximum((ds - d_stop) / d_span, 0.0), 1.0)
        ends = (ss != s) | (ts - t0 >= deadline) | (us + advance >= D)
        m = int(ends.argmax()) + 1 if ends.any() else n
        times[k:k + m], seps[k:k + m], speeds[k:k + m] = ts[:m], ds[:m], ss[:m]
        configs[k:k + m] = qs[:m]
        return k + m, float(ts[m - 1]), float(us[m - 1]), float(ss[m - 1])

    u, t = 0.0, t0
    s = tick(0, t, u)
    k = 1
    completed = False
    while True:
        if u >= D:
            completed = True
            break
        if t - t0 >= deadline:
            break
        advance = s * dtick
        if advance > 0 and u + advance >= D:
            t += (D - u) / s  # partial tick: land exactly on the path end
            u = D
        elif (s == 1.0 or s == 0.0) and k < capacity:  # at capacity, tick() raises
            k, t, u, s = fast_forward(k, t, u, s)
            continue
        else:
            u += advance
            t += dtick
        s = tick(k, t, u)
        k += 1

    return ExecutionTrace(
        timestamps=times[:k],
        configs=configs[:k],
        completed=completed,
        min_separation=seps[:k].copy(),
        speed_scale=speeds[:k].copy(),
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
    alpha_dist: float,
    alpha_vis: float,
    tau_n: float,
) -> OptResult:
    """Optimize separation and visibility with no uncertainty model.

    The prediction covariance is replaced by the identity (the source
    method is deterministic); a small nominal-anchor weight ``tau_n``
    keeps the problem well-posed.
    """
    if ctx.prediction is None:
        raise ContractViolation("distance+visibility baseline needs a prediction")
    flat_ctx = replace(ctx, prediction=ctx.prediction.with_isotropic_covariance())
    w = CostWeights(alpha_dist=alpha_dist, alpha_vis=alpha_vis, alpha_nominal=tau_n)
    return optimize(flat_ctx, w, init, opts)

