"""Synthetic human reach trajectories and stochastic prediction.

Ground truth is synthesized as a minimum-jerk reach of the right arm
(the tracked joints), with the rest of the skeleton riding fixed
offsets from the right shoulder.  A prediction consumes a 1 second
observation prefix and emits a per-joint Gaussian tube: mean positions
with isotropic covariance that grows with the prediction horizon.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ContractViolation, check_array, check_real
from .fileio import data_file, read_yaml

Array = np.ndarray

RIGHT_ARM_JOINTS = ("right_shoulder", "right_elbow", "right_wrist", "right_palm")
EXTRAPOLATED_JOINTS = (
    "neck",
    "head",
    "torso",
    "left_shoulder",
    "left_elbow",
    "left_wrist",
    "left_palm",
)

#: Observation protocol: the portion of the ground truth the predictor sees.
OBSERVATION_WINDOW = 1.0  # seconds


def minimum_jerk_fraction(tau):
    """Quintic displacement fraction 10 tau^3 - 15 tau^4 + 6 tau^5, clamped to [0, 1]."""
    tau = np.clip(tau, 0.0, 1.0)
    return 10.0 * tau**3 - 15.0 * tau**4 + 6.0 * tau**5


def sample_rows(samples: Array, x: float) -> Array:
    """Row ``x`` of ``samples``, at a fractional index ``x`` along the first axis.

    The first row for ``x <= 0``, the last for ``x >= T - 1``, row ``x`` at an
    exact index, and otherwise ``(1 - frac) * samples[i0] + frac * samples[i0 + 1]``
    with ``i0 = int(x)`` and ``frac = x - i0``.
    """
    last = samples.shape[0] - 1
    if x <= 0.0:
        return samples[0]
    if x >= last:
        return samples[last]
    i0 = int(x)
    frac = x - i0
    if frac == 0.0:
        return samples[i0]
    return (1.0 - frac) * samples[i0] + frac * samples[i0 + 1]


def sample_rows_many(samples: Array, xs: Array) -> Array:
    """``sample_rows`` at each of the 1-D indices ``xs``, stacked along a new first axis, bit for bit."""
    last = samples.shape[0] - 1
    i0 = np.clip(xs, 0, last).astype(np.intp)
    rows = (-1, *(1,) * (samples.ndim - 1))
    frac = (xs - i0).reshape(rows)
    lo = samples[i0]
    blend = (1.0 - frac) * lo + frac * samples[np.minimum(i0 + 1, last)]
    # Rows sample_rows returns as they are: xs <= 0 and exact indices leave
    # frac <= 0, and xs >= last clips to i0 = last.
    return np.where((frac <= 0.0) | (xs >= last).reshape(rows), lo, blend)


@dataclass(frozen=True)
class HumanTrajectory:
    """Ground-truth keypoint tracks at ``rate`` Hz: finite (T, J, 3) ``tracks`` with T >= 1, joint
    ``j`` named ``joints[j]``, which the constructor copies and marks read-only.  Frozen.
    """

    joints: tuple[str, ...]
    tracks: Array
    rate: float

    def __post_init__(self):
        check_real(self.rate, "rate", "positive")
        tracks = check_array(self.tracks, "tracks (a (T, 3) track per joint)", (None, len(self.joints), 3))
        if min(tracks.shape[:2]) < 1:
            raise ContractViolation(f"tracks must hold a (T, 3) track per joint, T >= 1, got {tracks.shape}")
        object.__setattr__(self, "joints", _joint_names(self.joints))
        object.__setattr__(self, "tracks", tracks)

    @property
    def samples(self) -> MappingProxyType:
        """Read-only joint name -> (T, 3) view of ``tracks``."""
        return MappingProxyType({name: self.tracks[:, j] for j, name in enumerate(self.joints)})

    @property
    def n_samples(self) -> int:
        return self.tracks.shape[0]

    @property
    def duration(self) -> float:
        return (self.n_samples - 1) / self.rate

    def positions_at(self, times) -> Array:
        """(B, J, 3) joint positions at finite ``times`` (s), in ``joints`` order, linearly
        interpolated and held outside the record: ``sample_rows_many`` at ``times * rate``."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if not np.isfinite(times).all():
            raise ContractViolation("positions_at needs finite times")
        return sample_rows_many(self.tracks, times * self.rate)

    def prefix(self, duration: float) -> "HumanTrajectory":
        """The first ``duration`` seconds (inclusive of the boundary sample), at most the whole record."""
        check_real(duration, "prefix duration", "non-negative")
        count = int(round(min(duration, self.duration) * self.rate)) + 1
        return HumanTrajectory(self.joints, self.tracks[:count], self.rate)


def _joint_names(joints) -> tuple[str, ...]:
    if len(joints) == 0 or len(set(joints)) != len(joints):
        raise ContractViolation(f"need one or more distinct joint names, got {joints!r}")
    return tuple(joints)


@dataclass(frozen=True)
class ReachScript:
    """Recipe for one synthetic right-arm reach.  ``arm_start`` and ``arm_goal`` are (4, 3) poses in
    ``RIGHT_ARM_JOINTS`` order, which the constructor copies and marks read-only."""

    arm_start: Array
    arm_goal: Array
    move_duration: float
    total_duration: float
    noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_real(self.move_duration, "move_duration", "non-negative")
        check_real(self.total_duration, "total_duration", "positive")
        check_real(self.noise_scale, "noise_scale", "non-negative")
        check_real(self.seed, "seed", "non-negative", integer=True)
        if self.move_duration > self.total_duration:
            raise ContractViolation("move_duration must not exceed total_duration")
        for name in ("arm_start", "arm_goal"):
            object.__setattr__(self, name, check_array(getattr(self, name), name, (len(RIGHT_ARM_JOINTS), 3)))


@dataclass(frozen=True)
class PredictedHumanTrajectory:
    """Gaussian tube, step ``k`` at ``t0 + k * step`` s: (J, H, 3) ``mean_tracks`` and (J, H, 3, 3)
    positive-definite ``cov_tracks`` with H >= 1, joint ``j`` named ``joints[j]``, which the
    constructor copies and marks read-only.  Frozen.
    """

    joints: tuple[str, ...]
    mean_tracks: Array
    cov_tracks: Array
    step: float
    t0: float = 0.0

    def __post_init__(self):
        check_real(self.step, "step", "positive")
        check_real(self.t0, "t0")
        names = _joint_names(self.joints)
        means = check_array(self.mean_tracks, "mean_tracks", (len(names), None, 3))
        if means.shape[1] < 1:
            raise ContractViolation("mean_tracks must cover a horizon of at least 1 step")
        # The covariances' finite test runs with the others, each over the stack
        # at once; the message names the first bad joint.
        covs = check_array(self.cov_tracks, "cov_tracks", (*means.shape, 3), finite=False)
        finite = np.isfinite(covs).all(axis=(1, 2, 3))
        symmetric = np.isclose(covs, np.swapaxes(covs, -1, -2), atol=1e-12).all(axis=(1, 2, 3))
        for name, cov, is_finite, is_symmetric in zip(names, covs, finite, symmetric):
            if not is_finite:
                raise ContractViolation(f"cov_tracks of {name} is not finite")
            if not is_symmetric:
                raise ContractViolation(f"cov_tracks of {name} is not symmetric within 1e-12")
            # An indefinite covariance gives negative Mahalanobis distances,
            # which the distance cost's clamp would silently turn into 1/EPS_M.
            try:
                np.linalg.cholesky(cov)  # one batched factorization over the horizon
            except np.linalg.LinAlgError:
                raise ContractViolation(f"cov_tracks of {name} is not positive definite") from None
        for name, value in (("joints", names), ("mean_tracks", means), ("cov_tracks", covs)):
            object.__setattr__(self, name, value)

    @property
    def horizon(self) -> int:
        return self.mean_tracks.shape[1]

    def with_isotropic_covariance(self) -> "PredictedHumanTrajectory":
        """Copy with every covariance replaced by ``I`` (no uncertainty model)."""
        eye = np.broadcast_to(np.eye(3), self.cov_tracks.shape)
        return PredictedHumanTrajectory(self.joints, self.mean_tracks, eye, self.step, self.t0)


@dataclass(frozen=True)
class PredictorOptions:
    """Gaussian-tube parameters: sigma(t)^2 = sigma0^2 + (kappa t)^2.

    The ``prediction`` section of the run config.  ``sigma0`` is the tube's
    smallest SD and so the one floor on every predicted SD, the visibility
    cost's included; being positive, it keeps the tube positive definite.
    """

    sigma0: float
    kappa: float

    def __post_init__(self):
        check_real(self.sigma0, "sigma0", "positive")
        check_real(self.kappa, "kappa", "non-negative")


def _smooth_noise(rng: np.random.Generator, n: int, rate: float, scale: float) -> Array:
    """Seeded per-axis noise: white noise smoothed by a 0.2 s moving average.

    Rescaled so the smoothed signal keeps standard deviation ``scale``;
    smoothing keeps the inter-sample displacement plausible.
    """
    if scale == 0.0:
        return np.zeros((n, 3))
    window = max(1, int(round(0.2 * rate)))
    white = rng.standard_normal((n + window - 1, 3))
    kernel = np.ones(window) / window
    smoothed = np.stack([np.convolve(white[:, k], kernel, mode="valid") for k in range(3)], axis=1)
    return smoothed * (scale * math.sqrt(window))


def generate_reach(script: ReachScript, rate: float) -> HumanTrajectory:
    """Synthesize ground truth for one reach.

    Right-arm joints follow the minimum-jerk profile from ``arm_start``
    to ``arm_goal`` over ``move_duration``, hold their pose afterwards,
    and carry seeded smooth noise of amplitude ``noise_scale``.  The
    remaining skeleton rides the configured fixed offsets from the
    right shoulder.
    """
    check_real(rate, "rate", "positive")
    n = int(round(script.total_duration * rate)) + 1
    t = np.arange(n) / rate
    move_mask = t <= script.move_duration
    tau = np.where(script.move_duration > 0, t / max(script.move_duration, 1e-12), 1.0)
    frac = minimum_jerk_fraction(tau)

    rng = np.random.default_rng(script.seed)
    noise = np.stack([_smooth_noise(rng, n, rate, script.noise_scale) for _ in RIGHT_ARM_JOINTS], axis=1)
    start, goal = script.arm_start, script.arm_goal
    arm = start + frac[:, None, None] * (goal - start) + noise
    # stationary after the reach: freeze at the pose reached at move_duration
    if np.any(move_mask):
        last_moving = int(np.nonzero(move_mask)[0][-1])
        arm[last_moving + 1 :] = arm[last_moving]

    shoulder = arm[:, RIGHT_ARM_JOINTS.index("right_shoulder"), None]
    tracks = np.concatenate([arm, shoulder + load_skeleton_offsets()], axis=1)
    return HumanTrajectory(RIGHT_ARM_JOINTS + EXTRAPOLATED_JOINTS, tracks, rate)


def predict(
    observed: HumanTrajectory,
    horizon: int,
    step: float,
    goal: Array | None = None,
    *,
    options: PredictorOptions,
) -> PredictedHumanTrajectory:
    """Predict the right-arm joints ``horizon`` steps past the observation.

    The mean is a constant-velocity extrapolation (velocity fitted by
    least squares over the last observation window); when a ``goal``
    point for the palm is supplied, the mean is blended toward a
    minimum-jerk approach of that goal, with the blend weight ramping
    linearly from 0 to 1 across the horizon.  Covariance is isotropic
    and grows quadratically with look-ahead time.

    Step ``k`` of the output is ``k * step`` seconds past the last
    observed sample, so step 0 coincides with the end of observation.
    """
    check_real(horizon, "horizon", "positive", integer=True)
    check_real(step, "step", "positive")
    if goal is not None:
        goal = check_array(goal, "goal", (3,))
    if observed.duration + 1e-9 < OBSERVATION_WINDOW:
        raise ContractViolation(
            f"observation prefix covers {observed.duration:.3f}s, "
            f"needs {OBSERVATION_WINDOW:.1f}s"
        )
    missing = set(RIGHT_ARM_JOINTS) - set(observed.joints)
    if missing:
        raise ContractViolation(f"observation missing right-arm joints: {sorted(missing)}")

    window = int(round(OBSERVATION_WINDOW * observed.rate)) + 1
    t_ahead = step * np.arange(horizon)
    horizon_span = max(float(t_ahead[-1]), step)

    # goal blend: w ramps 0 -> 1 across the horizon
    w = t_ahead / horizon_span if horizon > 1 else np.ones(1)

    # (T, 4, 3) right-arm tracks: the rows below are in RIGHT_ARM_JOINTS order
    arm = observed.tracks[:, [observed.joints.index(name) for name in RIGHT_ARM_JOINTS]]
    last, recent = arm[-1], arm[-window:]
    ts = np.arange(recent.shape[0]) / observed.rate
    velocities = np.array(
        [[np.polyfit(ts, track[:, k], 1)[0] for k in range(3)] for track in recent.swapaxes(0, 1)]
    )
    means = last[:, None] + t_ahead[:, None] * velocities[:, None]  # (4, H, 3), constant velocity
    if goal is not None:
        palm = RIGHT_ARM_JOINTS.index("right_palm")
        arrival = _estimate_arrival(last[palm], velocities[palm], goal, horizon_span, step)
        joint_goals = last + (goal - last[palm])
        approach = last[:, None] + minimum_jerk_fraction(t_ahead / arrival)[:, None] * (
            joint_goals - last
        )[:, None]
        means = (1.0 - w)[:, None] * means + w[:, None] * approach

    scale = options.sigma0**2 + (options.kappa * t_ahead) ** 2
    cov = scale[:, None, None] * np.eye(3)
    covs = np.broadcast_to(cov, (len(RIGHT_ARM_JOINTS), *cov.shape))
    return PredictedHumanTrajectory(RIGHT_ARM_JOINTS, means, covs, step, t0=observed.duration)


def _estimate_arrival(palm: Array, vel: Array, goal: Array, horizon_span: float, step: float) -> float:
    """Constant-velocity time-to-goal estimate, clamped into the horizon."""
    to_goal = goal - palm
    dist = float(np.linalg.norm(to_goal))
    if dist < 1e-9:
        return step
    speed_toward = float(vel @ to_goal) / dist
    if speed_toward <= 1e-6:
        return horizon_span
    return float(np.clip(dist / speed_toward, step, horizon_span))


def extrapolate_skeleton(arm_pred: PredictedHumanTrajectory) -> PredictedHumanTrajectory:
    """Fill in the non-tracked joints from the right-shoulder prediction.

    Each extrapolated joint's mean is the right-shoulder mean plus its
    packaged fixed offset; its covariance is the right-shoulder covariance.
    The joints keep the input's order, followed by the ``EXTRAPOLATED_JOINTS``
    it lacks; an extrapolated joint the input has is replaced where it stands.
    """
    if "right_shoulder" not in arm_pred.joints:
        raise ContractViolation("arm prediction is missing the right_shoulder track")
    joints = arm_pred.joints + tuple(name for name in EXTRAPOLATED_JOINTS if name not in arm_pred.joints)
    shoulder = arm_pred.joints.index("right_shoulder")
    # Each output row is gathered from its input row, or the shoulder's for an extrapolated joint.
    moved = [j for j, name in enumerate(joints) if name in EXTRAPOLATED_JOINTS]
    rows = np.arange(len(joints))
    rows[moved] = shoulder
    means = arm_pred.mean_tracks[rows]
    means[moved] += load_skeleton_offsets()[[EXTRAPOLATED_JOINTS.index(joints[j]) for j in moved]][:, None]
    return PredictedHumanTrajectory(joints, means, arm_pred.cov_tracks[rows], arm_pred.step, arm_pred.t0)


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


@functools.cache
def load_skeleton_offsets() -> Array:
    """Read-only (7, 3) offsets from the right shoulder, row ``j`` for ``EXTRAPOLATED_JOINTS[j]``,
    from the packaged file, parsed once."""
    offsets = read_yaml(data_file("skeleton_offsets.yaml"))
    missing = set(EXTRAPOLATED_JOINTS) - set(offsets)
    if missing:
        raise ContractViolation(f"offset config missing joints: {sorted(missing)}")
    return check_array([offsets[name] for name in EXTRAPOLATED_JOINTS], "skeleton offsets", (7, 3))
