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
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ContractViolation
from .fileio import read_yaml

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

#: Plausibility bound on per-sample motion at 100 Hz.
MAX_STEP_AT_100HZ = 0.05  # meters


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


@dataclass
class HumanTrajectory:
    """Ground-truth keypoint tracks at ``rate`` Hz: one finite (T, 3) array per named joint.

    ``tracks`` stacks them once, (T, J, 3) in ``joints`` order, and ``samples`` holds views of it.
    """

    samples: dict[str, Array]
    rate: float
    tracks: Array = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ContractViolation(f"rate must be finite and positive, got {self.rate!r}")
        shapes = {name: np.shape(track) for name, track in self.samples.items()}
        if not shapes or any(len(s) != 2 or s[0] < 1 or s[1] != 3 for s in shapes.values()):
            raise ContractViolation(f"need one or more (T, 3) joint tracks with T >= 1, got {shapes}")
        if len({s[0] for s in shapes.values()}) != 1:
            raise ContractViolation(f"joint tracks have unequal sample counts: {shapes}")
        self.tracks = np.stack([np.asarray(track, dtype=float) for track in self.samples.values()], axis=1)
        if not np.isfinite(self.tracks).all():
            raise ContractViolation("joint tracks must be finite")
        self.samples = {name: self.tracks[:, j] for j, name in enumerate(self.samples)}

    @property
    def n_samples(self) -> int:
        return self.tracks.shape[0]

    @property
    def duration(self) -> float:
        return (self.n_samples - 1) / self.rate

    @property
    def joints(self) -> tuple[str, ...]:
        return tuple(self.samples)

    def positions_at(self, times) -> Array:
        """(B, J, 3) joint positions at finite ``times`` (s), in ``joints`` order, linearly
        interpolated and held outside the record: ``sample_rows_many`` at ``times * rate``."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if not np.isfinite(times).all():
            raise ContractViolation("positions_at needs finite times")
        return sample_rows_many(self.tracks, times * self.rate)

    def prefix(self, duration: float) -> "HumanTrajectory":
        """The first ``duration`` seconds (inclusive of the boundary sample), at most the whole record."""
        if not (math.isfinite(duration) and duration >= 0):
            raise ContractViolation(f"prefix duration must be finite and non-negative, got {duration!r}")
        count = int(round(min(duration, self.duration) * self.rate)) + 1
        return HumanTrajectory({name: track[:count] for name, track in self.samples.items()}, self.rate)


@dataclass(frozen=True)
class ReachScript:
    """Recipe for one synthetic right-arm reach."""

    arm_start: dict[str, Array]
    arm_goal: dict[str, Array]
    move_duration: float
    total_duration: float
    noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        values = (self.move_duration, self.total_duration, self.noise_scale)
        if not all(math.isfinite(v) for v in values):
            raise ContractViolation(f"script durations and noise_scale must be finite, got {values}")
        if self.move_duration > self.total_duration:
            raise ContractViolation("move_duration must not exceed total_duration")
        if self.noise_scale < 0:
            raise ContractViolation("noise_scale must be nonnegative")
        for src in (self.arm_start, self.arm_goal):
            missing = set(RIGHT_ARM_JOINTS) - set(src)
            if missing:
                raise ContractViolation(f"script missing right-arm joints: {sorted(missing)}")


@dataclass
class PredictedHumanTrajectory:
    """Gaussian tube: per joint, (H, 3) means and (H, 3, 3) covariances.

    ``mean_tracks`` (J, H, 3) and ``cov_tracks`` (J, H, 3, 3) stack them once,
    read-only and in ``joints`` order, and ``means`` and ``covariances`` hold views of them.
    """

    means: dict[str, Array]
    covariances: dict[str, Array]
    step: float
    t0: float = 0.0
    mean_tracks: Array = field(init=False, repr=False)
    cov_tracks: Array = field(init=False, repr=False)

    def __post_init__(self):
        if set(self.means) != set(self.covariances):
            raise ContractViolation("means and covariances must cover the same joints")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ContractViolation(f"step must be finite and positive, got {self.step!r}")
        if not math.isfinite(self.t0):
            raise ContractViolation(f"t0 must be finite, got {self.t0!r}")
        names = tuple(self.means)
        means = [np.asarray(self.means[name], dtype=float) for name in names]
        covs = [np.asarray(self.covariances[name], dtype=float) for name in names]
        for name, mean, cov in zip(names, means, covs):
            if mean.ndim != 2 or mean.shape[1] != 3 or cov.shape != (len(mean), 3, 3):
                raise ContractViolation(
                    f"{name} needs (H, 3) means and (H, 3, 3) covariances, "
                    f"got {mean.shape} and {cov.shape}"
                )
        if len({len(m) for m in means}) != 1 or len(means[0]) < 1:
            raise ContractViolation("all joints must share one horizon of at least 1 step")
        means, covs = np.stack(means), np.stack(covs)
        if not np.isfinite(means).all():
            raise ContractViolation("prediction means must be finite")
        # Each check over the stack at once; the message names the first bad joint.
        finite = np.isfinite(covs).all(axis=(1, 2, 3))
        symmetric = np.isclose(covs, np.swapaxes(covs, -1, -2), atol=1e-12).all(axis=(1, 2, 3))
        for name, cov, is_finite, is_symmetric in zip(names, covs, finite, symmetric):
            if not is_finite:
                raise ContractViolation(f"covariance of {name} is not finite")
            if not is_symmetric:
                raise ContractViolation(f"covariance of {name} is not symmetric within 1e-12")
            # An indefinite covariance gives negative Mahalanobis distances,
            # which the distance cost's clamp would silently turn into 1/eps_m.
            try:
                np.linalg.cholesky(cov)  # one batched factorization over the horizon
            except np.linalg.LinAlgError:
                raise ContractViolation(f"covariance of {name} is not positive definite") from None
        means.flags.writeable = covs.flags.writeable = False
        self.mean_tracks, self.cov_tracks = means, covs
        self.means, self.covariances = dict(zip(names, means)), dict(zip(names, covs))

    @property
    def horizon(self) -> int:
        return self.mean_tracks.shape[1]

    @property
    def joints(self) -> tuple[str, ...]:
        return tuple(self.means)

    @property
    def times(self) -> Array:
        return self.t0 + self.step * np.arange(self.horizon)

    def with_isotropic_covariance(self, scale: float = 1.0) -> "PredictedHumanTrajectory":
        """Copy with every covariance replaced by ``scale * I`` (no uncertainty model)."""
        eye = np.broadcast_to(scale * np.eye(3), self.cov_tracks.shape)
        return PredictedHumanTrajectory(self.means, dict(zip(self.joints, eye)), self.step, self.t0)

    def scaled_covariance(self, factor: float) -> "PredictedHumanTrajectory":
        covs = factor * self.cov_tracks
        return PredictedHumanTrajectory(self.means, dict(zip(self.joints, covs)), self.step, self.t0)


@dataclass(frozen=True)
class PredictorOptions:
    """Gaussian-tube parameters: sigma(t)^2 = sigma0^2 + (kappa t)^2, floored.

    The ``prediction`` section of the run config.
    """

    sigma0: float
    kappa: float
    sigma_floor: float

    def __post_init__(self):
        for name in ("sigma0", "kappa", "sigma_floor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ContractViolation(f"{name} must be finite and non-negative, got {value!r}")
        if self.sigma_floor == 0:
            raise ContractViolation("sigma_floor must be positive")


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
    if not (math.isfinite(rate) and rate > 0):
        raise ContractViolation(f"rate must be finite and positive, got {rate!r}")
    n = int(round(script.total_duration * rate)) + 1
    t = np.arange(n) / rate
    move_mask = t <= script.move_duration
    tau = np.where(script.move_duration > 0, t / max(script.move_duration, 1e-12), 1.0)
    frac = minimum_jerk_fraction(tau)

    rng = np.random.default_rng(script.seed)
    tracks: dict[str, Array] = {}
    for name in RIGHT_ARM_JOINTS:
        x0 = np.asarray(script.arm_start[name], dtype=float)
        xg = np.asarray(script.arm_goal[name], dtype=float)
        pos = x0 + frac[:, None] * (xg - x0)
        pos = pos + _smooth_noise(rng, n, rate, script.noise_scale)
        # stationary after the reach: freeze at the pose reached at move_duration
        if np.any(move_mask):
            last_moving = int(np.nonzero(move_mask)[0][-1])
            pos[last_moving + 1 :] = pos[last_moving]
        tracks[name] = pos

    offsets = load_skeleton_offsets()
    for name in EXTRAPOLATED_JOINTS:
        tracks[name] = tracks["right_shoulder"] + offsets[name]
    return HumanTrajectory(tracks, rate)


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
    if horizon < 1:
        raise ContractViolation("horizon must be at least 1 step")
    if not (math.isfinite(step) and step > 0):
        raise ContractViolation(f"step must be finite and positive, got {step!r}")
    if observed.duration + 1e-9 < OBSERVATION_WINDOW:
        raise ContractViolation(
            f"observation prefix covers {observed.duration:.3f}s, "
            f"needs {OBSERVATION_WINDOW:.1f}s"
        )
    missing = set(RIGHT_ARM_JOINTS) - set(observed.samples)
    if missing:
        raise ContractViolation(f"observation missing right-arm joints: {sorted(missing)}")

    window = int(round(OBSERVATION_WINDOW * observed.rate)) + 1
    t_ahead = step * np.arange(horizon)
    horizon_span = max(float(t_ahead[-1]), step)

    # goal blend: w ramps 0 -> 1 across the horizon
    w = t_ahead / horizon_span if horizon > 1 else np.ones(1)

    last = {name: observed.samples[name][-1] for name in RIGHT_ARM_JOINTS}
    velocities = {}
    for name in RIGHT_ARM_JOINTS:
        track = observed.samples[name][-window:]
        ts = np.arange(track.shape[0]) / observed.rate
        velocities[name] = np.array([np.polyfit(ts, track[:, k], 1)[0] for k in range(3)])
    if goal is not None:
        arrival = _estimate_arrival(
            last["right_palm"], velocities["right_palm"], goal, horizon_span, step
        )

    means: dict[str, Array] = {}
    for name in RIGHT_ARM_JOINTS:
        cv = last[name] + t_ahead[:, None] * velocities[name]
        if goal is None:
            means[name] = cv
        else:
            joint_goal = last[name] + (np.asarray(goal, dtype=float) - last["right_palm"])
            approach = last[name] + minimum_jerk_fraction(t_ahead / arrival)[:, None] * (
                joint_goal - last[name]
            )
            means[name] = (1.0 - w)[:, None] * cv + w[:, None] * approach

    scale = np.maximum(options.sigma0**2 + (options.kappa * t_ahead) ** 2, options.sigma_floor**2)
    cov = scale[:, None, None] * np.eye(3)
    return PredictedHumanTrajectory(
        means=means,
        covariances=dict.fromkeys(RIGHT_ARM_JOINTS, cov),
        step=step,
        t0=observed.duration,
    )


def _estimate_arrival(palm: Array, vel: Array, goal: Array, horizon_span: float, step: float) -> float:
    """Constant-velocity time-to-goal estimate, clamped into the horizon."""
    to_goal = np.asarray(goal, dtype=float) - palm
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
    The joints keep the input's order, followed by the ``EXTRAPOLATED_JOINTS`` it lacks.
    """
    if "right_shoulder" not in arm_pred.means:
        raise ContractViolation("arm prediction is missing the right_shoulder track")
    offsets = load_skeleton_offsets()
    means, covs = dict(arm_pred.means), dict(arm_pred.covariances)
    shoulder_mean = arm_pred.means["right_shoulder"]
    shoulder_cov = arm_pred.covariances["right_shoulder"]
    for name in EXTRAPOLATED_JOINTS:
        means[name] = shoulder_mean + offsets[name]
        covs[name] = shoulder_cov
    return PredictedHumanTrajectory(means=means, covariances=covs, step=arm_pred.step, t0=arm_pred.t0)


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def load_skeleton_offsets() -> dict[str, Array]:
    """Joint-name -> read-only 3D offset map from the packaged file, parsed once."""
    return dict(_packaged_skeleton_offsets())


@functools.cache
def _packaged_skeleton_offsets() -> dict[str, Array]:
    path = resources.files("comoto.data").joinpath("skeleton_offsets.yaml")
    offsets = {name: np.asarray(vec, dtype=float) for name, vec in read_yaml(path).items()}
    missing = set(EXTRAPOLATED_JOINTS) - set(offsets)
    if missing:
        raise ContractViolation(f"offset config missing joints: {sorted(missing)}")
    for vec in offsets.values():
        vec.flags.writeable = False
    return offsets
