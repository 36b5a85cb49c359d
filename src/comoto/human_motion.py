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
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

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
SKELETON_JOINTS = RIGHT_ARM_JOINTS + EXTRAPOLATED_JOINTS

#: Observation protocol: the portion of the ground truth the predictor sees.
OBSERVATION_WINDOW = 1.0  # seconds

#: Plausibility bound on per-sample motion at 100 Hz.
MAX_STEP_AT_100HZ = 0.05  # meters


def minimum_jerk_fraction(tau):
    """Quintic displacement fraction 10 tau^3 - 15 tau^4 + 6 tau^5, clamped to [0, 1]."""
    tau = np.clip(tau, 0.0, 1.0)
    return 10.0 * tau**3 - 15.0 * tau**4 + 6.0 * tau**5


@dataclass
class HumanTrajectory:
    """Ground-truth keypoint tracks: one (T, 3) array per named joint."""

    samples: dict[str, Array]
    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ContractViolation("rate must be positive")
        counts = {name: np.asarray(track).shape for name, track in self.samples.items()}
        lengths = {shape[0] for shape in counts.values()}
        if len(lengths) != 1:
            raise ContractViolation(f"joint tracks have unequal sample counts: {counts}")
        self.samples = {name: np.asarray(track, dtype=float) for name, track in self.samples.items()}

    @property
    def n_samples(self) -> int:
        return next(iter(self.samples.values())).shape[0]

    @property
    def duration(self) -> float:
        return (self.n_samples - 1) / self.rate

    @property
    def joints(self) -> tuple[str, ...]:
        return tuple(self.samples)

    def positions_at(self, times) -> dict[str, Array]:
        """Linearly interpolated joint positions, held constant outside the record."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        grid = np.arange(self.n_samples) / self.rate
        out = {}
        for name, track in self.samples.items():
            out[name] = np.stack([np.interp(times, grid, track[:, k]) for k in range(3)], axis=1)
        return out

    def prefix(self, duration: float) -> "HumanTrajectory":
        """The first ``duration`` seconds (inclusive of the boundary sample)."""
        count = int(round(duration * self.rate)) + 1
        count = min(count, self.n_samples)
        return HumanTrajectory(
            {name: track[:count].copy() for name, track in self.samples.items()}, self.rate
        )


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
    """Gaussian tube: per joint, (H, 3) means and (H, 3, 3) covariances."""

    means: dict[str, Array]
    covariances: dict[str, Array]
    step: float
    t0: float = 0.0

    def __post_init__(self):
        if set(self.means) != set(self.covariances):
            raise ContractViolation("means and covariances must cover the same joints")
        if self.step <= 0:
            raise ContractViolation("step must be positive")
        self.means = {k: np.asarray(v, dtype=float) for k, v in self.means.items()}
        self.covariances = {k: np.asarray(v, dtype=float) for k, v in self.covariances.items()}
        for name, mean in self.means.items():
            cov = self.covariances[name]
            if mean.ndim != 2 or mean.shape[1] != 3 or cov.shape != (len(mean), 3, 3):
                raise ContractViolation(
                    f"{name} needs (H, 3) means and (H, 3, 3) covariances, "
                    f"got {mean.shape} and {cov.shape}"
                )
        if len({len(m) for m in self.means.values()}) != 1 or self.horizon < 1:
            raise ContractViolation("all joints must share one horizon of at least 1 step")
        # Every joint in one stacked pass; on a failure, the loop below names the first bad one.
        covs = np.stack(list(self.covariances.values()))  # (J, H, 3, 3)
        if np.isfinite(covs).all() and np.allclose(covs, np.swapaxes(covs, -1, -2), atol=1e-12):
            try:
                np.linalg.cholesky(covs)
                return
            except np.linalg.LinAlgError:
                pass
        for name, cov in self.covariances.items():
            if not np.all(np.isfinite(cov)):
                raise ContractViolation(f"covariance of {name} is not finite")
            if not np.allclose(cov, np.swapaxes(cov, -1, -2), atol=1e-12):
                raise ContractViolation(f"covariance of {name} is not symmetric within 1e-12")
            # An indefinite covariance gives negative Mahalanobis distances,
            # which the distance cost's clamp would silently turn into 1/eps_m.
            try:
                np.linalg.cholesky(cov)  # one batched factorization over the horizon
            except np.linalg.LinAlgError:
                raise ContractViolation(f"covariance of {name} is not positive definite") from None

    @property
    def horizon(self) -> int:
        return next(iter(self.means.values())).shape[0]

    @property
    def joints(self) -> tuple[str, ...]:
        return tuple(self.means)

    @property
    def times(self) -> Array:
        return self.t0 + self.step * np.arange(self.horizon)

    def with_isotropic_covariance(self, scale: float = 1.0) -> "PredictedHumanTrajectory":
        """Copy with every covariance replaced by ``scale * I`` (no uncertainty model)."""
        eye = np.broadcast_to(scale * np.eye(3), (self.horizon, 3, 3)).copy()
        return PredictedHumanTrajectory(
            means={k: v.copy() for k, v in self.means.items()},
            covariances={k: eye.copy() for k in self.covariances},
            step=self.step,
            t0=self.t0,
        )

    def scaled_covariance(self, factor: float) -> "PredictedHumanTrajectory":
        return PredictedHumanTrajectory(
            means={k: v.copy() for k, v in self.means.items()},
            covariances={k: factor * v for k, v in self.covariances.items()},
            step=self.step,
            t0=self.t0,
        )


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
    if rate <= 0:
        raise ContractViolation("rate must be positive")
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
    if step <= 0:
        raise ContractViolation("step must be positive")
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
        covariances={name: cov.copy() for name in RIGHT_ARM_JOINTS},
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
    """
    if "right_shoulder" not in arm_pred.means:
        raise ContractViolation("arm prediction is missing the right_shoulder track")
    offsets = load_skeleton_offsets()
    means = {k: v.copy() for k, v in arm_pred.means.items()}
    covs = {k: v.copy() for k, v in arm_pred.covariances.items()}
    shoulder_mean = arm_pred.means["right_shoulder"]
    shoulder_cov = arm_pred.covariances["right_shoulder"]
    for name in EXTRAPOLATED_JOINTS:
        means[name] = shoulder_mean + offsets[name]
        covs[name] = shoulder_cov.copy()
    return PredictedHumanTrajectory(means=means, covariances=covs, step=arm_pred.step, t0=arm_pred.t0)


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def load_skeleton_offsets(source: str | Path | None = None) -> dict[str, Array]:
    """Joint-name -> read-only 3D offset map; the packaged one, parsed once, by default."""
    if source is None:
        return dict(_packaged_skeleton_offsets())
    return _read_skeleton_offsets(Path(source))


@functools.cache
def _packaged_skeleton_offsets() -> dict[str, Array]:
    return _read_skeleton_offsets(resources.files("comoto.data").joinpath("skeleton_offsets.yaml"))


def _read_skeleton_offsets(path) -> dict[str, Array]:
    offsets = {name: np.asarray(vec, dtype=float) for name, vec in read_yaml(path).items()}
    missing = set(EXTRAPOLATED_JOINTS) - set(offsets)
    if missing:
        raise ContractViolation(f"offset config missing joints: {sorted(missing)}")
    for vec in offsets.values():
        vec.flags.writeable = False
    return offsets
