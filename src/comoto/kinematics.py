"""Serial-chain forward kinematics with standard DH parameters.

A chain is described by one DH row per revolute joint, ``(a, alpha, d,
theta_offset)``, using the *standard* (distal) convention: the transform
from frame ``i`` to frame ``i+1`` is

    Rz(q_i + theta_offset_i) Tz(d_i) Tx(a_i) Rx(alpha_i)

All lengths are meters, all angles radians.  The "robot points" used by
the proximity costs and metrics are the origins of every joint frame
plus the end-effector frame origin (``n_links + 1`` points in total).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolation, check_array, check_real
from .fileio import check_keys, data_file, load_csv, load_yaml

Array = np.ndarray


@dataclass(frozen=True)
class ChainSpec:
    """Geometry of a serial revolute chain.

    Attributes
    ----------
    dh : (n, 4) array
        Standard DH rows ``(a, alpha, d, theta_offset)``.
    joint_limits : (n, 2) array
        Per-joint ``(lo, hi)`` bounds, radians.
    name : str
        Label used in config files and reports.
    """

    dh: Array
    joint_limits: Array
    name: str = "chain"

    #: Every chain's base sits at the world origin; read-only, kept for ``perfbench/checks.py``.
    base_pose = check_array(np.eye(4), "base_pose", (4, 4))

    def __post_init__(self):
        dh = check_array(self.dh, "dh", (None, 4))
        if dh.shape[0] < 2:
            raise ContractViolation(f"dh must have 2 or more rows, got {dh.shape[0]}")
        lims = check_array(self.joint_limits, "joint_limits", (dh.shape[0], 2))
        if np.any(lims[:, 0] >= lims[:, 1]):
            raise ContractViolation("joint_limits must have lo < hi in every row")
        object.__setattr__(self, "dh", dh)
        object.__setattr__(self, "joint_limits", lims)
        # The FK constants of every DH transform.  Rows 0-1 of joint i are
        # [[ct, -st ca, st sa, a ct], [st, ct ca, -ct sa, a st]]: each entry is
        # one product of a trig factor, picked from [cos theta, sin theta] by
        # _dh_trig_index, and its entry of _dh_factors.  Rows 2-3,
        # [[0, sa, ca, d], [0, 0, 0, 1]], do not depend on theta.
        n = dh.shape[0]
        a, d = dh[:, 0], dh[:, 2]
        ca = np.array([math.cos(alpha) for alpha in dh[:, 1]])
        sa = np.array([math.sin(alpha) for alpha in dh[:, 1]])
        one, zero = np.ones(n), np.zeros(n)
        cos_i, sin_i = np.arange(n), n + np.arange(n)
        tables = {
            "_dh_trig_index": [[cos_i, sin_i, sin_i, cos_i], [sin_i, cos_i, cos_i, sin_i]],
            "_dh_factors": [[one, -ca, sa, a], [one, ca, -sa, a]],
            "_dh_fixed_rows": [[zero, sa, ca, d], [zero, zero, zero, one]],
        }
        for name, rows in tables.items():
            table = np.ascontiguousarray(np.transpose(rows, (2, 0, 1)))  # (n, 2, 4)
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    @property
    def n_joints(self) -> int:
        return self.dh.shape[0]

    def clamp(self, q: Array) -> Array:
        """Project a configuration onto the joint limits."""
        return np.clip(q, self.joint_limits[:, 0], self.joint_limits[:, 1])


@dataclass(frozen=True)
class JointTrajectory:
    """Uniformly timed joint-space waypoint sequence.

    ``waypoints`` is an (N, n) array, which the constructor copies and
    marks read-only; waypoint ``k`` occurs at ``t0 + k * dt`` seconds.
    Frozen.
    """

    waypoints: Array
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        wp = check_array(self.waypoints, "waypoints", (None, None))
        if wp.shape[0] < 3:
            raise ContractViolation(f"waypoints must have 3 or more rows, got {wp.shape[0]}")
        check_real(self.dt, "dt", "positive")
        check_real(self.t0, "t0")
        object.__setattr__(self, "waypoints", wp)

    @property
    def n_waypoints(self) -> int:
        return self.waypoints.shape[0]

    @property
    def n_joints(self) -> int:
        return self.waypoints.shape[1]

    @property
    def times(self) -> Array:
        return self.t0 + self.dt * np.arange(self.n_waypoints)

    @property
    def duration(self) -> float:
        return self.dt * (self.n_waypoints - 1)


class Frames:
    """FK of one configuration, or a batch, into buffers kept between calls.

    ``Frames(chain)(q)`` maps an (n,) float array to the (n+1, 3) frame
    origins, end effector last, and the (n, 3) joint axes;
    ``Frames(chain, (N,))`` maps (N, n) to (N, n+1, 3) and (N, n, 3).
    Both are views that the next call overwrites.  Each DH entry is one
    product of a trig factor and a chain constant: the per-joint
    formula's bits, zero signs included, in any batch.

    The chain product takes one 4x4 multiply per link.  A batch runs
    ``np.matmul`` over its stacks; one configuration runs ``np.dot`` on
    2-D contiguous matrices, which calls the same ``cblas_dgemm`` with
    less call overhead, so both give each configuration the same bits.
    """

    def __init__(self, chain: ChainSpec, batch: tuple = ()):
        n = chain.n_joints
        self._shape = (*batch, n)
        self._offsets, self._factors = chain.dh[:, 3], chain._dh_factors
        self._trig = np.empty((*batch, 2 * n))  # [cos theta, sin theta]
        self._cos, self._sin = self._trig[..., :n], self._trig[..., n:]
        self._trig_key = (slice(None),) * len(batch) + (chain._dh_trig_index,)
        self._dh = np.empty((*batch, n, 4, 4))
        self._dh[..., 2:, :] = chain._dh_fixed_rows
        self._rows01 = self._dh[..., :2, :]
        T = np.empty((n + 1, *batch, 4, 4))
        T[0] = np.eye(4)  # the base: I @ DH_0 may differ from DH_0 in an exact zero's sign
        # Joint-major: each step of the product takes a leading-axis index.
        # Both swaps are identities for one configuration.
        joints = self._dh.swapaxes(-3, 0)
        self._products = [(T[i], joints[i], T[i + 1]) for i in range(n)]
        self._multiply = np.matmul if batch else np.dot
        self._frames = (T[..., :3, 3].swapaxes(0, -2), T[:n, ..., :3, 2].swapaxes(0, -2))

    def __call__(self, q: Array) -> tuple[Array, Array]:
        if q.shape != self._shape:
            raise ContractViolation(f"configurations have shape {q.shape}, expected {self._shape}")
        theta = q + self._offsets
        np.cos(theta, out=self._cos)
        np.sin(theta, out=self._sin)
        # A contiguous product, then one copy: a ufunc writing straight into
        # the strided rows is slower on full blocks.
        self._rows01[...] = self._trig[self._trig_key] * self._factors
        for parent, joint, child in self._products:
            self._multiply(parent, joint, out=child)
        return self._frames


def frame_origins_and_axes(chain: ChainSpec, q: Array) -> tuple[Array, Array]:
    """World-frame origins of frames 0..n and the joint rotation axes.

    Returns ``(points, axes)`` where ``points`` is (n+1, 3) — frame
    origins with the end-effector last — and ``axes`` is (n, 3), the
    world z-axis of the frame each joint rotates about.
    """
    return Frames(chain)(check_array(q, "q", (chain.n_joints,)))


def fk_eef(chain: ChainSpec, q: Array) -> Array:
    """World position of the end-effector (the last frame origin), as a new array."""
    return frame_origins_and_axes(chain, q)[0][-1].copy()


def _batch_frames(chain: ChainSpec, Q: Array) -> tuple[Array, Array]:
    """Vectorized FK over a (N, n) batch of configurations, through one ``Frames``.

    Returns ``(points, axes)`` with shapes (N, n+1, 3) and (N, n, 3).
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[1] != chain.n_joints:
        raise ContractViolation(
            f"batch has shape {Q.shape}, chain expects (N, {chain.n_joints})"
        )
    points, axes = Frames(chain, Q.shape[:1])(Q)
    # Contiguous copies: their layout fixes the rounding of the einsums over them.
    return np.ascontiguousarray(points), np.ascontiguousarray(axes)


#: ``z x l = z[1, 2, 0] * l[2, 0, 1] - z[2, 0, 1] * l[1, 2, 0]``, componentwise:
#: the axis and lever components of both products, as six stacked rows.
_AXIS_ROWS = [1, 2, 0, 2, 0, 1]
_LEVER_ROWS = [2, 0, 1, 1, 2, 0]


def _component_major(frames: Array) -> Array:
    """A contiguous (3, m, N) copy of an (N, m, 3) batch of points or axes."""
    return np.ascontiguousarray(frames.transpose(2, 1, 0))


def _axis_cross(axes: Array, levers: Array) -> Array:
    """``z_j x lever_j`` from (..., 6, n, N) lever rows and (3, n, N) axes.

    Returns a (..., 3, n, N) view of ``levers``, which it overwrites.
    Each component is the textbook difference ``zy * lz - zz * ly`` (and
    its cyclic shifts), entry by entry.
    """
    levers *= axes[_AXIS_ROWS]
    return np.subtract(levers[..., :3, :, :], levers[..., 3:, :, :], out=levers[..., :3, :, :])


@functools.cache
def _jacobian_mask(n: int) -> Array:
    """(n+1, 1, n, 1): column j moves point k when j < k."""
    mask = (np.arange(n) < np.arange(n + 1)[:, None])[:, None, :, None]
    mask.flags.writeable = False
    return mask


def _point_jacobians(points: Array, axes: Array) -> Array:
    """(N, n+1, 3, n) point Jacobians from batched frame origins and axes.

    Column j of point k is ``z_j x (p_k - o_j)`` for j < k and zero
    otherwise: every entry is the cross product times the mask, which
    keeps zero signs.  The levers, products and mask run component-major
    with the batch innermost, so each ufunc loops over N instead of a
    length-3 axis.  The result is written once into an (N, n+1, n, 3)
    buffer and returned as its transposed view; that layout fixes the
    summation order of every einsum over the Jacobians, so the gradients'
    rounding depends on it.
    """
    N, n = axes.shape[:2]
    p = _component_major(points)  # (3, n+1, N)
    levers = (p[:, :, None] - p[:, None, :n]).transpose(1, 0, 2, 3)[:, _LEVER_ROWS]
    cross = _axis_cross(_component_major(axes), levers)  # (n+1, 3, n, N)
    jacs = np.empty((N, n + 1, n, 3))
    np.multiply(cross, _jacobian_mask(n), out=jacs.transpose(1, 3, 2, 0))
    return np.swapaxes(jacs, 2, 3)


def _eef_jacobians(points: Array, axes: Array) -> Array:
    """(N, 3, n) end-effector Jacobians: ``_point_jacobians(points, axes)[:, -1]``.

    The same products as the last point's row there, every column nonzero
    so no mask.  They are written into an (N, n, 3) buffer and returned
    transposed, as that row is: einsum over a contiguous (N, 3, n) copy
    sums in another order and changes the rounding of the gradients.
    """
    N, n = axes.shape[:2]
    p = _component_major(points)
    cross = _axis_cross(_component_major(axes), (p[:, -1:] - p[:, :n])[_LEVER_ROWS])
    jac = np.empty((N, n, 3))
    jac.transpose(2, 1, 0)[...] = cross  # (3, n, N)
    return np.swapaxes(jac, 1, 2)


def fk_points_batch(chain: ChainSpec, Q: Array) -> Array:
    """(N, n+1, 3) robot points for every configuration in the batch."""
    return _batch_frames(chain, Q)[0]


def all_point_jacobians_batch(chain: ChainSpec, Q: Array) -> tuple[Array, Array]:
    """Batched FK points and Jacobians: (N, n+1, 3) and (N, n+1, 3, n)."""
    points, axes = _batch_frames(chain, Q)
    return points, _point_jacobians(points, axes)


#: The IK's iteration cap, damping factor and end-effector residual (m) at which it stops.
IK_ITERS = 200
IK_DAMPING = 0.05
IK_TOL = 1e-6


def solve_position_ik(chain: ChainSpec, target: Array, q0: Array) -> Array:
    """Damped least-squares position-only IK, for scenario authoring.

    Deterministic: fixed iteration count and no randomization.  Returns
    the best configuration found, clamped to the joint limits.
    """
    target = check_array(target, "target", (3,))
    q = check_array(q0, "q0", (chain.n_joints,))
    best_q, best_err = q.copy(), np.inf
    frames = Frames(chain)
    for _ in range(IK_ITERS):
        points, axes = frames(q)
        err = target - points[-1]
        err_norm = float(np.linalg.norm(err))
        if err_norm < best_err:
            best_err, best_q = err_norm, q.copy()
        if err_norm < IK_TOL:
            break
        # Contiguous: matmul rounds differently on the transposed view, and
        # these matmuls fix the scenarios' goal configurations.
        J = np.ascontiguousarray(_eef_jacobians(points[None], axes[None])[0])
        JJt = J @ J.T + (IK_DAMPING**2) * np.eye(3)
        q = chain.clamp(q + J.T @ np.linalg.solve(JJt, err))
    return best_q


# ---------------------------------------------------------------------------
# Config and trajectory files
# ---------------------------------------------------------------------------


def chain_from_dict(cfg: dict) -> ChainSpec:
    """The chain of a chain file's mapping: its ``name``, ``dh`` and ``joint_limits``."""
    check_keys(cfg, ("name", "dh", "joint_limits"), "chain", required=True)
    return ChainSpec(dh=cfg["dh"], joint_limits=cfg["joint_limits"], name=cfg["name"])


def load_chain(name: str) -> ChainSpec:
    """The packaged chain ``name`` (``comoto/data/<name>.yaml``)."""
    path = data_file(f"{name}.yaml")
    if not path.is_file():
        raise ContractViolation(f"unknown chain config: {name!r}")
    return load_yaml(path, chain_from_dict)


def default_chain() -> ChainSpec:
    """The packaged 7-DOF arm used by the benchmark scenarios."""
    return load_chain("iiwa7")


def save_trajectory(traj: JointTrajectory, path: str | Path) -> None:
    """Write a trajectory as CSV: a comment line ``# dt=<dt> t0=<t0>``, the
    header ``time,q0..q{n-1}`` and one row per waypoint.

    ``load_trajectory`` takes dt and t0 from the comment line, so they come
    back bit for bit; the time column is for readers of the file.
    """
    header = "time," + ",".join(f"q{i}" for i in range(traj.n_joints))
    lines = [f"# dt={float(traj.dt)!r} t0={float(traj.t0)!r}", header]
    for t, row in zip(traj.times, traj.waypoints):
        lines.append(",".join(repr(float(v)) for v in (t, *row)))
    Path(path).write_text("\n".join(lines) + "\n")


def load_trajectory(path: str | Path) -> JointTrajectory:
    """Read a ``save_trajectory`` file, comment line included; its errors start with ``<path>: ``."""
    return load_csv(path, _trajectory_from_rows)


def _trajectory_from_rows(comments: list[str], rows: Array) -> JointTrajectory:
    timing = dict(item.split("=", 1) for item in comments[0].split() if "=" in item) if comments else {}
    try:
        dt, t0 = float(timing["dt"]), float(timing["t0"])
    except (KeyError, ValueError):
        raise ContractViolation("first line must read '# dt=<s> t0=<s>'") from None
    if rows.shape[0] < 3:
        raise ContractViolation(f"fewer than 3 waypoints, got {rows.shape[0]}")
    times, waypoints = rows[:, 0], rows[:, 1:]
    if not (np.isclose(times[0], t0, atol=1e-9) and np.allclose(np.diff(times), dt, atol=1e-9)):
        raise ContractViolation("times are not uniform from t0 by dt")
    return JointTrajectory(waypoints, dt=dt, t0=t0)
