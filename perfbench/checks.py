"""Output checks made apart from the program, and a self-test for each.

The forward kinematics, the human-track interpolation and the two
ground-truth metrics (``dst_pct``, ``vis_pct``) are recomputed here from
the DH table and the recorded tracks; the other checks test properties
the method must have (fixed endpoints, joint limits, descent, the
speed-adjusted executor staying on its path).  Every check returns a
list of problems; an empty list passes.
"""

from __future__ import annotations

import copy

import numpy as np

from comoto import costs as cost_mod
from comoto import kinematics as kin
from comoto.baselines import ExecutionTrace
from comoto.optimizer import OptimizerOptions

FK_TOL = 1e-9
POLYLINE_TOL = 1e-9
GRAD_REL_TOL = 1e-4
FD_STEP = 1e-6
BORDER_M = 1e-9  # separation this close to the threshold may flip either way
BORDER_DEG = 1e-6  # likewise for the gaze angle against half the field of view


# ---------------------------------------------------------------------------
# Reference kinematics and metrics
# ---------------------------------------------------------------------------


def _rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros(theta.shape + (4, 4))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = c, -s, s, c
    out[..., 2, 2] = out[..., 3, 3] = 1.0
    return out


def _rot_x(alpha):
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1.0]])


def _trans(x, z):
    out = np.eye(4)
    out[0, 3], out[2, 3] = x, z
    return out


def reference_points(chain, configs) -> np.ndarray:
    """(T, n+1, 3) frame origins: base @ prod_i Rz(q_i + off_i) Tz(d_i) Tx(a_i) Rx(alpha_i)."""
    Q = np.asarray(configs, dtype=float)
    T = np.repeat(np.asarray(chain.base_pose, dtype=float)[None], Q.shape[0], axis=0)
    points = [T[:, :3, 3]]
    for i, (a, alpha, d, off) in enumerate(np.asarray(chain.dh, dtype=float)):
        T = T @ _rot_z(Q[:, i] + off) @ (_trans(a, d) @ _rot_x(alpha))
        points.append(T[:, :3, 3])
    return np.stack(points, axis=1)


def times_and_configs(planned):
    """Evaluation steps of a plan (its waypoint grid) or a trace (its ticks)."""
    if hasattr(planned, "timestamps"):
        return np.asarray(planned.timestamps), np.asarray(planned.configs)
    wp = np.asarray(planned.waypoints)
    return planned.t0 + planned.dt * np.arange(wp.shape[0]), wp


def human_tracks_at(truth, times) -> dict:
    """Ground-truth joints linearly interpolated at ``times``, held past either end."""
    grid = np.arange(truth.n_samples) / truth.rate
    return {
        name: np.stack([np.interp(times, grid, track[:, k]) for k in range(3)], axis=1)
        for name, track in truth.samples.items()
    }


def reference_dst_vis(chain, planned, truth, target, threshold, fov_deg):
    """(dst_pct, vis_pct, tolerance_pct): tolerance counts the borderline steps."""
    times, configs = times_and_configs(planned)
    robot = reference_points(chain, configs)
    human = human_tracks_at(truth, times)
    joints = np.stack(list(human.values()), axis=1)  # (T, J, 3)
    gaps = np.linalg.norm(robot[:, None, :, :] - joints[:, :, None, :], axis=3)
    min_gap = gaps.min(axis=(1, 2))
    steps = times.shape[0]
    border = np.count_nonzero(np.abs(min_gap - threshold) <= BORDER_M)
    dst = 100.0 * np.count_nonzero(min_gap > threshold) / steps

    head = human["head"]
    gaze = np.asarray(target, dtype=float)[None, :] - head
    to_eef = robot[:, -1] - head
    norms = np.linalg.norm(gaze, axis=1) * np.linalg.norm(to_eef, axis=1)
    ok = (np.linalg.norm(gaze, axis=1) > 1e-9) & (np.linalg.norm(to_eef, axis=1) > 1e-9)
    cosang = np.sum(gaze * to_eef, axis=1) / np.maximum(norms, 1e-300)
    angle = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    vis = 100.0 * np.count_nonzero(ok & (angle <= fov_deg / 2.0)) / steps
    border += np.count_nonzero(np.abs(angle - fov_deg / 2.0) <= BORDER_DEG)
    return dst, vis, 100.0 * border / steps


# ---------------------------------------------------------------------------
# Checks on one output
# ---------------------------------------------------------------------------


def check_fk(chain, planned) -> list[str]:
    _, configs = times_and_configs(planned)
    err = float(np.max(np.abs(kin.fk_points_batch(chain, configs) - reference_points(chain, configs))))
    return [] if err <= FK_TOL else [f"fk_points_batch differs from the reference FK by {err:.2e}"]


def check_endpoints(planned, start, goal) -> list[str]:
    problems = []
    _, configs = times_and_configs(planned)
    if not np.array_equal(configs[0], start):
        problems.append("start configuration is not bit-identical")
    if not hasattr(planned, "timestamps") and not np.array_equal(configs[-1], goal):
        problems.append("goal configuration is not bit-identical")
    return problems


def check_limits(chain, planned) -> list[str]:
    _, configs = times_and_configs(planned)
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    bad = int(np.count_nonzero((configs < lo) | (configs > hi)))
    return [] if bad == 0 else [f"{bad} joint values outside the limits"]


def check_metrics(chain, planned, truth, target, row, threshold, fov_deg) -> list[str]:
    dst, vis, tol = reference_dst_vis(chain, planned, truth, target, threshold, fov_deg)
    problems = []
    for name, ref in (("dst_pct", dst), ("vis_pct", vis)):
        if abs(row[name] - ref) > tol + 1e-9:
            problems.append(f"{name} {row[name]!r} against reference {ref!r} (tolerance {tol:.3g})")
    return problems


def check_trace(trace, nominal, goal) -> list[str]:
    """On the nominal polyline, speed scale in [0, 1], completed iff at the goal."""
    problems = []
    C, W = np.asarray(trace.configs), np.asarray(nominal.waypoints)
    A, D = W[:-1], W[1:] - W[:-1]  # segment starts and directions
    rel = C[:, None, :] - A[None, :, :]
    f = np.clip(np.sum(rel * D[None], axis=2) / np.maximum(np.sum(D * D, axis=1), 1e-300), 0.0, 1.0)
    off = np.linalg.norm(rel - f[:, :, None] * D[None], axis=2).min(axis=1)
    if off.max() > POLYLINE_TOL:
        count = np.count_nonzero(off > POLYLINE_TOL)
        problems.append(f"{count} configurations off the nominal polyline (max {off.max():.2e})")
    speed = np.asarray(trace.speed_scale)
    if np.any(speed < 0.0) or np.any(speed > 1.0):
        problems.append("speed scale outside [0, 1]")
    if bool(trace.completed) != bool(np.array_equal(C[-1], goal)):
        where = "does not end" if trace.completed else "ends"
        problems.append(f"completed={trace.completed} but the trace {where} at the goal")
    return problems


# ---------------------------------------------------------------------------
# Checks on one solve
# ---------------------------------------------------------------------------


def _solve_inputs(args, kwargs):
    ctx, w, init = args[:3]
    opts = args[3] if len(args) > 3 else kwargs.get("opts", OptimizerOptions())
    extra = args[4] if len(args) > 4 else kwargs.get("extra_cost")
    return ctx, w, init, opts, extra


def objective_at(args, kwargs, q, with_grad=False):
    ctx, w, init, _, extra = _solve_inputs(args, kwargs)
    return cost_mod.evaluate_objective(q, init.dt, ctx, w, with_grad, extra)


def check_solve(args, kwargs, result) -> list[str]:
    """Descent from the initial trajectory; converged means the gradient test holds."""
    _, _, init, opts, _ = _solve_inputs(args, kwargs)
    q = result.trajectory.waypoints
    before = objective_at(args, kwargs, init.waypoints)[0]
    after, grad, _, _ = objective_at(args, kwargs, q, with_grad=True)
    problems = []
    if not after <= before:
        problems.append(f"objective rose from {before!r} to {after!r}")
    gmax = float(np.max(np.abs(grad[1:-1])))
    if result.converged and not gmax < opts.grad_tol:
        problems.append(f"reported converged with max|g| {gmax:.3g} >= grad_tol {opts.grad_tol}")
    return problems


def check_gradient(args, kwargs, q, grad, coords) -> list[str]:
    """Central differences on sampled interior coordinates against ``grad``."""
    scale = max(float(np.max(np.abs(grad[1:-1]))), 1e-8)
    worst = 0.0
    for t, j in coords:
        vals = []
        for sign in (1.0, -1.0):
            qp = q.copy()
            qp[t, j] += sign * FD_STEP
            vals.append(objective_at(args, kwargs, qp)[0])
        numeric = (vals[0] - vals[1]) / (2.0 * FD_STEP)
        worst = max(worst, abs(grad[t, j] - numeric) / scale)
    return [] if worst <= GRAD_REL_TOL else [f"gradient off finite differences by rel {worst:.2e}"]


def sample_coords(rng, q, count):
    N, n = q.shape
    return [(int(rng.integers(1, N - 1)), int(rng.integers(0, n))) for _ in range(count)]


# ---------------------------------------------------------------------------
# Paper orderings (acceptance criterion 5)
# ---------------------------------------------------------------------------


def check_orderings(rows) -> list[str]:
    groups: dict = {}
    for r in rows:
        groups.setdefault((r["scenario_family"], r["method"]), []).append(r)

    def mean(family, method, metric):
        vals = [r[metric] for r in groups[(family, method)]]
        return sum(vals) / len(vals)

    clauses = []
    for fam in sorted({f for f, _ in groups}):
        dst0, leg0 = mean(fam, "Nominal", "dst_pct"), mean(fam, "Nominal", "legibility")
        nom_sa = mean(fam, "Speed-Adj", "nom_dev")
        clauses.append((f"{fam}: CoMOTO dst >= Nominal", mean(fam, "CoMOTO", "dst_pct") >= dst0))
        clauses.append((f"{fam}: CoMOTO leg > Nominal", mean(fam, "CoMOTO", "legibility") > leg0))
        clauses.append((f"{fam}: Legible leg > Nominal", mean(fam, "Legible", "legibility") > leg0))
        for m in ("Legible", "Dist+Vis", "CoMOTO"):
            clauses.append((f"{fam}: Speed-Adj nom <= {m}", nom_sa <= mean(fam, m, "nom_dev")))
    for m in sorted({m for _, m in groups}):
        near, far = mean("reaching_near", m, "dst_pct"), mean("reaching_far", m, "dst_pct")
        clauses.append((f"{m}: near dst < far dst", near < far))
    return [f"ordering fails: {name}" for name, ok in clauses if not ok]


# ---------------------------------------------------------------------------
# Running the checks over one round's outputs
# ---------------------------------------------------------------------------


def check_round(outputs, cfg, rng, fd_coords) -> tuple[list[str], dict]:
    """All checks over one round; returns (problems, counts of what was checked)."""
    problems, counted = [], {"outputs": 0, "solves": 0, "fd_coords": 0}
    for key, (planned, bundle, row) in outputs.plans.items():
        sc = bundle.scenario
        where = "/".join(str(k) for k in key)
        found = check_fk(sc.chain, planned) + check_endpoints(planned, sc.robot_start, sc.robot_goal)
        found += check_limits(sc.chain, planned)
        found += check_metrics(
            sc.chain, planned, bundle.truth, sc.human_object, row, cfg.separation_threshold, cfg.fov_deg
        )
        if hasattr(planned, "timestamps"):
            found += check_trace(planned, bundle.nominal, sc.robot_goal)
        problems += [f"{where}: {p}" for p in found]
        counted["outputs"] += 1
    for i, (args, kwargs, result) in enumerate(outputs.solves):
        found = check_solve(args, kwargs, result)
        q = result.trajectory.waypoints
        if fd_coords:
            _, grad, _, _ = objective_at(args, kwargs, q, with_grad=True)
            found += check_gradient(args, kwargs, q, grad, sample_coords(rng, q, fd_coords))
            counted["fd_coords"] += fd_coords
        problems += [f"solve {i}: {p}" for p in found]
        counted["solves"] += 1
    if outputs.orderings:
        problems += check_orderings(outputs.rows)
    return problems, counted


def self_test(outputs, cfg, rng) -> list[str]:
    """Corrupt one output per kind and confirm the matching check rejects it.

    Returns the corruptions that were NOT rejected (an empty list passes).
    """
    missed = []
    key, (planned, bundle, row) = next(iter(outputs.plans.items()))
    sc = bundle.scenario

    moved = copy.deepcopy(planned)
    _, configs = times_and_configs(moved)
    configs[0, 0] += 1e-9
    if not check_endpoints(moved, sc.robot_start, sc.robot_goal):
        missed.append("moved endpoint")

    # A trace that follows the nominal exactly, then one waypoint pushed off it.
    nominal = bundle.nominal
    times, way = times_and_configs(nominal)
    trace = ExecutionTrace(times, way.copy(), True, speed_scale=np.ones(len(times)))
    if check_trace(trace, nominal, sc.robot_goal):
        missed.append("clean synthetic trace was rejected")
    k = len(times) // 2
    seg = way[k + 1] - way[k - 1]
    push = rng.standard_normal(way.shape[1])
    push -= push @ seg / (seg @ seg) * seg
    trace.configs[k] += 1e-6 * push / np.linalg.norm(push)
    if not check_trace(trace, nominal, sc.robot_goal):
        missed.append("waypoint pushed off the nominal polyline")

    steps = len(times_and_configs(planned)[0])
    step = 100.0 / steps if row["dst_pct"] < 100.0 else -100.0 / steps
    shifted = dict(row, dst_pct=row["dst_pct"] + step)
    if not check_metrics(
        sc.chain, planned, bundle.truth, sc.human_object, shifted, cfg.separation_threshold, cfg.fov_deg
    ):
        missed.append("dst_pct off by one step")

    if outputs.solves:
        args, kwargs, result = outputs.solves[-1]
        q = result.trajectory.waypoints
        _, grad, _, _ = objective_at(args, kwargs, q, with_grad=True)
        coords = sample_coords(rng, q, 1)
        bad = grad.copy()
        t, j = coords[0]
        bad[t, j] += 1e-3 * max(float(np.max(np.abs(grad[1:-1]))), 1.0)
        if not check_gradient(args, kwargs, q, bad, coords):
            missed.append("gradient coordinate off by 1e-3 of its scale")
    return missed
