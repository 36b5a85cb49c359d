"""Acceptance gate: end-to-end checks of the packaged defaults.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with ``pytest -s``). The benchmark-scale fixtures are module scoped
so the full suite stays within a modest wall-clock budget.
"""

import csv
import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from comoto.benchmark import (
    METHODS,
    RESULT_COLUMNS,
    _format_cell,
    _rows_to_csv,
    aggregate_rows,
    iter_runs,
    load_config,
    run_benchmark,
    sort_rows,
)
from comoto.costs import EPS_M, CostContext, CostWeights, ObjectivePass, WeightedObjective, _legibility_term
from comoto.human_motion import HumanTrajectory
from comoto.kinematics import JointTrajectory, fk_points_batch
from comoto.metrics import METRIC_NAMES, GoalSet, MetricReport, aggregate, evaluate_run
from comoto.optimizer import OptimizerOptions, optimize

from conftest import CFG, load_heldout_report, planar_chain
from test_costs import (
    COMBINED_WEIGHTS,
    SINGLE_TERM_WEIGHTS,
    build_problem,
    fd_gradient,
    rel_error,
)


def check(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def grid_pass():
    """One pass over the paper grid: rows in run_benchmark's order, its time, each plan."""
    cfg = load_config()
    rows, captured = [], {}
    start = time.perf_counter()
    for bundle, planned, row in iter_runs(cfg):
        sc = bundle.scenario
        rows.append(row)
        captured.setdefault((sc.family, sc.seed), (sc, bundle, {}))[2][row["method"]] = planned
    elapsed = time.perf_counter() - start
    return cfg, sort_rows(rows, cfg), elapsed, captured


@pytest.fixture(scope="module")
def benchmark_run(grid_pass):
    cfg, rows, elapsed, _ = grid_pass
    return cfg, rows, elapsed


@pytest.fixture(scope="module")
def planned_capture(grid_pass):
    return grid_pass[3]


def test_criterion_1_gradient_correctness(arm):
    rng = np.random.default_rng(0)
    weight_sets = list(SINGLE_TERM_WEIGHTS.values()) + [COMBINED_WEIGHTS]
    worst = 0.0
    start = time.perf_counter()
    for seed in range(100):
        n_waypoints = int(rng.integers(3, 21))
        traj, ctx = build_problem(arm, seed=seed, n_waypoints=n_waypoints)
        for weights in weight_sets:
            problem = WeightedObjective(ctx, weights, traj.dt, n_waypoints)
            grad = ObjectivePass(traj.waypoints, problem).gradient()
            numeric = fd_gradient(traj.waypoints, problem)
            worst = max(worst, rel_error(grad, numeric))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed <= 30.0
    check(1, ok, f"100 problems x 6 objectives: max rel err {worst:.3e}, {elapsed:.1f}s")


def goal_probability(prefix: float, remaining: float, full: float) -> float:
    """Criterion 2's hand formula: exp(-(prefix + remaining)) / exp(-full), the
    probability of the goal after a path of length ``prefix`` whose end lies
    ``remaining`` from the goal, ``full`` the start's straight-line distance."""
    return float(np.exp(full - prefix - remaining))


def kernel_goal_probability(via):
    """The goal probability the legibility kernel computes at the middle of
    the end-effector path origin -> ``via`` -> (1, 0, 0): one-hot time
    weights on that step, their sum 1."""
    eef = np.array([[0.0, 0.0, 0.0], via, [1.0, 0.0, 0.0]])
    value, _ = _legibility_term(eef, eef[-1], np.array([0.0, 1.0, 0.0]), 1.0, 1.0)
    return -value


def test_criterion_2_goal_probability_values():
    p_straight = goal_probability(0.4, 0.6, 1.0)
    p_detour = goal_probability(math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0, 1.0)
    expected = math.exp(1.0 - math.sqrt(2.0))
    err_straight = abs(p_straight - 1.0)
    err_detour = abs(p_detour - expected)
    # The optimizer's kernel on the same two paths: 0.4 then 0.6 along the
    # straight line, and sqrt(2)/2 twice through the corner (0.5, 0.5, 0).
    kernel_straight = abs(kernel_goal_probability([0.4, 0.0, 0.0]) - p_straight)
    kernel_detour = abs(kernel_goal_probability([0.5, 0.5, 0.0]) - p_detour)
    ok = err_straight <= 1e-12 and err_detour <= 1e-6 and kernel_straight <= 1e-12 and kernel_detour <= 1e-6
    check(
        2,
        ok,
        f"straight err {err_straight:.2e}, detour err {err_detour:.2e}; "
        f"kernel off by {kernel_straight:.2e} and {kernel_detour:.2e}",
    )


def test_criterion_3_smoothness_recovers_linear(arm):
    n = 10
    start_q = np.array([0.1, -0.4, 0.3, -1.1, 0.2, 0.6, -0.3])
    goal_q = np.array([0.8, 0.2, -0.5, -1.8, 0.9, 1.4, 0.4])
    line = np.linspace(start_q, goal_q, n)
    rng = np.random.default_rng(7)
    init = line.copy()
    init[1:-1] += 0.3 * rng.standard_normal(init[1:-1].shape)
    traj = JointTrajectory(init, dt=0.2)
    ctx = CostContext(arm, goal_q)
    weights = CostWeights(alpha_smooth=1.0)
    # The second-difference quadratic is ill conditioned: give descent room.
    options = OptimizerOptions(max_iters=30000, grad_tol=1e-10, step_init=0.05)
    result = optimize(ctx, weights, traj, options)
    err = float(np.max(np.abs(result.trajectory.waypoints[1:-1] - line[1:-1])))
    ok = err <= 1e-6 and result.converged
    check(3, ok, f"interior error {err:.2e}, converged {result.converged}")


def test_criterion_4_endpoint_bit_identity(planned_capture):
    n_checked = 0
    ok = True
    for (family, seed), (sc, bundle, outputs) in planned_capture.items():
        for method, planned in outputs.items():
            if planned is None:  # the method's row failed
                end_ok = False
            elif method == "Speed-Adj":
                configs = planned.configs
                end_ok = np.array_equal(configs[0], sc.robot_start)
                if planned.completed:
                    end_ok = end_ok and np.array_equal(configs[-1], sc.robot_goal)
            else:
                way = planned.waypoints
                end_ok = np.array_equal(way[0], sc.robot_start) and np.array_equal(
                    way[-1], sc.robot_goal
                )
            ok = ok and end_ok
            n_checked += 1
    check(4, ok, f"{n_checked} planned outputs endpoint-exact (zero tolerance)")


def test_criterion_5_benchmark_orderings(benchmark_run):
    cfg, rows, _ = benchmark_run
    families = list(cfg.families)
    ok = len(rows) == len(families) * len(cfg.seeds) * len(METHODS)
    ok = ok and not any(r["failed"] for r in rows)
    ok = ok and all(r["converged"] for r in rows if r["method"] == "CoMOTO")
    agg = aggregate_rows(rows)

    def mean(family, method, metric):
        return agg[family][method][metric][0]

    # The held-out report states the clauses; every one must be there, the
    # reaching_near < reaching_far clause for each method included.
    report = load_heldout_report()
    clauses = list(report.mean_clauses(mean, families).values())
    ok = ok and len(clauses) == len(families) * len(report.CLAUSES) + len(METHODS)
    ok = ok and all(clauses)
    check(5, ok, f"{sum(clauses)}/{len(clauses)} ordering clauses hold across {len(rows)} rows")


def test_criterion_6_speed_adjust_completion(benchmark_run, planned_capture):
    cfg, _, _ = benchmark_run
    n_blocked = 0
    n_full_speed = 0
    ok = True
    for (family, seed), (sc, bundle, outputs) in planned_capture.items():
        trace = outputs["Speed-Adj"]
        palm_final = bundle.truth.samples["right_palm"][-1]
        gap = float(np.linalg.norm(sc.goal_point - palm_final))
        if family == "reaching_near" and gap <= cfg.speed_adjust.d_stop:
            ok = ok and not trace.completed
            n_blocked += 1
        if float(np.min(trace.min_separation)) >= cfg.speed_adjust.d_slow:
            ok = ok and trace.completed and bool(np.all(trace.speed_scale == 1.0))
            n_full_speed += 1
    ok = ok and n_blocked >= 1 and n_full_speed >= 1
    check(6, ok, f"{n_blocked} blocked near runs incomplete, {n_full_speed} clear runs at s=1")


def test_criterion_7_covariance_monotonicity(planned_capture):
    ok = True
    moves = []
    for seed in (1, 2, 3, 4, 5):
        sc, bundle, _ = planned_capture[("reaching_far", seed)]
        traj = bundle.nominal
        ctx = bundle.ctx
        doubled = dataclasses.replace(
            ctx, prediction=dataclasses.replace(ctx.prediction, cov_tracks=2.0 * ctx.prediction.cov_tracks)
        )
        # preconditions: far from the proximity clamp, and no head spread below sigma0,
        # the tube's smallest SD (step 0's spread is sigma0 itself)
        points = fk_points_batch(sc.chain, traj.waypoints)
        m_min = np.inf
        for mean, cov in zip(ctx.prediction.mean_tracks, ctx.prediction.cov_tracks):
            for t in range(traj.n_waypoints):
                inv = np.linalg.inv(cov[t])
                d = mean[t] - points[t]
                m_min = min(m_min, float(np.min(np.einsum("pa,ab,pb->p", d, inv, d))))
        head_cov = ctx.prediction.cov_tracks[ctx.prediction.joints.index("head")]
        spread_min = float(np.min(np.sqrt(np.trace(head_cov, axis1=1, axis2=2) / 3.0)))
        ok = ok and m_min > 100.0 * EPS_M and spread_min >= CFG.prediction.sigma0
        problems = [WeightedObjective(c, CFG.comoto_weights, traj.dt, traj.n_waypoints) for c in (ctx, doubled)]
        before, after = (ObjectivePass(traj.waypoints, problem).per_cost for problem in problems)
        d0, d1 = before["distance"], after["distance"]
        v0, v1 = before["visibility"], after["visibility"]
        ok = ok and d1 > d0 and v1 < v0
        moves.append((d1 - d0, v1 - v0))
    worst_d = min(m[0] for m in moves)
    worst_v = max(m[1] for m in moves)
    check(7, ok, f"5 scenes: distance delta >= {worst_d:.3e}, visibility delta <= {worst_v:.3e}")


def test_criterion_8_deterministic_benchmark(benchmark_run):
    cfg, rows_first, elapsed_first = benchmark_run
    start = time.perf_counter()
    rows_second = run_benchmark(cfg)
    elapsed_second = time.perf_counter() - start
    csv_first = _rows_to_csv(rows_first, RESULT_COLUMNS)
    csv_second = _rows_to_csv(rows_second, RESULT_COLUMNS)
    ok = (
        csv_first.encode() == csv_second.encode()
        and elapsed_first < 300.0
        and elapsed_second < 300.0
    )
    check(8, ok, f"byte-identical CSV, runs {elapsed_first:.1f}s / {elapsed_second:.1f}s")


#: The ``results.csv`` of a default ``comoto run``: 75 rows, floats at full
#: ``repr`` precision.  A change that moves the table on purpose rewrites it.
GRID_REFERENCE = Path(__file__).with_name("grid_reference.csv")

#: Bound on each metric's distance from the reference table.  Forcing NumPy off
#: its AVX-512 kernels or OpenBLAS onto its Haswell or Sandybridge kernels moved
#: no metric by more than 8.3e-14 on one machine, so 1e-9 leaves room for other
#: x86 CPUs and BLAS builds; a percentage that counts one more or one fewer
#: step moves by 100 / steps, at least 0.1 on this grid, and is still caught.
GRID_ATOL = 1e-9


def test_grid_rows_match_reference_table(benchmark_run):
    _, rows, _ = benchmark_run
    with GRID_REFERENCE.open(newline="") as f:
        reader = csv.DictReader(f)
        assert tuple(reader.fieldnames) == RESULT_COLUMNS
        reference = list(reader)
    assert len(rows) == len(reference)
    for row, want in zip(rows, reference):
        where = (row["scenario_family"], row["seed"], row["method"])
        for column in RESULT_COLUMNS:
            if column in METRIC_NAMES:
                got, ref = row[column], float(want[column])
                assert abs(got - ref) <= GRID_ATOL, (where, column, got, ref)
            else:
                assert _format_cell(row[column]) == want[column], (where, column)


def test_criterion_9_metric_reference_values():
    chain = planar_chain((1.0, 1.0))
    q_near = [0.0, 0.0]  # eef (2,0,0)
    q_far = [np.pi, 0.0]  # eef (-2,0,0)
    # path along the perpendicular bisector of the two goals: chance level
    goals = GoalSet(true_goal=np.array([1.0, 1.0, 0.0]), distractors=(np.array([1.0, -1.0, 0.0]),))

    def metrics(planned, head, target=(0.0, 1.0, 0.0)):
        human = HumanTrajectory(("head",), np.tile(head, (600, 1, 1)), 100.0)
        return evaluate_run(
            chain, planned, human, planned, goals, gaze_target=np.asarray(target),
            threshold=CFG.separation_threshold, fov_deg=CFG.fov_deg,
        )

    # the head is 0.15 m from the near pose's eef, at least 2.15 m from the far pose
    sep_all = metrics(JointTrajectory(np.tile(q_far, (4, 1)), 0.1), [2.15, 0.0, 0.0]).dst_pct
    sep_none = metrics(JointTrajectory(np.tile(q_near, (4, 1)), 0.1), [2.15, 0.0, 0.0]).dst_pct
    half = JointTrajectory(np.array([q_near, q_near, q_far, q_far]), 0.1)
    sep_half = metrics(half, [2.15, 0.0, 0.0]).dst_pct

    near4 = JointTrajectory(np.tile(q_near, (4, 1)), 0.1)

    def target_at(deg):
        rad = math.radians(deg)
        return np.array([math.cos(rad), math.sin(rad), 0.0])

    # the eef is at 0 degrees from the head: inside the field of view 10 degrees
    # within its half-aperture, outside it 10 degrees beyond
    half_fov = CFG.fov_deg / 2.0
    vis_in = metrics(near4, [0.0, 0.0, 0.0], target_at(half_fov - 10.0)).vis_pct
    vis_out = metrics(near4, [0.0, 0.0, 0.0], target_at(half_fov + 10.0)).vis_pct

    bisector = JointTrajectory(np.tile(q_near, (5, 1)), 0.1)
    leg_sym = metrics(bisector, [0.0, 3.0, 0.0]).legibility

    stats = aggregate(
        [
            MetricReport(dst_pct=80.0, vis_pct=0.0, legibility=0.0, nom_dev=0.0),
            MetricReport(dst_pct=90.0, vis_pct=0.0, legibility=0.0, nom_dev=0.0),
        ]
    )
    mean_sd = stats["dst_pct"]
    ok = (
        0.15 < CFG.separation_threshold < 2.15
        and sep_all == 100.0
        and sep_none == 0.0
        and sep_half == 50.0
        and vis_in == 100.0
        and vis_out == 0.0
        and abs(leg_sym) <= 1e-12
        and mean_sd[0] == 85.0
        and abs(mean_sd[1] - 7.0710678) <= 1e-3
    )
    check(
        9,
        ok,
        f"sep {sep_all}/{sep_none}/{sep_half}, fov {vis_in}/{vis_out}, "
        f"legibility {leg_sym:.2e}, sd {mean_sd[1]:.6f}",
    )
