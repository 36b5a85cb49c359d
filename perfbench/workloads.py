"""The three workloads: what one round runs, and the outputs it leaves to check.

Each workload runs a fixed pool of scenarios, so every run attempts the
same operations and per-scenario times compare like with like; the
seed sets the order in which the pool is visited and the coordinates
the gradient check samples.  Why a fixed pool: CoMOTO solve times on
``reaching_near`` range from about 0.34 s to 3.1 s between scenario
seeds, so the mean over a pool drawn afresh from each run's seed would
move by more than the bounds this benchmark sets.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field

import numpy as np

from comoto import benchmark as bm
from comoto import scenarios as scn


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # the method whose run_method time is plan_s_mean
    pool: tuple  # (family, seed) pairs, visited in a seeded order
    overrides: dict = field(default_factory=dict)  # config overrides, as in a --config file
    fd_coords: int = 0  # finite-difference coordinates sampled per solve
    orderings: bool = False  # check the paper's method orderings


WORKLOADS = {
    w.name: w
    for w in (
        # run_benchmark on the packaged defaults, reports written: the paper's table.
        Workload(
            "paper-grid",
            "CoMOTO",
            tuple((f, s) for f in scn.FAMILIES for s in range(1, 6)),
            fd_coords=2,
            orderings=True,
        ),
        # Replanning next to a reaching human: all five terms weighted, gradient path hot.
        Workload(
            "near-replan", "CoMOTO", tuple(("reaching_near", s) for s in range(1, 11)), fd_coords=8
        ),
        # Speed-Adj at a 1 kHz control rate: one single-configuration FK per tick.
        Workload(
            "reactive-1khz",
            "Speed-Adj",
            tuple((f, s) for f in scn.FAMILIES for s in range(1, 9)),
            overrides={"speed_adjust": {"control_rate": 1000.0}},
            fd_coords=2,
        ),
    )
}


@dataclass
class RoundOutputs:
    """What one round produced, keyed for the checks."""

    rows: list
    plans: dict  # (family, seed, method) -> (planned, bundle, row)
    solves: list  # (args, kwargs, OptResult) per optimize call
    orderings: bool
    results_sha256: str | None = None

    def fingerprint(self) -> str:
        """Hash of every deterministic output (rows, plans, solves), in any visiting order."""
        items = [repr([r[c] for c in bm.RESULT_COLUMNS]).encode() for r in self.rows]
        for planned, _, _ in self.plans.values():
            arr = planned.configs if hasattr(planned, "timestamps") else planned.waypoints
            items.append(np.ascontiguousarray(arr).tobytes())
        for _, _, res in self.solves:
            counts = repr((res.iterations, res.converged)).encode()
            items.append(np.ascontiguousarray(res.trajectory.waypoints).tobytes() + counts)
        h = hashlib.sha256()
        for digest in sorted(hashlib.sha256(item).digest() for item in items):
            h.update(digest)
        return h.hexdigest()


def config_for(wl: Workload):
    return bm.config_from_dict(wl.overrides)


def visiting_order(wl: Workload, seed: int) -> list:
    rng = np.random.default_rng([seed, 0])
    return [wl.pool[i] for i in rng.permutation(len(wl.pool))]


def _row(family, seed, method, report=None, converged=False):
    row = {"scenario_family": family, "seed": seed, "method": method}
    if report is None:
        nan = float("nan")
        row.update(dst_pct=nan, vis_pct=nan, legibility=nan, nom_dev=nan)
        row.update(completed=False, converged=False, failed=True)
    else:
        row.update(
            dst_pct=report.dst_pct, vis_pct=report.vis_pct, legibility=report.legibility,
            nom_dev=report.nom_dev, completed=report.completed, converged=converged, failed=False,
        )
    return row


def run_round(wl: Workload, cfg, chain, order, out_dir) -> tuple[list, str | None]:
    """One round through the program's public functions; returns (rows, results.csv hash)."""
    if wl.name == "paper-grid":
        # As `comoto run` does it; seeds reordered, which the row sort undoes.
        seeds = tuple(dict.fromkeys(s for _, s in order))
        rows = bm.run_benchmark(dataclasses.replace(cfg, seeds=seeds))
        paths = bm.write_benchmark_outputs(rows, out_dir)
        return rows, hashlib.sha256(paths["results"].read_bytes()).hexdigest()
    rows = []
    for family, seed in order:
        sc = scn.make_scenario(family, seed, chain)
        bundle = bm.prepare_scenario(sc, cfg)
        try:
            planned, converged = bm.run_method(wl.method, bundle, cfg)
            report = bm.evaluate_run(
                sc.chain, planned, bundle.truth, bundle.nominal, bundle.goals,
                gaze_target=sc.human_object, threshold=cfg.separation_threshold, fov_deg=cfg.fov_deg,
            )
        except Exception:  # counted as a failed operation; the tracer kept the reason
            rows.append(_row(family, seed, wl.method))
            continue
        rows.append(_row(family, seed, wl.method, report, converged))
    return rows, None


def collect(wl: Workload, rows, captured, results_sha256=None) -> RoundOutputs:
    """Pair the captured run_method outputs with their rows."""
    by_key = {(r["scenario_family"], r["seed"], r["method"]): r for r in rows}
    plans = {}
    for args, _, result in captured.get("benchmark.run_method", []):
        method, bundle = args[0], args[1]
        key = (bundle.scenario.family, bundle.scenario.seed, method)
        if not by_key[key]["failed"]:
            plans[key] = (result[0], bundle, by_key[key])
    solves = list(captured.get("optimizer.solve", []))
    return RoundOutputs(rows, plans, solves, wl.orderings, results_sha256)
