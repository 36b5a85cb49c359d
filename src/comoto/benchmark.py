"""Benchmark runner: all five methods over the scenario families.

One nominal trajectory is generated per scenario and shared by every
method (as the plan, the execution path, the optimization init, and
the deviation anchor).  Results are emitted as per-run CSV rows plus an
aggregated markdown table (mean over seeds with sample SD, best value
per family and metric in bold).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .baselines import (
    SpeedAdjustParams,
    distvis_optimize,
    legible_optimize,
    nominal_trajectory,
    speed_adjusted_execute,
)
from .costs import CostContext, CostWeights
from .errors import ContractViolation, check_real
from .fileio import _named, check_keys, data_file, load_yaml, read_yaml
from .human_motion import (
    OBSERVATION_WINDOW, HumanTrajectory, PredictorOptions, extrapolate_skeleton, generate_reach, predict,
)
from .kinematics import JointTrajectory
from .metrics import METRIC_NAMES, GoalSet, MetricReport, aggregate, check_fov_deg, evaluate_run
from .optimizer import OptimizerOptions, OptResult, optimize
from .scenarios import DT, FAMILIES, HUMAN_RATE, N_WAYPOINTS, Scenario, generate_scenarios

Array = np.ndarray

METHODS = ("Nominal", "Speed-Adj", "Legible", "Dist+Vis", "CoMOTO")

#: Which scenario and method a row reports; its other columns are one
#: ``MetricReport``'s fields, then the run's status or timing.
_ROW_KEY = ("scenario_family", "seed", "method")
_REPORT_FIELDS = tuple(f.name for f in fields(MetricReport))

#: Deterministic output: everything except wall time.
RESULT_COLUMNS = (*_ROW_KEY, *_REPORT_FIELDS, "converged", "failed")

#: Per-run record including timing and, on a failed row, the exception as
#: ``"TypeName: message"`` (empty otherwise).
RUNS_COLUMNS = (*_ROW_KEY, *_REPORT_FIELDS, "wall_time", "error")

#: What a run that raised reports.
_FAILED_REPORT = MetricReport(**dict.fromkeys(METRIC_NAMES, float("nan")), completed=False)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved benchmark configuration; build it with ``load_config``.

    The packaged ``default_config.yaml`` holds every default.  Leaves keep
    their names as fields, except ``weights.legible.alpha``, which becomes
    ``legible_alpha``; the ``weights.comoto``, ``weights.distvis``,
    ``optimizer``, ``speed_adjust`` and ``prediction`` sections become
    ``comoto_weights``, ``distvis_weights`` (two ``CostWeights``),
    ``OptimizerOptions``, ``SpeedAdjustParams`` and ``PredictorOptions``.
    """

    families: tuple
    seeds: tuple
    comoto_weights: CostWeights
    distvis_weights: CostWeights
    legible_alpha: float
    optimizer: OptimizerOptions
    speed_adjust: SpeedAdjustParams
    separation_threshold: float
    fov_deg: float
    prediction: PredictorOptions

    def __post_init__(self):
        # An empty list gives no rows; a repeated entry duplicates its rows.
        for name in ("families", "seeds"):
            values = getattr(self, name)
            if len(values) == 0 or len(set(values)) != len(values):
                raise ContractViolation(f"{name} must be non-empty and distinct, got {values!r}")
        for fam in self.families:
            if fam not in FAMILIES:
                raise ContractViolation(f"unknown family {fam!r}")
        for seed in self.seeds:
            check_real(seed, "seeds", "non-negative", integer=True)
        # Checked at load: a bad value would otherwise surface only once a
        # run has started, or turn every row of one method into a failed row.
        for name in _POSITIVE_FIELDS:
            check_real(getattr(self, name), name, "positive")
        check_fov_deg(self.fov_deg)


# A zero legible_alpha, like all-zero CostWeights, would leave its method no cost term.
_POSITIVE_FIELDS = ("legible_alpha", "separation_threshold")


def default_config_dict() -> dict:
    return read_yaml(data_file("default_config.yaml"))


def _resolve(default, override, path: tuple = ()):
    """``override`` merged into ``default``, each leaf read as its default's type."""
    where = ".".join(map(str, path))
    if isinstance(default, dict):
        check_keys(override, default, "config", path)
        return {
            key: _resolve(value, override.get(key, value), (*path, key))
            for key, value in default.items()
        }
    if isinstance(default, list):
        if not isinstance(override, list):
            raise ContractViolation(f"config key {where!r} must be a list, got {override!r}")
        return tuple(_resolve(default[0], item, path) for item in override)
    number = isinstance(default, (int, float))
    try:
        # float() also reads the strings PyYAML leaves unparsed, such as 1e-4; YAML's true is no number.
        if number and isinstance(override, bool):
            raise TypeError
        value = float(override) if number else str(override)
    except (TypeError, ValueError):
        raise ContractViolation(f"config key {where!r} must be a number, got {override!r}") from None
    if isinstance(default, int):
        if not value.is_integer():
            raise ContractViolation(f"config key {where!r} must be an integer, got {override!r}")
        value = int(value)
    return value


def config_from_dict(data: dict | None) -> RunConfig:
    """The packaged defaults with ``data`` (a ``--config`` file's contents) merged in.

    An error in a section that becomes a record starts with its dotted key."""
    c = _resolve(default_config_dict(), {} if data is None else data)

    def record(build, key: str):
        section = c
        for part in key.split("."):
            section = section[part]
        with _named(key):
            return build(**section)

    return RunConfig(
        **c["benchmark"],
        comoto_weights=record(CostWeights, "weights.comoto"),
        distvis_weights=record(CostWeights, "weights.distvis"),
        legible_alpha=c["weights"]["legible"]["alpha"],
        optimizer=record(OptimizerOptions, "optimizer"),
        speed_adjust=record(SpeedAdjustParams, "speed_adjust"),
        **c["metrics"],
        prediction=record(PredictorOptions, "prediction"),
    )


def load_config(path: str | Path | None = None) -> RunConfig:
    """Default configuration, optionally overridden by a YAML file; an error in
    the file starts with its path."""
    if path is None:
        return config_from_dict({})
    return load_yaml(Path(path), config_from_dict)


@dataclass(frozen=True)
class ScenarioBundle:
    """Everything derived from one scenario, shared across methods.  Frozen."""

    scenario: Scenario
    truth: HumanTrajectory
    ctx: CostContext
    nominal: JointTrajectory
    goals: GoalSet
    #: The solve that made ``nominal``; ``None`` when there are no obstacles.
    nominal_solve: OptResult | None


def prepare_scenario(sc: Scenario, cfg: RunConfig) -> ScenarioBundle:
    """Ground truth, prediction, shared nominal, and metric inputs."""
    truth = generate_reach(sc.human_script, HUMAN_RATE)
    observed = truth.prefix(OBSERVATION_WINDOW)
    arm_pred = predict(observed, N_WAYPOINTS, DT, goal=sc.predictor_goal, options=cfg.prediction)
    base = CostContext(chain=sc.chain, goal_config=sc.robot_goal)
    nominal, nominal_solve = nominal_trajectory(
        base,
        sc.robot_start,
        sc.obstacles,
        n_waypoints=N_WAYPOINTS,
        dt=DT,
        t0=OBSERVATION_WINDOW,  # the robot starts moving when the observation window ends
    )
    ctx = replace(
        base, prediction=extrapolate_skeleton(arm_pred), nominal=nominal, object_pos=sc.human_object
    )
    goals = GoalSet(true_goal=sc.goal_point, distractors=(sc.human_object,))
    return ScenarioBundle(
        scenario=sc, truth=truth, ctx=ctx, nominal=nominal, goals=goals, nominal_solve=nominal_solve
    )


def run_method(name: str, bundle: ScenarioBundle, cfg: RunConfig):
    """Plan or execute one method; returns (planned, converged)."""
    if name == "Nominal":
        return bundle.nominal, True
    if name == "Speed-Adj":
        trace = speed_adjusted_execute(
            bundle.scenario.chain, bundle.nominal, bundle.truth, cfg.speed_adjust
        )
        return trace, True
    if name == "Legible":
        result = legible_optimize(bundle.ctx, bundle.nominal, cfg.optimizer, cfg.legible_alpha)
        return result.trajectory, result.converged
    if name == "Dist+Vis":
        result = distvis_optimize(bundle.ctx, bundle.nominal, cfg.optimizer, cfg.distvis_weights)
        return result.trajectory, result.converged
    if name == "CoMOTO":
        result = optimize(bundle.ctx, cfg.comoto_weights, bundle.nominal, cfg.optimizer)
        return result.trajectory, result.converged
    raise ContractViolation(f"unknown method {name!r}")


def evaluate_planned(bundle: ScenarioBundle, planned, cfg: RunConfig) -> MetricReport:
    """The metrics of ``planned`` (a trajectory or an execution trace) in ``bundle``'s scene."""
    sc = bundle.scenario
    return evaluate_run(
        sc.chain,
        planned,
        bundle.truth,
        bundle.nominal,
        bundle.goals,
        gaze_target=sc.human_object,
        threshold=cfg.separation_threshold,
        fov_deg=cfg.fov_deg,
    )


def iter_runs(cfg: RunConfig):
    """``(bundle, planned, row)`` per (family, seed, method), in run order.

    ``planned`` is ``run_method``'s output, or ``None`` when planning or
    evaluating raised; that row is then marked failed and its ``error``
    names the exception.  When preparing a scenario raises, ``bundle`` is
    ``None`` too, and all of that scenario's rows fail with that error.
    """
    for family in cfg.families:
        for sc in generate_scenarios(family, cfg.seeds):
            try:
                bundle, prepare_error = prepare_scenario(sc, cfg), None
            except Exception as exc:  # this scenario's rows fail; the others go on
                bundle, prepare_error = None, exc
            for method in METHODS:
                start = time.perf_counter()
                try:
                    if prepare_error is not None:
                        raise prepare_error
                    planned, converged = run_method(method, bundle, cfg)
                    report = evaluate_planned(bundle, planned, cfg)
                    failed, wall_time, error = False, time.perf_counter() - start, ""
                except Exception as exc:  # one failed row; the other runs go on
                    planned, report = None, _FAILED_REPORT
                    converged, failed, wall_time = False, True, 0.0
                    error = f"{type(exc).__name__}: {exc}"
                row = {
                    "scenario_family": family,
                    "seed": sc.seed,
                    "method": method,
                    **asdict(report),
                    "converged": converged,
                    "failed": failed,
                    "wall_time": wall_time,
                    "error": error,
                }
                yield bundle, planned, row


def sort_rows(rows: list[dict], cfg: RunConfig) -> list[dict]:
    """``rows`` by family (in ``cfg`` order), seed, then method (in ``METHODS`` order)."""
    order = {m: i for i, m in enumerate(METHODS)}
    fam_order = {f: i for i, f in enumerate(cfg.families)}
    return sorted(
        rows, key=lambda r: (fam_order[r["scenario_family"]], r["seed"], order[r["method"]])
    )


def run_benchmark(cfg: RunConfig) -> list[dict]:
    """All (family, seed, method) rows, deterministically ordered."""
    return sort_rows([row for _, _, row in iter_runs(cfg)], cfg)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _rows_to_csv(rows: list[dict], columns) -> str:
    # The writer quotes a cell holding a comma, quote or line break (an
    # error message may), and leaves every other cell as it is.
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_format_cell(row[c]) for c in columns] for row in rows)
    return out.getvalue()


def aggregate_rows(rows: list[dict]) -> dict:
    """(family, method) -> metric -> (mean, sample SD), skipping failed rows."""
    groups: dict = {}
    for row in rows:
        if not row.get("failed"):
            groups.setdefault(row["scenario_family"], {}).setdefault(row["method"], []).append(row)
    return {
        fam: {
            method: {
                **aggregate([MetricReport(**{name: r[name] for name in METRIC_NAMES}) for r in mrows]),
                "n": len(mrows),
                "completed_all": all(r["completed"] for r in mrows),
            }
            for method, mrows in methods.items()
        }
        for fam, methods in groups.items()
    }


#: How table.md shows each metric: its header, its decimals, how the best
#: mean is picked, and the method shown as n/a (the metric's reference).
_TABLE = {
    "dst_pct": ("Dst. (%)", 1, max, None),
    "vis_pct": ("Vis. (%)", 1, max, None),
    "legibility": ("Leg.", 1, max, None),
    "nom_dev": ("Nom. (m²)", 2, min, "Nominal"),
}


def render_markdown(rows: list[dict]) -> str:
    """Aggregated per-family table, best value per metric in bold.

    Lower is better for the nominal-deviation column; the Nominal row
    shows n/a there (it is the reference trajectory).
    """
    agg = aggregate_rows(rows)
    families = list(dict.fromkeys(r["scenario_family"] for r in rows))
    lines = ["# Benchmark results", ""]
    for fam in families:
        methods = [m for m in METHODS if m in agg.get(fam, {})]
        lines.append(f"## {fam}")
        lines.append("")
        lines.append("| Method | " + " | ".join(_TABLE[name][0] for name in METRIC_NAMES) + " |")
        lines.append("|" + "---|" * (len(METRIC_NAMES) + 1))
        best: dict[str, str] = {}
        for name in METRIC_NAMES:
            _, _, pick, reference = _TABLE[name]
            candidates = {m: agg[fam][m][name][0] for m in methods if m != reference}
            candidates = {m: v for m, v in candidates.items() if np.isfinite(v)}
            if candidates:
                best[name] = pick(candidates, key=candidates.get)
        for m in methods:
            cells = []
            for name in METRIC_NAMES:
                _, digits, _, reference = _TABLE[name]
                if m == reference:
                    cells.append("n/a")
                    continue
                mean, sd = agg[fam][m][name]
                cell = f"{mean:.{digits}f} ± {sd:.{digits}f}"
                if best.get(name) == m:
                    cell = f"**{cell}**"
                cells.append(cell)
            lines.append(f"| {m} | " + " | ".join(cells) + " |")
        lines.append("")
    return "\n".join(lines)


def write_benchmark_outputs(rows: list[dict], out_dir: str | Path) -> dict:
    """Standard artifact set: results.csv, runs.csv, aggregate.json, table.md."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "results": out_dir / "results.csv",
        "runs": out_dir / "runs.csv",
        "aggregate": out_dir / "aggregate.json",
        "table": out_dir / "table.md",
    }
    paths["results"].write_text(_rows_to_csv(rows, RESULT_COLUMNS))
    paths["runs"].write_text(_rows_to_csv(rows, RUNS_COLUMNS))
    paths["aggregate"].write_text(json.dumps(aggregate_rows(rows), indent=2, default=list) + "\n")
    paths["table"].write_text(render_markdown(rows))
    return paths
