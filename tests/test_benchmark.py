"""Benchmark harness: config resolution, row bookkeeping, aggregation,
and report emission."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import comoto.benchmark as benchmark
from comoto.benchmark import (
    METHODS,
    RESULT_COLUMNS,
    RUNS_COLUMNS,
    RunConfig,
    _rows_to_csv,
    aggregate_rows,
    config_from_dict,
    default_config_dict,
    iter_runs,
    load_config,
    prepare_scenario,
    render_markdown,
    run_benchmark,
    run_method,
    sort_rows,
    write_benchmark_outputs,
)
from comoto.errors import ContractViolation
from comoto.human_motion import OBSERVATION_WINDOW, HumanTrajectory
from comoto.kinematics import JointTrajectory
from comoto.metrics import METRIC_NAMES
from comoto.scenarios import HORIZON, N_WAYPOINTS, make_scenario

TINY_OVERRIDES = {
    "benchmark": {"families": ["stationary"], "seeds": [1]},
    "optimizer": {"max_iters": 120},
}


def tiny_config() -> RunConfig:
    return config_from_dict(dict(TINY_OVERRIDES))


def toy_rows():
    base = {"completed": True, "converged": True, "failed": False, "wall_time": 0.1, "error": ""}
    return [
        {"scenario_family": "stationary", "seed": 1, "method": "Nominal",
         "dst_pct": 100.0, "vis_pct": 40.0, "legibility": 1.0, "nom_dev": 0.0, **base},
        {"scenario_family": "stationary", "seed": 2, "method": "Nominal",
         "dst_pct": 90.0, "vis_pct": 60.0, "legibility": 3.0, "nom_dev": 0.0, **base},
        {"scenario_family": "stationary", "seed": 1, "method": "CoMOTO",
         "dst_pct": 100.0, "vis_pct": 80.0, "legibility": 5.0, "nom_dev": 0.5, **base},
        {"scenario_family": "stationary", "seed": 2, "method": "CoMOTO",
         "dst_pct": 100.0, "vis_pct": 70.0, "legibility": 7.0, "nom_dev": 1.5,
         **{**base, "completed": False}},
    ]


def config_leaves(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from config_leaves(value, path + (key,))
        else:
            yield path + (key,), value


def changed_leaf(value):
    """A different valid value: lists reversed, numbers scaled by 1.25 (integers + 1)."""
    if isinstance(value, list):
        return value[::-1]
    return value + 1 if isinstance(value, int) else value * 1.25


CONFIG_LEAVES = list(config_leaves(default_config_dict()))


@pytest.mark.parametrize(
    "path, value", CONFIG_LEAVES, ids=[".".join(path) for path, _ in CONFIG_LEAVES]
)
def test_every_config_leaf_is_wired(path, value):
    # Each packaged key must reach RunConfig: none may be read nowhere.
    override = changed_leaf(value)
    for key in reversed(path):
        override = {key: override}
    assert config_from_dict(override) != load_config()


def test_config_overrides_apply():
    cfg = config_from_dict({"optimizer": {"grad_tol": 1.0}, "weights": {"legible": {"alpha": 9.0}}})
    assert cfg.optimizer.grad_tol == 1.0
    assert cfg.legible_alpha == 9.0
    # untouched keys keep their packaged defaults
    assert cfg.optimizer.max_iters == load_config().optimizer.max_iters
    assert cfg.comoto_weights == load_config().comoto_weights


def test_numeric_keys_accept_what_float_accepts(tmp_path):
    # PyYAML reads 1e-4 (no decimal point) as a string.
    path = tmp_path / "sci.yaml"
    path.write_text("weights:\n  comoto: {alpha_dist: 1e-4}\noptimizer: {max_iters: 1e3}\n")
    cfg = load_config(path)
    assert cfg.comoto_weights.alpha_dist == 1e-4
    assert cfg.optimizer.max_iters == 1000 and isinstance(cfg.optimizer.max_iters, int)


@pytest.mark.parametrize(
    "section, key, text",
    [
        ("metrics", "fov_deg", "-5"),
        ("metrics", "fov_deg", "400"),
        ("metrics", "separation_threshold", ".nan"),
        ("costs", "eps_m", ".inf"),
        ("costs", "sigma_floor", "0"),
        ("prediction", "sigma0", "-1"),
        ("prediction", "sigma0", "0"),
        ("weights", "legible", "{alpha: -1}"),
        ("weights", "legible", "{alpha: .inf}"),
        ("weights", "distvis", "{alpha_vis: -0.2}"),
        ("weights", "distvis", "{tau_n: .nan}"),
        ("weights", "nominal", "{margin: -0.05}"),
        ("weights", "nominal", "{obstacle_weight: .inf}"),
        ("weights", "comoto", "{alpha_dist: abc}"),
        ("speed_adjust", "d_stop", "0.10"),
        ("speed_adjust", "d_slow", "0.05"),
        ("optimizer", "max_iters", "2.5"),
        # YAML's true and false are bools, which float() would read as 1.0 and 0.0.
        ("optimizer", "max_iters", "true"),
        ("optimizer", "grad_tol", "true"),
        ("metrics", "fov_deg", "false"),
        ("benchmark", "seeds", "[true]"),
        ("benchmark", "families", "stationary"),
        ("benchmark", "families", "[]"),
        ("benchmark", "families", "[stationary, stationary]"),
        ("benchmark", "seeds", "3"),
    ],
)
def test_bad_config_values_rejected(tmp_path, section, key, text):
    # Each of these used to load and run to a silent result (vis_pct 0,
    # dst_pct 0, a zero distance cost, a sign-flipped sigma0, every
    # Legible row failed, max_iters truncated to 2 or read as 1 from true,
    # family 's', no rows, a family's rows twice).
    path = tmp_path / "bad.yaml"
    path.write_text(f"{section}:\n  {key}: {text}\n")
    with pytest.raises(ContractViolation) as excinfo:
        load_config(path)
    assert key in str(excinfo.value)


def test_unknown_config_keys_rejected():
    with pytest.raises(ContractViolation):
        config_from_dict({"optimzer": {"max_iters": 10}})
    with pytest.raises(ContractViolation):
        config_from_dict({"optimizer": {"step_grow": 2.0}})
    with pytest.raises(ContractViolation):
        config_from_dict({"weights": {"comoto": {"alpha_dst": 1.0}}})
    # Both spread floors are gone: sigma0, the tube's smallest SD, is the only one.
    with pytest.raises(ContractViolation, match="^unknown config key 'costs.sigma_floor'$"):
        config_from_dict({"costs": {"sigma_floor": 0.01}})
    with pytest.raises(ContractViolation, match="^unknown config key 'prediction.sigma_floor'$"):
        config_from_dict({"prediction": {"sigma_floor": 0.01}})
    assert len(CONFIG_LEAVES) == 26


def test_config_file_round_trip(tmp_path):
    import yaml

    path = tmp_path / "override.yaml"
    path.write_text(yaml.safe_dump({"speed_adjust": {"d_slow": 0.42}}))
    cfg = load_config(path)
    assert cfg.speed_adjust.d_slow == 0.42
    assert cfg.speed_adjust.d_stop == load_config().speed_adjust.d_stop


def test_default_config_dict_is_complete():
    data = default_config_dict()
    assert set(data) == {
        "benchmark", "weights", "optimizer", "speed_adjust", "metrics", "costs", "prediction",
    }


def test_a_renamed_copy_of_the_package_reads_its_own_data_files(tmp_path):
    copy = tmp_path / "comoto_b"
    shutil.copytree(Path(benchmark.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
    config = copy / "data" / "default_config.yaml"
    text = config.read_text()
    assert "seeds: [1, 2, 3, 4, 5]" in text
    config.write_text(text.replace("seeds: [1, 2, 3, 4, 5]", "seeds: [7, 8]"))
    # With comoto itself unimportable, a read by the package's absolute name fails.
    code = (
        "import sys; sys.modules['comoto'] = None\n"
        "from comoto_b.benchmark import load_config\n"
        "from comoto_b.human_motion import load_skeleton_offsets\n"
        "from comoto_b.kinematics import default_chain\n"
        "print(load_config().seeds, load_skeleton_offsets().shape, default_chain().n_joints)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "(7, 8) (7, 3) 7\n"


def test_run_config_validation():
    with pytest.raises(TypeError):
        RunConfig()  # no field defaults: the packaged YAML holds them
    cfg = load_config()
    with pytest.raises(ContractViolation):
        dataclasses.replace(cfg, seeds=(1, 1))
    with pytest.raises(ContractViolation):
        dataclasses.replace(cfg, seeds=())
    with pytest.raises(ContractViolation, match=r"^seeds must be an integer and non-negative, got -3$"):
        dataclasses.replace(cfg, seeds=(2, -3))
    for seed in ("a", 1.5, None):
        with pytest.raises(ContractViolation, match=f"^seeds must be an integer and non-negative, got {seed!r}$"):
            dataclasses.replace(cfg, seeds=(1, seed))
    with pytest.raises(ContractViolation):
        dataclasses.replace(cfg, families=("no_such_family",))


def test_all_zero_distvis_weights_rejected_at_load():
    zero = {"alpha_dist": 0, "alpha_vis": 0, "tau_n": 0}
    with pytest.raises(ContractViolation, match=r"^weights\.distvis needs a positive alpha_dist, alpha_vis or tau_n"):
        config_from_dict({"weights": {"distvis": zero}})
    # Any one positive weight gives the method a cost term.
    for key in zero:
        config_from_dict({"weights": {"distvis": {**zero, key: 0.5}}})


def test_prepare_scenario_shares_consistent_inputs(arm):
    cfg = tiny_config()
    sc = make_scenario("stationary", 1, arm)
    bundle = prepare_scenario(sc, cfg)
    assert np.array_equal(bundle.nominal.waypoints[0], sc.robot_start)
    assert np.array_equal(bundle.nominal.waypoints[-1], sc.robot_goal)
    assert bundle.ctx.prediction.horizon == N_WAYPOINTS
    assert np.array_equal(bundle.goals.true_goal, sc.goal_point)
    assert np.array_equal(bundle.goals.distractors[0], sc.human_object)
    assert bundle.truth.duration >= OBSERVATION_WINDOW + HORIZON
    # a robot that may never move runs until timeout_factor x the nominal duration
    frozen = dataclasses.replace(cfg.speed_adjust, d_stop=5.0, d_slow=6.0)
    trace, _ = run_method("Speed-Adj", bundle, dataclasses.replace(cfg, speed_adjust=frozen))
    assert not trace.completed
    assert trace.duration == pytest.approx(frozen.timeout_factor * bundle.nominal.duration)


def test_prepare_scenario_keeps_the_nominal_solve(arm):
    cfg = tiny_config()
    sc = make_scenario("stationary", 1, arm)
    bundle = prepare_scenario(sc, cfg)
    assert bundle.nominal_solve.trajectory is bundle.nominal
    assert bundle.nominal_solve.stop_reason in ("grad_tol", "max_iters", "line_search")
    clear = prepare_scenario(dataclasses.replace(sc, obstacles=()), cfg)
    assert clear.nominal_solve is None


def test_bundle_and_trace_fields_are_frozen(arm):
    # Every method of a scenario shares its bundle, and the metrics read the
    # trace: neither can have a field swapped past its constructor's checks.
    cfg = tiny_config()
    bundle = prepare_scenario(make_scenario("stationary", 1, arm), cfg)
    trace, _ = run_method("Speed-Adj", bundle, cfg)
    assert isinstance(bundle.truth, HumanTrajectory) and isinstance(bundle.nominal, JointTrajectory)
    for record in (bundle, trace):
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, None)


def test_tiny_benchmark_rows(arm):
    cfg = tiny_config()
    rows = run_benchmark(cfg)
    assert len(rows) == len(METHODS)
    assert [r["method"] for r in rows] == list(METHODS)
    for row in rows:
        assert row["scenario_family"] == "stationary"
        assert row["seed"] == 1
        assert not row["failed"]
        assert math.isfinite(row["legibility"])
        assert 0.0 <= row["dst_pct"] <= 100.0
        assert 0.0 <= row["vis_pct"] <= 100.0
    nominal = next(r for r in rows if r["method"] == "Nominal")
    assert nominal["nom_dev"] == 0.0
    assert nominal["converged"]


def test_failed_method_is_isolated(arm, monkeypatch, tmp_path):
    cfg = tiny_config()
    original = run_method

    def flaky(name, bundle, c):
        if name == "CoMOTO":
            raise RuntimeError("synthetic failure")
        return original(name, bundle, c)

    monkeypatch.setattr(benchmark, "run_method", flaky)
    planned = {row["method"]: out for _, out, row in iter_runs(cfg)}
    assert [m for m, out in planned.items() if out is None] == ["CoMOTO"]
    rows = run_benchmark(cfg)
    assert len(rows) == len(METHODS)
    failed = {r["method"]: r["failed"] for r in rows}
    assert failed == {m: m == "CoMOTO" for m in METHODS}
    broken = next(r for r in rows if r["method"] == "CoMOTO")
    assert all(list(r) == [*RESULT_COLUMNS, "wall_time", "error"] for r in rows)
    assert all(math.isnan(broken[name]) for name in METRIC_NAMES)
    assert (broken["completed"], broken["converged"], broken["wall_time"]) == (False, False, 0.0)
    paths = write_benchmark_outputs(rows, tmp_path)
    with open(paths["runs"], newline="") as f:
        errors = {r["method"]: r["error"] for r in csv.DictReader(f)}
    assert errors == {m: "RuntimeError: synthetic failure" if m == "CoMOTO" else "" for m in METHODS}


def test_failed_prepare_fails_its_scenario_rows_only(arm, monkeypatch):
    # Seed 1's nominal solve raises; its five rows fail with that error and
    # seed 2's rows are those of a run without seed 1.
    cfg = dataclasses.replace(tiny_config(), seeds=(1, 2))
    clean = run_benchmark(dataclasses.replace(cfg, seeds=(2,)))
    broken_start = make_scenario("stationary", 1, arm).robot_start
    original = benchmark.nominal_trajectory

    def flaky(base, start, *args, **kwargs):
        if np.array_equal(start, broken_start):
            raise ContractViolation("synthetic prepare failure")
        return original(base, start, *args, **kwargs)

    monkeypatch.setattr(benchmark, "nominal_trajectory", flaky)
    runs = list(iter_runs(cfg))
    assert [(r["seed"], r["method"]) for _, _, r in runs] == [
        (seed, m) for seed in (1, 2) for m in METHODS
    ]
    for bundle, planned, row in runs[: len(METHODS)]:
        assert (bundle, planned, row["failed"], row["converged"]) == (None, None, True, False)
        assert row["error"] == "ContractViolation: synthetic prepare failure"
        assert all(math.isnan(row[name]) for name in METRIC_NAMES)
    rows = sort_rows([row for _, _, row in runs], cfg)
    assert _rows_to_csv(rows[len(METHODS):], RESULT_COLUMNS) == _rows_to_csv(clean, RESULT_COLUMNS)


def assert_same_bits(a, b):
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), field.name
        else:
            assert x == y, field.name


def test_iter_runs_yields_run_benchmark_rows_and_each_plan(arm):
    # Seeds out of order: iter_runs yields in run order, run_benchmark sorts.
    cfg = dataclasses.replace(tiny_config(), seeds=(2, 1))
    runs = list(iter_runs(cfg))
    assert [(r["seed"], r["method"]) for _, _, r in runs] == [
        (seed, m) for seed in (2, 1) for m in METHODS
    ]
    yielded = _rows_to_csv(sort_rows([row for _, _, row in runs], cfg), RESULT_COLUMNS)
    assert yielded == _rows_to_csv(run_benchmark(cfg), RESULT_COLUMNS)
    for bundle, planned, row in runs:
        assert (bundle.scenario.seed, row["failed"]) == (row["seed"], False)
        fresh, converged = run_method(row["method"], bundle, cfg)
        assert converged == row["converged"]
        assert_same_bits(planned, fresh)


def test_csv_round_trip_types():
    rows = toy_rows()
    rows[0] = {**rows[0], "dst_pct": 100 / 3, "legibility": 0.1 + 0.2, "nom_dev": 1e-17}
    lines = _rows_to_csv(rows, RESULT_COLUMNS).splitlines()
    header = "scenario_family,seed,method,dst_pct,vis_pct,legibility,nom_dev,completed,converged,failed"
    assert lines[0] == header
    assert len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert len(cells) == len(RESULT_COLUMNS)
        for col, cell in zip(RESULT_COLUMNS, cells):
            value = row[col]
            if isinstance(value, bool):
                assert cell == ("true" if value else "false")
            elif isinstance(value, float):
                assert float(cell) == value  # repr() round-trips every float exactly
            else:
                assert cell == str(value)
    # An error message holding a comma, a quote or a line break stays in its cell.
    rows[1] = {**rows[1], "failed": True, "error": 'ValueError: bad "x", at\nline 2\r\nend'}
    read = list(csv.reader(io.StringIO(_rows_to_csv(rows, RUNS_COLUMNS), newline="")))
    assert read[0] == list(RUNS_COLUMNS)
    assert all(len(cells) == len(RUNS_COLUMNS) for cells in read)
    assert [cells[-1] for cells in read[1:]] == [row["error"] for row in rows]


def test_aggregate_rows_stats():
    rows = toy_rows()
    rows.append({**rows[0], "method": "Legible", "failed": True, "dst_pct": float("nan")})
    agg = aggregate_rows(rows)
    assert "Legible" not in agg["stationary"]  # failed rows never aggregate
    nominal = agg["stationary"]["Nominal"]
    assert nominal["n"] == 2
    assert nominal["dst_pct"][0] == pytest.approx(95.0)
    assert nominal["dst_pct"][1] == pytest.approx(np.std([100.0, 90.0], ddof=1))
    assert nominal["completed_all"]
    assert not agg["stationary"]["CoMOTO"]["completed_all"]


def test_markdown_marks_best_and_nominal_na():
    text = render_markdown(toy_rows())
    assert "## stationary" in text
    lines = {ln.split("|")[1].strip(): ln for ln in text.splitlines() if ln.startswith("| ")}
    assert "n/a" in lines["Nominal"]
    # CoMOTO wins every metric here (Nominal never competes on nom_dev)
    assert lines["CoMOTO"].count("**") == 2 * 4
    assert "**1.00 ± 0.71**" in lines["CoMOTO"]
    assert "**" not in lines["Nominal"]


def test_write_benchmark_outputs_artifacts(tmp_path):
    paths = write_benchmark_outputs(toy_rows(), tmp_path)
    assert set(paths) == {"results", "runs", "aggregate", "table"}
    for p in paths.values():
        assert p.exists()
    assert "wall_time" not in paths["results"].read_text().splitlines()[0].split(",")
    assert "wall_time" in paths["runs"].read_text().splitlines()[0].split(",")
    agg = json.loads(paths["aggregate"].read_text())
    assert "stationary" in agg
