"""``scripts/bench_baseline.py`` turns perfbench run records into the
baseline file: quartiles over the untraced runs, per-layer metrics of the
traced ones, and "not measured" for the probes whose target is not called."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_baseline.py"
ENV = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_baseline", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(seed, metrics, **fields):
    return {
        "workload": "near-replan", "seed": seed, "seconds": 20.0, "env": ENV, "rounds": 2,
        "problems": [], "errors": [], "fingerprint": "d4a3", "metrics": metrics, **fields,
    }


def untraced(seed, plan_s):
    return record(seed, {"setup_s": 0.2, "wall_s": 6.0, "prepare_s_mean": 0.1,
                         "plan_s_mean": plan_s, "peak_rss_mb": 43.0})


def test_quartiles_runs_and_unmeasured_probes(tmp_path):
    traced = record(1, {"kinematics.jac_batch.calls": 0, "kinematics.fk_batch.calls": 30,
                        "optimizer.value_evals": 0, "costs.self_s": 0, "trace.spans": 370,
                        "trace.overhead_s": 0.0}, problems=["solve 3: off"])
    records = [untraced(7, s) for s in (0.5, 0.6, 0.4, 0.7, 0.55)] + [traced]
    paths = []
    for i, r in enumerate(records):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(r))
    out = subprocess.run([sys.executable, str(SCRIPT), "--label", "abc123", *map(str, paths)],
                         capture_output=True, text=True, check=True)
    baseline = json.loads(out.stdout)
    assert baseline["label"] == "abc123"
    assert baseline["machine"] == ENV
    entry = baseline["workloads"]["near-replan"]
    assert entry["seeds"] == [7]
    assert [run["plan_s_mean"] for run in entry["runs"]] == [0.5, 0.6, 0.4, 0.7, 0.55]
    assert entry["summary"]["plan_s_mean"] == {"median": 0.55, "q1": 0.5, "q3": 0.6, "unit": "s"}
    assert entry["summary"]["peak_rss_mb"]["unit"] == "MB"
    (run,) = entry["traced"]
    assert run["correct"] is False
    assert run["per_layer"]["kinematics.jac_batch.calls"] == "not measured"
    assert run["per_layer"]["optimizer.value_evals"] == "not measured"
    assert run["per_layer"]["costs.self_s"] == "not measured"
    assert run["per_layer"]["kinematics.fk_batch.calls"] == 30
    # A probe outside the list keeps its 0.
    assert run["per_layer"]["trace.overhead_s"] == 0.0


def test_records_from_two_machines_rejected():
    script = _load_script()
    other = dict(untraced(1, 0.5), env={**ENV, "nproc": 4})
    with pytest.raises(SystemExit):
        script.assemble([untraced(1, 0.5), other], {"plan_s_mean": "s"})
