"""Assemble a BENCH_<tag>.json from perfbench run records.

    python3 scripts/bench_baseline.py [--label TEXT] RECORD [RECORD ...] > BENCH_<tag>.json

Each RECORD is the file one ``perfbench/run.py`` run writes,
``perfbench/out/<workload>-s<seed>-t<trace>.json``, copied aside before the
next run of the same workload and seed overwrites it.  Untraced records
(``--trace 0``) give each workload's runs and the median and quartiles of
every end-to-end metric; a traced record (``--trace 1``) gives its
per-layer metrics.  A per-layer metric of a probe that targets code the
pipeline no longer calls reads 0; it is written as "not measured".
Units come from ``BENCHMARK.json``; ``--label`` names what was measured
(the commit, say).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Probes whose target the pipeline does not call, so that they read 0.
UNMEASURED_PROBES = (
    "costs.objective_value",
    "costs.objective_grad",
    "costs.self_s",
    "kinematics.jac_batch",
    "optimizer.value_evals",
    "optimizer.trials_per_iteration",
)


def _unmeasured(name: str, value: float) -> bool:
    return value == 0 and any(name == p or name.startswith(p + ".") for p in UNMEASURED_PROBES)


def _quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def assemble(records: list[dict], units: dict[str, str], label: str = "") -> dict:
    machines = {json.dumps(r["env"], sort_keys=True) for r in records}
    if len(machines) != 1:
        raise SystemExit("the records come from more than one machine or environment")
    workloads: dict[str, dict] = {}
    for r in sorted(records, key=lambda r: (r["workload"], r["seed"])):
        traced = "trace.spans" in r["metrics"]  # a traced run reports per-layer metrics
        entry = workloads.setdefault(r["workload"], {"runs": [], "traced": []})
        run = {
            "seed": r["seed"],
            "seconds": r["seconds"],
            "rounds": r["rounds"],
            "correct": not r["problems"],
            "failed_operations": len(r["errors"]),
            "fingerprint": r["fingerprint"],
        }
        if traced:
            run["per_layer"] = {
                name: "not measured" if _unmeasured(name, value) else value
                for name, value in r["metrics"].items()
            }
            entry["traced"].append(run)
        else:
            run.update(r["metrics"])
            entry["runs"].append(run)
    for entry in workloads.values():
        runs = entry["runs"]
        entry["seeds"] = sorted({run["seed"] for run in runs})
        entry["summary"] = {
            name: {**_quartiles([run[name] for run in runs]), "unit": units[name]}
            for name in (runs[0] if runs else {})
            if name in units
        }
    return {
        "label": label,
        "description": (
            "perfbench end-to-end metrics (median and quartiles over the untraced "
            "runs) and per-layer metrics (traced runs); setup_s beside each run "
            "gauges the machine's speed at the time"
        ),
        "machine": json.loads(machines.pop()),
        "units": units,
        "workloads": workloads,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="what was measured, e.g. the commit")
    parser.add_argument(
        "records", nargs="+", help="copies of perfbench/out/<workload>-s<seed>-t<trace>.json"
    )
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    records = [json.loads(Path(path).read_text()) for path in args.records]
    json.dump(assemble(records, units, args.label), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
