"""Summarize the benchmark on held-out seeds: row counts and criterion 5's orderings.

    PYTHONPATH=src python3 scripts/heldout_report.py > heldout_summary.json

Runs ``run_benchmark`` on ``heldout_seeds.yaml`` beside this script (the
three families on seeds 6-45, which no test, bound or default was tuned
on) and prints a JSON summary:

- ``rows``: per family and method, the counts of rows, failed rows and
  converged rows.  Nominal and Speed-Adj run no solve of their own, so
  every row of theirs that did not fail counts as converged;
- ``per_seed``: per family, on how many seeds each per-seed clause of
  acceptance criterion 5 holds: CoMOTO's ``dst_pct`` at least Nominal's,
  CoMOTO's and Legible's legibility above Nominal's, and Speed-Adj's
  ``nom_dev`` at most each optimizer's.  A seed where either row failed
  counts as not holding;
- ``mean_clauses``: each clause of criterion 5 on the family means, the
  per-family ones above and, per method, ``dst_pct`` lower on
  ``reaching_near`` than on ``reaching_far``, as a boolean.

The summary holds no timing, so two runs on one machine print the same
bytes.  It reports and never gates: the exit status is 0 whatever the
clauses read.
"""

from __future__ import annotations

import json
import math
import operator
import sys
import time
from pathlib import Path

from comoto.benchmark import METHODS, RunConfig, aggregate_rows, load_config, run_benchmark

HELDOUT_CONFIG = Path(__file__).with_name("heldout_seeds.yaml")

_RELATIONS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}

#: Criterion 5's clauses within one family: (method, metric, relation, other method).
CLAUSES = (
    ("CoMOTO", "dst_pct", ">=", "Nominal"),
    ("CoMOTO", "legibility", ">", "Nominal"),
    ("Legible", "legibility", ">", "Nominal"),
    ("Speed-Adj", "nom_dev", "<=", "Legible"),
    ("Speed-Adj", "nom_dev", "<=", "Dist+Vis"),
    ("Speed-Adj", "nom_dev", "<=", "CoMOTO"),
)

STOP_REASONS = (
    "not recorded: a benchmark row carries no stop reason until a run record "
    "sits beside each row (ROADMAP item 3)"
)


def mean_clauses(mean, families) -> dict[str, bool]:
    """Criterion 5's clauses on the family means ``mean(family, method, metric)``:
    the per-family ``CLAUSES`` and, when both reaching families ran, each
    method's ``dst_pct`` lower on ``reaching_near`` than on ``reaching_far``."""
    clauses = {
        f"{family}: {' '.join(clause)}": bool(
            _RELATIONS[clause[2]](mean(family, clause[0], clause[1]), mean(family, clause[3], clause[1]))
        )
        for family in families
        for clause in CLAUSES
    }
    if {"reaching_near", "reaching_far"} <= set(families):
        for method in METHODS:
            clauses[f"{method} dst_pct: reaching_near < reaching_far"] = bool(
                mean("reaching_near", method, "dst_pct") < mean("reaching_far", method, "dst_pct")
            )
    return clauses


def summarize(rows: list[dict], cfg: RunConfig) -> dict:
    """The summary of ``run_benchmark(cfg)``'s ``rows``."""
    counts = {
        family: {method: {"rows": 0, "failed": 0, "converged": 0} for method in METHODS}
        for family in cfg.families
    }
    ok = {}  # (family, seed, method) -> the row, for the rows that did not fail
    for row in rows:
        count = counts[row["scenario_family"]][row["method"]]
        count["rows"] += 1
        count["failed"] += bool(row["failed"])
        count["converged"] += bool(row["converged"])
        if not row["failed"]:
            ok[row["scenario_family"], row["seed"], row["method"]] = row

    def seed_holds(family, seed, clause) -> bool:
        method, metric, relation, other = clause
        left, right = ok.get((family, seed, method)), ok.get((family, seed, other))
        return left is not None and right is not None and _RELATIONS[relation](left[metric], right[metric])

    agg = aggregate_rows(rows)  # means over the rows that did not fail

    def mean(family, method, metric) -> float:
        # NaN, which compares false, when every row of the method failed.
        return agg.get(family, {}).get(method, {}).get(metric, (math.nan,))[0]

    per_seed = {
        family: {
            " ".join(clause): {
                "holds": sum(seed_holds(family, seed, clause) for seed in cfg.seeds),
                "seeds": len(cfg.seeds),
            }
            for clause in CLAUSES
        }
        for family in cfg.families
    }
    return {
        "families": list(cfg.families),
        "seeds": list(cfg.seeds),
        "rows": counts,
        "per_seed": per_seed,
        "mean_clauses": mean_clauses(mean, cfg.families),
        "stop_reasons": STOP_REASONS,
    }


def main() -> int:
    cfg = load_config(HELDOUT_CONFIG)
    start = time.perf_counter()
    rows = run_benchmark(cfg)
    print(f"{len(rows)} rows in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    json.dump(summarize(rows, cfg), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
