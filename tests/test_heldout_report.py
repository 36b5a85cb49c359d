"""``scripts/heldout_report.py`` summarizes benchmark rows: per family and
method the row, failed and converged counts, per family the seeds each
per-seed clause of acceptance criterion 5 holds on, and the mean clauses."""

from __future__ import annotations

from comoto.benchmark import METHODS, config_from_dict

from conftest import load_heldout_report


def _rows(families, seeds):
    """Rows on which every clause holds: the optimizers beat Nominal, Speed-Adj keeps to it,
    and reaching_near keeps less distance than reaching_far."""
    metrics = {
        "Nominal": (50.0, 0.0, 0.0),
        "Speed-Adj": (60.0, 0.0, 0.0),
        "Legible": (50.0, 1.0, 0.2),
        "Dist+Vis": (70.0, -1.0, 0.1),
        "CoMOTO": (70.0, 1.0, 0.3),
    }
    return [
        {
            "scenario_family": family, "seed": seed, "method": method,
            "dst_pct": dst - (10.0 if family == "reaching_near" else 0.0), "vis_pct": 50.0,
            "legibility": legibility, "nom_dev": nom_dev, "completed": True,
            "converged": True, "failed": False,
        }
        for family in families
        for seed in seeds
        for method, (dst, legibility, nom_dev) in metrics.items()
    ]


def test_counts_per_seed_clauses_and_mean_clauses():
    report = load_heldout_report()
    families, seeds = ("reaching_far", "reaching_near"), (6, 7, 8)
    cfg = config_from_dict({"benchmark": {"families": list(families), "seeds": list(seeds)}})
    rows = _rows(families, seeds)
    near = {(r["seed"], r["method"]): r for r in rows if r["scenario_family"] == "reaching_near"}
    near[6, "CoMOTO"]["legibility"] = -0.5  # one seed's clause fails, the mean's holds
    near[7, "CoMOTO"]["converged"] = False
    near[8, "Legible"].update(failed=True, converged=False, legibility=float("nan"))

    summary = report.summarize(rows, cfg)

    assert summary["families"] == list(families) and summary["seeds"] == list(seeds)
    assert summary["rows"]["reaching_far"] == dict.fromkeys(METHODS, {"rows": 3, "failed": 0, "converged": 3})
    assert summary["rows"]["reaching_near"]["CoMOTO"] == {"rows": 3, "failed": 0, "converged": 2}
    assert summary["rows"]["reaching_near"]["Legible"] == {"rows": 3, "failed": 1, "converged": 2}
    holds = {family: {k: v["holds"] for k, v in clauses.items()} for family, clauses in summary["per_seed"].items()}
    assert holds["reaching_far"] == dict.fromkeys(map(" ".join, report.CLAUSES), 3)
    assert holds["reaching_near"]["CoMOTO legibility > Nominal"] == 2
    # A failed row's seed counts as not holding.
    assert holds["reaching_near"]["Legible legibility > Nominal"] == 2
    assert holds["reaching_near"]["Speed-Adj nom_dev <= Legible"] == 2
    assert summary["per_seed"]["reaching_near"]["CoMOTO dst_pct >= Nominal"] == {"holds": 3, "seeds": 3}
    assert len(summary["mean_clauses"]) == 2 * len(report.CLAUSES) + len(METHODS)
    assert all(summary["mean_clauses"].values())
    assert "item 3" in summary["stop_reasons"]

    # Every row of a method failed: its mean clauses read false.
    for row in rows:
        if row["scenario_family"] == "reaching_near" and row["method"] == "Legible":
            row.update(failed=True, converged=False)
    summary = report.summarize(rows, cfg)
    false = {k for k, v in summary["mean_clauses"].items() if not v}
    assert false == {
        "reaching_near: Legible legibility > Nominal",
        "reaching_near: Speed-Adj nom_dev <= Legible",
        "Legible dst_pct: reaching_near < reaching_far",
    }
