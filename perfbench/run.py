"""Benchmark for the comoto planning pipeline.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Runs one workload from the checkout's ``src/`` in a single process with
BLAS/OpenMP pinned to one thread, checks every output, and prints as
its last stdout line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` also runs one traced round and reports the
per-layer metrics instead.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Before NumPy loads its BLAS.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_SAMPLES = 7

# What `comoto` costs before the first scenario: interpreter start, the
# package import, the packaged config and the arm's chain file.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import comoto; "
    "from comoto.benchmark import load_config; from comoto.kinematics import default_chain; "
    "load_config(); default_chain(); print('ready', flush=True)"
)


def time_setup() -> float:
    """Median over fresh interpreters of process start to config and chain loaded."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC)], stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline().strip()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        if line != "ready" or proc.returncode != 0:
            raise SystemExit(f"set-up process failed (exit {proc.returncode})")
    return statistics.median(samples)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def describe(error) -> str:
    exc = error["exception"]
    return f"{error['span']}: {type(exc).__name__}: {exc}"


def parse_args(argv):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "comoto" / "__init__.py").is_file():
        print(f"perfbench: no comoto sources under {SRC}", file=sys.stderr)
        return 2
    setup_s = time_setup()

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np

    import comoto
    from comoto.kinematics import default_chain

    if Path(comoto.__file__).resolve().parent != (SRC / "comoto").resolve():
        print(f"perfbench: imported comoto from {comoto.__file__}, not the checkout", file=sys.stderr)
        return 2
    chain = default_chain()

    import checks
    from tracer import INNER, OUTER, Tracer, layer_metrics
    from workloads import WORKLOADS, collect, config_for, run_round, visiting_order

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    cfg = config_for(wl)
    order = visiting_order(wl, args.seed)
    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"{wl.name}-s{args.seed}"
    env = environment()
    print(f"perfbench: {wl.name} seed {args.seed}, {len(wl.pool)} scenarios a round")
    print(f"perfbench: env {json.dumps(env)}")

    # -- untraced rounds: the end-to-end numbers --------------------------------
    tracer = Tracer(OUTER)
    round_s, first, fingerprints, all_rows = [], None, [], []
    with tracer:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rows, csv_hash = run_round(wl, cfg, chain, order, out_dir)
            round_s.append(time.perf_counter() - t0)
            outputs = collect(wl, rows, tracer.captured, csv_hash)
            for store in tracer.captured.values():
                store.clear()
            fingerprints.append(outputs.fingerprint())
            first = first or outputs
            all_rows += rows
            if time.perf_counter() - start + round_s[-1] > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks, after the clock ----------------------------------------------
    rng = np.random.default_rng([args.seed, 1])
    problems, counted = checks.check_round(first, cfg, rng, wl.fd_coords)
    if len(set(fingerprints)) != 1:
        problems.append(f"{len(set(fingerprints))} distinct outputs over {len(fingerprints)} rounds")
    missed = checks.self_test(first, cfg, rng)
    problems += [f"self-test: check accepted a corrupted output ({m})" for m in missed]

    prepare = tracer.durations("benchmark.prepare")
    plan = tracer.durations("benchmark.run_method", wl.method)
    errors = [describe(e) for e in tracer.errors]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(round_s), "s"),
        "prepare_s_mean": (statistics.fmean(prepare), "s"),
        "plan_s_mean": (statistics.fmean(plan), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "env": env,
        "rounds": len(round_s), "round_s": round_s, "prepare_s": prepare, "plan_s": plan,
        "samples": {"prepare": len(prepare), "plan": len(plan)},
        "results_sha256": first.results_sha256, "fingerprint": fingerprints[0],
        "checked": counted, "self_test_missed": missed, "problems": problems, "errors": errors,
        "unconverged_solves": sum(1 for _, _, r in first.solves if not r.converged),
        "solves": len(first.solves),
    }

    # -- one traced round: the per-layer numbers --------------------------------
    if args.trace:
        traced = Tracer(OUTER + INNER)
        with traced:
            t0 = time.perf_counter()
            rows, _ = run_round(wl, cfg, chain, order, out_dir)
            traced_s = time.perf_counter() - t0
        all_rows += rows
        metrics = layer_metrics(traced)
        metrics["benchmark.rows"] = (len(rows), "count")
        metrics["trace.overhead_s"] = (traced_s - statistics.median(round_s), "s")
        traced.write(OUT / f"spans-{wl.name}-s{args.seed}.json.gz")
        errors += [describe(e) for e in traced.errors]

    failed = sum(1 for r in all_rows if r["failed"])
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (OUT / f"{wl.name}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for p in problems[:20]:
        print(f"perfbench: CHECK FAILED {p}", file=sys.stderr)
    for e in errors[:20]:
        print(f"perfbench: failed operation {e}", file=sys.stderr)
    print(
        f"perfbench: {len(round_s)} round(s); checked {counted['outputs']} outputs, "
        f"{counted['solves']} solves ({record['unconverged_solves']} unconverged); "
        f"self-test {'ok' if not missed else 'MISSED ' + ', '.join(missed)}"
    )
    if first.results_sha256:
        print(f"perfbench: results.csv sha256 {first.results_sha256}")
    result = {
        "correct": not problems,
        "attempted": len(all_rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
