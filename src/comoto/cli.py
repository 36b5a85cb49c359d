"""Command-line interface.

Subcommands
-----------
gen    write scenario YAML files for a family and seed list
run    full benchmark (all families, seeds, methods) and its four reports
eval   compute metrics for an existing joint-trajectory file
solve  single CoMOTO solve for one scenario, optionally with iteration trace

Output directory precedence: ``--out`` flag, then the ``COMOTO_OUT_DIR``
environment variable, then ``./comoto_out``.  Exit codes: 0 on success,
1 on usage errors (bad flags, malformed inputs), 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from .benchmark import (
    METHODS,
    RunConfig,
    ScenarioBundle,
    evaluate_planned,
    load_config,
    prepare_scenario,
    run_benchmark,
    write_benchmark_outputs,
)
from .errors import ContractViolation
from .fileio import _named
from .kinematics import load_trajectory, save_trajectory
from .optimizer import optimize
from .scenarios import FAMILIES, generate_scenarios, load_scenario, save_scenario

ENV_OUT_DIR = "COMOTO_OUT_DIR"


class UsageError(Exception):
    """Bad command line or malformed input file."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap to exit code 1.
    def error(self, message):
        raise UsageError(message)


def _out_dir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get(ENV_OUT_DIR)
    if env:
        return Path(env)
    return Path("comoto_out")


def build_parser() -> _Parser:
    parser = _Parser(prog="comoto", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write scenario files")
    gen.add_argument("--family", choices=FAMILIES, required=True)
    gen.add_argument("--seeds", type=int, nargs="+", default=None, help="default: the config's seeds")
    gen.add_argument("--out", default=None)

    run = sub.add_parser("run", help="run the full benchmark")
    run.add_argument("--config", default=None)
    run.add_argument("--family", choices=FAMILIES, default=None, help="restrict to one family")
    run.add_argument("--seeds", type=int, nargs="+", default=None)
    run.add_argument("--out", default=None)

    ev = sub.add_parser("eval", help="metrics for an existing trajectory")
    ev.add_argument("--scenario", required=True, help="scenario YAML written by gen")
    ev.add_argument("--trajectory", required=True, help="joint-trajectory CSV on the scenario's clock")
    ev.add_argument("--config", default=None)

    solve = sub.add_parser("solve", help="single CoMOTO solve for one scenario")
    solve.add_argument("--scenario", required=True, help="scenario YAML written by gen")
    solve.add_argument("--config", default=None)
    solve.add_argument("--out", default=None)
    solve.add_argument("--verbose", action="store_true", help="print per-iteration trace")

    return parser


def _cmd_gen(args) -> int:
    cfg = load_config()
    if args.seeds is not None:
        cfg = dataclasses.replace(cfg, seeds=tuple(args.seeds))
    scenarios = generate_scenarios(args.family, cfg.seeds)  # checked before anything is written
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    for sc in scenarios:
        path = out / f"{sc.family}_{sc.seed}.yaml"
        save_scenario(sc, path)
        print(path)
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.family is not None:
        cfg = dataclasses.replace(cfg, families=(args.family,))
    if args.seeds is not None:
        cfg = dataclasses.replace(cfg, seeds=tuple(args.seeds))
    out = _out_dir(args)
    print(
        f"running {len(cfg.families)} families x {len(cfg.seeds)} seeds x {len(METHODS)} methods",
        file=sys.stderr,
    )
    start = time.perf_counter()
    rows = run_benchmark(cfg)
    paths = write_benchmark_outputs(rows, out)
    elapsed = time.perf_counter() - start
    failed = sum(1 for r in rows if r["failed"])
    print(f"{len(rows)} rows ({failed} failed) in {elapsed:.1f} s")
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


def _prepared(args) -> tuple[RunConfig, ScenarioBundle]:
    """The ``--config`` run config and the prepared ``--scenario``; an error from
    preparing the scenario names its file, as an error from reading it does."""
    cfg = load_config(args.config)
    sc = load_scenario(args.scenario)
    with _named(args.scenario):
        return cfg, prepare_scenario(sc, cfg)


def _cmd_eval(args) -> int:
    planned = load_trajectory(args.trajectory)
    cfg, bundle = _prepared(args)
    with _named(args.trajectory):  # e.g. a trajectory off the nominal's clock or arm
        report = evaluate_planned(bundle, planned, cfg)
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return 0


def _cmd_solve(args) -> int:
    cfg, bundle = _prepared(args)
    sc = bundle.scenario
    opts = dataclasses.replace(cfg.optimizer, verbose=args.verbose)
    result = optimize(bundle.ctx, cfg.comoto_weights, bundle.nominal, opts)
    if args.verbose:
        for entry in result.trace:
            print(json.dumps(entry), file=sys.stderr)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{sc.family}_{sc.seed}_comoto.csv"
    save_trajectory(result.trajectory, path)
    print(
        json.dumps(
            {
                "scenario": f"{sc.family}/{sc.seed}",
                "iterations": result.iterations,
                "converged": result.converged,
                "stop_reason": result.stop_reason,
                "value_evals": result.value_evals,
                "grad_evals": result.grad_evals,
                "initial_cost": result.initial_report.total,
                "final_cost": result.final_report.total,
                "wall_time": result.wall_time,
                "trajectory": str(path),
            },
            indent=2,
        )
    )
    return 0


_COMMANDS = {"gen": _cmd_gen, "run": _cmd_run, "eval": _cmd_eval, "solve": _cmd_solve}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ContractViolation, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
