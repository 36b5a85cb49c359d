"""In-memory spans recorded around the program's public entry points.

A probe wraps one public function at every place a calling module looks
it up (the module attribute a ``from .x import f`` created), so the
program itself is untouched and every span is recorded from this file.
Spans hold a name, a start, an end, the index of the span that was open
when they began, and one probe-specific value (a batch size, a method
name, an iteration count).  Self time is a span's duration minus the
part of it its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """One layer boundary: span name, home module and attribute, payload."""

    name: str
    module: str
    attr: str
    info: Callable | None = None  # (args, kwargs, result) -> value stored on the span
    capture: bool = False  # keep (args, kwargs, result) for the correctness checks


def _len0(args, kwargs, result):
    return int(len(args[1]))


def _iterations(args, kwargs, result):
    return int(result.iterations)


def _method(args, kwargs, result):
    return args[0]


def _ticks(args, kwargs, result):
    return int(len(result.timestamps))


def _steps(args, kwargs, result):
    planned = args[1]  # an ExecutionTrace or a JointTrajectory
    return int(len(planned.timestamps if hasattr(planned, "timestamps") else planned.waypoints))


def _times(args, kwargs, result):
    return int(len(args[1]) if hasattr(args[1], "__len__") else 1)


def _with_grad(args, kwargs, result):
    return bool(args[4] if len(args) > 4 else kwargs.get("with_grad", True))


#: Boundaries timed in every run: they give the end-to-end per-scenario
#: times and the outputs the checks need, at a few hundred spans a round.
OUTER = (
    Probe("benchmark.prepare", "comoto.benchmark", "prepare_scenario", capture=True),
    Probe("benchmark.run_method", "comoto.benchmark", "run_method", _method, capture=True),
    Probe("metrics.evaluate", "comoto.metrics", "evaluate_run", _steps, capture=True),
    Probe("optimizer.solve", "comoto.optimizer", "optimize", _iterations, capture=True),
)

#: Every other layer boundary, added in a traced run only.
INNER = (
    Probe("kinematics.fk_batch", "comoto.kinematics", "fk_points_batch", _len0),
    Probe("kinematics.jac_batch", "comoto.kinematics", "all_point_jacobians_batch", _len0),
    Probe("kinematics.fk_single", "comoto.kinematics", "frame_origins_and_axes"),
    Probe("kinematics.ik", "comoto.kinematics", "solve_position_ik"),
    Probe("costs.objective", "comoto.costs", "evaluate_objective", _with_grad),
    Probe("baselines.nominal", "comoto.baselines", "nominal_trajectory"),
    Probe("baselines.speed_adj", "comoto.baselines", "speed_adjusted_execute", _ticks),
    Probe("baselines.legible", "comoto.baselines", "legible_optimize"),
    Probe("baselines.distvis", "comoto.baselines", "distvis_optimize"),
    Probe("human_motion.reach", "comoto.human_motion", "generate_reach"),
    Probe("human_motion.predict", "comoto.human_motion", "predict"),
    Probe("human_motion.predict", "comoto.human_motion", "extrapolate_skeleton"),
    Probe("human_motion.positions_at", "comoto.human_motion", "HumanTrajectory.positions_at", _times),
    Probe("scenarios.make", "comoto.scenarios", "make_scenario"),
    Probe("benchmark.write", "comoto.benchmark", "write_benchmark_outputs"),
)


class Tracer:
    """Installs probes, records spans and exceptions, restores on exit."""

    def __init__(self, probes):
        self.probes = tuple(probes)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, parent, start, end, info]
        self.captured: dict[str, list] = {}
        self.errors: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        for probe in self.probes:
            self._install(probe)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _install(self, probe: Probe) -> None:
        home = sys.modules[probe.module]
        if "." in probe.attr:  # a method: patch the class attribute
            cls_name, meth = probe.attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(probe, original))
            return
        original = getattr(home, probe.attr)
        wrapper = self._wrap(probe, original)
        # Every module that imported the function holds its own reference.
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "comoto" or mod_name.startswith("comoto.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap(self, probe: Probe, fn):
        name_id = self._name_ids.setdefault(probe.name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(probe.name)
        spans, stack, errors, info = self.spans, self._stack, self.errors, probe.info
        store = self.captured.setdefault(probe.name, []) if probe.capture else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name_id, stack[-1] if stack else -1, clock(), 0.0, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[3] = clock()
                stack.pop()
                # Recorded once, at the innermost boundary it crossed.
                if not (errors and errors[-1]["exception"] is exc):
                    errors.append({"span": probe.name, "exception": exc})
                raise
            record[3] = clock()
            stack.pop()
            if info is not None:
                record[4] = info(args, kwargs, result)
            if store is not None:
                store.append((args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- queries -------------------------------------------------------------

    def durations(self, name: str, info=None) -> list[float]:
        """Durations of every span of ``name`` (optionally with that info value)."""
        nid = self._name_ids.get(name)
        return [
            s[3] - s[2]
            for s in self.spans
            if s[0] == nid and (info is None or s[4] == info)
        ]

    def write(self, path) -> None:
        """Spans as gzipped JSON: a name table plus [name, parent, start, end, info] rows."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[s[0], s[1], round(s[2] - t0, 9), round(s[3] - t0, 9), s[4]] for s in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "spans": rows}, fh)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times from one traced round's spans."""
    names, all_spans = tracer.names, tracer.spans
    by_name: dict[str, list[int]] = {}
    child_time = [0.0] * len(all_spans)
    for i, s in enumerate(all_spans):
        by_name.setdefault(names[s[0]], []).append(i)
        if s[1] >= 0:
            child_time[s[1]] += s[3] - s[2]

    def spans(name):
        return [all_spans[i] for i in by_name.get(name, [])]

    def total(name):
        return sum(s[3] - s[2] for s in spans(name))

    def summed(name):  # sum of the probe's values; a span that raised has none
        return sum(s[4] or 0 for s in spans(name))

    def self_time(name):
        return sum(all_spans[i][3] - all_spans[i][2] - child_time[i] for i in by_name.get(name, []))

    out: dict[str, tuple[float, str]] = {}

    def put(key, value, unit):
        out[key] = (value, unit)

    for key, name in (("fk_batch", "kinematics.fk_batch"), ("jac_batch", "kinematics.jac_batch")):
        put(f"kinematics.{key}.calls", len(spans(name)), "count")
        put(f"kinematics.{key}.configs", summed(name), "count")
        put(f"kinematics.{key}.s", total(name), "s")
    for key, name in (("fk_single", "kinematics.fk_single"), ("ik", "kinematics.ik")):
        put(f"kinematics.{key}.calls", len(spans(name)), "count")
        put(f"kinematics.{key}.s", total(name), "s")

    objective = spans("costs.objective")
    value = [s for s in objective if not s[4]]
    grad = [s for s in objective if s[4]]
    put("costs.objective_value.calls", len(value), "count")
    put("costs.objective_value.s", sum(s[3] - s[2] for s in value), "s")
    put("costs.objective_grad.calls", len(grad), "count")
    put("costs.objective_grad.s", sum(s[3] - s[2] for s in grad), "s")
    put("costs.self_s", self_time("costs.objective"), "s")

    kinds = {f"baselines.{k}": k for k in ("nominal", "legible", "distvis")}
    solves = spans("optimizer.solve")
    iterations = {k: 0 for k in ("nominal", "legible", "distvis", "comoto")}
    for s in solves:
        parent = names[tracer.spans[s[1]][0]] if s[1] >= 0 else ""
        iterations[kinds.get(parent, "comoto")] += s[4] or 0
    results = [r for _, _, r in tracer.captured.get("optimizer.solve", [])]
    put("optimizer.solves", len(solves), "count")
    put("optimizer.s", total("optimizer.solve"), "s")
    put("optimizer.self_s", self_time("optimizer.solve"), "s")
    for kind, count in iterations.items():
        put(f"optimizer.iterations.{kind}", count, "count")
    all_iters = sum(iterations.values())
    solve_ids = set(by_name.get("optimizer.solve", []))
    trials = sum(1 for s in value if s[1] in solve_ids)
    put("optimizer.iterations.total", all_iters, "count")
    put("optimizer.value_evals", trials, "count")
    put("optimizer.trials_per_iteration", trials / all_iters if all_iters else 0.0, "evals/iter")
    put("optimizer.converged", sum(1 for r in results if r.converged), "count")

    for key in ("nominal", "legible", "distvis"):
        put(f"baselines.{key}.s", total(f"baselines.{key}"), "s")
    put("baselines.speed_adj.s", total("baselines.speed_adj"), "s")
    put("baselines.speed_adj.ticks", summed("baselines.speed_adj"), "count")

    put("human_motion.reach.s", total("human_motion.reach"), "s")
    put("human_motion.predict.s", total("human_motion.predict"), "s")
    put("human_motion.positions_at.calls", len(spans("human_motion.positions_at")), "count")
    put("human_motion.positions_at.s", total("human_motion.positions_at"), "s")

    put("metrics.evaluate.calls", len(spans("metrics.evaluate")), "count")
    put("metrics.evaluate.s", total("metrics.evaluate"), "s")
    put("metrics.steps", summed("metrics.evaluate"), "count")

    put("scenarios.make.calls", len(spans("scenarios.make")), "count")
    put("scenarios.make.s", total("scenarios.make"), "s")

    put("benchmark.prepare.s", total("benchmark.prepare"), "s")
    put("benchmark.run_method.s", total("benchmark.run_method"), "s")
    put("benchmark.write.s", total("benchmark.write"), "s")
    put("trace.spans", len(tracer.spans), "count")
    return out
