"""Spans around qopt's public functions, recorded from the benchmark's side.

qopt is not modified.  :class:`Instrumentation` replaces each traced function
or set method with a wrapper that opens and closes a span, and restores the
originals on exit.  qopt's modules bind helpers with ``from .x import y``, so
each name is patched in every module that looks it up.

Spans live in memory as parallel arrays (name, start, end, parent, operation)
and are written once, at the end of the run.  A span's self time is its
duration minus the durations of its direct children; a single thread nests
children strictly inside parents, so the self times of a pass's spans add up
to the pass's wall time.
"""

from __future__ import annotations

import contextlib
import os
import time
from array import array

import numpy as np

import qopt.accel
import qopt.baselines
import qopt.checks
import qopt.cli
import qopt.harness
import qopt.objectives
import qopt.prox
import qopt.sets
import qopt.trace

perf_counter = time.perf_counter

#: Span names of the layers, in report order.
LAYERS = (
    "cli.main",
    "checks.verify",
    "harness.load_config",
    "harness.build_objective",
    "harness.run_experiment",
    "harness.sweep",
    "accel.run",
    "accel.linesearch",
    "accel.ftrl",
    "prox.solve",
    "baselines.run",
    "baselines.attach_rate_bounds",
    "objectives.evaluate",
    "objectives.evaluator",
    "sets.contains",
    "sets.project",
    "sets.lmo",
    "trace.write",
)
#: Spans the benchmark opens around its own work (passes, operations, gate).
BENCH_SPANS = ("bench.pass", "bench.op")
LINESEARCH_EXITS = ("derivative_small", "no_improvement", "bisection")


class Tracer:
    """In-memory span store plus per-pass counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self._stack = [-1]
        self.op_id = -1
        self.counts = {}

    def name_index(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        i = self.open(self.name_index(name))
        try:
            yield i
        finally:
            self.close(i)

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def __len__(self):
        return len(self.name_id)

    def arrays(self):
        """Span columns as numpy arrays, with self time computed."""
        start = np.array(self.start)
        end = np.array(self.end)
        parent = np.array(self.parent, dtype=np.int64)
        duration = end - start
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.array(self.op, dtype=np.int64),
            "self": duration - child,
        }

    def save(self, path):
        """Write every span once, as compressed columns plus the name table."""
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)


def pass_layer_metrics(tracer, cols, lo, hi):
    """Per-layer metrics of one traced pass: spans ``lo`` (its root) to ``hi``."""
    names = tracer.names
    ids = cols["name_id"][lo:hi]
    self_t = cols["self"][lo:hi]
    calls = np.bincount(ids, minlength=len(names))
    self_s = np.bincount(ids, weights=self_t, minlength=len(names))
    out = {}
    for layer in LAYERS:
        nid = tracer._ids.get(layer)
        n = int(calls[nid]) if nid is not None else 0
        out[f"{layer}.calls"] = n
        out[f"{layer}.self_s"] = float(self_s[nid]) if n else None
    bench_ids = [tracer._ids[n] for n in BENCH_SPANS if n in tracer._ids]
    out["bench.self_s"] = float(sum(self_s[i] for i in bench_ids))

    wall = float(cols["end"][lo] - cols["start"][lo])
    out["bench.self_time_residual_s"] = abs(float(self_t.sum()) - wall)
    out["bench.pass_wall_s"] = wall

    # Oracle calls made directly by prox solves: evaluate spans whose parent
    # is a prox.solve span.
    prox_id = tracer._ids.get("prox.solve")
    eval_id = tracer._ids.get("objectives.evaluate")
    prox_calls = 0
    if prox_id is not None and eval_id is not None:
        parents = cols["parent"][lo:hi][ids == eval_id]
        prox_calls = int(np.count_nonzero(cols["name_id"][parents] == prox_id))

    c = tracer.counts
    solves = out["prox.solve.calls"]
    oracle = out["objectives.evaluate.calls"]
    out["sets.as_point.calls"] = c.get("sets.as_point.calls", 0)
    out["sets.contains_per_oracle_call"] = out["sets.contains.calls"] / oracle if oracle else None
    out["prox.inner_iterations"] = c.get("prox.inner_iterations", 0)
    out["prox.inner_per_solve"] = out["prox.inner_iterations"] / solves if solves else None
    out["prox.oracle_calls_per_solve"] = prox_calls / solves if solves else None
    for exit_ in LINESEARCH_EXITS:
        out[f"accel.linesearch.exit.{exit_}"] = c.get(f"accel.linesearch.exit.{exit_}", 0)
    out["accel.linesearch.halvings"] = c.get("accel.linesearch.halvings", 0)
    accel_calls = c.get("accel.oracle_calls", 0)
    out["accel.calls_after_eps_share"] = (
        c.get("accel.oracle_calls_after_eps", 0) / accel_calls if accel_calls else None)
    out["baselines.run.iterations"] = c.get("baselines.run.iterations", 0)
    out["trace.write.bytes"] = c.get("trace.write.bytes", 0)
    out["trace.rows"] = c.get("trace.rows", 0)
    return out


# -- hooks that read a layer's result after its span closes ---------------------


def _after_prox(tracer, args, kwargs, result):
    tracer.count("prox.inner_iterations", result.inner_iterations)


def _after_linesearch(tracer, args, kwargs, result):
    tracer.count(f"accel.linesearch.exit.{result.exit}")
    tracer.count("accel.linesearch.halvings", result.loop_iterations)


def _after_accel_run(tracer, args, kwargs, trace):
    eps = args[2] if len(args) > 2 else kwargs["epsilon"]
    total = trace.final_oracle_calls
    reached = next((r.oracle_calls for r in trace.rows
                    if r.gap is not None and r.gap <= eps), total)
    tracer.count("accel.oracle_calls", total)
    tracer.count("accel.oracle_calls_after_eps", total - reached)


def _after_baseline_run(tracer, args, kwargs, trace):
    tracer.count("baselines.run.iterations", args[2] if len(args) > 2 else kwargs["T"])


def _after_write(tracer, args, kwargs, path):
    tracer.count("trace.write.bytes", os.path.getsize(path))
    tracer.count("trace.rows", len(args[0].rows))


class Instrumentation:
    """Context manager that installs the span wrappers and restores qopt on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def _spanned(self, name, fn, after=None):
        tracer = self.tracer
        nid = tracer.name_index(name)
        open_, close = tracer.open, tracer.close

        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        count = self.tracer.count

        def wrapper(*args, **kwargs):
            count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _traced_objectives(self, fn):
        spanned = self._spanned

        def wrapper(*args, **kwargs):
            obj = fn(*args, **kwargs)
            obj.evaluator = spanned("objectives.evaluator", obj.evaluator)
            return obj

        return wrapper

    def _patch(self, sites, attr, wrapper):
        for owner in sites:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def __enter__(self):
        q = qopt
        spanned = self._spanned
        self._patch((q.cli,), "main", spanned("cli.main", q.cli.main))
        self._patch((q.cli,), "verify", spanned("checks.verify", q.checks.verify))
        self._patch((q.cli, q.harness, q.checks), "load_config",
                    spanned("harness.load_config", q.harness.load_config))
        self._patch((q.harness,), "build_objective",
                    spanned("harness.build_objective", q.harness.build_objective))
        self._patch((q.cli, q.harness, q.checks), "run_experiment",
                    spanned("harness.run_experiment", q.harness.run_experiment))
        self._patch((q.cli, q.checks), "sweep", spanned("harness.sweep", q.harness.sweep))
        self._patch((q.harness, q.checks), "run_accelerated",
                    spanned("accel.run", q.accel.run_accelerated, _after_accel_run))
        self._patch((q.accel,), "binary_line_search",
                    spanned("accel.linesearch", q.accel.binary_line_search, _after_linesearch))
        self._patch((q.accel,), "ftrl_step", spanned("accel.ftrl", q.accel.ftrl_step))
        self._patch((q.accel, q.prox), "solve_prox_subproblem",
                    spanned("prox.solve", q.prox.solve_prox_subproblem, _after_prox))
        for runner in ("run_pgd", "run_frank_wolfe"):
            self._patch((q.harness, q.baselines), runner,
                        spanned("baselines.run", getattr(q.baselines, runner),
                                _after_baseline_run))
        self._patch((q.harness, q.baselines), "attach_rate_bounds",
                    spanned("baselines.attach_rate_bounds", q.baselines.attach_rate_bounds))
        self._patch((q.objectives, q.prox, q.baselines, q.checks), "evaluate",
                    spanned("objectives.evaluate", q.objectives.evaluate))
        self._patch((q.objectives, q.harness, q.checks), "make_catalogue_objective",
                    self._traced_objectives(q.objectives.make_catalogue_objective))
        self._patch((q.sets.FeasibleSet,), "contains",
                    spanned("sets.contains", q.sets.FeasibleSet.contains))
        for cls in (q.sets.Box, q.sets.Ball, q.sets.Simplex):
            self._patch((cls,), "project", spanned("sets.project", cls.project))
            self._patch((cls,), "lmo", spanned("sets.lmo", cls.lmo))
        self._patch((q.harness, q.trace), "write_trace",
                    spanned("trace.write", q.trace.write_trace, _after_write))
        self._patch((q.sets, q.objectives, q.prox, q.accel, q.baselines, q.harness), "as_point",
                    self._counted("sets.as_point.calls", q.sets.as_point))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False
