#!/usr/bin/env python3
"""qopt benchmark: closed-loop timing of qopt's public entry points.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload accel_lowdim --seed 1 --seconds 25 --trace 0

Compare two result sets (directories or files written by earlier runs):

    python3 perfbench/run.py --compare perfbench/results/before perfbench/results/after

One process, one client, no extra threads: each operation is an in-process
``qopt.cli.main(argv)`` call, and the next starts when the previous one has
returned and passed the correctness gate.  Times are normalized to a
reference CPU speed (see ``refclock.py``); raw wall times are reported too.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that reports per-layer metrics.  The last stdout
line is one JSON object with the metrics that ``BENCHMARK.json`` lists; the
full result, with every metric, its sample count and the run's stamp, is
written under ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Set-up repetitions in a ``--trace 0`` run; setup_s is their median.
SETUP_REPS = 3
#: Traced passes kept at most, which bounds the memory held by spans.
MAX_TRACED_PASSES = 4

#: Every end-to-end metric, with its unit.  Times are normalized to the reference
#: clock (see refclock.py) except the two ``*_wall_s`` figures.
END_TO_END_UNITS = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "pass_s.p50": "s",
    "pass_wall_s.p50": "s",
    "pass_s.tail": "s",
    "oracle_calls_per_s": "1/s",
    "oracle_calls_total": "count",
    "oracle_calls_to_eps": "count",
    "failed_ops_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_share", "_per_oracle_call", "_per_solve")):
        return "ratio"
    return "count"


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_qopt():
    """Import qopt from this checkout's ``src`` and return the seconds it took."""
    if not (SRC / "qopt" / "__init__.py").is_file():
        print(f"perfbench: no qopt sources at {SRC / 'qopt'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qopt.cli  # noqa: F401  (timed: this is the user's import cost)
    elapsed = time.perf_counter() - t0
    import qopt
    if Path(qopt.__file__).resolve().parent != (SRC / "qopt").resolve():
        print(f"perfbench: imported qopt from {qopt.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return elapsed


def stamp(args):
    """Provenance recorded in every result file."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": git_commit(ROOT),
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def git_commit(root):
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- operations and passes -------------------------------------------------------


class Runner:
    """Executes operations, gates each one, and keeps the run's tallies."""

    def __init__(self, sizes, clock):
        self.sizes = sizes
        self.clock = clock
        self.tracer = None
        self.attempted = 0
        self.failures = []

    @staticmethod
    def call(op):
        """One ``qopt.cli.main`` call with its output captured: (exit code, output)."""
        import qopt.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                rc = qopt.cli.main(list(op.argv))
            except Exception:  # a leaked traceback is a failed operation, not a crash
                rc = None
                print(traceback.format_exc())
        return rc, out.getvalue()

    def gate(self, op, rc, output, audited_calls=None):
        from workloads import check_op

        check = check_op(op, rc, output, self.sizes, audited_calls)
        if rc != 0:
            check.reason += ": " + output.strip()[-500:]
        self.attempted += 1
        if not check.ok:
            self.failures.append({"op": op.name, "reason": check.reason})
        return check

    def run_op(self, op):
        """Run and gate one operation; returns (wall s, normalized s, OpCheck)."""
        tracer = self.tracer
        first = len(tracer) if tracer is not None else 0
        (rc, output), wall, norm = self.clock.timed(lambda: self.call(op))
        audited = self._audited_evaluator_calls(first) if tracer is not None else None
        return wall, norm, self.gate(op, rc, output, audited)

    def _audited_evaluator_calls(self, first):
        """``obj.evaluator`` spans recorded since span index ``first``."""
        import numpy as np

        tracer = self.tracer
        ids = np.frombuffer(tracer.name_id, dtype=np.uint16)[first:]
        return int(np.count_nonzero(ids == tracer.name_index("objectives.evaluator")))

    def run_pass(self, ops):
        """One trip through the operation list; returns its record."""
        records = []
        for op in ops:
            if self.tracer is None:
                wall, norm, check = self.run_op(op)
            else:
                self.tracer.op_id += 1
                with self.tracer.span("bench.op"):
                    wall, norm, check = self.run_op(op)
            records.append({
                "name": op.name, "seconds": norm, "wall_seconds": wall, "ok": check.ok,
                "reason": check.reason, "oracle_calls": check.oracle_calls,
                "oracle_calls_to_eps": check.oracle_calls_to_eps,
                "rows": check.rows, "sha256": check.sha256, "checks_run": check.checks_run,
            })
        to_eps = [r["oracle_calls_to_eps"] for r in records]
        return {
            "seconds": sum(r["seconds"] for r in records),
            "wall_seconds": sum(r["wall_seconds"] for r in records),
            "oracle_calls": sum(r["oracle_calls"] for r in records),
            "oracle_calls_to_eps": None if None in to_eps else sum(to_eps),
            "ops": records,
        }

    def run_passes(self, ops, seconds):
        """Closed loop: start passes until ``seconds`` have elapsed (at least one)."""
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(self.run_pass(ops))
        return passes


# -- metrics -------------------------------------------------------------------


def tail(values):
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    n = len(values)
    if n < 11:
        return None, None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def metric(value, unit, samples, na="", **extra):
    """One reported metric; a ``None`` value is n/a, with the reason ``na``."""
    entry = {"value": value, "unit": unit, "samples": samples, **extra}
    if value is None:
        entry["na"] = na
    return entry


def end_to_end_metrics(workload, setup, passes, runner, peak_rss_mb):
    times = [p["seconds"] for p in passes]
    n = len(passes)
    tail_value, tail_pct = tail(times)
    out = {
        "setup_s": metric(statistics.median(s for s, _ in setup), "s", len(setup)),
        "setup_wall_s": metric(statistics.median(w for _, w in setup), "s", len(setup)),
        "pass_s.p50": metric(statistics.median(times), "s", n),
        "pass_wall_s.p50": metric(statistics.median(p["wall_seconds"] for p in passes), "s", n),
        "pass_s.tail": metric(tail_value, "s", n, na="fewer than 11 passes",
                              percentile=tail_pct),
        "failed_ops_ratio": metric(len(runner.failures) / runner.attempted, "ratio",
                                   runner.attempted),
        "peak_rss_mb": metric(peak_rss_mb, "MB", 1),
    }
    if workload == "verify_suite":
        for name in ("oracle_calls_per_s", "oracle_calls_total", "oracle_calls_to_eps"):
            out[name] = metric(None, END_TO_END_UNITS[name], 0,
                               na="qopt verify does not report oracle calls")
    else:
        calls = sum(p["oracle_calls"] for p in passes)
        to_eps = passes[0]["oracle_calls_to_eps"]
        out["oracle_calls_per_s"] = metric(calls / sum(times), "1/s", n)
        out["oracle_calls_total"] = metric(passes[0]["oracle_calls"], "count", n)
        out["oracle_calls_to_eps"] = metric(to_eps, "count", n, na="eps not reached")
    return {name: out[name] for name in END_TO_END_UNITS}


def layer_metrics(tracer, traced_passes, traced_ranges, untraced_passes, check_times):
    """Median over traced passes of each per-layer metric, plus the check timings."""
    from tracing import pass_layer_metrics

    cols = tracer.arrays()
    per_pass = [pass_layer_metrics(tracer, cols, lo, hi) for lo, hi in traced_ranges]
    out = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass if p[name] is not None]
        unit = layer_unit(name)
        if not values:
            value = None
        elif unit in ("count", "bytes"):  # counts repeat exactly from pass to pass
            value = values[0]
        else:
            value = statistics.median(values)
        out[name] = metric(value, unit, len(values), na="layer not exercised")
    traced = statistics.median(p["seconds"] for p in traced_passes)
    untraced = statistics.median(p["seconds"] for p in untraced_passes)
    out["bench.tracing_overhead_s"] = metric(traced - untraced, "s", len(traced_passes),
                                             traced_pass_s=traced, untraced_pass_s=untraced)
    for check, seconds in check_times.items():
        out[f"checks.{check.replace(':', '.')}.s"] = metric(seconds, "s", 1)
    return out


# -- one benchmark run ------------------------------------------------------------


def measure(args, sizes=None, setup_reps=SETUP_REPS):
    """Run one workload and return the full result record."""
    import_s = import_qopt()
    import workloads

    sizes = sizes or workloads.Sizes()
    os.environ.pop("QOPT_SEED", None)  # qopt must see only the generated configs
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=_work_root()))
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = str(workdir)  # qopt verify's own temporary files stay inside too
    try:
        return _measure(args, sizes, setup_reps, import_s, workdir, workloads)
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(workdir, ignore_errors=True)


def _work_root():
    root = BENCH_DIR / ".work"
    root.mkdir(exist_ok=True)
    return root


def _measure(args, sizes, setup_reps, import_s, workdir, workloads):
    from refclock import REFERENCE_NOMINAL_S, ReferenceClock

    # Samples inside traced regions would land in the spans, so traced runs
    # sample only between regions.
    runner = Runner(sizes, ReferenceClock(sample_inside=not args.trace))
    # The import ran before the reference clock existed: one sample, taken after it.
    import_norm = import_s * REFERENCE_NOMINAL_S / runner.clock.last

    setup = []  # (normalized s, wall s) per set-up
    for _ in range(1 if args.trace else setup_reps):
        def set_up():
            ops = workloads.build_ops(args.workload, args.seed, workdir, sizes)
            return ops, runner.call(ops[0])

        (ops, (rc, output)), wall, norm = runner.clock.timed(set_up)
        runner.gate(ops[0], rc, output)
        setup.append((import_norm + norm, import_s + wall))

    result = {
        "stamp": stamp(args),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "sizes": {k: (list(v) if isinstance(v, tuple) else v)
                  for k, v in vars(sizes).items()},
        "operations": [op.name for op in ops],
        "setup_samples": setup,
    }
    if not args.trace:
        passes = runner.run_passes(ops, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["end_to_end"] = end_to_end_metrics(args.workload, setup, passes,
                                                  runner, peak_rss_mb)
    else:
        passes = _traced_run(args, ops, runner, result)
    result["passes"] = [p["seconds"] for p in passes]
    result["ops"] = _op_summary(passes)
    result["attempted"] = runner.attempted
    result["failed"] = len(runner.failures)
    result["failures"] = runner.failures[:20]
    result["correct"] = not runner.failures
    return result


def _traced_run(args, ops, runner, result):
    """Untraced passes, then traced passes, then (verify) one timed pass per check."""
    from tracing import Instrumentation, Tracer

    untraced = runner.run_passes(ops, args.seconds / 2.0)
    tracer = runner.tracer = Tracer()
    traced, ranges = [], []
    deadline = time.perf_counter() + args.seconds / 2.0
    first_counts = None
    with Instrumentation(tracer):
        while not traced or (time.perf_counter() < deadline
                             and len(traced) < MAX_TRACED_PASSES):
            tracer.counts = {}
            lo = len(tracer)
            with tracer.span("bench.pass"):
                traced.append(runner.run_pass(ops))
            ranges.append((lo, len(tracer)))
            if first_counts is None:
                first_counts = tracer.counts
            elif tracer.counts != first_counts:
                runner.failures.append({"op": "pass",
                                        "reason": "layer counts differ between traced passes"})
    # The counts repeat exactly, so the first traced pass's stand for all.
    tracer.counts = first_counts

    check_times = {}
    if args.workload == "verify_suite":
        import qopt
        names = list(runner.sizes.verify_suite) or qopt.available_checks()
        for name in names:
            with tracer.span(f"checks.{name}"):
                report, _, check_times[name] = runner.clock.timed(lambda: qopt.verify([name]))
            runner.attempted += 1
            if not report.overall:
                runner.failures.append({"op": f"check {name}", "reason": "check failed"})

    result["per_layer"] = layer_metrics(tracer, traced, ranges, untraced, check_times)
    result["untraced_passes"] = [p["seconds"] for p in untraced]
    result["spans"] = len(tracer)
    if args.out:
        spans_path = Path(args.out) / (_result_stem(args) + "-spans.npz")
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(spans_path)
        result["spans_file"] = str(spans_path)
    return traced


def _op_summary(passes):
    """Per-operation facts of the first pass, plus whether trace bytes drifted."""
    summary = []
    for i, op in enumerate(passes[0]["ops"]):
        hashes = {p["ops"][i]["sha256"] for p in passes}
        summary.append(dict(op, sha256_stable=len(hashes) == 1))
    return summary


def _result_stem(args):
    return f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.run_id}"


# -- output --------------------------------------------------------------------


def _fmt(entry):
    if entry["value"] is None:
        return f"{'n/a':>14}  {entry['unit']:<6} {entry['samples']:>7}  ({entry['na']})"
    value = entry["value"]
    text = f"{value:>14.6g}" if isinstance(value, float) else f"{value:>14}"
    extra = f"  (p{entry['percentile']:.1f})" if entry.get("percentile") else ""
    return f"{text}  {entry['unit']:<6} {entry['samples']:>7}{extra}"


def print_report(result):
    s = result["stamp"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"commit {s['git_commit'][:12]}  nproc {s['nproc']}  python {s['python']}  "
          f"numpy {s['numpy']}  scipy {s['scipy']}")
    section = result.get("end_to_end") or result.get("per_layer")
    width = max(len(name) for name in section)
    print(f"{'metric':<{width}}  {'value':>14}  {'unit':<6} {'samples':>7}")
    for name, entry in section.items():
        print(f"{name:<{width}}  {_fmt(entry)}")
    for failure in result["failures"]:
        print(f"FAILED {failure['op']}: {failure['reason']}")


def result_line(result, spec):
    """The last stdout line: the metrics BENCHMARK.json lists for this mode."""
    section, listed = ((result["per_layer"], spec["per_layer"]) if result["trace"]
                       else (result["end_to_end"], spec["end_to_end"]))
    metrics = {}
    for m in listed:
        entry = section.get(m["name"])
        if entry is not None and entry["value"] is not None:
            metrics[m["name"]] = {"value": entry["value"], "unit": entry["unit"]}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("accel_lowdim", "baselines_highdim",
                                               "verify_suite"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH_DIR / "results"),
                        help="directory for result files ('' writes none)")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two result sets instead of running")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    args.run_id = f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}-{os.getpid()}"
    return args


def main(argv=None):
    args = parse_args(argv)
    spec = load_spec()
    if args.compare:
        from compare import compare
        return compare(args.compare[0], args.compare[1], spec)
    result = measure(args)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / (_result_stem(args) + ".json")).write_text(json.dumps(result, indent=1))
    print_report(result)
    print(result_line(result, spec))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
