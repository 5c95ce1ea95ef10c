"""Workloads: seeded experiment configs, fixed operation lists, and the gate.

The benchmark drives qopt only through ``qopt.cli.main``.  A workload is a
fixed list of operations; the workload seed only draws each run's explicit
``x0`` from its feasible set and fills the config's ``seed`` field, so the
operation list never depends on the seed.

Why these workloads:

``accel_lowdim``       accelerated runs at eps = 1e-4 on ``example1`` (d=1),
                       ``quadratic`` (d=5, box) and ``glm_sigmoid`` (d=2).
                       With d <= 5 the cost is per-call Python overhead in
                       prox, accel and sets, not vector arithmetic.
``baselines_highdim``  Frank-Wolfe (T = 10^4) and PGD (T = 2000) on
                       ``quadratic`` over a 30,000-dim simplex.  numpy kernels
                       dominate (the projection's sort and cumsum, the LMO's
                       argmin, FW's combination step), so per-call cuts should
                       leave it unchanged while kernel changes show.
``verify_suite``       the full ``qopt verify``: the same layers used through
                       sampling loops, delta = 1e-12 prox solves and sweeps.
                       Its checks fix their own seeds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qopt import available_checks
from qopt.trace import read_trace, write_trace

WORKLOADS = ("accel_lowdim", "baselines_highdim", "verify_suite")

#: Target accuracy for ``oracle_calls_to_eps`` on baseline traces.
BASELINE_EPS = 1e-4
#: Slack of the baseline rate-envelope gate, as in the rate_envelope checks.
BOUND_SLACK = 1e-9

# Fixed domains of the catalogue entries (see the README's catalogue table).
EXAMPLE1_BOX = ([-5.0], [5.0])
GLM_BOX = ([-2.0, -2.0], [2.0, 2.0])
QUADRATIC_DIM = 5


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults define the benchmark, tests shrink them."""

    accel_eps: float = 1e-4
    simplex_dim: int = 30_000
    fw_T: int = 10_000
    pgd_T: int = 2_000
    #: Check names passed to ``--suite``; empty runs every registered check.
    verify_suite: tuple = ()


@dataclass(frozen=True)
class Op:
    """One operation: a ``qopt.cli.main`` argv plus what the gate needs."""

    name: str
    kind: str  # "accelerated", "baseline" or "verify"
    argv: tuple
    trace_path: str = ""
    eps: float = 0.0
    config: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass
class OpCheck:
    """Gate verdict for one executed operation, with the facts it read."""

    ok: bool
    reason: str = ""
    oracle_calls: int = 0
    oracle_calls_to_eps: int | None = None
    rows: int = 0
    sha256: str = ""
    checks_run: int = 0


def _box_draw(rng, lower, upper):
    return rng.uniform(lower, upper).tolist()


def _simplex_draw(rng, dim):
    e = rng.standard_exponential(dim)
    return (e / e.sum()).tolist()


def _run_configs(workload, seed, sizes):
    """(op name, config) pairs, in the workload's fixed order."""
    rng = np.random.default_rng(seed)
    if workload == "accel_lowdim":
        box = ([-1.0] * QUADRATIC_DIM, [1.0] * QUADRATIC_DIM)
        entries = (
            ("example1", "example1", EXAMPLE1_BOX),
            ("quadratic", {"name": "quadratic", "params": {"dim": QUADRATIC_DIM}}, box),
            ("glm_sigmoid", "glm_sigmoid", GLM_BOX),
        )
        return [
            (f"accelerated:{name}",
             {"algorithm": "accelerated", "objective": objective,
              "x0": _box_draw(rng, *bounds), "epsilon": sizes.accel_eps, "seed": seed})
            for name, objective, bounds in entries
        ]
    if workload == "baselines_highdim":
        objective = {"name": "quadratic",
                     "params": {"set": {"kind": "simplex", "dimension": sizes.simplex_dim}}}
        return [
            (f"{algorithm}:quadratic_simplex",
             {"algorithm": algorithm, "objective": objective,
              "x0": _simplex_draw(rng, sizes.simplex_dim), "T": T, "seed": seed})
            for algorithm, T in (("frank_wolfe", sizes.fw_T), ("pgd", sizes.pgd_T))
        ]
    raise ValueError(f"unknown run workload '{workload}'")


def build_ops(workload, seed, workdir, sizes=Sizes()):
    """Write the workload's configs under ``workdir`` and return its operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'; expected one of {WORKLOADS}")
    if workload == "verify_suite":
        suite = ("--suite", ",".join(sizes.verify_suite)) if sizes.verify_suite else ()
        return [Op(name="verify", kind="verify", argv=("verify",) + suite)]
    workdir = Path(workdir)
    ops = []
    for i, (name, config) in enumerate(_run_configs(workload, seed, sizes)):
        cfg_path = workdir / f"op{i}.json"
        trace_path = workdir / f"op{i}.csv"
        cfg_path.write_text(json.dumps(config))
        accelerated = config["algorithm"] == "accelerated"
        ops.append(Op(
            name=name,
            kind="accelerated" if accelerated else "baseline",
            argv=("run", str(cfg_path), "--output", str(trace_path)),
            trace_path=str(trace_path),
            eps=config["epsilon"] if accelerated else BASELINE_EPS,
            config=config,
        ))
    return ops


def expected_checks(sizes):
    return len(sizes.verify_suite) if sizes.verify_suite else len(available_checks())


def _checks_run(stdout):
    """Count the check rows ``qopt verify`` printed (name worst tol n status ...)."""
    names = set(available_checks())
    count = 0
    for line in stdout.splitlines():
        tokens = line.split()
        if len(tokens) >= 5 and tokens[0] in names and tokens[4] in ("PASS", "FAIL"):
            count += 1
    return count


def check_op(op, rc, stdout, sizes=Sizes(), audited_calls=None):
    """The correctness gate for one finished operation.

    ``audited_calls`` is the number of ``obj.evaluator`` calls the traced run
    counted during the operation; the trace's final ``oracle_calls`` must match.
    """
    if rc != 0:
        return OpCheck(False, f"exit code {rc}")
    if op.kind == "verify":
        n = _checks_run(stdout)
        expected = expected_checks(sizes)
        if n != expected:
            return OpCheck(False, f"{n} checks ran, expected {expected}", checks_run=n)
        return OpCheck(True, checks_run=n)

    data = Path(op.trace_path).read_bytes()
    trace = read_trace(op.trace_path)
    check = OpCheck(True, sha256=hashlib.sha256(data).hexdigest(), rows=len(trace.rows))
    if trace.failure is not None or not trace.rows:
        check.ok, check.reason = False, "trace has no rows or a failure marker"
        return check
    check.oracle_calls = trace.rows[-1].oracle_calls
    check.oracle_calls_to_eps = next(
        (r.oracle_calls for r in trace.rows if r.gap is not None and r.gap <= op.eps), None)

    roundtrip = op.trace_path + ".rt"
    write_trace(trace, roundtrip)
    if Path(roundtrip).read_bytes() != data:
        check.ok, check.reason = False, "read_trace does not round-trip the written rows"
    elif audited_calls is not None and audited_calls != check.oracle_calls:
        check.ok = False
        check.reason = (f"trace oracle_calls {check.oracle_calls} != "
                        f"audited evaluator calls {audited_calls}")
    elif op.kind == "accelerated":
        gap = trace.rows[-1].gap
        if gap is None or not gap <= op.eps:
            check.ok, check.reason = False, f"final gap {gap} above eps {op.eps:g}"
    else:
        for r in trace.rows:
            if r.iteration >= 1 and not (r.gap is not None and r.bound is not None
                                         and r.gap <= r.bound + BOUND_SLACK):
                check.ok = False
                check.reason = f"gap {r.gap} above bound {r.bound} at t={r.iteration}"
                break
    return check
