"""Registered property checks: the empirical certification suite.

Each check runs one verifiable statement about the implementation on the
catalogue at a fixed tolerance and reports the measured worst violation.
``verify`` aggregates them into a :class:`VerificationReport`; the CLI renders
the report as a table and sets the exit code from ``report.overall``.

The counterexample check uses expected-failure semantics: it passes exactly
when every gamma it tries shows a strictly positive quasar violation.

Every tolerance, window and budget of a certified claim is typed here once, or
read from the property function that applies it; the acceptance suite runs
these checks rather than restating them.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import baselines, prox
from .accel import check_linesearch_certificates, run_accelerated
from .errors import ConfigError
from .harness import load_config, resolve_x0, run_experiment, sweep
from .objectives import (
    CATALOGUE_NAMES,
    OracleCounter,
    check_quasar_convexity,
    check_smoothness,
    evaluate,
    finite_diff_gradient,
    make_catalogue_objective,
    sample_feasible,
)

SMOOTH_NAMES = CATALOGUE_NAMES  # every entry declares an L to certify

#: How far a recorded gap may exceed its rate bound (baselines and accelerated).
_BOUND_SLACK = 1e-9
#: How far below zero a recorded gap may round.
_GAP_FLOOR = -1e-10
#: Largest relative increase of f that a PGD step may show (rounding only).
_PGD_MONOTONE_RTOL = 4e-16
#: The constant C of the oracle budgets: ``C log2(L D^2 / delta)`` inner
#: iterations per prox solve, ``C T log2(L D^2 / delta)`` calls per accelerated run.
_ITERATION_CONSTANT = 50.0


@dataclass
class CheckResult:
    name: str
    max_violation: float
    tolerance: float
    passed: bool
    samples: int
    note: str = ""


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    @property
    def overall(self):
        return all(c.passed for c in self.checks)


# -- individual checks ---------------------------------------------------------


def _quasar_certificate(name):
    obj = make_catalogue_objective(name)
    rep = check_quasar_convexity(obj, 10_000)
    tol = 1e-9
    return CheckResult(
        name=f"quasar_certificate:{name}",
        max_violation=rep["max_violation"],
        tolerance=tol,
        passed=rep["max_violation"] <= tol,
        samples=rep["samples"],
    )


def _quasar_counterexample():
    obj = make_catalogue_objective("fig1_counterexample")
    least = min(check_quasar_convexity(obj, 10_000, gamma=gamma)["max_violation"]
                for gamma in (0.1, 0.5, 1.0))
    # Expected failure: certification must detect a strictly positive
    # violation at every gamma, so the smallest of the three is reported.
    return CheckResult(
        name="quasar_counterexample:fig1_counterexample",
        max_violation=least,
        tolerance=0.0,
        passed=least > 0.0,
        samples=30_000,
        note="passes iff every gamma in {0.1, 0.5, 1} violates",
    )


def _counterexample_construction():
    obj = make_catalogue_objective("fig1_counterexample")
    x0 = obj.params["x0"]
    at_minus2 = np.array([-2.0])
    slope = obj.evaluator(at_minus2)[1][0]
    h = 1e-4
    f = lambda v: obj.evaluator(np.array([v]))[0]
    curvature = (f(-2.0 + h) - 2.0 * f(-2.0) + f(-2.0 - h)) / h**2
    tol = 1e-8
    ok = (
        abs(x0 - (-12.23)) < 0.005  # agrees to two decimals
        and abs(slope) <= tol
        and curvature < 0.0
    )
    return CheckResult(
        name="counterexample_construction:fig1_counterexample",
        max_violation=abs(slope),
        tolerance=tol,
        passed=bool(ok),
        samples=3,
        note=f"x0={x0:.4f}, second difference {curvature:.4f}",
    )


def _smoothness(name):
    obj = make_catalogue_objective(name)
    rep = check_smoothness(obj, 10_000 if obj.dimension == 1 else 2_000)
    return CheckResult(
        name=f"smoothness:{name}",
        max_violation=rep["max_secant_ratio"] - obj.smoothness_L,
        tolerance=rep["tolerance"],
        passed=rep["passed"],
        samples=rep["samples"],
        note=f"max ratio {rep['max_secant_ratio']:.6f} vs L={obj.smoothness_L}",
    )


def _gradient_consistency(name):
    obj = make_catalogue_objective(name)
    worst = 0.0
    pts = sample_feasible(obj.feasible_set, 100)
    counter = OracleCounter()
    for x in pts:
        grad = evaluate(obj, x, counter)[1]
        fd = finite_diff_gradient(obj, x, 1e-5)
        worst = max(worst, float(np.linalg.norm(fd - grad)))
    tol = 1e-6
    return CheckResult(
        name=f"gradient_consistency:{name}",
        max_violation=worst,
        tolerance=tol,
        passed=worst <= tol,
        samples=len(pts),
    )


def _prox_conditioning(name):
    obj = make_catalogue_objective(name)
    rep = prox.check_prox_conditioning(obj, samples=10_000)
    violation = max(rep["lower"] - rep["min_ratio"], rep["max_ratio"] - rep["upper"])
    return CheckResult(
        name=f"prox_conditioning:{name}",
        max_violation=violation,
        tolerance=rep["tolerance"],
        passed=rep["passed"],
        samples=rep["samples"],
        note=f"secant bracket [{rep['min_ratio']:.5f}, {rep['max_ratio']:.5f}]"
             f" within [{rep['lower']:.5f}, {rep['upper']:.5f}]",
    )


def _moreau_smoothness(name):
    obj = make_catalogue_objective(name)
    rep = prox.check_envelope_smoothness(obj, samples=200)
    return CheckResult(
        name=f"moreau_smoothness:{name}",
        max_violation=rep["max_secant_ratio"] - 2.0 * obj.smoothness_L,
        tolerance=rep["tolerance"],
        passed=rep["passed"],
        samples=rep["samples"],
        note=f"max envelope secant {rep['max_secant_ratio']:.5f} vs 2L",
    )


def _moreau_quasar(name, tol):
    obj = make_catalogue_objective(name)
    rep = prox.check_moreau_quasar(obj, grid=2000)
    return CheckResult(
        name=f"moreau_quasar:{name}",
        max_violation=rep["max_violation"],
        tolerance=tol,
        passed=rep["max_violation"] <= tol,
        samples=rep["samples"],
    )


def _prox_descent(name):
    obj = make_catalogue_objective(name)
    worst = -np.inf
    failures = 0
    pts = sample_feasible(obj.feasible_set, 50)
    for x in pts:
        rep = prox.check_descent_lemma(obj, x)
        worst = max(worst, rep["slack"])
        failures += 0 if rep["passed"] else 1
    return CheckResult(
        name=f"prox_descent:{name}",
        max_violation=worst,
        tolerance=0.0,
        passed=failures == 0,
        samples=len(pts),
        note=f"{failures} failures",
    )


def _prox_stopping(name):
    obj = make_catalogue_objective(name)
    rep = prox.check_stopping_soundness(obj, samples=50)
    return CheckResult(
        name=f"prox_stopping:{name}",
        max_violation=rep["max_value_shift"] - rep["delta"],
        tolerance=0.0,
        passed=rep["passed"],
        samples=rep["samples"],
        note=f"re-solve shift {rep['max_value_shift']:.2e} vs delta {rep['delta']:.0e}",
    )


def _prox_gradient_error(name):
    obj = make_catalogue_objective(name)
    rep = prox.check_gradient_error_bound(obj, samples=100)
    return CheckResult(
        name=f"prox_gradient_error:{name}",
        max_violation=rep["max_gradient_error"] - rep["bound"],
        tolerance=0.0,
        passed=rep["passed"],
        samples=rep["samples"],
        note=f"max error {rep['max_gradient_error']:.2e} vs bound {rep['bound']:.2e}",
    )


def _prox_iteration_budget():
    worst = 0.0
    for name in ("quadratic", "example1"):
        obj = make_catalogue_objective(name)
        rep = prox.fit_iteration_constant(obj, samples=50)
        worst = max(worst, rep["fitted_constant"])
    return CheckResult(
        name="prox_iteration_budget",
        max_violation=worst - _ITERATION_CONSTANT,
        tolerance=0.0,
        passed=worst <= _ITERATION_CONSTANT,
        samples=100,
        note=f"fitted iteration constant C={worst:.2f} (iters <= C log2(L D^2/delta))",
    )


#: The solver runs the checks audit: catalogue objective, its params, and x0.
_INSTANCES = {
    "quadratic_box": ("quadratic", {}, [1.0, 1.0]),
    "example1": ("example1", {}, [5.0]),
    "quadratic_simplex": ("quadratic", {"set": {"kind": "simplex", "dimension": 3}}, "vertex"),
}


def _instance(name):
    objective, params, x0 = _INSTANCES[name]
    obj = make_catalogue_objective(objective, params)
    return obj, resolve_x0(obj.feasible_set, x0)


def _linesearch_certificate(name):
    rep = check_linesearch_certificates(*_instance(name), 1e-3)
    return CheckResult(
        name=f"linesearch_certificate:{name}",
        max_violation=rep["max_excess"],
        tolerance=0.0,
        passed=rep["passed"],
        samples=rep["calls"],
        note=f"max loops {rep['max_loops']} <= bound {rep['loop_bound']}",
    )


def _accelerated_gap(name, epsilon):
    obj, x0 = _instance(name)
    counter = OracleCounter()
    trace = run_accelerated(obj, x0, epsilon, counter)
    params = trace.header["params"]
    budget = (_ITERATION_CONSTANT * params["T"]
              * math.log2(params["L"] * params["D"] ** 2 / params["delta"]))
    gap = trace.column("gap")
    bound = trace.column("bound")
    with np.errstate(invalid="ignore"):
        dominated = np.all(gap[1:] <= bound[1:] + _BOUND_SLACK)
    ok = (
        trace.final_gap <= epsilon
        and counter.calls <= budget
        and bool(dominated)
        and float(np.nanmin(gap)) >= _GAP_FLOOR
    )
    return CheckResult(
        name=f"accelerated_gap:{name}",
        max_violation=trace.final_gap - epsilon,
        tolerance=0.0,
        passed=bool(ok),
        samples=len(trace.rows),
        note=f"final gap {trace.final_gap:.2e} <= {epsilon:g}; "
             f"oracle calls {counter.calls} <= {budget:.0f}",
    )


def _pgd_mapping(name, check):
    reports = [check(make_catalogue_objective(objective), trials=1000)
               for objective in ("quadratic", "example1", "glm_sigmoid")]
    return CheckResult(
        name=name,
        max_violation=max(rep["max_excess"] for rep in reports),
        tolerance=reports[0]["tolerance"],
        passed=all(rep["passed"] for rep in reports),
        samples=sum(rep["samples"] for rep in reports),
    )


def _fw_dynamics():
    rep = baselines.check_fw_feasibility_and_weights(*_instance("quadratic_simplex"), 500)
    violation = max(rep["max_infeasibility"] - rep["tolerance"],
                    rep["max_weight_mismatch"] - rep["weight_tolerance"])
    return CheckResult(
        name="fw_dynamics",
        max_violation=violation,
        tolerance=0.0,
        passed=rep["passed"],
        samples=rep["iterations"],
        note="iterate feasibility and weight identity on the solver's own run",
    )


def _rate_envelope(algorithm, instance):
    obj, x0 = _instance(instance)
    T = 10_000
    counter = OracleCounter()
    runner = baselines.run_pgd if algorithm == "pgd" else baselines.run_frank_wolfe
    trace = runner(obj, x0, T, counter)
    baselines.attach_rate_bounds(trace, obj.smoothness_L, obj.quasar_gamma,
                                 obj.feasible_set.diameter())
    gap = trace.column("gap")
    bound = trace.column("bound")
    worst = float(np.max(gap[1:] - bound[1:]))
    negative_gap = float(np.min(gap))
    monotone_excess = 0.0
    if algorithm == "pgd":
        f = trace.column("f_value")
        scale = np.maximum(1.0, np.abs(f[:-1]))
        monotone_excess = float(np.max((f[1:] - f[:-1]) / scale))
    ok = (worst <= _BOUND_SLACK and negative_gap >= _GAP_FLOOR
          and monotone_excess <= _PGD_MONOTONE_RTOL)
    return CheckResult(
        name=f"rate_envelope:{algorithm}_{instance}",
        max_violation=worst,
        tolerance=_BOUND_SLACK,
        passed=bool(ok),
        samples=T,
        note=f"min gap {negative_gap:.1e}; worst relative f increase {monotone_excess:.1e}",
    )


def _oracle_accounting():
    obj = make_catalogue_objective("quadratic")
    audited = {"n": 0}
    inner = obj.evaluator

    def wrapped(x):
        audited["n"] += 1
        return inner(x)

    obj.evaluator = wrapped
    mismatches = []
    counter = OracleCounter()
    trace = baselines.run_pgd(obj, np.array([1.0, 1.0]), 50, counter)
    mismatches.append(abs(trace.final_oracle_calls - audited["n"]))
    mismatches.append(abs(counter.calls - audited["n"]))

    audited["n"] = 0
    counter = OracleCounter()
    trace = baselines.run_frank_wolfe(obj, np.array([1.0, 1.0]), 50, counter)
    mismatches.append(abs(trace.final_oracle_calls - audited["n"]))

    audited["n"] = 0
    counter = OracleCounter()
    trace = run_accelerated(obj, np.array([1.0, 1.0]), 1e-1, counter)
    mismatches.append(abs(trace.final_oracle_calls - audited["n"]))
    worst = max(mismatches)
    return CheckResult(
        name="oracle_accounting",
        max_violation=float(worst),
        tolerance=0.0,
        passed=worst == 0,
        samples=4,
        note="trace oracle_calls equals the audited evaluator invocation count",
    )


class _GammaPoisoned:
    """Objective proxy whose quasar_gamma access raises; baselines must not read it."""

    def __init__(self, obj):
        object.__setattr__(self, "_obj", obj)

    def __getattr__(self, item):
        if item == "quasar_gamma":
            raise AssertionError("baseline solver read quasar_gamma")
        return getattr(self._obj, item)


def _gamma_free_baselines():
    obj = _GammaPoisoned(make_catalogue_objective("quadratic"))
    try:
        baselines.run_pgd(obj, np.array([1.0, 1.0]), 50, OracleCounter())
        baselines.run_frank_wolfe(obj, np.array([1.0, 1.0]), 50, OracleCounter())
        baselines.gradient_mapping(obj, np.array([0.5, 0.5]), 1.0, OracleCounter())
        passed, note = True, "solvers completed without touching gamma"
    except AssertionError as exc:
        passed, note = False, str(exc)
    return CheckResult(
        name="gamma_free_baselines",
        max_violation=0.0 if passed else 1.0,
        tolerance=0.0,
        passed=passed,
        samples=3,
        note=note,
    )


def _trace_determinism():
    simplex_quadratic = {"name": "quadratic",
                         "params": {"set": {"kind": "simplex", "dimension": 3}}}
    configs = [
        {"algorithm": "pgd", "objective": simplex_quadratic, "x0": "vertex", "T": 50, "seed": 7},
        {"algorithm": "frank_wolfe", "objective": simplex_quadratic, "x0": "vertex", "T": 200,
         "seed": 5},
        {"algorithm": "accelerated", "objective": "quadratic", "x0": [1.0, 1.0], "epsilon": 1e-2,
         "seed": 5},
    ]
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        for i, config in enumerate(configs):
            p1, p2 = f"{tmp}/{i}_a.csv", f"{tmp}/{i}_b.csv"
            run_experiment(load_config(config), output_path=p1)
            run_experiment(load_config(config), output_path=p2)
            same &= open(p1, "rb").read() == open(p2, "rb").read()
    return CheckResult(
        name="trace_determinism",
        max_violation=0.0 if same else 1.0,
        tolerance=0.0,
        passed=same,
        samples=2 * len(configs),
        note="identical config+seed produces identical bytes",
    )


def _scaling_fit(algorithm):
    if algorithm == "accelerated":
        base = {
            "algorithm": "accelerated",
            "objective": {"name": "quadratic", "params": {"dim": 5}},
            "x0": [1.0] * 5,
            "epsilon": 1e-2,
            "seed": 0,
        }
        grid = {"epsilon": [1e-2, 1e-3, 1e-4]}
        window = (-0.75, -0.45)
    elif algorithm == "pgd":
        base = {"algorithm": "pgd", "objective": "example1", "x0": [5.0], "T": 100, "seed": 0}
        grid = {"T": [100, 1000, 10_000]}
        window = (-1.3, -0.8)
    else:
        base = {
            "algorithm": "frank_wolfe",
            "objective": {"name": "quadratic",
                          "params": {"set": {"kind": "simplex", "dimension": 30_000}}},
            "x0": "vertex",
            "T": 100,
            "seed": 0,
        }
        grid = {"T": [100, 1000, 10_000]}
        window = (-1.3, -0.8)
    with tempfile.TemporaryDirectory() as tmp:
        summary = sweep(load_config(base), grid, tmp)
    slope = summary["fits"][algorithm]["slope"]
    lo, hi = window
    violation = max(lo - slope, slope - hi)
    return CheckResult(
        name=f"scaling_fit:{algorithm}",
        max_violation=violation,
        tolerance=0.0,
        passed=lo <= slope <= hi,
        samples=len(summary["runs"]),
        note=f"fitted log-log slope {slope:.3f} in [{lo}, {hi}]",
    )


# -- registry ------------------------------------------------------------------


def _registry():
    checks = {}

    for name in CATALOGUE_NAMES:
        if name != "fig1_counterexample":
            checks[f"quasar_certificate:{name}"] = (
                lambda n=name: _quasar_certificate(n)
            )
    checks["quasar_counterexample:fig1_counterexample"] = _quasar_counterexample
    checks["counterexample_construction:fig1_counterexample"] = _counterexample_construction
    for name in SMOOTH_NAMES:
        checks[f"smoothness:{name}"] = lambda n=name: _smoothness(n)
        checks[f"gradient_consistency:{name}"] = lambda n=name: _gradient_consistency(n)
    for name in ("quadratic", "example1"):
        checks[f"prox_conditioning:{name}"] = lambda n=name: _prox_conditioning(n)
        checks[f"moreau_smoothness:{name}"] = lambda n=name: _moreau_smoothness(n)
        checks[f"prox_stopping:{name}"] = lambda n=name: _prox_stopping(n)
        checks[f"prox_gradient_error:{name}"] = lambda n=name: _prox_gradient_error(n)
    checks["moreau_quasar:example1"] = lambda: _moreau_quasar("example1", 1e-6)
    checks["moreau_quasar:quadratic"] = lambda: _moreau_quasar("quadratic", 1e-8)
    for name in CATALOGUE_NAMES:
        checks[f"prox_descent:{name}"] = lambda n=name: _prox_descent(n)
    checks["prox_iteration_budget"] = _prox_iteration_budget
    checks["linesearch_certificate:quadratic_box"] = (
        lambda: _linesearch_certificate("quadratic_box")
    )
    checks["linesearch_certificate:example1"] = (
        lambda: _linesearch_certificate("example1")
    )
    for name, check in (("pgd_mapping_bound", baselines.check_mapping_inequality),
                        ("pgd_descent_step", baselines.check_mapping_descent)):
        checks[name] = lambda n=name, c=check: _pgd_mapping(n, c)
    checks["fw_dynamics"] = _fw_dynamics
    for algorithm in ("pgd", "frank_wolfe"):
        for instance in ("example1", "quadratic_simplex"):
            checks[f"rate_envelope:{algorithm}_{instance}"] = (
                lambda a=algorithm, i=instance: _rate_envelope(a, i)
            )
    checks["accelerated_gap:quadratic_box"] = lambda: _accelerated_gap("quadratic_box", 1e-3)
    checks["accelerated_gap:example1"] = lambda: _accelerated_gap("example1", 1e-4)
    checks["oracle_accounting"] = _oracle_accounting
    checks["gamma_free_baselines"] = _gamma_free_baselines
    checks["trace_determinism"] = _trace_determinism
    for algorithm in ("accelerated", "pgd", "frank_wolfe"):
        checks[f"scaling_fit:{algorithm}"] = lambda a=algorithm: _scaling_fit(a)
    return checks


def available_checks():
    return list(_registry())


def verify(suite=None):
    """Run the registered checks (all, or the named subset/groups)."""
    registry = _registry()
    if suite:
        selected = []
        for token in suite:
            if token in registry:
                selected.append(token)
                continue
            group = [n for n in registry if n.split(":")[0] == token]
            if not group:
                raise ConfigError("suite", f"unknown check '{token}'")
            selected.extend(group)
    else:
        selected = list(registry)
    report = VerificationReport()
    for name in selected:
        report.checks.append(registry[name]())
    return report
