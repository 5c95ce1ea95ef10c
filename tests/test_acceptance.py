"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line so the gate can be audited from the run
log (use ``pytest -s tests/test_acceptance.py`` to see them live).
"""

import math
import time

import numpy as np
import pytest

from qopt import (
    OracleCounter,
    check_linesearch_certificates,
    check_moreau_quasar,
    check_prox_conditioning,
    check_quasar_convexity,
    load_config,
    make_catalogue_objective,
    run_accelerated,
    run_experiment,
    run_frank_wolfe,
    run_pgd,
    sweep,
)
from qopt.baselines import attach_rate_bounds
from qopt.prox import check_descent_lemma, check_envelope_smoothness
from qopt.objectives import CATALOGUE_NAMES, sample_feasible


def report(criterion, passed, detail):
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def accel_quad_box():
    obj = make_catalogue_objective("quadratic")
    counter = OracleCounter()
    start = time.perf_counter()
    trace = run_accelerated(obj, np.array([1.0, 1.0]), 1e-3, counter)
    return obj, trace, counter, time.perf_counter() - start


@pytest.fixture(scope="module")
def accel_example1():
    obj = make_catalogue_objective("example1")
    counter = OracleCounter()
    start = time.perf_counter()
    trace = run_accelerated(obj, np.array([5.0]), 1e-4, counter)
    return obj, trace, counter, time.perf_counter() - start


def baseline_instances():
    example1 = make_catalogue_objective("example1")
    simplex_quad = make_catalogue_objective(
        "quadratic", {"set": {"kind": "simplex", "dimension": 3}}
    )
    return [
        ("example1", example1, np.array([5.0])),
        ("quadratic_simplex", simplex_quad, simplex_quad.feasible_set.canonical_vertex()),
    ]


def test_criterion_01_example1_quasar_certificate():
    obj = make_catalogue_objective("example1")
    start = time.perf_counter()
    rep = check_quasar_convexity(obj, 10_000)
    elapsed = time.perf_counter() - start
    ok = rep["max_violation"] <= 1e-9 and elapsed < 1.0
    report("criterion-1 example1 quasar certificate", ok,
           f"max violation {rep['max_violation']:.3e} on 1e4 grid in {elapsed:.3f}s")


def test_criterion_02_regularized_counterexample():
    obj = make_catalogue_objective("fig1_counterexample")
    x0 = obj.params["x0"]
    slope = obj.evaluator(np.array([-2.0]))[1][0]
    f = lambda v: obj.evaluator(np.array([v]))[0]
    h = 1e-4
    second = (f(-2 + h) - 2 * f(-2.0) + f(-2 - h)) / h**2
    violations = [
        check_quasar_convexity(obj, 10_000, gamma=g)["max_violation"]
        for g in (0.1, 0.5, 1.0)
    ]
    ok = (
        abs(x0 - (-12.23)) < 0.005
        and abs(slope) <= 1e-8
        and second < 0.0
        and min(violations) > 0.0
    )
    report("criterion-2 regularized counterexample", ok,
           f"x0={x0:.4f}, slope {slope:.1e}, curvature {second:.4f}, "
           f"min violation {min(violations):.3f}")


def test_criterion_03_prox_conditioning():
    worst_note = []
    ok = True
    for name in ("quadratic", "example1"):
        obj = make_catalogue_objective(name)
        L = obj.smoothness_L
        rep = check_prox_conditioning(obj, samples=10_000)
        ok &= rep["min_ratio"] >= L * (1 - 1e-8) and rep["max_ratio"] <= 3 * L * (1 + 1e-8)
        smooth = check_envelope_smoothness(obj, samples=200)
        ok &= smooth["max_secant_ratio"] <= 2 * L * (1 + 1e-6)
        worst_note.append(
            f"{name}: bracket [{rep['min_ratio']:.4f},{rep['max_ratio']:.4f}]"
            f" in [{L:.4f},{3 * L:.4f}], envelope secant {smooth['max_secant_ratio']:.4f}"
        )
    report("criterion-3 prox conditioning", bool(ok), "; ".join(worst_note))


def test_criterion_04_envelope_quasar_convexity():
    details = []
    ok = True
    for name in ("example1", "quadratic"):
        rep = check_moreau_quasar(make_catalogue_objective(name), grid=2000, delta=1e-12)
        ok &= rep["max_violation"] <= 1e-6
        details.append(f"{name}: {rep['max_violation']:.2e}")
    report("criterion-4 envelope quasar convexity", bool(ok),
           "max violations " + ", ".join(details) + " (tol 1e-6, 2000 points)")


def test_criterion_05_prox_descent():
    failures = 0
    total = 0
    for name in CATALOGUE_NAMES:
        obj = make_catalogue_objective(name)
        for x in sample_feasible(obj.feasible_set, 50, seed=11):
            total += 1
            if not check_descent_lemma(obj, x, delta=1e-8)["passed"]:
                failures += 1
    report("criterion-5 prox descent inequality", failures == 0,
           f"{failures} failures over {total} points (50 per objective)")


def test_criterion_06_linesearch_certificates():
    rep_q = check_linesearch_certificates(make_catalogue_objective("quadratic"),
                                          np.array([1.0, 1.0]), 1e-3)
    rep_e = check_linesearch_certificates(make_catalogue_objective("example1"),
                                          np.array([5.0]), 1e-3)
    ok = rep_q["passed"] and rep_e["passed"]
    report("criterion-6 line-search certificates", bool(ok),
           f"quadratic/box: excess {rep_q['max_excess']:.2e}, loops {rep_q['max_loops']}"
           f"<= {rep_q['loop_bound']}; example1: excess {rep_e['max_excess']:.2e},"
           f" loops {rep_e['max_loops']} <= {rep_e['loop_bound']}")


def test_criterion_07_frank_wolfe_envelope():
    start = time.perf_counter()
    ok = True
    details = []
    for label, obj, x0 in baseline_instances():
        counter = OracleCounter()
        trace = run_frank_wolfe(obj, x0, 10_000, counter)
        attach_rate_bounds(trace, obj.smoothness_L, obj.quasar_gamma,
                           obj.feasible_set.diameter())
        gap = trace.column("gap")
        bound = trace.column("bound")
        worst = float(np.max(gap[1:] - bound[1:]))
        ok &= worst <= 1e-9 and float(np.min(gap)) >= -1e-10
        details.append(f"{label}: worst gap-bound {worst:.2e}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report("criterion-7 Frank-Wolfe rate envelope", bool(ok),
           "; ".join(details) + f"; runtime {elapsed:.2f}s < 10s")


def test_criterion_08_pgd_envelope():
    ok = True
    details = []
    for label, obj, x0 in baseline_instances():
        counter = OracleCounter()
        trace = run_pgd(obj, x0, 10_000, counter)
        attach_rate_bounds(trace, obj.smoothness_L, obj.quasar_gamma,
                           obj.feasible_set.diameter())
        gap = trace.column("gap")
        bound = trace.column("bound")
        f = trace.column("f_value")
        worst = float(np.max(gap[1:] - bound[1:]))
        monotone = bool(np.all(np.diff(f) <= 4e-16 * np.maximum(1.0, np.abs(f[:-1]))))
        ok &= worst <= 1e-9 and monotone and float(np.min(gap)) >= -1e-10
        details.append(f"{label}: worst gap-bound {worst:.2e}, monotone={monotone}")
    report("criterion-8 PGD rate envelope", bool(ok), "; ".join(details))


def test_criterion_09_accelerated_end_to_end(accel_quad_box, accel_example1):
    details = []
    ok = True
    for label, epsilon, expected_T, bundle in [
        ("quadratic/box", 1e-3, 358, accel_quad_box),
        ("example1", 1e-4, 10_986, accel_example1),
    ]:
        obj, trace, counter, elapsed = bundle
        params = trace.header["params"]
        budget = 50.0 * params["T"] * math.log2(params["L"] * params["D"] ** 2 / params["delta"])
        ok &= (
            params["T"] == expected_T
            and trace.final_gap <= epsilon
            and counter.calls <= budget
            and elapsed < 60.0
        )
        observed = counter.calls / (params["T"] * math.log2(params["L"] * params["D"] ** 2 / params["delta"]))
        details.append(
            f"{label}: T={params['T']}, gap {trace.final_gap:.2e} <= {epsilon:g}, "
            f"calls {counter.calls} <= {budget:.0f} (observed constant {observed:.3f}), "
            f"{elapsed:.1f}s"
        )
    report("criterion-9 accelerated end-to-end", bool(ok), "; ".join(details))


def test_criterion_10_scaling_fits(tmp_path):
    accel = sweep(
        load_config({"algorithm": "accelerated",
                     "objective": {"name": "quadratic", "params": {"dim": 5}},
                     "x0": [1.0] * 5, "epsilon": 1e-2, "seed": 0}),
        {"epsilon": [1e-2, 1e-3, 1e-4]},
        tmp_path / "accel",
    )
    pgd = sweep(
        load_config({"algorithm": "pgd", "objective": "example1",
                     "x0": [5.0], "T": 100, "seed": 0}),
        {"T": [100, 1000, 10_000]},
        tmp_path / "pgd",
    )
    fw = sweep(
        load_config({"algorithm": "frank_wolfe",
                     "objective": {"name": "quadratic",
                                   "params": {"set": {"kind": "simplex", "dimension": 30_000}}},
                     "x0": "vertex", "T": 100, "seed": 0}),
        {"T": [100, 1000, 10_000]},
        tmp_path / "fw",
    )
    s_accel = accel["fits"]["accelerated"]["slope"]
    s_pgd = pgd["fits"]["pgd"]["slope"]
    s_fw = fw["fits"]["frank_wolfe"]["slope"]
    ok = (-0.75 <= s_accel <= -0.45) and (-1.3 <= s_pgd <= -0.8) and (-1.3 <= s_fw <= -0.8)
    report("criterion-10 scaling fits", bool(ok),
           f"accelerated calls-vs-eps slope {s_accel:.3f} in [-0.75,-0.45]; "
           f"pgd gap-vs-t slope {s_pgd:.3f}, fw {s_fw:.3f} in [-1.3,-0.8]")


def test_criterion_11_trace_determinism(tmp_path):
    configs = [
        {"algorithm": "pgd", "objective": "example1", "x0": [5.0], "T": 200, "seed": 5},
        {"algorithm": "frank_wolfe",
         "objective": {"name": "quadratic",
                       "params": {"set": {"kind": "simplex", "dimension": 3}}},
         "x0": "vertex", "T": 200, "seed": 5},
        {"algorithm": "accelerated", "objective": "quadratic",
         "x0": [1.0, 1.0], "epsilon": 1e-2, "seed": 5},
    ]
    ok = True
    for i, raw in enumerate(configs):
        p1, p2 = tmp_path / f"{i}_a.csv", tmp_path / f"{i}_b.csv"
        run_experiment(load_config(raw), output_path=p1)
        run_experiment(load_config(raw), output_path=p2)
        ok &= p1.read_bytes() == p2.read_bytes()
    report("criterion-11 trace determinism", bool(ok),
           "identical config+seed gives byte-identical CSVs for all algorithms")
