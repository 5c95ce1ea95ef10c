"""The sampled certification checks against their validating references.

The checks call the trusted private bodies (``prox._solve``, ``sets._norm``,
``FeasibleSet._project``/``_lmo``) on points the sets sampled or the solvers
produced, and query each sample point once.  The references below are the
earlier loop bodies, which went through the public, validating entry points
and ``np.linalg.norm``; every field of a check's :class:`CheckResult` must
match the one derived from its reference, bit for bit.  A NaN sample must fail
a check instead of being skipped by its ``max``/``min``.
"""

import dataclasses
import math

import numpy as np
import pytest

import qopt.accel
import qopt.baselines
import qopt.checks
import qopt.prox
from qopt import (
    Ball,
    Box,
    CheckResult,
    Objective,
    OracleCounter,
    PreconditionError,
    Simplex,
    default_lambda,
    evaluate,
    finite_diff_gradient,
    load_config,
    make_catalogue_objective,
    solve_prox_subproblem,
)
from qopt.checks import (
    MAPPING_TOL,
    _worst_quasar_violations,
    accelerated_gap,
    fw_dynamics,
    gamma_free_baselines,
    gradient_consistency,
    linesearch_certificate,
    moreau_quasar,
    moreau_smoothness,
    pgd_descent_step,
    pgd_mapping_bound,
    prox_conditioning,
    prox_descent,
    prox_gradient_error,
    prox_iteration_budget,
    prox_stopping,
    quasar_certificate,
    quasar_counterexample,
    rate_envelope,
    sample_feasible,
    sample_pairs,
    smoothness,
)

from conftest import trace_csv_lines

# -- the references: the loop bodies before the checks used the trusted path --


def ref_quasar_convexity(obj, samples, gamma=None):
    if obj.center is None:
        raise PreconditionError("check_quasar_convexity requires a known center")
    gamma = obj.quasar_gamma if gamma is None else gamma
    fstar = obj.evaluator(obj.center)[0]
    pts = sample_feasible(obj.feasible_set, samples)
    worst = -np.inf
    for x in pts:
        fx, gx = obj.evaluator(x)
        violation = fx + float(np.dot(gx, obj.center - x)) / gamma - fstar
        if violation > worst:
            worst = violation
    return {"max_violation": float(worst), "samples": len(pts)}


def ref_smoothness(obj, samples):
    set_ = obj.feasible_set
    if isinstance(set_, Box) and set_.dimension == 1:
        pts = set_.grid(samples)
        pairs = zip(pts[:-1], pts[1:])
    else:
        pairs = zip(*sample_pairs(set_, samples))
    worst = 0.0
    count = 0
    for u, v in pairs:
        sep = float(np.linalg.norm(u - v))
        if sep < 1e-12:
            continue
        gu = obj.evaluator(u)[1]
        gv = obj.evaluator(v)[1]
        worst = max(worst, float(np.linalg.norm(gu - gv)) / sep)
        count += 1
    rtol = 1e-6
    limit = obj.smoothness_L * (1.0 + rtol)
    return {"max_secant_ratio": worst, "limit": limit, "tolerance": obj.smoothness_L * rtol,
            "passed": worst <= limit, "samples": count}


def ref_prox_conditioning(obj, samples):
    L = obj.smoothness_L
    lam = default_lambda(obj)
    lo, hi = np.inf, -np.inf
    count = 0
    for u, v in zip(*sample_pairs(obj.feasible_set, samples)):
        sep2 = float(np.dot(u - v, u - v))
        if sep2 < 1e-18:
            continue
        gu = obj.evaluator(u)[1] + u / lam
        gv = obj.evaluator(v)[1] + v / lam
        ratio = float(np.dot(gu - gv, u - v)) / sep2
        lo, hi = min(lo, ratio), max(hi, ratio)
        count += 1
    rtol = 1e-8
    passed = lo >= L * (1.0 - rtol) and hi <= 3.0 * L * (1.0 + rtol)
    return {"min_ratio": lo, "max_ratio": hi, "lower": L, "upper": 3.0 * L,
            "tolerance": 3.0 * L * rtol, "passed": bool(passed), "samples": count}


def ref_moreau_quasar(obj, grid):
    delta = 1e-12
    counter = OracleCounter()
    m_star = solve_prox_subproblem(obj, obj.center, delta, counter).envelope_value
    pts = sample_feasible(obj.feasible_set, grid)
    worst = -np.inf
    for x in pts:
        res = solve_prox_subproblem(obj, x, delta, counter)
        violation = (
            res.envelope_value
            + float(np.dot(res.envelope_gradient, obj.center - x)) / obj.quasar_gamma
            - m_star
        )
        worst = max(worst, violation)
    return {"max_violation": float(worst), "samples": len(pts), "delta": delta,
            "oracle_calls": counter.calls}


def ref_descent_lemma(obj, x):
    delta = 1e-8
    counter = OracleCounter()
    at_x = solve_prox_subproblem(obj, x, delta, counter)
    at_y = solve_prox_subproblem(obj, at_x.y, delta, counter)
    lhs = at_y.envelope_value - at_x.envelope_value
    rhs = -float(np.dot(at_x.envelope_gradient, at_x.envelope_gradient)) / (
        8.0 * obj.smoothness_L
    ) + delta
    return {"lhs": lhs, "rhs": rhs, "slack": lhs - rhs, "passed": bool(lhs <= rhs)}


def ref_envelope_smoothness(obj, samples):
    delta = 1e-12
    min_sep = 0.02 * obj.feasible_set.diameter()
    counter = OracleCounter()
    worst = 0.0
    count = 0
    for u, v in zip(*sample_pairs(obj.feasible_set, samples)):
        sep = float(np.linalg.norm(u - v))
        if sep < min_sep:
            continue
        gu = solve_prox_subproblem(obj, u, delta, counter).envelope_gradient
        gv = solve_prox_subproblem(obj, v, delta, counter).envelope_gradient
        worst = max(worst, float(np.linalg.norm(gu - gv)) / sep)
        count += 1
    rtol = 1e-6
    limit = 2.0 * obj.smoothness_L * (1.0 + rtol)
    return {"max_secant_ratio": worst, "limit": limit, "tolerance": 2.0 * obj.smoothness_L * rtol,
            "passed": worst <= limit, "samples": count}


def ref_stopping_soundness(obj, samples):
    delta = 1e-6
    counter = OracleCounter()
    pts = sample_feasible(obj.feasible_set, samples)
    worst = 0.0
    for x in pts:
        coarse = solve_prox_subproblem(obj, x, delta, counter)
        fine = solve_prox_subproblem(obj, x, delta / 100.0, counter)
        worst = max(worst, abs(coarse.envelope_value - fine.envelope_value))
    return {"max_value_shift": worst, "delta": delta, "passed": worst <= delta,
            "samples": len(pts)}


def ref_gradient_error_bound(obj, samples):
    delta = 1e-6
    counter = OracleCounter()
    bound = math.sqrt(8.0 * obj.smoothness_L * delta)
    pts = sample_feasible(obj.feasible_set, samples)
    worst = 0.0
    for x in pts:
        coarse = solve_prox_subproblem(obj, x, delta, counter).envelope_gradient
        ref = solve_prox_subproblem(obj, x, 1e-14, counter).envelope_gradient
        worst = max(worst, float(np.linalg.norm(coarse - ref)))
    return {"max_gradient_error": worst, "bound": bound, "passed": worst <= bound,
            "samples": len(pts)}


def ref_iteration_constant(obj, samples):
    deltas = (1e-4, 1e-8, 1e-12)
    D = obj.feasible_set.diameter()
    L = obj.smoothness_L
    counter = OracleCounter()
    worst = 0.0
    for delta in deltas:
        denom = math.log2(max(L * D * D / delta, 4.0))
        for x in sample_feasible(obj.feasible_set, samples):
            res = solve_prox_subproblem(obj, x, delta, counter)
            worst = max(worst, res.inner_iterations / denom)
    return {"fitted_constant": worst, "samples": samples, "deltas": list(deltas)}


def ref_mapping_inequality(obj, trials):
    set_ = obj.feasible_set
    eta = 1.0 / obj.smoothness_L
    worst = -np.inf
    for x, yref in zip(*sample_pairs(set_, trials)):
        grad = obj.evaluator(x)[1]
        x_plus = set_.project(x - eta * grad)
        mapping = (x - x_plus) / eta
        lhs = float(np.dot(grad, x_plus - yref))
        rhs = float(np.dot(mapping, x_plus - yref))
        worst = max(worst, lhs - rhs)
    return {"max_excess": worst, "tolerance": MAPPING_TOL, "passed": worst <= MAPPING_TOL,
            "samples": trials}


def ref_mapping_descent(obj, trials):
    set_ = obj.feasible_set
    L = obj.smoothness_L
    eta = 1.0 / L
    worst = -np.inf
    for x in set_.sample(np.random.default_rng(0), trials):
        f, grad = obj.evaluator(x)
        x_plus = set_.project(x - eta * grad)
        mapping = (x - x_plus) / eta
        f_plus = obj.evaluator(x_plus)[0]
        excess = (f_plus - f) + float(np.dot(mapping, mapping)) / (2.0 * L)
        worst = max(worst, excess)
    return {"max_excess": worst, "tolerance": MAPPING_TOL, "passed": worst <= MAPPING_TOL,
            "samples": trials}


def ref_gradient_consistency(obj):
    worst = 0.0
    pts = sample_feasible(obj.feasible_set, 100)
    counter = OracleCounter()
    for x in pts:
        grad = evaluate(obj, x, counter)[1]
        fd = finite_diff_gradient(obj, x, 1e-5)
        worst = max(worst, float(np.linalg.norm(fd - grad)))
    return worst


def ref_lmo(set_, g):
    """The LMO bodies before ``FeasibleSet._lmo``, for a 1-D float64 ``g``."""
    if isinstance(set_, Box):
        return np.where(g < 0, set_.upper, set_.lower).astype(float)
    if isinstance(set_, Ball):
        norm = float(np.linalg.norm(g))
        if norm == 0.0:
            out = set_.center.copy()
            out[0] += set_.radius
            return out
        return set_.center - (set_.radius / norm) * g
    out = np.zeros(set_.dimension)
    out[int(np.argmin(g))] = set_.scale
    return out


# -- comparison ----------------------------------------------------------------


def bits(value):
    """A value with every float as its ``float.hex`` (NaN included)."""
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return ("float", float(value).hex())
    return (type(value).__name__, value)


def assert_same_report(actual, expected):
    assert bits(actual) == bits(expected)


def assert_result(result, *expected):
    """Every field of ``result``, bit for bit: name, max_violation, tolerance,
    passed, samples and note."""
    assert bits(dataclasses.astuple(result)) == bits(expected)


def audited(obj):
    """A copy of ``obj`` whose evaluator counts its calls in the returned one-item list."""
    inner = obj.evaluator
    calls = [0]

    def evaluator(x):
        calls[0] += 1
        return inner(x)

    return dataclasses.replace(obj, evaluator=evaluator), calls


# -- bit-for-bit equality with the references -----------------------------------

QUASAR_ENTRIES = ["quadratic", "affine_plus_quadratic", "example1", "glm_sigmoid"]
ALL_ENTRIES = QUASAR_ENTRIES + ["fig1_counterexample"]
PROX_ENTRIES = ["quadratic", "example1"]
MAPPING_ENTRIES = ["quadratic", "example1", "glm_sigmoid"]


@pytest.mark.parametrize("name", QUASAR_ENTRIES)
def test_quasar_convexity_matches_reference(name):
    obj = make_catalogue_objective(name)
    ref = ref_quasar_convexity(obj, 10_000)
    assert_result(quasar_certificate(obj, 10_000), f"quasar_certificate:{name}",
                  ref["max_violation"], 1e-9, ref["max_violation"] <= 1e-9, ref["samples"], "")


def test_counterexample_gammas_from_one_pass():
    obj, calls = audited(make_catalogue_objective("fig1_counterexample"))
    n, gammas = 10_000, (0.1, 0.5, 1.0)
    worst, count = _worst_quasar_violations(obj, obj.evaluator, n, gammas)
    assert calls[0] == n + 1
    assert count == n
    expected = [ref_quasar_convexity(obj, n, gamma)["max_violation"] for gamma in gammas]
    assert_same_report(worst, expected)
    # The check reports the least of the three, over 3 n samples.
    assert_result(quasar_counterexample(obj, n), "quasar_counterexample:fig1_counterexample",
                  min(expected), 0.0, min(expected) > 0.0, 3 * n,
                  "passes iff every gamma in {0.1, 0.5, 1} violates")


@pytest.mark.parametrize("name", ALL_ENTRIES)
def test_smoothness_matches_reference(name):
    obj, calls = audited(make_catalogue_objective(name))
    n = 10_000 if obj.dimension == 1 else 2_000
    result = smoothness(obj, n)
    if obj.dimension == 1:
        # Consecutive grid pairs share a point, queried once: n calls.
        assert calls[0] == n
    ref = ref_smoothness(obj, n)
    L = obj.smoothness_L
    assert_result(result, f"smoothness:{name}", ref["max_secant_ratio"] - L, ref["tolerance"],
                  ref["passed"], ref["samples"], f"max ratio {ref['max_secant_ratio']:.6f} vs L={L}")


def test_smoothness_grid_query_count_is_the_grid_size():
    obj, calls = audited(make_catalogue_objective("quadratic", {"dim": 1}))
    for n in (2, 3, 17):
        calls[0] = 0
        assert smoothness(obj, n).samples == n - 1
        assert calls[0] == n


@pytest.mark.parametrize("name", PROX_ENTRIES)
def test_prox_conditioning_matches_reference(name):
    obj = make_catalogue_objective(name)
    ref = ref_prox_conditioning(obj, 10_000)
    lo, hi, lower, upper = ref["min_ratio"], ref["max_ratio"], ref["lower"], ref["upper"]
    assert_result(prox_conditioning(obj, 10_000), f"prox_conditioning:{name}",
                  max(lower - lo, hi - upper), ref["tolerance"], ref["passed"], ref["samples"],
                  f"secant bracket [{lo:.5f}, {hi:.5f}] within [{lower:.5f}, {upper:.5f}]")


def test_prox_conditioning_lower_end_matches_reference():
    # With curvature -L every secant ratio sits at the lower end L, so the
    # violation is L - min ratio and pins the least ratio bit for bit.
    quadratic = make_catalogue_objective("quadratic")
    obj = dataclasses.replace(quadratic, name="concave_quadratic",
                              evaluator=lambda x: (-0.5 * float(np.dot(x, x)), -x))
    ref = ref_prox_conditioning(obj, 500)
    lo, hi = ref["min_ratio"], ref["max_ratio"]
    assert ref["lower"] - lo > hi - ref["upper"]
    assert_result(prox_conditioning(obj, 500), "prox_conditioning:concave_quadratic",
                  ref["lower"] - lo, ref["tolerance"], ref["passed"], ref["samples"],
                  f"secant bracket [{lo:.5f}, {hi:.5f}] within [1.00000, 3.00000]")


@pytest.mark.parametrize("name", PROX_ENTRIES)
def test_moreau_quasar_matches_reference(name):
    obj = make_catalogue_objective(name)
    ref = ref_moreau_quasar(obj, 300)
    tol = qopt.checks._CHECKS[f"moreau_quasar:{name}"][2]
    assert_result(moreau_quasar(obj, tol, 300), f"moreau_quasar:{name}", ref["max_violation"],
                  tol, ref["max_violation"] <= tol, ref["samples"], "")


@pytest.mark.parametrize("name", ALL_ENTRIES)
def test_descent_lemma_matches_reference(name):
    obj = make_catalogue_objective(name)
    points = sample_feasible(obj.feasible_set, 10)
    refs = [ref_descent_lemma(obj, x) for x in points]
    for x, ref in zip(points, refs):
        assert_result(prox_descent(obj, [x]), f"prox_descent:{name}", ref["slack"], 0.0,
                      ref["passed"], 1, f"{int(not ref['passed'])} failures")
    # Over all the points: the worst slack and the failure count.
    failures = sum(not ref["passed"] for ref in refs)
    assert_result(prox_descent(obj, points), f"prox_descent:{name}",
                  max(ref["slack"] for ref in refs), 0.0, failures == 0, 10,
                  f"{failures} failures")


@pytest.mark.parametrize("name", PROX_ENTRIES)
def test_envelope_smoothness_matches_reference(name):
    obj = make_catalogue_objective(name)
    ref = ref_envelope_smoothness(obj, 100)
    assert_result(moreau_smoothness(obj, 100), f"moreau_smoothness:{name}",
                  ref["max_secant_ratio"] - 2.0 * obj.smoothness_L, ref["tolerance"],
                  ref["passed"], ref["samples"],
                  f"max envelope secant {ref['max_secant_ratio']:.5f} vs 2L")


@pytest.mark.parametrize("name", PROX_ENTRIES)
def test_stopping_soundness_matches_reference(name):
    obj = make_catalogue_objective(name)
    ref = ref_stopping_soundness(obj, 50)
    shift, delta = ref["max_value_shift"], ref["delta"]
    assert_result(prox_stopping(obj, 50), f"prox_stopping:{name}", shift - delta, 0.0,
                  ref["passed"], ref["samples"], f"re-solve shift {shift:.2e} vs delta {delta:.0e}")


@pytest.mark.parametrize("name", PROX_ENTRIES)
def test_gradient_error_bound_matches_reference(name):
    obj = make_catalogue_objective(name)
    ref = ref_gradient_error_bound(obj, 100)
    error, bound = ref["max_gradient_error"], ref["bound"]
    assert_result(prox_gradient_error(obj, 100), f"prox_gradient_error:{name}", error - bound,
                  0.0, ref["passed"], ref["samples"], f"max error {error:.2e} vs bound {bound:.2e}")


@pytest.mark.parametrize("name", PROX_ENTRIES)
def test_iteration_constant_matches_reference(name):
    obj = make_catalogue_objective(name)
    fitted = ref_iteration_constant(obj, 50)["fitted_constant"]
    assert_result(prox_iteration_budget([obj], 50), "prox_iteration_budget", fitted - 50.0, 0.0,
                  fitted <= 50.0, 50,
                  f"fitted iteration constant C={fitted:.2f} (iters <= C log2(L D^2/delta))")


@pytest.mark.parametrize("name", MAPPING_ENTRIES)
@pytest.mark.parametrize("check,reference", [
    (pgd_mapping_bound, ref_mapping_inequality),
    (pgd_descent_step, ref_mapping_descent),
], ids=["inequality", "descent"])
def test_mapping_checks_match_reference(name, check, reference):
    obj = make_catalogue_objective(name)
    ref = reference(obj, 1000)
    assert_result(check([obj], 1000), check.__name__, ref["max_excess"], ref["tolerance"],
                  ref["passed"], ref["samples"], "")


@pytest.mark.parametrize("name", ALL_ENTRIES)
def test_gradient_consistency_matches_reference(name):
    worst = ref_gradient_consistency(make_catalogue_objective(name))
    assert_result(gradient_consistency(name), f"gradient_consistency:{name}", worst, 1e-6,
                  worst <= 1e-6, 100, "")


#: The line-search instance of each catalogue entry and start point below.
LINESEARCH_INSTANCES = {"quadratic": "quadratic_box", "example1": "example1"}


def constants_built(monkeypatch):
    """The list of the delta of every ``_ProxConstants`` the solver and the checks build."""
    built = []
    constants = qopt.prox._ProxConstants

    def counted(obj, delta):
        built.append(delta)
        return constants(obj, delta)

    monkeypatch.setattr(qopt.accel, "_ProxConstants", counted)
    monkeypatch.setattr(qopt.checks, "_ProxConstants", counted)
    return built


@pytest.mark.parametrize("name,x0", [("quadratic", [1.0, 1.0]), ("example1", [5.0])])
def test_linesearch_audit_builds_its_constants_once(name, x0, monkeypatch):
    built = constants_built(monkeypatch)
    assert qopt.checks._instance(LINESEARCH_INSTANCES[name])[1].tolist() == x0
    assert linesearch_certificate(LINESEARCH_INSTANCES[name], 1e-2).passed
    # One for the run, one for the audit's fine delta.
    assert len(built) == 2


@pytest.mark.parametrize("check,args,config", [
    (accelerated_gap, ("quadratic_box", 1e-3),
     {"algorithm": "accelerated", "x0": [1.0, 1.0], "epsilon": 1e-3,
      "objective": {"name": "quadratic", "params": {}}}),
    (rate_envelope, ("frank_wolfe", "quadratic_simplex"),
     {"algorithm": "frank_wolfe", "x0": "vertex", "T": 10_000,
      "objective": {"name": "quadratic", "params": {"set": {"kind": "simplex", "dimension": 3}}}}),
], ids=["accelerated_gap", "rate_envelope"])
def test_end_to_end_checks_run_the_config_of_qopt_run(check, args, config, monkeypatch):
    # The check's one run is run_experiment on its instance's config, so it
    # reads the trace that `qopt run` writes for that config.
    runs = []
    run_experiment = qopt.checks.run_experiment

    def recorded(loaded):
        runs.append((loaded.raw, run_experiment(loaded)))
        return runs[-1][1]

    monkeypatch.setattr(qopt.checks, "run_experiment", recorded)
    assert check(*args).passed
    [(raw, trace)] = runs
    assert raw == config
    assert trace_csv_lines(trace) == trace_csv_lines(run_experiment(load_config(config)))


@pytest.mark.parametrize("check,deltas", [
    (lambda name: moreau_quasar(name, 1e-6, 40), [1e-12]),
    (lambda name: moreau_smoothness(name, 40), [1e-12]),
    (lambda name: prox_stopping(name, 20), [1e-6, 1e-6 / 100.0]),
    (lambda name: prox_gradient_error(name, 20), [1e-6, 1e-14]),
], ids=["moreau_quasar", "moreau_smoothness", "prox_stopping", "prox_gradient_error"])
@pytest.mark.parametrize("name", PROX_ENTRIES)
def test_envelope_checks_build_one_constants_per_delta(name, check, deltas, monkeypatch):
    # Every solve of a check at one delta shares its constants.
    built = constants_built(monkeypatch)
    check(name)
    assert built == deltas


# -- the trusted LMO -----------------------------------------------------------


@pytest.mark.parametrize("set_", [
    Box([-1.0, -2.0, 0.0], [1.0, 0.5, 3.0]),
    Ball([0.5, -1.0, 2.0], 1.5),
    Simplex(3, 2.0),
], ids=["box", "ball", "simplex"])
def test_trusted_lmo_matches_lmo_bytes(set_, rng):
    gradients = [np.zeros(3), np.array([0.0, -0.0, 0.0]), np.array([-0.0, -0.0, -0.0]),
                 np.array([-0.0, 1.0, -2.0]), np.array([0.0, -1.0, -0.0])]
    gradients += list(rng.normal(size=(10, 3)))
    for g in gradients:
        vertex = set_._lmo(g)
        assert vertex.dtype == np.float64
        assert vertex.tobytes() == set_.lmo(g).tobytes() == ref_lmo(set_, g).tobytes()


# -- a NaN sample fails the check ----------------------------------------------


def nan_above_half(obj):
    """A copy of the 1-D ``obj`` whose oracle returns NaN for ``x > 0.5``."""
    inner = obj.evaluator

    def evaluator(x):
        if x[0] > 0.5:
            return math.nan, np.array([math.nan])
        return inner(x)

    return dataclasses.replace(obj, evaluator=evaluator)


def nan_quadratic():
    """``x^2 / 2`` on ``Box([-1], [1])`` with a NaN oracle above 0.5."""
    return nan_above_half(make_catalogue_objective("quadratic", {"dim": 1}))


def assert_nan_fails(result):
    assert math.isnan(result.max_violation)
    assert result.passed is False


def test_nan_samples_fail_quasar_convexity():
    assert_nan_fails(quasar_certificate(nan_quadratic(), 1000))


def test_nan_samples_fail_smoothness():
    assert_nan_fails(smoothness(nan_quadratic(), 1000))


def test_nan_samples_fail_prox_conditioning():
    result = prox_conditioning(nan_quadratic(), 1000)
    assert_nan_fails(result)
    assert result.note.startswith("secant bracket [nan, nan]")


@pytest.mark.parametrize("check", [pgd_mapping_bound, pgd_descent_step],
                         ids=["inequality", "descent"])
def test_nan_samples_fail_mapping_checks(check):
    assert_nan_fails(check([nan_quadratic()], 1000))


def poison_solve(monkeypatch, field, above):
    """Make the checks' prox solve return a NaN ``field`` at every ``x[0] > above``.

    A converged solve cannot return a NaN envelope, so the solve is replaced.
    """
    solve = qopt.checks._solve

    def poisoned(obj, x, *args):
        res = solve(obj, x, *args)
        if x[0] > above:
            res = dataclasses.replace(res, **{field: np.full_like(x, math.nan)
                                              if field == "envelope_gradient" else math.nan})
        return res

    monkeypatch.setattr(qopt.checks, "_solve", poisoned)


def test_nan_envelope_gradient_fails_envelope_smoothness(monkeypatch):
    poison_solve(monkeypatch, "envelope_gradient", 0.5)
    assert_nan_fails(moreau_smoothness(make_catalogue_objective("quadratic", {"dim": 1}), 200))


def test_nan_envelope_value_fails_prox_stopping(monkeypatch):
    poison_solve(monkeypatch, "envelope_value", 4.0)
    assert_nan_fails(prox_stopping("example1"))


def test_nan_envelope_gradient_fails_prox_gradient_error(monkeypatch):
    poison_solve(monkeypatch, "envelope_gradient", 4.0)
    assert_nan_fails(prox_gradient_error("example1"))


def test_nan_envelope_value_fails_linesearch_certificate(monkeypatch):
    # Only the audit's fine solves are poisoned: the run itself is unchanged.
    poison_solve(monkeypatch, "envelope_value", 4.0)
    assert_nan_fails(linesearch_certificate("example1"))


@pytest.mark.parametrize("poisoned", ["distance", "_lmo"], ids=["feasibility", "weights"])
def test_nan_fails_fw_dynamics(poisoned, monkeypatch):
    # A NaN distance of every iterate but the start vertex e_0 fails the
    # feasibility test; a NaN vertex in the replay fails the weight identity
    # (the solver's own simplex step does not call _lmo).
    instance = (make_catalogue_objective("quadratic", {"set": {"kind": "simplex", "dimension": 3}}),
                np.array([1.0, 0.0, 0.0]))
    if poisoned == "distance":
        monkeypatch.setattr(Simplex, "distance", lambda self, x: 0.0 if x[0] == 1.0 else math.nan)
    else:
        monkeypatch.setattr(Simplex, "_lmo", lambda self, g: np.full_like(g, math.nan))
    assert_nan_fails(fw_dynamics(instance, 50))


def test_nan_is_no_counterexample_violation():
    # Every finite sample still shows fig1's violations at all three gammas.
    assert_nan_fails(quasar_counterexample(nan_above_half(
        make_catalogue_objective("fig1_counterexample"))))


@pytest.mark.parametrize("worst", [[math.nan, 0.3, 0.2], [0.3, math.nan, 0.2],
                                   [0.3, 0.2, math.nan]], ids=["first", "second", "third"])
def test_nan_at_any_gamma_fails_the_counterexample(worst, monkeypatch):
    # An infinite value with a huge gradient can make one gamma's violation
    # NaN and leave the others finite.
    monkeypatch.setattr(qopt.checks, "_worst_quasar_violations",
                        lambda obj, oracle, samples, gammas: (worst, samples))
    assert_nan_fails(quasar_counterexample("fig1_counterexample"))


def test_nan_finite_difference_fails_gradient_consistency():
    # NaN only just right of one grid point, so every queried point is finite
    # and only the finite difference at that point, x + 1e-5, meets the NaN.
    quadratic = make_catalogue_objective("quadratic", {"dim": 1})
    inner = quadratic.evaluator
    left = sample_feasible(quadratic.feasible_set, 100)[74, 0]

    def evaluator(x):
        if left < x[0] < left + 2e-5:
            return math.nan, np.array([math.nan])
        return inner(x)

    assert_nan_fails(gradient_consistency(dataclasses.replace(quadratic, evaluator=evaluator)))


# -- a check that measured no sample ---------------------------------------------


def steep_on(upper):
    """``f = 100 x^2`` declared 1-smooth on ``[0, upper]``: a wrong L that only a
    measured secant pair could show."""
    return Objective("steep", lambda x: (float(100.0 * x.dot(x)), 200.0 * x), 1.0, 1.0,
                     Box([0.0], [upper]), center=np.array([0.0]), optimal_value=0.0)


def assert_no_sample_fails(result):
    assert result.samples == 0
    assert result.passed is False


def test_prox_conditioning_with_every_pair_below_its_cutoff_fails():
    # Every pair is closer than 1e-9, so no secant is measured.
    result = prox_conditioning(steep_on(1e-10), 100)
    assert_no_sample_fails(result)
    assert result.note.startswith("secant bracket [inf, -inf]")


def test_smoothness_with_every_pair_below_its_cutoff_fails():
    # The grid's three points are 5e-14 apart, below the 1e-12 cutoff.
    result = smoothness(steep_on(1e-13), samples=3)
    assert_no_sample_fails(result)
    assert result.note == "max ratio 0.000000 vs L=1.0"


def test_quasar_certificate_of_no_sample_fails():
    assert_no_sample_fails(quasar_certificate(make_catalogue_objective("quadratic"), samples=0))


def test_a_check_result_without_samples_fails_whatever_it_is_given():
    assert CheckResult("c", 0.0, 0.0, True, 0).passed is False
    assert CheckResult("c", 0.0, 0.0, True, 1).passed is True


def test_gamma_free_baselines_fails_when_a_solver_reads_gamma(monkeypatch):
    def reading_gamma(obj, x0, T, counter):
        return obj.quasar_gamma

    monkeypatch.setattr(qopt.baselines, "run_pgd", reading_gamma)
    result = gamma_free_baselines()
    assert result.passed is False
    assert result.max_violation == 1.0
    assert result.note == "baseline solver read quasar_gamma"
