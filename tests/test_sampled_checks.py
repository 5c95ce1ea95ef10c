"""The sampled certification checks against their validating references.

The checks call the trusted private bodies (``prox._solve``, ``sets._norm``,
``FeasibleSet._project``/``_lmo``) on points the sets sampled or the solvers
produced, and query each sample point once.  The references below are the
earlier loop bodies, which went through the public, validating entry points
and ``np.linalg.norm``; every report field must match them bit for bit.  A NaN
sample must fail a check instead of being skipped by its ``max``/``min``.
"""

import dataclasses
import math

import numpy as np
import pytest

import qopt.accel
import qopt.checks
import qopt.prox
from qopt import (
    Ball,
    Box,
    OracleCounter,
    PreconditionError,
    Simplex,
    check_descent_lemma,
    check_linesearch_certificates,
    check_moreau_quasar,
    check_prox_conditioning,
    check_quasar_convexity,
    check_smoothness,
    default_lambda,
    evaluate,
    finite_diff_gradient,
    make_catalogue_objective,
    solve_prox_subproblem,
)
from qopt.baselines import MAPPING_TOL, check_mapping_descent, check_mapping_inequality
from qopt.objectives import _worst_quasar_violations, sample_feasible, sample_pairs
from qopt.prox import (
    check_envelope_smoothness,
    check_gradient_error_bound,
    check_stopping_soundness,
    fit_iteration_constant,
)

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
    """A report value with every float as its ``float.hex`` (NaN included)."""
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return ("float", float(value).hex())
    return (type(value).__name__, value)


def assert_same_report(actual, expected):
    assert bits(actual) == bits(expected)


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
    assert_same_report(check_quasar_convexity(obj, 10_000), ref_quasar_convexity(obj, 10_000))


def test_counterexample_gammas_from_one_pass():
    obj, calls = audited(make_catalogue_objective("fig1_counterexample"))
    n, gammas = 10_000, (0.1, 0.5, 1.0)
    worst, count = _worst_quasar_violations(obj, n, gammas)
    assert calls[0] == n + 1
    assert count == n
    expected = [ref_quasar_convexity(obj, n, gamma)["max_violation"] for gamma in gammas]
    assert_same_report(worst, expected)
    # The registered check reports the least of the three, over 3 n samples.
    result = qopt.checks._quasar_counterexample()
    assert_same_report(dataclasses.astuple(result), (
        "quasar_counterexample:fig1_counterexample", min(expected), 0.0, min(expected) > 0.0,
        3 * n, "passes iff every gamma in {0.1, 0.5, 1} violates"))


@pytest.mark.parametrize("name", ALL_ENTRIES)
def test_smoothness_matches_reference(name):
    obj, calls = audited(make_catalogue_objective(name))
    n = 10_000 if obj.dimension == 1 else 2_000
    report = check_smoothness(obj, n)
    if obj.dimension == 1:
        # Consecutive grid pairs share a point, queried once: n calls, not 2(n - 1).
        assert calls[0] == n
    assert_same_report(report, ref_smoothness(obj, n))


def test_smoothness_grid_query_count_is_the_grid_size():
    obj, calls = audited(make_catalogue_objective("quadratic", {"dim": 1}))
    for n in (2, 3, 17):
        calls[0] = 0
        assert check_smoothness(obj, n)["samples"] == n - 1
        assert calls[0] == n


@pytest.mark.parametrize("name", PROX_ENTRIES)
def test_prox_conditioning_matches_reference(name):
    obj = make_catalogue_objective(name)
    assert_same_report(check_prox_conditioning(obj, 10_000), ref_prox_conditioning(obj, 10_000))


@pytest.mark.parametrize("name", PROX_ENTRIES)
def test_moreau_quasar_matches_reference(name):
    obj = make_catalogue_objective(name)
    assert_same_report(check_moreau_quasar(obj, 300), ref_moreau_quasar(obj, 300))


@pytest.mark.parametrize("name", ALL_ENTRIES)
def test_descent_lemma_matches_reference(name):
    obj = make_catalogue_objective(name)
    for x in sample_feasible(obj.feasible_set, 10):
        assert_same_report(check_descent_lemma(obj, x), ref_descent_lemma(obj, x))


@pytest.mark.parametrize("name", PROX_ENTRIES)
def test_envelope_smoothness_matches_reference(name):
    obj = make_catalogue_objective(name)
    assert_same_report(check_envelope_smoothness(obj, 100), ref_envelope_smoothness(obj, 100))


@pytest.mark.parametrize("name", PROX_ENTRIES)
def test_stopping_soundness_matches_reference(name):
    obj = make_catalogue_objective(name)
    assert_same_report(check_stopping_soundness(obj, 50), ref_stopping_soundness(obj, 50))


@pytest.mark.parametrize("name", PROX_ENTRIES)
def test_gradient_error_bound_matches_reference(name):
    obj = make_catalogue_objective(name)
    assert_same_report(check_gradient_error_bound(obj, 100), ref_gradient_error_bound(obj, 100))


@pytest.mark.parametrize("name", PROX_ENTRIES)
def test_iteration_constant_matches_reference(name):
    obj = make_catalogue_objective(name)
    assert_same_report(fit_iteration_constant(obj, 50), ref_iteration_constant(obj, 50))


@pytest.mark.parametrize("name", MAPPING_ENTRIES)
@pytest.mark.parametrize("check,reference", [
    (check_mapping_inequality, ref_mapping_inequality),
    (check_mapping_descent, ref_mapping_descent),
], ids=["inequality", "descent"])
def test_mapping_checks_match_reference(name, check, reference):
    obj = make_catalogue_objective(name)
    assert_same_report(check(obj, 1000), reference(obj, 1000))


@pytest.mark.parametrize("name", ALL_ENTRIES)
def test_gradient_consistency_matches_reference(name):
    result = qopt.checks._gradient_consistency(name)
    assert_same_report(result.max_violation, ref_gradient_consistency(make_catalogue_objective(name)))


@pytest.mark.parametrize("name,x0", [("quadratic", [1.0, 1.0]), ("example1", [5.0])])
def test_linesearch_audit_builds_its_constants_once(name, x0, monkeypatch):
    built = []
    constants = qopt.prox._ProxConstants

    def counted(obj, delta):
        built.append(delta)
        return constants(obj, delta)

    monkeypatch.setattr(qopt.accel, "_ProxConstants", counted)
    rep = check_linesearch_certificates(make_catalogue_objective(name), np.array(x0), 1e-2)
    assert rep["passed"]
    # One for the run, one for the audit's fine delta.
    assert len(built) == 2


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


def test_nan_samples_fail_quasar_convexity():
    rep = check_quasar_convexity(nan_quadratic(), 1000)
    assert math.isnan(rep["max_violation"])


def test_nan_samples_fail_smoothness():
    rep = check_smoothness(nan_quadratic(), 1000)
    assert math.isnan(rep["max_secant_ratio"])
    assert rep["passed"] is False


def test_nan_samples_fail_prox_conditioning():
    rep = check_prox_conditioning(nan_quadratic(), 1000)
    assert math.isnan(rep["min_ratio"]) and math.isnan(rep["max_ratio"])
    assert rep["passed"] is False


@pytest.mark.parametrize("check", [check_mapping_inequality, check_mapping_descent],
                         ids=["inequality", "descent"])
def test_nan_samples_fail_mapping_checks(check):
    rep = check(nan_quadratic(), 1000)
    assert math.isnan(rep["max_excess"])
    assert rep["passed"] is False


def test_nan_envelope_gradient_fails_envelope_smoothness(monkeypatch):
    # A converged solve cannot return a NaN envelope gradient, so the solve
    # is replaced by one that does above x = 0.5.
    solve = qopt.prox._solve

    def poisoned(obj, x, *args):
        res = solve(obj, x, *args)
        if x[0] > 0.5:
            res = dataclasses.replace(res, envelope_gradient=np.array([math.nan]))
        return res

    monkeypatch.setattr(qopt.prox, "_solve", poisoned)
    rep = check_envelope_smoothness(make_catalogue_objective("quadratic", {"dim": 1}), 200)
    assert math.isnan(rep["max_secant_ratio"])
    assert rep["passed"] is False


def test_nan_is_no_counterexample_violation(monkeypatch):
    # Every finite sample still shows fig1's violations at all three gammas.
    fig1 = nan_above_half(make_catalogue_objective("fig1_counterexample"))
    monkeypatch.setattr(qopt.checks, "make_catalogue_objective", lambda name: fig1)
    result = qopt.checks._quasar_counterexample()
    assert math.isnan(result.max_violation)
    assert result.passed is False


@pytest.mark.parametrize("worst", [[math.nan, 0.3, 0.2], [0.3, math.nan, 0.2],
                                   [0.3, 0.2, math.nan]], ids=["first", "second", "third"])
def test_nan_at_any_gamma_fails_the_counterexample(worst, monkeypatch):
    # An infinite value with a huge gradient can make one gamma's violation
    # NaN and leave the others finite.
    monkeypatch.setattr(qopt.checks, "_worst_quasar_violations",
                        lambda obj, samples, gammas: (worst, samples))
    result = qopt.checks._quasar_counterexample()
    assert math.isnan(result.max_violation)
    assert result.passed is False


def test_nan_finite_difference_fails_gradient_consistency(monkeypatch):
    # NaN only just right of one grid point, so every queried point is finite
    # and only the finite difference at that point, x + 1e-5, meets the NaN.
    quadratic = make_catalogue_objective("quadratic", {"dim": 1})
    inner = quadratic.evaluator
    left = sample_feasible(quadratic.feasible_set, 100)[74, 0]

    def evaluator(x):
        if left < x[0] < left + 2e-5:
            return math.nan, np.array([math.nan])
        return inner(x)

    poisoned = dataclasses.replace(quadratic, evaluator=evaluator)
    monkeypatch.setattr(qopt.checks, "make_catalogue_objective", lambda name: poisoned)
    result = qopt.checks._gradient_consistency("quadratic")
    assert math.isnan(result.max_violation)
    assert result.passed is False
