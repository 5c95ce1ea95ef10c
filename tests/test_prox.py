import math

import numpy as np
import pytest

from qopt import (
    Box,
    InvalidArgumentError,
    NumericalFailureError,
    Objective,
    OracleCounter,
    PreconditionError,
    check_descent_lemma,
    check_moreau_quasar,
    check_prox_conditioning,
    default_lambda,
    make_catalogue_objective,
    run_accelerated,
    solve_prox_subproblem,
)
from qopt.prox import (
    check_envelope_smoothness,
    check_gradient_error_bound,
    check_stopping_soundness,
    iteration_cap,
)


def clamped_quadratic_envelope(x):
    """Analytic envelope of 0.5*y^2 + (y-x)^2 on [-1, 1] (lam = 1/2).

    The unconstrained minimizer 2x/3 stays inside the box for |x| <= 1, so the
    envelope is x^2/3 on the feasible range.
    """
    assert abs(x) <= 1.0
    return x * x / 3.0


def grid_prox_oracle(x, lam, lo=-1.0, hi=1.0, n=2_000_001):
    """Brute-force minimizer of the 1-D subproblem on a dense grid."""
    ys = np.linspace(lo, hi, n)
    values = 0.5 * ys**2 + (ys - x) ** 2 / (2 * lam)
    return ys[np.argmin(values)]


class TestSolveProx:
    def test_at_minimizer(self, quadratic_1d, counter):
        res = solve_prox_subproblem(quadratic_1d, np.array([0.0]), 1e-10, counter)
        assert res.y[0] == 0.0
        assert res.envelope_value == 0.0
        assert res.envelope_gradient[0] == 0.0

    @pytest.mark.parametrize("x,expected_y", [(0.6, 0.4), (0.9, 0.6), (-0.75, -0.5)])
    def test_interior_solutions(self, quadratic_1d, counter, x, expected_y):
        delta = 1e-12
        res = solve_prox_subproblem(quadratic_1d, np.array([x]), delta, counter)
        # Strong convexity: a delta-minimizer is within sqrt(2 delta / L).
        assert abs(res.y[0] - expected_y) <= math.sqrt(2 * delta)
        assert abs(res.y[0] - grid_prox_oracle(x, 0.5)) <= 2e-5
        envelope = clamped_quadratic_envelope(x)
        assert envelope <= res.envelope_value <= envelope + delta + 1e-15
        assert res.envelope_gradient[0] == pytest.approx(2 * (x - expected_y), abs=1e-5)

    def test_example_values(self, quadratic_1d, counter):
        res = solve_prox_subproblem(quadratic_1d, np.array([0.6]), 1e-12, counter)
        assert res.envelope_value == pytest.approx(0.12, abs=1e-10)
        assert res.envelope_gradient[0] == pytest.approx(0.4, abs=1e-5)

    def test_result_contract(self, example1, counter):
        lam = default_lambda(example1)
        x = np.array([3.7])
        res = solve_prox_subproblem(example1, x, 1e-9, counter)
        assert example1.feasible_set.contains(res.y)
        np.testing.assert_array_equal(res.envelope_gradient, (x - res.y) / lam)
        D = example1.feasible_set.diameter()
        assert res.inner_iterations <= iteration_cap(example1.smoothness_L, D, 1e-9)
        assert 0.0 <= res.certified_delta <= 1e-9
        # One oracle call per gradient step plus the final value query.
        assert counter.calls == res.inner_iterations + 1

    def test_delta_validation(self, quadratic_1d, counter):
        with pytest.raises(InvalidArgumentError):
            solve_prox_subproblem(quadratic_1d, np.array([0.0]), 0.0, counter)

    def test_infeasible_query_rejected(self, quadratic_1d, counter):
        with pytest.raises(PreconditionError):
            solve_prox_subproblem(quadratic_1d, np.array([3.0]), 1e-8, counter)

    def test_iteration_cap_failure_carries_last_iterate(self, counter):
        # Declaring a wildly optimistic L makes the inner step size huge, so
        # the solver bounces between faces and must fail loudly.
        base = make_catalogue_objective("quadratic")
        bad = Objective(
            name="under-declared",
            evaluator=base.evaluator,
            smoothness_L=1e-4,
            quasar_gamma=1.0,
            feasible_set=base.feasible_set,
        )
        delta = 1e-6
        with pytest.raises(NumericalFailureError) as excinfo:
            solve_prox_subproblem(bad, np.array([0.5, 0.5]), delta, counter)
        assert excinfo.value.last_iterate is not None
        assert bad.feasible_set.contains(excinfo.value.last_iterate)
        diagnostics = excinfo.value.diagnostics
        D = bad.feasible_set.diameter()
        assert diagnostics["cap"] == iteration_cap(bad.smoothness_L, D, delta)
        assert diagnostics["delta"] == delta
        assert diagnostics["threshold"] == math.sqrt(2.0 * bad.smoothness_L * delta) / 3.0

        # The accelerated run shares one set of prox constants across its
        # solves; the failure must still report that run's tolerance and cap.
        with pytest.raises(NumericalFailureError) as excinfo:
            run_accelerated(bad, np.array([0.5, 0.5]), 1e-2, OracleCounter())
        run_delta = excinfo.value.partial_trace.header["params"]["delta"]
        run_cap = iteration_cap(bad.smoothness_L, D, run_delta)
        failure = excinfo.value.partial_trace.failure
        assert f"tolerance {run_delta:g} within {run_cap} iterations" in failure


class TestMoreauOps:
    def test_value_sandwich(self, quadratic_1d, counter):
        delta = 1e-8
        for x in (0.6, -0.2, 0.95):
            approx = solve_prox_subproblem(quadratic_1d, np.array([x]), delta, counter).envelope_value
            exact = clamped_quadratic_envelope(x)
            assert exact - 1e-15 <= approx <= exact + delta + 1e-15

    def test_gradient_error_bound(self, quadratic_1d, counter):
        delta = 1e-8
        for x in (0.6, -0.2, 0.95):
            g = solve_prox_subproblem(quadratic_1d, np.array([x]), delta, counter).envelope_gradient
            assert abs(g[0] - 2 * x / 3) <= math.sqrt(8 * delta)

    def test_at_center(self, example1, counter):
        delta = 1e-10
        res = solve_prox_subproblem(example1, example1.center, delta, counter)
        fstar = example1.optimal_value
        assert fstar - 1e-12 <= res.envelope_value <= fstar + delta + 1e-12
        grad = res.envelope_gradient
        assert np.linalg.norm(grad) <= math.sqrt(8 * example1.smoothness_L * delta)

    def test_exactness_limit(self, quadratic_1d, counter):
        approx = solve_prox_subproblem(quadratic_1d, np.array([0.6]), 1e-14, counter).envelope_value
        assert approx == pytest.approx(0.12, abs=1e-6)


class TestConditioning:
    def test_quadratic_secant_is_exactly_3L(self, quadratic):
        rep = check_prox_conditioning(quadratic, samples=500)
        assert rep["min_ratio"] == pytest.approx(3.0, abs=1e-9)
        assert rep["max_ratio"] == pytest.approx(3.0, abs=1e-9)
        assert rep["passed"]

    def test_affine_secant_is_exactly_2L(self):
        obj = make_catalogue_objective("affine_plus_quadratic", {"q": 0.0})
        rep = check_prox_conditioning(obj, samples=500)
        # Only the regularizer contributes: 1/lam = 2L.
        assert rep["min_ratio"] == pytest.approx(2.0, abs=1e-12)
        assert rep["max_ratio"] == pytest.approx(2.0, abs=1e-12)

    def test_example1_bracket(self, example1):
        rep = check_prox_conditioning(example1, samples=10_000)
        assert rep["passed"]
        L = example1.smoothness_L
        assert rep["min_ratio"] >= L * (1 - 1e-8)
        assert rep["max_ratio"] <= 3 * L * (1 + 1e-8)


class TestEnvelopeProperties:
    def test_envelope_quasar_convexity(self, example1):
        rep = check_moreau_quasar(example1, grid=400, delta=1e-12)
        assert rep["max_violation"] <= 1e-6

    def test_envelope_quasar_quadratic(self, quadratic):
        rep = check_moreau_quasar(quadratic, grid=400, delta=1e-12)
        assert rep["max_violation"] <= 1e-8

    def test_envelope_requires_center(self, quadratic):
        anonymous = Objective(
            name="no-center", evaluator=quadratic.evaluator, smoothness_L=1.0,
            quasar_gamma=1.0, feasible_set=quadratic.feasible_set,
        )
        with pytest.raises(PreconditionError):
            check_moreau_quasar(anonymous, grid=10)

    def test_envelope_smoothness(self, example1):
        rep = check_envelope_smoothness(example1, samples=60)
        assert rep["passed"]

    def test_descent_inequality_at_interior_point(self, quadratic_1d):
        rep = check_descent_lemma(quadratic_1d, np.array([0.9]), delta=1e-8)
        assert rep["passed"]
        assert rep["slack"] < -1e-4  # strict descent away from the solution

    def test_descent_at_center(self, quadratic_1d):
        rep = check_descent_lemma(quadratic_1d, np.array([0.0]), delta=1e-8)
        assert rep["passed"]
        assert abs(rep["lhs"]) <= 1e-8

    def test_descent_on_random_points(self, example1):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = np.array([rng.uniform(-5, 5)])
            assert check_descent_lemma(example1, x, delta=1e-8)["passed"]

    def test_stopping_soundness(self, example1):
        rep = check_stopping_soundness(example1, samples=20, delta=1e-6)
        assert rep["passed"]

    def test_gradient_error_bound_property(self, example1):
        rep = check_gradient_error_bound(example1, samples=30, delta=1e-6)
        assert rep["passed"]


class TestBallSetProx:
    def test_prox_on_ball(self, counter):
        obj = make_catalogue_objective(
            "quadratic", {"set": {"kind": "ball", "center": [2.0, 0.0], "radius": 1.0}}
        )
        x = np.array([1.5, 0.0])
        res = solve_prox_subproblem(obj, x, 1e-10, counter)
        # Subproblem min of 0.5 y^2 + (y - x)^2 along the axis is at y = 1,
        # the ball boundary point closest to the origin.
        assert res.y[0] == pytest.approx(1.0, abs=1e-5)
        assert abs(res.y[1]) <= 1e-9
        assert obj.feasible_set.contains(res.y)


class TestBoundaryProxSolutions:
    def test_boundary_solution_certified(self, counter):
        # Shifted quadratic pulls the prox point onto the box boundary, where
        # the plain gradient norm never vanishes but the mapping norm does.
        obj = make_catalogue_objective("quadratic", {"dim": 1, "shift": [4.0]})
        delta = 1e-10
        res = solve_prox_subproblem(obj, np.array([1.0]), delta, counter)
        assert res.y[0] == pytest.approx(1.0, abs=1e-9)
        # Subproblem minimum over [-1, 1]: F(y) = 0.5 (y-4)^2 + (y-1)^2 at y=1.
        exact = 0.5 * 9.0
        assert exact - 1e-12 <= res.envelope_value <= exact + delta + 1e-12
        raw_gradient_norm = abs(obj.evaluator(res.y)[1][0] + (res.y[0] - 1.0) / 0.5)
        assert raw_gradient_norm > 1.0  # interior criterion would never fire
