import dataclasses
import math

import numpy as np
import pytest

import qopt.accel
import qopt.checks
import qopt.prox
from qopt import (
    Box,
    InvalidArgumentError,
    NumericalFailureError,
    Objective,
    OracleCounter,
    PreconditionError,
    default_lambda,
    make_catalogue_objective,
    run_accelerated,
    solve_prox_subproblem,
)
from qopt.checks import (
    moreau_quasar,
    moreau_smoothness,
    prox_conditioning,
    prox_descent,
    prox_gradient_error,
    prox_stopping,
    sample_feasible,
)
from qopt.objectives import evaluate
from qopt.prox import ProxResult, _ProxConstants, _solve, iteration_cap

from conftest import trace_csv_lines


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


class TestWarmStart:
    @pytest.mark.parametrize("name,params", [
        ("example1", {}),
        ("glm_sigmoid", {}),
        ("quadratic", {}),
        ("quadratic", {"set": {"kind": "ball", "center": [2.0, 0.0], "radius": 1.0}}),
        ("quadratic", {"set": {"kind": "simplex", "dimension": 3}}),
    ])
    def test_given_gradient_replaces_the_first_query(self, name, params):
        obj = make_catalogue_objective(name, params)
        consts = _ProxConstants(obj, 1e-9)
        for x in sample_feasible(obj.feasible_set, 5, seed=7):
            cold_counter, warm_counter = OracleCounter(), OracleCounter()
            cold = _solve(obj, x, consts, cold_counter)
            at_x = evaluate(obj, x, OracleCounter())
            warm = _solve(obj, x, consts, warm_counter, at_x=at_x)
            assert warm_counter.calls == cold_counter.calls - 1
            expected = np.asarray(obj.evaluator(cold.y)[1], dtype=float).tobytes()
            assert cold.grad_at_y.tobytes() == expected
            for field in ("y", "envelope_value", "envelope_gradient", "f_at_y",
                          "inner_iterations", "certified_delta", "grad_at_y"):
                assert (np.asarray(getattr(warm, field)).tobytes()
                        == np.asarray(getattr(cold, field)).tobytes()), field


class TestFixedPoint:
    # At the quadratic's interior minimizer the gradient is exactly zero, so
    # the first inner step lands bit for bit where it started.
    @pytest.mark.parametrize("shift", [[0.0, 0.0], [0.25, -0.5]])
    def test_warm_solve_makes_no_query(self, shift):
        obj = make_catalogue_objective("quadratic", {"shift": shift})
        x = obj.center
        f, grad = evaluate(obj, x, OracleCounter())
        counter = OracleCounter()
        res = _solve(obj, x, _ProxConstants(obj, 1e-9), counter, at_x=(f, grad))
        assert counter.calls == 0
        assert res.inner_iterations == 1
        assert res.certified_delta == 0.0
        assert res.y.tobytes() == x.tobytes()
        assert np.float64(res.f_at_y).tobytes() == np.float64(f).tobytes()
        assert res.grad_at_y.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("shift", [[0.0, 0.0], [0.25, -0.5]])
    def test_public_solve_costs_one_call(self, shift):
        obj = make_catalogue_objective("quadratic", {"shift": shift})
        counter = OracleCounter()
        res = solve_prox_subproblem(obj, obj.center, 1e-9, counter)
        assert counter.calls == res.inner_iterations == 1
        assert res.certified_delta == 0.0

    def test_signed_zero_flip_is_queried(self):
        # Projecting onto [0, 1] turns -0.0 into +0.0: the step's squared
        # norm is 0, but its bytes moved, so the oracle is asked at +0.0.
        base = make_catalogue_objective(
            "quadratic", {"set": {"kind": "box", "lower": [0.0], "upper": [1.0]}})
        queries = []

        def audited(x):
            queries.append(np.array(x, dtype=float).tobytes())
            return base.evaluator(x)

        obj = Objective(name="quadratic", evaluator=audited, smoothness_L=1.0,
                        quasar_gamma=1.0, feasible_set=base.feasible_set)
        res = solve_prox_subproblem(obj, np.array([-0.0]), 1e-9, OracleCounter())
        positive_zero = np.array([0.0]).tobytes()
        assert queries == [np.array([-0.0]).tobytes(), positive_zero]
        assert res.y.tobytes() == res.grad_at_y.tobytes() == positive_zero


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
        result = prox_conditioning(quadratic, samples=500)
        # The violation is the larger of L - min ratio and max ratio - 3L.
        assert result.max_violation == pytest.approx(0.0, abs=1e-9)
        assert result.note == "secant bracket [3.00000, 3.00000] within [1.00000, 3.00000]"
        assert result.passed

    def test_concave_secant_is_exactly_L(self, quadratic):
        obj = dataclasses.replace(quadratic, evaluator=lambda x: (-0.5 * float(x @ x), -x))
        result = prox_conditioning(obj, samples=500)
        # Curvature -L puts every ratio at the lower end: L - min ratio ~ 0.
        assert result.max_violation == pytest.approx(0.0, abs=1e-9)
        assert result.note == "secant bracket [1.00000, 1.00000] within [1.00000, 3.00000]"
        assert result.passed

    def test_affine_secant_is_exactly_2L(self):
        obj = make_catalogue_objective("affine_plus_quadratic", {"q": 0.0})
        result = prox_conditioning(obj, samples=500)
        # Only the regularizer contributes: 1/lam = 2L, one L inside each end.
        assert result.max_violation == pytest.approx(-1.0, abs=1e-12)
        assert result.note == "secant bracket [2.00000, 2.00000] within [1.00000, 3.00000]"

    def test_example1_bracket(self, example1):
        result = prox_conditioning(example1, samples=10_000)
        # Passing means min ratio >= L (1 - 1e-8) and max ratio <= 3 L (1 + 1e-8).
        assert result.passed
        assert result.tolerance == 3 * example1.smoothness_L * 1e-8


class TestEnvelopeProperties:
    def test_envelope_quasar_convexity(self, example1):
        # At the registered tolerance, on a coarser grid.
        tol = qopt.checks._CHECKS["moreau_quasar:example1"][2]
        assert moreau_quasar(example1, tol, grid=400).max_violation <= tol

    def test_envelope_quasar_quadratic(self, quadratic):
        tol = qopt.checks._CHECKS["moreau_quasar:quadratic"][2]
        assert moreau_quasar(quadratic, tol, grid=400).max_violation <= tol

    def test_envelope_requires_center(self, quadratic):
        anonymous = Objective(
            name="no-center", evaluator=quadratic.evaluator, smoothness_L=1.0,
            quasar_gamma=1.0, feasible_set=quadratic.feasible_set,
        )
        with pytest.raises(PreconditionError):
            moreau_quasar(anonymous, 1e-8, grid=10)

    def test_envelope_smoothness(self, example1):
        assert moreau_smoothness(example1, samples=60).passed

    def test_descent_inequality_at_interior_point(self, quadratic_1d):
        result = prox_descent(quadratic_1d, [np.array([0.9])])
        assert result.passed
        assert result.max_violation < -1e-4  # strict descent away from the solution

    def test_descent_at_center(self, quadratic_1d):
        result = prox_descent(quadratic_1d, [np.array([0.0])])
        assert result.passed
        # The envelope gradient vanishes at the center, so the slack is
        # lhs - delta, delta = 1e-8: |lhs| <= 1e-8.
        assert abs(result.max_violation + 1e-8) <= 1e-8

    def test_descent_on_random_points(self, example1):
        rng = np.random.default_rng(3)
        result = prox_descent(example1, [np.array([rng.uniform(-5, 5)]) for _ in range(10)])
        assert result.passed and result.samples == 10

    def test_stopping_soundness(self, example1):
        assert prox_stopping(example1, samples=20).passed

    def test_gradient_error_bound_property(self, example1):
        assert prox_gradient_error(example1, samples=30).passed


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


def solve_through_evaluate(obj, x, consts, counter, at_x=None):
    """The reference solve: ``_solve`` with every query through ``evaluate``."""
    project = obj.feasible_set._project
    lam, step, threshold = consts.lam, consts.step, consts.threshold
    y = x
    f_y, grad_f = evaluate(obj, x, counter) if at_x is None else at_x
    for k in range(consts.cap):
        grad_subproblem = grad_f + ((y - x) / lam if k else 0.0)
        y_next = project(y - step * grad_subproblem)
        d = y - y_next
        sq = d.dot(d)
        if sq != 0.0 or y_next.tobytes() != y.tobytes():
            f_y, grad_f = evaluate(obj, y_next, counter)
        mapping_norm = math.sqrt(sq) / step
        if mapping_norm <= threshold:
            if k:
                d = x - y_next
                sq = d.dot(d)
            return ProxResult(y_next, f_y + float(sq) / (2.0 * lam), d / lam, k + 1,
                              (9.0 / (2.0 * obj.smoothness_L)) * mapping_norm**2, f_y, grad_f)
        y = y_next
    raise NumericalFailureError("the reference solve reached its iteration cap")


class TestTrustedQueries:
    @pytest.mark.parametrize("name,params,x0", [
        ("example1", {}, [5.0]),
        ("quadratic", {"dim": 5}, [1.0, -0.0, 1.0, -0.0, 1.0]),
        ("glm_sigmoid", {}, [-2.0, 2.0]),
    ], ids=["example1", "quadratic-d5", "glm_sigmoid"])
    def test_solve_asks_the_evaluator_what_the_evaluate_loop_asks(self, name, params, x0,
                                                                   monkeypatch):
        # A whole accelerated run, so the solve sees every kind of centre: the
        # start, line-search endpoints and midpoints, and warm-started proxes.
        base = make_catalogue_objective(name, params)
        checked = []

        def spied_evaluate(obj, x, counter):
            checked.append(1)
            return evaluate(obj, x, counter)

        monkeypatch.setattr(qopt.prox, "evaluate", spied_evaluate)

        def audited_run(solve):
            queries = []

            def audited(x):
                queries.append((x.dtype.str, x.shape, x.tobytes()))
                return base.evaluator(x)

            monkeypatch.setattr(qopt.accel, "_solve", solve)
            obj = dataclasses.replace(base, evaluator=audited)
            trace = run_accelerated(obj, np.array(x0), 1e-4, OracleCounter())
            return queries, trace_csv_lines(trace), trace.solution.tobytes()

        trusted = audited_run(_solve)
        assert audited_run(solve_through_evaluate) == trusted
        # Only the solves' centres went through evaluate.
        assert 0 < len(checked) < len(trusted[0])
