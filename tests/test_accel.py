import math

import numpy as np
import pytest

import qopt.accel
from qopt import (
    Box,
    InvalidArgumentError,
    NumericalFailureError,
    Objective,
    OracleCounter,
    PreconditionError,
    binary_line_search,
    check_linesearch_certificates,
    compute_schedule,
    ftrl_step,
    line_search_params,
    make_catalogue_objective,
    run_accelerated,
    solve_prox_subproblem,
)
from qopt.accel import LineSearchParams


class TestSchedule:
    def test_reference_iteration_count(self):
        # gamma=1, L=1, box [-1,1]^2 so D^2 = 8, eps=1e-3: 4*sqrt(8000) = 357.77.
        params = compute_schedule(1.0, 1.0, 2.0 * math.sqrt(2.0), 1e-3)
        assert params.T == 358
        assert params.delta == pytest.approx(8.0 / (10.0 * 358**6), rel=1e-15)
        assert params.lam == 0.5

    def test_boundary_single_iteration(self):
        assert compute_schedule(1.0, 1.0, 1.0, 16.0).T == 1

    def test_first_weights(self):
        params = compute_schedule(1.0, 1.0, 1.0, 1.0)
        assert params.a(1) == 0.125
        assert params.A(1) == 0.125

    def test_weight_recurrence_and_coupling(self):
        params = compute_schedule(0.5, 2.0, 3.0, 1e-2)
        for t in range(1, 1000):
            assert params.A(t) - params.A(t - 1) == pytest.approx(params.a(t), rel=1e-12)
            assert params.A(t) / (8 * params.L) >= params.a(t) ** 2 / (2 * params.gamma**2) - 1e-18
        assert params.A(0) == 0.0

    def test_invalid_inputs(self):
        for bad in [(-0.1, 1, 1, 1), (1.5, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]:
            with pytest.raises(InvalidArgumentError):
                compute_schedule(*bad)


class TestFtrlStep:
    def test_zero_accumulation(self):
        box = Box([-1], [1])
        assert ftrl_step(box, np.array([0.3]), np.array([0.0]))[0] == 0.3

    def test_clamped(self):
        box = Box([-1], [1])
        assert ftrl_step(box, np.array([0.0]), np.array([2.0]))[0] == -1.0

    def test_interior(self):
        box = Box([-1], [1])
        assert ftrl_step(box, np.array([0.5]), np.array([0.3]))[0] == pytest.approx(0.2)


def quadratic_envelope_along(y, z, alphas):
    """Independent oracle: the analytic envelope of 0.5||x||^2 on [-1,1]^2.

    The prox point of any feasible x is interior, so M(x) = ||x||^2 / 3.
    """
    vs = np.outer(alphas, y - z) + z
    return np.sum(vs * vs, axis=1) / 3.0


class TestBinaryLineSearch:
    def test_degenerate_segment_returns_one(self, quadratic, counter):
        y = np.array([0.5, -0.5])
        params = line_search_params(1.0, 1e-10, 1.0, quadratic.feasible_set.diameter())
        res = binary_line_search(quadratic, y, y.copy(), params, counter)
        assert res.alpha == 1.0 and res.exit == "derivative_small"
        np.testing.assert_array_equal(res.x, y)
        assert res.loop_iterations == 0

    def test_no_improvement_returns_zero(self, quadratic, counter):
        # z sits at the minimizer, y far away: the y end has higher envelope.
        y, z = np.array([1.0, 1.0]), np.array([0.0, 0.0])
        params = line_search_params(1.0, 1e-10, 1.0, quadratic.feasible_set.diameter())
        res = binary_line_search(quadratic, y, z, params, counter)
        assert res.alpha == 0.0 and res.exit == "no_improvement"
        np.testing.assert_array_equal(res.x, z)

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_termination_predicate_on_dense_grid(self, quadratic, counter, c):
        # Interior dip between the endpoints, lower value at the y end.
        y, z = np.array([0.2, -0.3]), np.array([1.0, 1.0])
        delta = 1e-12
        params = line_search_params(c, delta, 1.0, quadratic.feasible_set.diameter())
        res = binary_line_search(quadratic, y, z, params, counter)
        alphas = np.linspace(0.0, 1.0, 100_001)
        g = quadratic_envelope_along(y, z, alphas)
        i = int(round(res.alpha * 100_000))
        i = min(max(i, 1), 100_000 - 1)
        g_prime = (g[i + 1] - g[i - 1]) / (2e-5)
        assert res.alpha * g_prime <= c * (g[100_000] - g[i]) + params.epsilon_tilde + 1e-6
        assert res.loop_iterations <= params.loop_cap

    def test_returned_point_is_convex_combination(self, quadratic, counter):
        y, z = np.array([0.2, -0.3]), np.array([1.0, 1.0])
        params = line_search_params(0.5, 1e-10, 1.0, quadratic.feasible_set.diameter())
        res = binary_line_search(quadratic, y, z, params, counter)
        np.testing.assert_allclose(res.x, res.alpha * y + (1 - res.alpha) * z, atol=1e-15)
        assert quadratic.feasible_set.contains(res.x, 1e-12)

    def test_infeasible_endpoints_rejected(self, quadratic, counter):
        params = line_search_params(0.0, 1e-8, 1.0, quadratic.feasible_set.diameter())
        with pytest.raises(PreconditionError):
            binary_line_search(quadratic, np.array([2.0, 0.0]), np.array([0.0, 0.0]),
                               params, counter)
        with pytest.raises(PreconditionError):
            binary_line_search(quadratic, np.array([0.0, 0.0]), np.array([0.0, 2.0]),
                               params, counter)

    def test_loop_cap_failure(self, quadratic, counter):
        # White-box: a zero halving budget on a segment that enters the loop.
        y, z = np.array([0.2, -0.3]), np.array([1.0, 1.0])
        params = LineSearchParams(c=0.0, delta1=1e-10, delta2=0.0,
                                  epsilon_tilde=-1.0, loop_cap=0)
        with pytest.raises(NumericalFailureError) as excinfo:
            binary_line_search(quadratic, y, z, params, counter)
        assert "loop_cap" in excinfo.value.diagnostics


def double_well_objective():
    """Asymmetric double well: forces the bisection loop to update brackets.

    f(v) = (v^2 - 1)^2 / 8 + 0.03 v on [-1.6, 1.6]; second derivative stays
    within [-0.5, 3.34], so declaring L = 3.4 is valid.
    """

    def evaluator(x):
        v = float(x[0])
        w = v * v - 1.0
        return w * w / 8.0 + 0.03 * v, np.array([v * w / 2.0 + 0.03])

    return Objective(
        name="double_well",
        evaluator=evaluator,
        smoothness_L=3.4,
        quasar_gamma=0.5,
        feasible_set=Box([-1.6], [1.6]),
    )


class TestBisectionBody:
    def test_bracket_updates_run_and_certify(self, counter):
        obj = double_well_objective()
        y, z = np.array([-1.2]), np.array([1.45])
        delta = 1e-10
        params = line_search_params(0.0, delta, obj.smoothness_L,
                                    obj.feasible_set.diameter())
        res = binary_line_search(obj, y, z, params, counter)
        assert res.exit == "bisection"
        assert 1 <= res.loop_iterations <= params.loop_cap
        # Independent oracle: near-exact envelope on a dense alpha grid.
        grid = np.linspace(0.0, 1.0, 2001)
        probe = OracleCounter()
        g = np.array([
            solve_prox_subproblem(obj, a * y + (1 - a) * z, 1e-12, probe).envelope_value
            for a in grid
        ])
        i = min(max(int(round(res.alpha * 2000)), 1), 1999)
        g_prime = (g[i + 1] - g[i - 1]) / (2 * 5e-4)
        assert res.alpha * g_prime <= params.epsilon_tilde + 5e-3  # grid slack


class TestRunAccelerated:
    def test_quadratic_box_small(self, quadratic, counter):
        trace = run_accelerated(quadratic, np.array([1.0, 1.0]), 1e-2, counter)
        assert trace.final_gap <= 1e-2
        assert len(trace.rows) == trace.header["params"]["T"] + 1
        assert trace.final_oracle_calls == counter.calls
        gap = trace.column("gap")
        bound = trace.column("bound")
        assert np.all(gap[1:] <= bound[1:] + 1e-9)
        assert np.nanmin(gap) >= -1e-10
        calls = trace.column("oracle_calls")
        assert np.all(np.diff(calls) > 0)

    def test_start_at_center(self, quadratic, counter):
        params = compute_schedule(1.0, 1.0, quadratic.feasible_set.diameter(), 1e-2)
        trace = run_accelerated(quadratic, quadratic.center, 1e-2, counter,
                                keep_iterates=True)
        assert trace.final_gap <= 1e-2
        # Every envelope gradient stays within the delta-prox error bound.
        bound = math.sqrt(8.0 * quadratic.smoothness_L * params.delta)
        probe = OracleCounter()
        for it in trace.iterates[:20]:
            res = solve_prox_subproblem(quadratic, it.x, params.delta, probe)
            assert np.linalg.norm(res.envelope_gradient) <= bound

    def test_example1_moderate_accuracy(self, example1, counter):
        trace = run_accelerated(example1, np.array([5.0]), 1e-2, counter)
        assert example1.optimal_value == pytest.approx(2.0 ** -0.5, abs=1e-15)
        assert trace.final_gap <= 1e-2

    def test_solution_matches_last_row(self, example1, counter):
        trace = run_accelerated(example1, np.array([5.0]), 1e-1, counter)
        value = example1.evaluator(trace.solution)[0]
        assert value == pytest.approx(trace.rows[-1].f_value, abs=1e-12)

    def test_validation(self, quadratic, counter):
        with pytest.raises(InvalidArgumentError):
            run_accelerated(quadratic, np.array([0.0, 0.0]), 0.0, counter)
        with pytest.raises(PreconditionError):
            run_accelerated(quadratic, np.array([2.0, 0.0]), 1e-2, counter)

    def test_certificates_on_small_run(self, quadratic, counter):
        trace = run_accelerated(quadratic, np.array([1.0, 1.0]), 1e-2, counter,
                                keep_iterates=True)
        rep = check_linesearch_certificates(quadratic, trace)
        assert rep["passed"]
        assert rep["max_loops"] <= rep["loop_bound"]

    def test_certificates_require_iterates(self, quadratic, counter):
        trace = run_accelerated(quadratic, np.array([1.0, 1.0]), 1e-1, counter)
        with pytest.raises(InvalidArgumentError):
            check_linesearch_certificates(quadratic, trace)

    def test_glm_converges(self, glm, counter):
        trace = run_accelerated(glm, np.array([0.0, 0.0]), 1e-3, counter)
        assert trace.final_gap <= 1e-3

    def test_solver_constants_built_once_per_run(self, example1, monkeypatch):
        calls = []
        diameter = Box.diameter

        def counted(self):
            calls.append(1)
            return diameter(self)

        monkeypatch.setattr(Box, "diameter", counted)
        counts, outer = [], []
        for eps in (1e-2, 1e-3):
            calls.clear()
            trace = run_accelerated(example1, np.array([5.0]), eps, OracleCounter())
            counts.append(len(calls))
            outer.append(trace.header["params"]["T"])
        assert outer[0] < outer[1]
        assert counts[0] == counts[1]

    def test_line_search_params_match_public_builder(self, example1, monkeypatch):
        recorded = []
        line_search = qopt.accel._line_search

        def recording(obj, y, z, params, *rest):
            recorded.append(params)
            return line_search(obj, y, z, params, *rest)

        monkeypatch.setattr(qopt.accel, "_line_search", recording)
        trace = run_accelerated(example1, np.array([5.0]), 1e-2, OracleCounter(),
                                keep_iterates=True)
        params = trace.header["params"]
        assert len(recorded) == len(trace.iterates) == params["T"]
        for it, used in zip(trace.iterates, recorded):
            assert used == line_search_params(it.c, params["delta"], params["L"], params["D"])
        with pytest.raises(InvalidArgumentError):
            line_search_params(-1e-12, params["delta"], params["L"], params["D"])

    def test_nan_gradient_stops_the_run(self, quadratic):
        # A NaN must propagate through the projection to the oracle's
        # finiteness check, which stops the run at the next query. Without the
        # check the prox would still fail, but only at its iteration cap; a
        # clamping projection would not fail at all.
        calls = []

        def evaluator(x):
            calls.append(1)
            value, grad = quadratic.evaluator(x)
            return value, grad if len(calls) < 5 else np.full_like(grad, np.nan)

        obj = Objective(name="nan-gradient", evaluator=evaluator,
                        smoothness_L=quadratic.smoothness_L,
                        quasar_gamma=quadratic.quasar_gamma,
                        feasible_set=quadratic.feasible_set)
        with pytest.raises((InvalidArgumentError, NumericalFailureError)):
            run_accelerated(obj, np.array([1.0, 1.0]), 1e-2, OracleCounter())
        assert len(calls) == 5
