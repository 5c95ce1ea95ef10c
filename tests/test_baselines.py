import numpy as np
import pytest

from qopt import (
    Box,
    InvalidArgumentError,
    NumericalFailureError,
    OracleCounter,
    PreconditionError,
    Simplex,
    attach_rate_bounds,
    gradient_mapping,
    make_catalogue_objective,
    run_frank_wolfe,
    run_pgd,
)
from qopt.baselines import (
    check_fw_feasibility_and_weights,
    check_mapping_descent,
    check_mapping_inequality,
)


def simplex_quadratic():
    return make_catalogue_objective("quadratic", {"set": {"kind": "simplex", "dimension": 3}})


class TestGradientMapping:
    def test_interior_equals_gradient(self, quadratic_1d, counter):
        m = gradient_mapping(quadratic_1d, np.array([0.6]), 1.0, counter)
        assert m[0] == pytest.approx(0.6, abs=1e-15)
        assert counter.calls == 1

    def test_clipped_step(self, counter):
        obj = make_catalogue_objective("quadratic", {"set": {"kind": "box", "lower": [0.5], "upper": [1.0]}})
        m = gradient_mapping(obj, np.array([0.6]), 1.0, counter)
        assert m[0] == pytest.approx(0.1, abs=1e-15)

    def test_fixed_point_at_constrained_minimizer(self, counter):
        obj = make_catalogue_objective("quadratic", {"set": {"kind": "box", "lower": [0.5], "upper": [1.0]}})
        m = gradient_mapping(obj, obj.center, 1.0, counter)
        assert np.linalg.norm(m) <= 1e-10

    def test_validation(self, quadratic, counter):
        with pytest.raises(InvalidArgumentError):
            gradient_mapping(quadratic, np.array([0.0, 0.0]), 0.0, counter)
        with pytest.raises(PreconditionError):
            gradient_mapping(quadratic, np.array([3.0, 0.0]), 1.0, counter)


class TestPGD:
    def test_one_step_to_simplex_optimum(self, counter):
        obj = simplex_quadratic()
        trace = run_pgd(obj, np.array([1.0, 0.0, 0.0]), 5, counter)
        assert trace.rows[1].gap == 0.0
        np.testing.assert_allclose(trace.solution, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_stationary_at_center(self, counter):
        obj = simplex_quadratic()
        trace = run_pgd(obj, obj.center, 10, counter)
        f = trace.column("f_value")
        assert np.all(f == f[0])

    def test_monotone_descent_and_counting(self, example1, counter):
        trace = run_pgd(example1, np.array([5.0]), 200, counter)
        f = trace.column("f_value")
        assert np.all(np.diff(f) <= 4e-16 * np.maximum(1.0, np.abs(f[:-1])))
        assert counter.calls == 201
        calls = trace.column("oracle_calls")
        assert np.all(np.diff(calls) > 0)

    def test_projection_failure_keeps_the_rows_so_far(self, counter):
        obj = make_catalogue_objective("affine_plus_quadratic", {
            "set": {"kind": "simplex", "dimension": 3}, "a": [1e300, -1e300, 0.0], "q": 0.0})
        with pytest.raises(NumericalFailureError, match="simplex projection") as info:
            run_pgd(obj, np.array([1.0, 0.0, 0.0]), 5, counter)
        partial = info.value.partial_trace
        assert [row.iteration for row in partial.rows] == [0]
        assert partial.header["algorithm"] == "pgd"
        assert "simplex projection" in partial.failure

    def test_infeasible_start_rejected(self, example1, counter):
        with pytest.raises(PreconditionError):
            run_pgd(example1, np.array([9.0]), 5, counter)


class TestFrankWolfe:
    def test_two_step_hand_trace(self, counter):
        obj = simplex_quadratic()
        trace = run_frank_wolfe(obj, np.array([1.0, 0.0, 0.0]), 2, counter)
        # Step 0: gradient e1, minimizers {e2, e3}, lowest index wins -> e2;
        # weight 2/(0+2) = 1 replaces the iterate entirely.
        # Step 1: gradient e2 -> vertex e1; x2 = (1/3) e2 + (2/3) e1.
        np.testing.assert_allclose(trace.solution, [2 / 3, 1 / 3, 0.0], atol=1e-15)
        assert trace.rows[2].f_value == pytest.approx(5 / 18, abs=1e-15)

    def test_two_step_brute_force_replay(self, counter):
        obj = simplex_quadratic()
        trace = run_frank_wolfe(obj, np.array([1.0, 0.0, 0.0]), 6, counter)
        x = np.array([1.0, 0.0, 0.0])
        vertices = np.eye(3)
        for t in range(6):
            grad = x.copy()
            scores = vertices @ grad
            v = vertices[np.argmin(scores)]  # argmin ties -> lowest index
            x = (t / (t + 2)) * x + (2 / (t + 2)) * v
        np.testing.assert_allclose(trace.solution, x, atol=1e-15)

    def test_rows_match_dense_vertex_update_bytes(self, rng):
        # The one-entry simplex step must give the same f values, bit for bit,
        # as combining x with the dense LMO vertex.
        obj = make_catalogue_objective("quadratic", {
            "set": {"kind": "simplex", "dimension": 50}, "shift": rng.normal(size=50).tolist()})
        x0 = obj.feasible_set.sample(rng)[0]
        trace = run_frank_wolfe(obj, x0, 200, OracleCounter())
        x, values = x0.copy(), []
        for t in range(200):
            f, grad = obj.evaluator(x)
            values.append(f)
            x = (t / (t + 2)) * x + (2.0 / (t + 2)) * obj.feasible_set.lmo(grad)
        values.append(obj.evaluator(x)[0])
        assert trace.column("f_value").tobytes() == np.array(values).tobytes()
        assert trace.solution.tobytes() == x.tobytes()

    def test_caller_x0_untouched(self, counter):
        obj = simplex_quadratic()
        x0 = np.array([0.2, 0.3, 0.5])
        trace = run_frank_wolfe(obj, x0, 10, counter)
        check_fw_feasibility_and_weights(obj, x0, 10)
        np.testing.assert_array_equal(x0, [0.2, 0.3, 0.5])
        assert trace.header["x0"] == [0.2, 0.3, 0.5]

    def test_step_failure_keeps_the_rows_so_far(self, counter, monkeypatch):
        calls = {"n": 0}
        step = Simplex._step_toward_vertex

        def failing_third_step(self, x, g, keep, weight):
            calls["n"] += 1
            if calls["n"] == 3:
                raise NumericalFailureError("synthetic step failure")
            step(self, x, g, keep, weight)

        monkeypatch.setattr(Simplex, "_step_toward_vertex", failing_third_step)
        with pytest.raises(NumericalFailureError) as info:
            run_frank_wolfe(simplex_quadratic(), np.array([1.0, 0.0, 0.0]), 10, counter)
        partial = info.value.partial_trace
        assert [row.iteration for row in partial.rows] == [0, 1, 2]
        assert partial.failure == "synthetic step failure"

    def test_start_at_interior_optimum_respects_bound(self, counter):
        obj = simplex_quadratic()
        trace = run_frank_wolfe(obj, obj.center, 500, counter)
        attach_rate_bounds(trace, obj.smoothness_L, obj.quasar_gamma,
                           obj.feasible_set.diameter())
        gap = trace.column("gap")
        bound = trace.column("bound")
        assert np.all(gap[1:] <= bound[1:] + 1e-12)
        assert np.nanmin(gap) >= -1e-10

    def test_feasibility_and_weight_identity(self):
        obj = simplex_quadratic()
        rep = check_fw_feasibility_and_weights(obj, np.array([1.0, 0.0, 0.0]), 500)
        assert rep["passed"]
        assert rep["max_weight_mismatch"] <= 1e-12

    def test_weight_identity_replays_the_solver_step(self, monkeypatch):
        steps = {"n": 0}
        step = Simplex._step_toward_vertex

        def counted(self, x, g, keep, weight):
            steps["n"] += 1
            step(self, x, g, keep, weight)

        monkeypatch.setattr(Simplex, "_step_toward_vertex", counted)
        rep = check_fw_feasibility_and_weights(simplex_quadratic(), np.array([1.0, 0.0, 0.0]), 40)
        assert rep["passed"]
        assert steps["n"] == 40


class TestRateBounds:
    def test_bound_columns(self, example1, counter):
        trace = run_pgd(example1, np.array([5.0]), 20, counter)
        attach_rate_bounds(trace, example1.smoothness_L, 0.5, 10.0)
        assert trace.rows[0].bound is None
        t = 5
        expected = 20.0 * example1.smoothness_L * 100.0 / ((t + 1) * 0.25)
        assert trace.rows[t].bound == pytest.approx(expected, rel=1e-12)

    def test_unknown_algorithm_rejected(self, example1, counter):
        trace = run_pgd(example1, np.array([5.0]), 5, counter)
        trace.header["algorithm"] = "mystery"
        with pytest.raises(InvalidArgumentError):
            attach_rate_bounds(trace, 1.0, 1.0, 1.0)


class TestMappingProperties:
    @pytest.mark.parametrize("name", ["quadratic", "example1", "glm_sigmoid"])
    def test_mapping_inequality(self, name):
        obj = make_catalogue_objective(name)
        assert check_mapping_inequality(obj, trials=300)["passed"]

    @pytest.mark.parametrize("name", ["quadratic", "example1", "glm_sigmoid"])
    def test_mapping_descent(self, name):
        obj = make_catalogue_objective(name)
        assert check_mapping_descent(obj, trials=300)["passed"]


class TestGammaFreeExecution:
    def test_solvers_never_read_gamma(self, counter):
        class Poisoned:
            def __init__(self, obj):
                self._obj = obj

            def __getattr__(self, item):
                if item == "quasar_gamma":
                    raise AssertionError("baseline read quasar_gamma")
                return getattr(self._obj, item)

        obj = Poisoned(make_catalogue_objective("quadratic"))
        run_pgd(obj, np.array([1.0, 1.0]), 25, counter)
        run_frank_wolfe(obj, np.array([1.0, 1.0]), 25, counter)
        gradient_mapping(obj, np.array([0.2, 0.2]), 1.0, counter)
