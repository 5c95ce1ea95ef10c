import dataclasses
import re

import mpmath as mp
import numpy as np
import pytest

from qopt import (
    Box,
    InvalidArgumentError,
    NumericalFailureError,
    Objective,
    OracleCounter,
    PreconditionError,
    Simplex,
    evaluate,
    finite_diff_gradient,
    make_catalogue_objective,
    run_accelerated,
    run_frank_wolfe,
    run_pgd,
    solve_prox_subproblem,
)
from qopt import checks
from qopt.checks import _worst_quasar_violations, fw_dynamics, quasar_certificate, smoothness
from qopt.objectives import CATALOGUE, CATALOGUE_NAMES, FIG1_X0
from qopt.sets import _dot

from conftest import trace_csv_lines

mp.mp.dps = 40


def sixth_root_reference(x):
    """High-precision value/derivative oracle for the example1 objective."""
    v = mp.mpf(x)
    u = v * v + mp.mpf(1) / 8
    return float(u ** (mp.mpf(1) / 6)), float((v / 3) * u ** (-mp.mpf(5) / 6))


class TestEvaluate:
    def test_quadratic_value_and_gradient(self, quadratic, counter):
        value, grad = evaluate(quadratic, np.array([1.0, 2.0]), counter)
        assert value == 2.5
        np.testing.assert_array_equal(grad, [1.0, 2.0])
        assert counter.calls == 1

    def test_example1_at_zero(self, example1, counter):
        value, grad = evaluate(example1, np.array([0.0]), counter)
        assert value == pytest.approx(2.0 ** -0.5, abs=1e-15)
        assert value == pytest.approx(0.70711, abs=5e-6)
        assert grad[0] == 0.0

    def test_example1_at_one_vs_high_precision(self, example1, counter):
        value, grad = evaluate(example1, np.array([1.0]), counter)
        ref_value, ref_grad = sixth_root_reference(1.0)
        assert value == pytest.approx(ref_value, abs=1e-14)
        assert grad[0] == pytest.approx(ref_grad, abs=1e-14)
        assert value == pytest.approx(1.01982, abs=5e-6)
        assert grad[0] == pytest.approx(0.30217, abs=5e-6)

    def test_counter_increments_once_per_call(self, example1, counter):
        for expected in range(1, 6):
            evaluate(example1, np.array([0.5]), counter)
            assert counter.calls == expected

    @pytest.mark.parametrize("solver", ["frank_wolfe", "pgd", "accelerated"])
    def test_wrong_gradient_length_stops_every_solver(self, solver):
        # A 1-entry gradient on a 2-dim box broadcasts silently in each
        # solver's step; the first query rejects it before any row is written.
        obj = Objective(name="short_gradient",
                        evaluator=lambda x: (float(x[0] ** 2), np.array([2.0 * x[0]])),
                        smoothness_L=2.0, quasar_gamma=1.0,
                        feasible_set=Box([-1.0, -1.0], [1.0, 1.0]))
        x0, counter = np.array([0.5, 0.5]), OracleCounter()
        run = {"frank_wolfe": lambda: run_frank_wolfe(obj, x0, 3, counter),
               "pgd": lambda: run_pgd(obj, x0, 3, counter),
               "accelerated": lambda: run_accelerated(obj, x0, 0.1, counter)}[solver]
        with pytest.raises(InvalidArgumentError, match=r"^gradient of objective "
                           r"'short_gradient' has shape \(1,\), expected \(2,\)$"):
            run()
        assert counter.calls == 1

    def test_nonfinite_rejected(self, quadratic, counter):
        with pytest.raises(InvalidArgumentError):
            evaluate(quadratic, np.array([np.nan, 0.0]), counter)
        with pytest.raises(InvalidArgumentError):
            evaluate(quadratic, np.array([np.inf, 0.0]), counter)
        assert counter.calls == 0

    def test_finite_point_whose_squares_overflow_is_queried(self, counter):
        # The sum of squares overflows, with no warning, so the check falls
        # back to the entrywise scan, which finds every entry finite.
        obj = Objective("sum", lambda x: (float(x.sum()), np.ones_like(x)), 1.0, 1.0,
                        Box([-1.0, -1.0], [1.0, 1.0]))
        f, grad = evaluate(obj, np.array([1e200, -1e200]), counter)
        assert f == 0.0 and counter.calls == 1
        np.testing.assert_array_equal(grad, [1.0, 1.0])

    def test_quadratic_value_that_overflows_is_a_numerical_failure(self, quadratic, counter):
        # Both sums of squares, the finite-point test's and the oracle's own,
        # overflow to inf without a warning; the value inf is then rejected.
        with pytest.raises(NumericalFailureError, match="non-finite value inf"):
            evaluate(quadratic, np.array([1e155, 1e155]), counter)
        assert counter.calls == 1

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_is_a_numerical_failure(self, value, counter):
        obj = Objective(name="blows_up", evaluator=lambda x: (value, np.zeros(1)),
                        smoothness_L=1.0, quasar_gamma=1.0, feasible_set=Box([-1.0], [1.0]))
        with pytest.raises(NumericalFailureError, match="objective 'blows_up'"):
            evaluate(obj, np.array([0.5]), counter)
        assert counter.calls == 1  # the oracle was queried

    def test_dimension_mismatch(self, quadratic, counter):
        with pytest.raises(InvalidArgumentError):
            evaluate(quadratic, np.array([1.0]), counter)


class TestFiniteDifferences:
    def test_quadratic(self, quadratic):
        fd = finite_diff_gradient(quadratic, np.array([1.0, 2.0]), h=1e-4)
        np.testing.assert_allclose(fd, [1.0, 2.0], atol=1e-7)

    def test_example1(self, example1):
        fd = finite_diff_gradient(example1, np.array([1.0]), h=1e-5)
        _, ref_grad = sixth_root_reference(1.0)
        assert fd[0] == pytest.approx(ref_grad, abs=1e-8)

    def test_affine_is_exact(self):
        obj = make_catalogue_objective(
            "affine_plus_quadratic", {"a": [2.0, -3.0], "q": 0.0}
        )
        fd = finite_diff_gradient(obj, np.array([0.3, -0.4]), h=1e-4)
        np.testing.assert_allclose(fd, [2.0, -3.0], atol=1e-10)

    def test_bad_step_rejected(self, quadratic):
        with pytest.raises(InvalidArgumentError):
            finite_diff_gradient(quadratic, np.array([0.0, 0.0]), h=0.0)
        with pytest.raises(InvalidArgumentError):
            finite_diff_gradient(quadratic, np.array([0.0, 0.0]), h=-1e-5)

    def test_second_order_accuracy(self, example1):
        # Central differences converge like h^2 until rounding takes over.
        x = np.array([0.7])
        exact = example1.evaluator(x)[1][0]
        errs = [abs(finite_diff_gradient(example1, x, h)[0] - exact) for h in (1e-2, 1e-3)]
        assert errs[1] <= errs[0] / 50.0


class TestQuasarConvexityCheck:
    def test_example1_certificate(self, example1):
        result = quasar_certificate(example1, 10_000)
        assert result.max_violation <= 1e-9
        assert result.samples == 10_000

    def test_quadratic_is_star_convex(self, quadratic):
        assert quasar_certificate(quadratic, 2_000).max_violation <= 0.0

    def test_counterexample_violates_for_any_gamma(self, fig1):
        worst, _ = _worst_quasar_violations(fig1, fig1.evaluator, 10_000, (0.1, 0.5, 1.0))
        assert min(worst) > 0.0

    def test_counterexample_violation_at_stationary_point(self, fig1):
        # A stationary point above the minimum violates the inequality for
        # every gamma: the gradient term vanishes there.
        value, grad = fig1.evaluator(np.array([-2.0]))
        assert abs(grad[0]) <= 1e-8
        assert value - fig1.optimal_value > 0.1

    def test_requires_center(self, quadratic):
        anonymous = Objective(
            name="no-center",
            evaluator=quadratic.evaluator,
            smoothness_L=1.0,
            quasar_gamma=1.0,
            feasible_set=quadratic.feasible_set,
        )
        with pytest.raises(PreconditionError):
            quasar_certificate(anonymous, 10)


class TestSmoothnessCheck:
    def test_quadratic_ratio_is_one(self, quadratic):
        # The violation is the worst secant ratio minus L = 1.
        result = smoothness(quadratic, 500)
        assert result.max_violation == pytest.approx(0.0, abs=1e-12)
        assert result.passed

    def test_affine_ratio_is_zero(self):
        obj = make_catalogue_objective("affine_plus_quadratic", {"q": 0.0})
        # Every secant ratio is 0; the declared L is 1.
        assert smoothness(obj, 500).max_violation == -1.0

    def test_example1_within_declared_constant(self, example1):
        result = smoothness(example1, 10_000)
        assert result.passed
        # The dense scan of the second derivative peaks at about 1.88562.
        assert result.max_violation + example1.smoothness_L == pytest.approx(1.88562, abs=1e-3)

    def test_sample_count_validated(self, quadratic):
        with pytest.raises(InvalidArgumentError):
            smoothness(quadratic, 1)


class TestCatalogue:
    def test_example1_fields(self, example1):
        assert example1.quasar_gamma == 0.5
        assert example1.smoothness_L == pytest.approx(1.8857)
        np.testing.assert_array_equal(example1.center, [0.0])
        assert example1.optimal_value == pytest.approx(2.0 ** -0.5, abs=1e-15)
        set_ = example1.feasible_set
        np.testing.assert_array_equal(set_.lower, [-5.0])
        np.testing.assert_array_equal(set_.upper, [5.0])

    def test_counterexample_construction(self, fig1):
        # Shift computed from the base objective's slope at -2; the regularized
        # objective is stationary there with negative curvature.
        assert FIG1_X0 == pytest.approx(-12.23, abs=0.005)
        slope = fig1.evaluator(np.array([-2.0]))[1][0]
        assert abs(slope) <= 1e-8
        f = lambda v: fig1.evaluator(np.array([v]))[0]
        h = 1e-4
        second = (f(-2 + h) - 2 * f(-2.0) + f(-2 - h)) / h**2
        assert second < 0.0

    def test_counterexample_center_is_a_root_of_the_derivative(self, fig1):
        # The center is a frozen literal; the derivative changes sign across it.
        slope = lambda v: fig1.evaluator(np.array([v]))[1][0]
        (c,) = fig1.center
        assert c == float.fromhex("-0x1.2b7f416b5bf58p-3")
        assert slope(c - 1e-13) < 0.0 < slope(c + 1e-13)
        assert abs(slope(c)) <= 1e-15

    def test_counterexample_center_matches_brentq(self, fig1):
        # The literal is the root brentq finds on the bracket [-0.5, 0].
        brentq = pytest.importorskip("scipy.optimize").brentq
        slope = lambda v: fig1.evaluator(np.array([v]))[1][0]
        root = brentq(slope, -0.5, 0.0, xtol=1e-14)
        assert root.hex() == fig1.center[0].hex()

    def test_counterexample_center_is_global_minimum(self, fig1):
        grid = np.linspace(-5, 5, 20_001)
        values = [fig1.evaluator(np.array([v]))[0] for v in grid]
        assert fig1.optimal_value <= min(values) + 1e-9
        assert fig1.feasible_set.contains(fig1.center)

    def test_quadratic_center_is_projection_of_shift(self):
        obj = make_catalogue_objective(
            "quadratic", {"set": {"kind": "simplex", "dimension": 3}}
        )
        np.testing.assert_allclose(obj.center, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        assert obj.smoothness_L == 1.0 and obj.quasar_gamma == 1.0

    @pytest.mark.parametrize("dim", [5, 30_000])
    @pytest.mark.parametrize("shift_kind", ["zeros", "negative_zero_entry", "nonzero"])
    def test_quadratic_matches_the_array_shift_reference(self, dim, shift_kind):
        # An all-+0.0 shift hands back x itself as the gradient; a -0.0 entry
        # must keep the array, since -0.0 - (-0.0) is +0.0 but -0.0 - (+0.0)
        # is -0.0.  TestOracleArraysAreNeverWritten pins that no solver
        # writes the gradient, and so the point, it shares.
        rng = np.random.default_rng(dim)
        shift = {"zeros": np.zeros(dim),
                 "negative_zero_entry": np.array([0.0, -0.0] + [0.0] * (dim - 2)),
                 "nonzero": rng.standard_normal(dim)}[shift_kind]
        x = rng.standard_normal(dim)
        x[:4] = [0.0, -0.0, 5e-324, -2.5e-310]
        obj = make_catalogue_objective("quadratic", {"dim": dim, "shift": shift})
        d = x - shift
        expected = 0.5 * float(_dot(d, d))
        value, grad = obj.evaluator(x)
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()
        assert grad.dtype == np.float64 and grad.shape == (dim,)
        assert grad.tobytes() == d.tobytes()

    def test_affine_center_projects_a_far_unconstrained_minimizer(self):
        # -a / q = [-9e307, -9e307, 1]: the simplex projection's cumsum overflows.
        obj = make_catalogue_objective("affine_plus_quadratic", {
            "set": {"kind": "simplex", "dimension": 3}, "a": [9e307, 9e307, -1.0], "q": 1})
        np.testing.assert_array_equal(obj.center, [0.0, 0.0, 1.0])
        assert obj.optimal_value == -0.5

    def test_affine_center_is_lmo_vertex(self):
        obj = make_catalogue_objective("affine_plus_quadratic", {"a": [1.0, -1.0], "q": 0.0})
        np.testing.assert_array_equal(obj.center, [-1.0, 1.0])

    def test_glm_realizable_minimum(self, glm):
        value, grad = glm.evaluator(glm.center)
        assert value == 0.0 and glm.optimal_value == 0.0
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)
        assert glm.feasible_set.contains(glm.center)

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_catalogue_objective("rosenbrock")

    def test_unknown_params_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_catalogue_objective("example1", {"set": {"kind": "box"}})

    @pytest.mark.parametrize("name", ["rosenbrock", ["quadratic"], None])
    def test_unknown_name_names_the_catalogue(self, name):
        with pytest.raises(InvalidArgumentError, match="expected one of"):
            make_catalogue_objective(name)

    @pytest.mark.parametrize("name", CATALOGUE_NAMES)
    def test_params_beyond_the_entry_are_rejected(self, name):
        with pytest.raises(InvalidArgumentError, match=r"unknown params \['typo'\]"):
            make_catalogue_objective(name, {"typo": 1})

    @pytest.mark.parametrize("name,params,param", [
        ("affine_plus_quadratic", {"q": np.nan}, "q"),
        ("affine_plus_quadratic", {"q": np.inf}, "q"),
        ("affine_plus_quadratic", {"a": np.array([np.nan, 1.0])}, "a"),
        ("quadratic", {"set": {"kind": "simplex", "dimension": 3}, "shift": [np.inf, 0, 0]},
         "shift"),
    ])
    def test_non_finite_param_rejected(self, name, params, param):
        with pytest.raises(InvalidArgumentError, match=f"param {param} must be finite"):
            make_catalogue_objective(name, params)

    @pytest.mark.parametrize("name", ["quadratic", "affine_plus_quadratic"])
    @pytest.mark.parametrize("dim", [2.7, 2.0, True, "2"],
                             ids=["fraction", "integral_float", "bool", "string"])
    def test_non_integer_dim_rejected(self, name, dim):
        with pytest.raises(InvalidArgumentError, match="dim"):
            make_catalogue_objective(name, {"dim": dim})

    @pytest.mark.parametrize("name", ["quadratic", "affine_plus_quadratic"])
    def test_dim_contradicting_the_set_rejected(self, name):
        with pytest.raises(InvalidArgumentError, match="contradicts"):
            make_catalogue_objective(name, {"dim": 5, "set": Simplex(3)})

    @pytest.mark.parametrize("name", ["quadratic", "affine_plus_quadratic"])
    def test_numpy_integer_dim_accepted(self, name):
        assert make_catalogue_objective(name, {"dim": np.int64(3)}).dimension == 3

    def test_every_entry_passes_declared_smoothness(self):
        for name in ("quadratic", "affine_plus_quadratic", "example1",
                     "fig1_counterexample", "glm_sigmoid"):
            obj = make_catalogue_objective(name)
            assert smoothness(obj, 2_000).passed, name

    def test_certifiable_entries_pass_quasar_check(self):
        for name in ("quadratic", "affine_plus_quadratic", "example1", "glm_sigmoid"):
            obj = make_catalogue_objective(name)
            assert quasar_certificate(obj, 4_000).max_violation <= 1e-9, name


class TestCatalogueRegistry:
    """The catalogue registry is the one place an instance is written: the
    check table, its instances and its aggregate rows derive from it."""

    #: Every check that gives one row per member of its family.
    PER_MEMBER_CHECKS = {
        "quasar_certificate", "quasar_counterexample", "counterexample_construction",
        "smoothness", "gradient_consistency", "prox_conditioning", "moreau_smoothness",
        "prox_stopping", "prox_gradient_error", "moreau_quasar", "prox_descent",
        "linesearch_certificate", "rate_envelope", "accelerated_gap"}

    def test_derived_tables_equal_the_hand_kept_ones(self):
        assert CATALOGUE_NAMES == ("quadratic", "affine_plus_quadratic", "example1",
                                   "fig1_counterexample", "glm_sigmoid")
        assert checks._INSTANCES == {
            "quadratic_box": ("quadratic", {}, [1.0, 1.0]),
            "example1": ("example1", {}, [5.0]),
            "quadratic_simplex": ("quadratic", {"set": {"kind": "simplex", "dimension": 3}},
                                  "vertex"),
        }
        table = checks._CHECKS
        prox_entries = ("quadratic", "example1")
        mapping_entries = ("quadratic", "example1", "glm_sigmoid")
        assert table["prox_iteration_budget"] == (checks.prox_iteration_budget, prox_entries)
        assert table["pgd_mapping_bound"] == (checks.pgd_mapping_bound, mapping_entries)
        assert table["pgd_descent_step"] == (checks.pgd_descent_step, mapping_entries)
        assert table["moreau_quasar:example1"] == (checks.moreau_quasar, "example1", 1e-6)
        assert table["moreau_quasar:quadratic"] == (checks.moreau_quasar, "quadratic", 1e-8)
        assert table["accelerated_gap:quadratic_box"] == (
            checks.accelerated_gap, "quadratic_box", 1e-3)
        assert table["accelerated_gap:example1"] == (checks.accelerated_gap, "example1", 1e-4)
        assert [n for n in CATALOGUE_NAMES if f"quasar_certificate:{n}" in table] == [
            n for n in CATALOGUE_NAMES if n != "fig1_counterexample"]

    def test_one_entry_joins_every_family(self):
        # A renamed copy of example1 that joins every family, with the
        # arguments of the first member of each.
        families, runs = {}, {}
        for entry in CATALOGUE.values():
            for family, args in entry.checks.items():
                families.setdefault(family, args)
            for _, _, run_families in entry.instances.values():
                for family, args in run_families.items():
                    runs.setdefault(family, args)
        copy = "example1_copy"
        extended = {**CATALOGUE, copy: CATALOGUE["example1"]._replace(
            checks=families, instances={copy: ({}, [5.0], runs)})}
        base, table = checks._CHECKS, checks._check_table(extended)

        # The registry's own rows keep their order, and only the copy's are new.
        assert [k for k in table if not k.endswith(copy)] == list(base)
        added = [k for k in table if k.endswith(copy)]
        assert {k.split(":")[0] for k in added} == self.PER_MEMBER_CHECKS
        for name in added:
            # The copy comes last in registry order, so each of its rows closes
            # its family's rows: the same row name with another member.
            pattern = re.escape(name[:-len(copy)]) + "[^:]+"
            family_rows = [k for k in table if re.fullmatch(pattern, k)]
            assert family_rows == [k for k in base if re.fullmatch(pattern, k)] + [name]
            assert table[name][0].__name__ == name.split(":")[0]
            assert copy in table[name]
        for name in ("prox_iteration_budget", "pgd_mapping_bound", "pgd_descent_step"):
            assert table[name] == (base[name][0], base[name][1] + (copy,))


def read_only_oracle(obj):
    """``obj`` with an evaluator that marks each query point and each gradient
    it returns read-only: a later write to either raises ValueError."""
    evaluator = obj.evaluator

    def frozen(x):
        x.setflags(write=False)
        value, grad = evaluator(x)
        grad.setflags(write=False)
        return value, grad

    return dataclasses.replace(obj, evaluator=frozen)


def quadratic_on(kind, n, shifted):
    """The catalogue quadratic on an ``n``-dim simplex, box or ball, with a zero
    shift, whose gradient is the query point itself, or a seeded random one."""
    set_ = {"simplex": {"kind": "simplex", "dimension": n},
            "box": {"kind": "box", "lower": [-1.0] * n, "upper": [1.0] * n},
            "ball": {"kind": "ball", "center": [0.5] * n, "radius": 1.0}}[kind]
    shift = np.random.default_rng(n).normal(size=n) if shifted else np.zeros(n)
    return make_catalogue_objective("quadratic", {"set": set_, "shift": shift})


class TestOracleArraysAreNeverWritten:
    """No solver or check writes an array it handed to the oracle or got back
    from it, so an oracle may return its query point as the gradient."""

    @pytest.mark.parametrize("kind,n,shifted", [
        ("simplex", 3, False), ("simplex", 3, True), ("simplex", 30_000, False),
        ("box", 3, False), ("box", 3, True), ("ball", 3, False), ("ball", 3, True),
    ])
    def test_baselines(self, kind, n, shifted):
        obj = quadratic_on(kind, n, shifted)
        x0 = obj.feasible_set.canonical_vertex()
        T = 30 if n > 3 else 60
        for solver in (run_frank_wolfe, run_pgd):
            # The frozen run must also be the same run, byte for byte.
            frozen = solver(read_only_oracle(obj), x0.copy(), T, OracleCounter())
            plain = solver(obj, x0.copy(), T, OracleCounter())
            assert trace_csv_lines(frozen) == trace_csv_lines(plain)
            assert frozen.solution.tobytes() == plain.solution.tobytes()

    @pytest.mark.parametrize("name", ["quadratic", "quadratic_simplex", "example1",
                                      "glm_sigmoid"])
    def test_accelerated_and_prox(self, name):
        obj = (quadratic_on("simplex", 3, False) if name == "quadratic_simplex"
               else make_catalogue_objective(name))
        frozen = read_only_oracle(obj)
        x0 = obj.feasible_set.canonical_vertex()
        epsilon = 1e-2
        assert (trace_csv_lines(run_accelerated(frozen, x0.copy(), epsilon, OracleCounter()))
                == trace_csv_lines(run_accelerated(obj, x0.copy(), epsilon, OracleCounter())))
        for x in obj.feasible_set.sample(np.random.default_rng(0), 3):
            res = solve_prox_subproblem(frozen, x.copy(), 1e-10, OracleCounter())
            assert res.y.tobytes() == solve_prox_subproblem(
                obj, x.copy(), 1e-10, OracleCounter()).y.tobytes()

    @pytest.mark.parametrize("n", [3, 30_000])
    def test_frank_wolfe_weight_check(self, n):
        obj = quadratic_on("simplex", n, False)
        x0 = obj.feasible_set.canonical_vertex()
        T = 30 if n > 3 else 200
        assert fw_dynamics((read_only_oracle(obj), x0), T) == fw_dynamics((obj, x0), T)

    @pytest.mark.parametrize("solver", ["pgd", "frank_wolfe", "accelerated"])
    def test_caller_x0_is_never_written_nor_returned(self, solver):
        # Frank-Wolfe and PGD query the caller's x0 itself; the trace solution
        # must still be a separate array, also when no step is taken (T = 0).
        obj = quadratic_on("simplex", 3, False)
        if solver == "accelerated":
            runs = [lambda x0: run_accelerated(obj, x0, 1e-3, OracleCounter())]
        else:
            run = {"pgd": run_pgd, "frank_wolfe": run_frank_wolfe}[solver]
            runs = [lambda x0, T=T: run(obj, x0, T, OracleCounter()) for T in (0, 1, 25)]
        for run_from in runs:
            x0 = np.array([0.2, 0.3, 0.5])
            x0_bytes = x0.tobytes()
            trace = run_from(x0)
            assert x0.tobytes() == x0_bytes
            assert trace.header["x0"] == [0.2, 0.3, 0.5]
            assert trace.solution is not x0
            assert not np.shares_memory(trace.solution, x0)


class TestObjectiveValidation:
    def test_bad_constants(self, quadratic):
        with pytest.raises(InvalidArgumentError):
            Objective("bad", quadratic.evaluator, -1.0, 1.0, quadratic.feasible_set)
        with pytest.raises(InvalidArgumentError):
            Objective("bad", quadratic.evaluator, 1.0, 0.0, quadratic.feasible_set)
        with pytest.raises(InvalidArgumentError):
            Objective("bad", quadratic.evaluator, 1.0, 1.5, quadratic.feasible_set)

    def test_infeasible_center(self, quadratic):
        with pytest.raises(InvalidArgumentError):
            Objective(
                "bad", quadratic.evaluator, 1.0, 1.0,
                Box([-1, -1], [1, 1]), center=np.array([2.0, 0.0]),
            )
