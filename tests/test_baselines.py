import copy
import dataclasses
import math

import numpy as np
import pytest

import qopt.baselines
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
from qopt.checks import (
    FW_WEIGHT_TOL,
    fw_dynamics,
    pgd_descent_step,
    pgd_mapping_bound,
)
from qopt.baselines import RATE_CONSTANTS
from qopt.objectives import evaluate
from qopt.sets import MEMBERSHIP_TOL
from qopt.trace import Trace

from conftest import trace_csv_lines


def simplex_quadratic():
    return make_catalogue_objective("quadratic", {"set": {"kind": "simplex", "dimension": 3}})


def dense_pgd(obj, x0, T):
    """The reference loop: T steps of ``x <- proj(x - grad f(x) / L)``, one query per row.

    Also returns the queries up to the first step that lands bit for bit where
    it started (``T + 1`` when no step does).
    """
    x = np.asarray(x0, dtype=float)
    eta = 1.0 / obj.smoothness_L
    fstar = obj.optimal_value
    rows, fixed_at = [], None
    for t in range(T + 1):
        f, grad = obj.evaluator(x)
        f = float(f)
        rows.append((t, t + 1, f, None if fstar is None else f - fstar, None))
        if t < T:
            x_next = obj.feasible_set.project(x - eta * grad)
            if fixed_at is None and x_next.tobytes() == x.tobytes():
                fixed_at = t + 1
            x = x_next
    return Trace({}, *map(list, zip(*rows)), solution=x), fixed_at or T + 1


def dense_frank_wolfe(obj, x0, T, counter, seen=None):
    """The reference loop: every row queries through the public ``evaluate``,
    which coerces and scans the iterate again.  A given ``seen`` gets the
    :func:`iteration_bytes` of each row."""
    x = obj.feasible_set.checked_point(x0, "x0")
    set_ = obj.feasible_set
    fstar = obj.optimal_value
    header = {"algorithm": "frank_wolfe", "objective": obj.name, "set": set_.to_spec(),
              "params": {"T": T}, "x0": x.tolist()}
    rows = []
    for t in range(T + 1):
        f, grad = evaluate(obj, x, counter)
        rows.append((t, counter.calls, f, None if fstar is None else f - fstar, None))
        if seen is not None:
            seen.append(iteration_bytes(t, x, f, grad))
        if t < T:
            x = set_._step_toward_vertex(x, grad, t / (t + 2), 2.0 / (t + 2))
    return Trace(header, *map(list, zip(*rows)), solution=x)


def iteration_bytes(t, x, f, grad):
    """A Frank-Wolfe iteration's ``t``, ``f`` and the bytes of its point and gradient."""
    return t, f, x.tobytes(), grad.tobytes()


def finite_queries_only(obj):
    """``obj`` with an evaluator that fails the test when queried at a non-finite point."""
    evaluator = obj.evaluator

    def checked(x):
        assert np.isfinite(x).all(), f"oracle queried at a non-finite point {x}"
        return evaluator(x)

    return dataclasses.replace(obj, evaluator=checked)


def fw_instance(kind, n):
    """A Frank-Wolfe problem on an ``n``-dim simplex, box or ball, and a start
    point with a ``-0.0`` entry."""
    rng = np.random.default_rng(n)
    x0 = np.zeros(n)
    x0[-1] = -0.0
    if kind == "simplex":
        set_ = {"kind": "simplex", "dimension": n}
        x0[0] = 1.0
        obj = make_catalogue_objective("quadratic", {
            "set": set_, "shift": rng.normal(size=n).tolist()})
    elif kind == "box":
        set_ = {"kind": "box", "lower": [-1.0] * n, "upper": [1.0] * n}
        x0[0] = 0.5
        obj = make_catalogue_objective("affine_plus_quadratic", {
            "set": set_, "a": rng.normal(size=n).tolist(), "q": 0.5})
    else:
        set_ = {"kind": "ball", "center": [0.0] * n, "radius": 1.0}
        x0[0] = 0.5
        obj = make_catalogue_objective("quadratic", {
            "set": set_, "shift": (2.0 * rng.normal(size=n)).tolist()})
    return obj, x0


def csv_rows(trace, with_calls=True):
    """The trace's CSV table rows, optionally without the oracle_calls column."""
    rows = trace_csv_lines(trace)[2:]
    if with_calls:
        return rows
    return [",".join(cell for i, cell in enumerate(row.split(",")) if i != 1) for row in rows]


def simplex_draw(seed, dim):
    e = np.random.default_rng(seed).standard_exponential(dim)
    return e / e.sum()


def _simplex(dim):
    return {"set": {"kind": "simplex", "dimension": dim}}


# (objective, params, x0, T): every run reaches a bit-exact fixed point before T.
FIXED_POINT_RUNS = {
    "simplex30000_seed1": ("quadratic", _simplex(30_000), simplex_draw(1, 30_000), 20),
    "simplex30000_seed2": ("quadratic", _simplex(30_000), simplex_draw(2, 30_000), 20),
    "example1_x5": ("example1", {}, [5.0], 300),
    "example1_xm3": ("example1", {}, [-3.3], 200),
    "glm_sigmoid": ("glm_sigmoid", {}, [0.0, 0.0], 300),
    "box5": ("quadratic", {"dim": 5, "shift": [2.0, -0.3, 0.1, 5.0, -1.5]},
             [1.0, -1.0, 0.0, 0.5, 1.0], 50),
    "ball": ("quadratic", {"shift": [3.0, 1.0],
                           "set": {"kind": "ball", "center": [0.5, -0.5], "radius": 1.0}},
             [0.5, 0.5], 50),
    "simplex50": ("quadratic", _simplex(50), np.eye(50)[0], 200),
    "affine_plus_quadratic": ("affine_plus_quadratic", {"dim": 3, "a": [0.3, -0.2, 0.05],
                                                        "q": 0.7}, [0.0, 0.0, 0.0], 50),
    # The first step turns each -0.0 into +0.0: equal under ==, different bits.
    "negative_zero": ("quadratic", {"dim": 3}, [-0.0, -0.0, 0.0], 10),
}


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

    def test_steps_stay_on_a_simplex_beside_a_huge_gradient(self, counter):
        # x - 1e9 1 projects back to x.  Beside entries near -1e9 rounding
        # spoils the first pass's threshold, so the normalized pass answers.
        simplex = Simplex(30_000)
        obj = make_catalogue_objective("affine_plus_quadratic",
                                       {"set": simplex, "a": np.full(30_000, 1e9), "q": 0.0})
        trace = run_pgd(obj, simplex.center_point(), 5, counter)
        assert simplex.contains(trace.solution)
        assert trace.final_gap < 1e-6

    def test_stationary_at_center(self, counter):
        obj = simplex_quadratic()
        trace = run_pgd(obj, obj.center, 10, counter)
        f = trace.column("f_value")
        assert np.all(f == f[0])

    def test_monotone_descent_and_counting(self, example1, counter):
        # The iterate stops moving at t = 128; later rows reuse that row.
        trace = run_pgd(example1, np.array([5.0]), 200, counter)
        f = trace.column("f_value")
        assert np.all(np.diff(f) <= 4e-16 * np.maximum(1.0, np.abs(f[:-1])))
        assert len(trace.rows) == 201
        assert counter.calls == trace.final_oracle_calls == 129
        calls = trace.column("oracle_calls")
        np.testing.assert_array_equal(calls[:129], np.arange(1, 130))
        assert np.all(calls[129:] == 129)

    @pytest.mark.parametrize("name", FIXED_POINT_RUNS)
    def test_fixed_point_exit_matches_the_dense_loop(self, name):
        objective, params, x0, T = FIXED_POINT_RUNS[name]
        base = make_catalogue_objective(objective, params)
        x0 = np.array(x0, dtype=float)
        queries = []

        def audited(x):
            queries.append(np.array(x, dtype=float).tobytes())
            return base.evaluator(x)

        counter = OracleCounter()
        trace = run_pgd(dataclasses.replace(base, evaluator=audited), x0, T, counter)
        reference, calls = dense_pgd(base, x0, T)
        assert csv_rows(trace, with_calls=False) == csv_rows(reference, with_calls=False)
        assert trace.solution.tobytes() == reference.solution.tobytes()
        assert trace.final_oracle_calls == counter.calls == len(queries) == calls < T + 1
        repeated = [i for i in range(1, len(queries)) if queries[i] == queries[i - 1]]
        assert repeated == []

    def test_run_without_a_fixed_point_keeps_every_query(self, example1, counter):
        trace = run_pgd(example1, np.array([5.0]), 100, counter)
        reference, calls = dense_pgd(example1, [5.0], 100)
        assert counter.calls == trace.final_oracle_calls == calls == 101
        assert csv_rows(trace) == csv_rows(reference)
        assert trace.solution.tobytes() == reference.solution.tobytes()

    def test_projection_failure_keeps_the_rows_so_far(self, counter):
        # Only a point with a NaN or infinite entry fails to project onto a
        # simplex: an infinite gradient entry makes the first step one.
        base = make_catalogue_objective("quadratic", {"set": {"kind": "simplex", "dimension": 3}})
        obj = dataclasses.replace(base, evaluator=lambda x: (0.0, np.array([-np.inf, 0.0, 0.0])))
        with pytest.raises(NumericalFailureError, match="simplex projection") as info:
            run_pgd(obj, np.array([1.0, 0.0, 0.0]), 5, counter)
        partial = info.value.partial_trace
        assert [row.iteration for row in partial.rows] == [0]
        assert partial.header["algorithm"] == "pgd"
        assert "simplex projection" in partial.failure

    def test_nan_gradient_stops_the_run(self, counter):
        # The box clip keeps a NaN step, so the step's finite test must stop
        # the run before it queries the NaN point, with the rows so far.
        base = make_catalogue_objective("example1")
        calls = []

        def evaluator(x):
            calls.append(1)
            value, grad = base.evaluator(x)
            return value, grad if len(calls) < 3 else np.full_like(grad, np.nan)

        obj = dataclasses.replace(base, name="nan-gradient", evaluator=evaluator)
        with pytest.raises(NumericalFailureError, match="'nan-gradient' left the finite") as info:
            run_pgd(obj, np.array([5.0]), 10, counter)
        assert len(calls) == counter.calls == 3
        assert np.isfinite(info.value.last_iterate).all()
        partial = info.value.partial_trace
        clean = run_pgd(base, np.array([5.0]), 10, OracleCounter())
        assert partial.rows == clean.rows[:3]
        assert partial.failure_calls == 3

    def test_infeasible_start_rejected(self, example1, counter):
        with pytest.raises(PreconditionError):
            run_pgd(example1, np.array([9.0]), 5, counter)

    @pytest.mark.parametrize("name", ["quadratic_simplex", "example1"])
    def test_reader_sees_every_computed_row(self, name, counter):
        # A reader of the loop gets each computed row's iterate, value and
        # gradient; run_pgd records the same f and repeats the last one up to T.
        obj = simplex_quadratic() if name == "quadratic_simplex" else make_catalogue_objective(name)
        x0 = obj.feasible_set.canonical_vertex()
        seen = []
        for t, x, f, grad in qopt.baselines._pgd(obj, x0, 200, counter):
            value, g = obj.evaluator(x)
            seen.append((t, f))
            assert value == f
            np.testing.assert_array_equal(g, grad)
        trace = run_pgd(obj, x0, 200, OracleCounter())
        n = len(seen)
        assert [t for t, _ in seen] == list(range(n)) and n < 201
        f = trace.column("f_value")
        assert np.array([f for _, f in seen]).tobytes() == f[:n].tobytes()
        assert np.all(f[n:] == f[n - 1]) and len(f) == 201
        assert trace.final_oracle_calls == counter.calls == n

    def test_loop_makes_no_query_after_its_fixed_point(self, example1, counter):
        # example1 from 5 stops moving at t = 128: the step from there lands
        # on its own bits, and the loop returns without querying it.
        records = list(qopt.baselines._pgd(example1, np.array([5.0]), 200, counter))
        assert len(records) == counter.calls == 129
        _, x, _, grad = records[-1]
        step = example1.feasible_set.project(x - grad / example1.smoothness_L)
        assert step.tobytes() == x.tobytes()

    def test_run_fixed_at_its_first_step_returns_a_copy(self, counter):
        # The simplex quadratic is stationary at the centre: no step is taken,
        # yet the solution is not the caller's array.
        obj = simplex_quadratic()
        x0 = obj.center.copy()
        trace = run_pgd(obj, x0, 10, counter)
        assert counter.calls == 1 and len(trace.rows) == 11
        assert trace.solution is not x0
        assert trace.solution.tobytes() == x0.tobytes()


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
        fw_dynamics((obj, x0), 10)
        np.testing.assert_array_equal(x0, [0.2, 0.3, 0.5])
        assert trace.header["x0"] == [0.2, 0.3, 0.5]

    def test_step_failure_keeps_the_rows_so_far(self, counter, monkeypatch):
        calls = {"n": 0}
        step = Simplex._step_toward_vertex

        def failing_third_step(self, x, g, keep, weight):
            calls["n"] += 1
            if calls["n"] == 3:
                raise NumericalFailureError("synthetic step failure")
            return step(self, x, g, keep, weight)

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
        result = fw_dynamics((obj, np.array([1.0, 0.0, 0.0])), 500)
        assert result.passed
        assert result.max_violation <= 0.0

    def test_weight_identity_replays_the_solver_step(self, monkeypatch):
        steps = {"n": 0}
        step = Simplex._step_toward_vertex

        def counted(self, x, g, keep, weight):
            steps["n"] += 1
            return step(self, x, g, keep, weight)

        monkeypatch.setattr(Simplex, "_step_toward_vertex", counted)
        assert fw_dynamics((simplex_quadratic(), np.array([1.0, 0.0, 0.0])), 40).passed
        assert steps["n"] == 40

    def test_weight_identity_audits_one_real_run(self, monkeypatch):
        runs = []
        run = qopt.baselines._frank_wolfe

        def counted(*args):
            runs.append(args[2])
            return run(*args)

        monkeypatch.setattr(qopt.baselines, "_frank_wolfe", counted)
        assert fw_dynamics((simplex_quadratic(), np.array([1.0, 0.0, 0.0])), 40).passed
        assert runs == [40]
        assert (MEMBERSHIP_TOL, FW_WEIGHT_TOL) == (1e-10, 1e-12)

    @pytest.mark.parametrize("name", ["quadratic_simplex", "example1"])
    def test_observer_sees_every_row(self, name, counter):
        # A reader of the loop gets every row's iterate, value and gradient,
        # and reading them all queries as often as run_frank_wolfe does.
        obj = simplex_quadratic() if name == "quadratic_simplex" else make_catalogue_objective(name)
        x0 = obj.feasible_set.canonical_vertex()
        seen = []
        for t, x, f, grad in qopt.baselines._frank_wolfe(obj, x0, 30, counter):
            value, g = obj.evaluator(x)
            seen.append((t, f))
            assert value == f
            np.testing.assert_array_equal(g, grad)
        trace = run_frank_wolfe(obj, x0, 30, OracleCounter())
        assert [t for t, _ in seen] == list(range(31))
        assert np.array([f for _, f in seen]).tobytes() == trace.column("f_value").tobytes()
        assert trace.final_oracle_calls == counter.calls == 31

    @pytest.mark.parametrize("n", [2, 3, 30_000])
    @pytest.mark.parametrize("kind", ["simplex", "box", "ball"])
    def test_trusted_loop_matches_the_validating_loop(self, kind, n):
        # The loop queries its own iterate without evaluate's coercion and
        # scan: every byte, iteration and oracle count stays the same.
        obj, x0 = fw_instance(kind, n)
        T = 30 if n > 3 else 60
        expected, dense_counter = [], OracleCounter()
        reference = dense_frank_wolfe(obj, x0, T, dense_counter, expected)
        counter = OracleCounter()
        trace = run_frank_wolfe(finite_queries_only(obj), x0, T, counter)
        assert trace_csv_lines(trace) == trace_csv_lines(reference)
        assert trace.solution.tobytes() == reference.solution.tobytes()
        seen = [iteration_bytes(*it) for it in qopt.baselines._frank_wolfe(
            finite_queries_only(obj), x0, T, OracleCounter())]
        assert seen == expected
        assert counter.calls == dense_counter.calls == trace.final_oracle_calls == T + 1
        assert np.signbit(trace.header["x0"][-1])

    def test_infinite_gradient_on_a_ball_is_a_numerical_failure(self, counter):
        # f(x0) = 1.21125e308 and its gap 1.71125e308 are finite, but
        # grad f(x0) = (inf, 0): the ball's vertex would be NaN, so the step
        # fails before any further query.
        obj = finite_queries_only(make_catalogue_objective("affine_plus_quadratic", {
            "dim": 2, "a": [1e308, 0.0], "q": 1e308,
            "set": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}}))
        with np.errstate(over="ignore"), pytest.raises(
                NumericalFailureError, match="ball LMO direction is not finite") as info:
            run_frank_wolfe(obj, np.array([0.85, 0.0]), 5, counter)
        rows = info.value.partial_trace.rows
        assert [row.iteration for row in rows] == [0]
        assert rows[0].gap == pytest.approx(1.71125e308, rel=1e-15)
        assert counter.calls == 1


class TestRateBounds:
    def test_bound_columns(self, example1, counter):
        trace = run_pgd(example1, np.array([5.0]), 20, counter)
        attach_rate_bounds(trace, example1.smoothness_L, 0.5, 10.0)
        assert trace.rows[0].bound is None
        t = 5
        expected = 20.0 * example1.smoothness_L * 100.0 / ((t + 1) * 0.25)
        assert trace.rows[t].bound == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("name,L,gamma,D", [
        ("gamma", 1.0, 0, 1.0), ("gamma", 1.0, True, 1.0), ("gamma", 1.0, math.nan, 1.0),
        ("gamma", 1.0, "0.5", 1.0), ("L", 0, 0.5, 1.0), ("L", math.inf, 0.5, 1.0),
        ("D", 1.0, 0.5, 0.0), ("D", 1.0, 0.5, math.nan),
    ], ids=["gamma0", "gammaTrue", "gammaNaN", "gammaStr", "L0", "Linf", "D0", "DNaN"])
    def test_rejected_constants_leave_the_trace(self, example1, name, L, gamma, D):
        # gamma = 0 wrote inf bounds with a RuntimeWarning, True ran as 1,
        # nan, L = 0 and L = inf wrote NaN, 0 and inf bounds, and "0.5"
        # raised a raw TypeError.
        trace = run_pgd(example1, np.array([5.0]), 5, OracleCounter())
        bound, header = list(trace.bound), copy.deepcopy(trace.header)
        with pytest.raises(InvalidArgumentError, match=rf"^{name} must be"):
            attach_rate_bounds(trace, L, gamma, D)
        assert trace.bound == bound
        assert trace.header == header

    @pytest.mark.parametrize("algorithm", ["pgd", "frank_wolfe"])
    def test_overflowing_scale_names_L_and_D(self, example1, algorithm):
        # constant L D^2 overflows: no bound cell becomes inf.
        run = run_pgd if algorithm == "pgd" else run_frank_wolfe
        trace = run(example1, np.array([5.0]), 3, OracleCounter())
        bound, header = list(trace.bound), copy.deepcopy(trace.header)
        constant = RATE_CONSTANTS[algorithm]
        with pytest.raises(InvalidArgumentError,
                           match=rf"^{constant:g} L D\^2 overflows float range through "
                                 r"the diameter D \(L = 1\.0, diameter D = 1e\+200\)"):
            attach_rate_bounds(trace, 1.0, 1.0, 1e200)
        assert trace.bound == bound
        assert trace.header == header

    def test_unknown_algorithm_rejected(self, example1, counter):
        trace = run_pgd(example1, np.array([5.0]), 5, counter)
        trace.header["algorithm"] = "mystery"
        with pytest.raises(InvalidArgumentError):
            attach_rate_bounds(trace, 1.0, 1.0, 1.0)


class TestMappingProperties:
    @pytest.mark.parametrize("name", ["quadratic", "example1", "glm_sigmoid"])
    def test_mapping_inequality(self, name):
        obj = make_catalogue_objective(name)
        assert pgd_mapping_bound([obj], trials=300).passed

    @pytest.mark.parametrize("name", ["quadratic", "example1", "glm_sigmoid"])
    def test_mapping_descent(self, name):
        obj = make_catalogue_objective(name)
        assert pgd_descent_step([obj], trials=300).passed


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
