import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest

import qopt.accel
import qopt.checks
from qopt import (
    Box,
    ConfigError,
    InvalidArgumentError,
    NumericalFailureError,
    Objective,
    OracleCounter,
    PreconditionError,
    binary_line_search,
    compute_schedule,
    ftrl_step,
    make_catalogue_objective,
    run_accelerated,
    solve_prox_subproblem,
)
from qopt.accel import MAX_ITERATIONS
from qopt.checks import CERTIFICATE_ACCURACY_FACTOR, CheckResult, linesearch_certificate
from qopt.prox import ProxResult, _ProxConstants
from qopt.trace import Trace

from conftest import trace_csv_lines


def accel_iterations(obj, x0, epsilon, counter=None):
    """The schedule of the accelerated run on ``obj`` from ``x0`` at ``epsilon``,
    and its loop ``qopt.accel._iterations``, started as ``run_accelerated``
    starts it."""
    x0 = np.array(x0, dtype=float)
    counter = OracleCounter() if counter is None else counter
    params = compute_schedule(obj.quasar_gamma, obj.smoothness_L, obj.feasible_set.diameter(),
                              epsilon)
    return params, qopt.accel._iterations(obj, x0, params, counter)


def run_recording_weights(obj, x0, epsilon, monkeypatch):
    """Read the accelerated loop to its end and read back the weight ``a_t`` it used.

    The FTRL argument is ``x0 - sum_s (a_s / gamma) grad M~(x_s)``, so each
    weight is recovered from the change of that argument between iterations
    and the envelope gradient the line search ended with.  Only iterations
    whose change is at least 1e-6 of ``|x0|`` are returned, where the rounding
    of ``x0 - (x0 - sum)`` leaves the recovered weight accurate to ~1e-10.
    Returns the schedule, the iteration records (``t = 0..T``, record ``t`` at
    index ``t``) and ``{t: a_t}``.
    """
    grads, args = [], []
    line_search = qopt.accel._line_search

    def recording_search(*a):
        out = line_search(*a)
        grads.append(out[3].envelope_gradient.copy())
        return out

    project = obj.feasible_set._project

    def recording_project(v):
        # The prox solver projects through the same set; keep the FTRL step only.
        if sys._getframe(1).f_code is qopt.accel._iterations.__code__:
            args.append(v.copy())
        return project(v)

    monkeypatch.setattr(qopt.accel, "_line_search", recording_search)
    monkeypatch.setattr(obj.feasible_set, "_project", recording_project)
    params, records = accel_iterations(obj, x0, epsilon)
    iterates = list(records)
    gamma = params.gamma
    assert len(grads) == len(args) == params.T
    assert [it.t for it in iterates] == list(range(params.T + 1))
    weights, previous = {}, np.zeros_like(x0)
    floor = 1e-6 * max(1.0, float(np.max(np.abs(x0))))
    for t, (g, arg) in enumerate(zip(grads, args), start=1):
        step = (x0 - arg) - previous
        i = int(np.argmax(np.abs(step)))
        if abs(step[i]) >= floor:
            weights[t] = gamma * step[i] / g[i]
        previous = x0 - arg
    return params, iterates, weights


class TestSchedule:
    def test_reference_iteration_count(self):
        # gamma=1, L=1, box [-1,1]^2 so D^2 = 8, eps=1e-3: 4*sqrt(8000) = 357.77.
        params = compute_schedule(1.0, 1.0, 2.0 * math.sqrt(2.0), 1e-3)
        assert params.T == 358
        assert params.delta == pytest.approx(8.0 / (10.0 * 358**6), rel=1e-15)
        assert params.lam == 0.5

    def test_boundary_single_iteration(self):
        assert compute_schedule(1.0, 1.0, 1.0, 16.0).T == 1

    def test_first_weights(self, quadratic, monkeypatch):
        # gamma = L = 1: a_1 = gamma^2 / (8 L) and A_1 = a_1 are both 1/8; A_1 is
        # read from the coupling c_2 = gamma A_1 / a_2.
        params, iterates, weights = run_recording_weights(
            quadratic, np.array([1.0, 1.0]), 1e-2, monkeypatch)
        assert params.gamma == 1.0 and params.L == 1.0
        assert weights[1] == pytest.approx(0.125, rel=1e-12)
        A_1 = iterates[2].c * weights[2] / params.gamma
        assert A_1 == pytest.approx(0.125, rel=1e-12)

    def test_weight_recurrence_and_coupling(self, example1, monkeypatch):
        # A_{t-1} = c_t a_t / gamma from the run's coupling constants; the
        # weights must satisfy A_t - A_{t-1} = a_t, A_0 = 0 and the coupling
        # condition A_t / (8 L) >= a_t^2 / (2 gamma^2) of the analysis.
        params, iterates, weights = run_recording_weights(
            example1, np.array([5.0]), 1e-2, monkeypatch)
        gamma, L = params.gamma, params.L
        assert iterates[1].c == 0.0
        checked = 0
        for t in range(1, params.T):
            if t not in weights or t + 1 not in weights:
                continue
            A_prev = iterates[t].c * weights[t] / gamma
            A_t = iterates[t + 1].c * weights[t + 1] / gamma
            assert A_t - A_prev == pytest.approx(weights[t], rel=1e-8)
            assert A_t / (8 * L) >= weights[t] ** 2 / (2 * gamma**2) * (1 - 1e-8)
            checked += 1
        assert checked >= 40

    def test_invalid_inputs(self):
        for bad in [(-0.1, 1, 1, 1), (1.5, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]:
            with pytest.raises(InvalidArgumentError):
                compute_schedule(*bad)
        # L, D and epsilon each pass the one positive-scalar gate, except that
        # an infinite D, the diameter of a set whose extent overflows, is an
        # overflow of 16 L D^2 through D.
        for i, name in enumerate(("L", "D", "epsilon"), start=1):
            for value in (math.inf, math.nan, 0, -1, True, 10**400):
                args = [1.0, 1.0, 1.0, 1e-2]
                args[i] = value
                message = (r"^16 L D\^2 overflows float range through the diameter D \("
                           if name == "D" and value in (math.inf, 10**400)
                           else rf"^{name} must be a positive")
                with pytest.raises(InvalidArgumentError, match=message):
                    compute_schedule(*args)

    def test_overflowing_scale_names_L_and_D(self, counter):
        # 16 L D^2 overflows: the schedule names its source, the diameter D or
        # L, not a too small epsilon, and the run stops before any oracle call.
        with pytest.raises(InvalidArgumentError,
                           match=r"^16 L D\^2 overflows float range through the diameter D "
                                 r"\(L = 1\.0, diameter D = 1e\+200\); rescale the problem$"):
            compute_schedule(1.0, 1.0, 1e200, 1e-3)
        with pytest.raises(InvalidArgumentError,
                           match=r"^16 L D\^2 overflows float range through L \(L = 1e\+307, "):
            compute_schedule(1.0, 1e307, 2.0, 1e-3)
        obj = make_catalogue_objective("quadratic", {
            "dim": 2, "set": {"kind": "simplex", "dimension": 2, "scale": 5e153}})
        with pytest.raises(InvalidArgumentError,
                           match=r"^16 L D\^2 overflows float range through the diameter D \("):
            run_accelerated(obj, obj.feasible_set.canonical_vertex(), 1e-3, counter)
        assert counter.calls == 0

    def test_unreachable_epsilon_names_epsilon(self, quadratic, counter):
        # 4 sqrt(8 / eps) outer iterations: ~1.13e51 at eps = 1e-100.
        for eps in (1e-100, 5e-324):
            with pytest.raises(ConfigError) as excinfo:
                compute_schedule(1.0, 1.0, 2.0 * math.sqrt(2.0), eps)
            assert excinfo.value.field == "epsilon"
        with pytest.raises(ConfigError):
            run_accelerated(quadratic, np.array([1.0, 1.0]), 1e-100, counter)
        assert counter.calls == 0
        # The largest count stays allowed: 4 sqrt(8 / eps) = MAX_ITERATIONS.
        assert compute_schedule(1.0, 1.0, 2.0 * math.sqrt(2.0),
                                128.0 / MAX_ITERATIONS**2).T <= MAX_ITERATIONS


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
        res = binary_line_search(quadratic, y, y.copy(), 1.0, 1e-10, counter)
        assert res.alpha == 1.0 and res.exit == "derivative_small"
        np.testing.assert_array_equal(res.x, y)
        assert res.loop_iterations == 0

    def test_no_improvement_returns_zero(self, quadratic, counter):
        # z sits at the minimizer, y far away: the y end has higher envelope.
        y, z = np.array([1.0, 1.0]), np.array([0.0, 0.0])
        res = binary_line_search(quadratic, y, z, 1.0, 1e-10, counter)
        assert res.alpha == 0.0 and res.exit == "no_improvement"
        np.testing.assert_array_equal(res.x, z)

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_termination_predicate_on_dense_grid(self, quadratic, counter, c):
        # Interior dip between the endpoints, lower value at the y end.
        y, z = np.array([0.2, -0.3]), np.array([1.0, 1.0])
        delta = 1e-12
        res = binary_line_search(quadratic, y, z, c, delta, counter)
        search = _ProxConstants(quadratic, delta)
        alphas = np.linspace(0.0, 1.0, 100_001)
        g = quadratic_envelope_along(y, z, alphas)
        i = int(round(res.alpha * 100_000))
        i = min(max(i, 1), 100_000 - 1)
        g_prime = (g[i + 1] - g[i - 1]) / (2e-5)
        assert res.alpha * g_prime <= c * (g[100_000] - g[i]) + search.epsilon_tilde(c) + 1e-6
        assert res.loop_iterations <= search.loop_cap

    def test_returned_point_is_convex_combination(self, quadratic, counter):
        y, z = np.array([0.2, -0.3]), np.array([1.0, 1.0])
        res = binary_line_search(quadratic, y, z, 0.5, 1e-10, counter)
        np.testing.assert_allclose(res.x, res.alpha * y + (1 - res.alpha) * z, atol=1e-15)
        assert quadratic.feasible_set.distance(res.x) <= 1e-12

    def test_infeasible_endpoints_rejected(self, quadratic, counter):
        with pytest.raises(PreconditionError):
            binary_line_search(quadratic, np.array([2.0, 0.0]), np.array([0.0, 0.0]),
                               0.0, 1e-8, counter)
        with pytest.raises(PreconditionError):
            binary_line_search(quadratic, np.array([0.0, 0.0]), np.array([0.0, 2.0]),
                               0.0, 1e-8, counter)

    @pytest.mark.parametrize("c,delta", [(-1e-12, 1e-10), (math.nan, 1e-10), (1.0, 0.0),
                                         (1.0, math.nan)])
    def test_invalid_constants_rejected_before_any_oracle_call(self, quadratic, counter,
                                                               c, delta):
        y, z = np.array([0.2, -0.3]), np.array([1.0, 1.0])
        with pytest.raises(InvalidArgumentError):
            binary_line_search(quadratic, y, z, c, delta, counter)
        assert counter.calls == 0

    def test_loop_cap_failure(self, counter):
        # White-box: a zero halving budget on a segment that enters the
        # bisection (TestBisectionBody certifies it after at least one halving).
        obj = double_well_objective()
        y, z = np.array([-1.2]), np.array([1.45])
        consts = _ProxConstants(obj, 1e-10)
        consts.loop_cap = 0
        prox_at_y = qopt.accel._solve(obj, y, consts, counter)
        with pytest.raises(NumericalFailureError) as excinfo:
            qopt.accel._line_search(obj, y, z, 0.0, counter, prox_at_y, consts)
        assert excinfo.value.diagnostics["loop_cap"] == 0


@pytest.mark.parametrize("name,params", [
    ("example1", {}),
    ("quadratic", {"dim": 3, "set": {"kind": "ball", "center": [0.3, -0.2, 0.1], "radius": 0.7}}),
    ("quadratic", {"dim": 4, "set": {"kind": "simplex", "dimension": 4, "scale": 2.5}}),
], ids=["box", "ball", "simplex"])
@pytest.mark.parametrize("delta", [1e-14, 3.7e-9, 1e-4, 0.5, 1e3])
def test_line_search_constants_are_the_paper_expressions(name, params, delta):
    # The noise model of the line search, bit for bit: the directional
    # derivative error sqrt(8 L delta) D, the halving budget and the slack.
    obj = make_catalogue_objective(name, params)
    L, D = obj.smoothness_L, obj.feasible_set.diameter()
    consts = _ProxConstants(obj, delta)
    delta2 = math.sqrt(8.0 * L * delta) * D
    assert consts.delta == delta
    assert consts.delta2.hex() == delta2.hex()
    assert consts.loop_cap == math.ceil(math.log2(max(8.0 * L * D * D / delta, 4.0))) + 2
    for c in (0.0, 0.5, 3.0):
        assert consts.epsilon_tilde(c).hex() == (delta2 + (9.0 + 5.0 * c) * delta).hex()


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
        res = binary_line_search(obj, y, z, 0.0, delta, counter)
        search = _ProxConstants(obj, delta)
        assert res.exit == "bisection"
        assert 1 <= res.loop_iterations <= search.loop_cap
        # Independent oracle: near-exact envelope on a dense alpha grid.
        grid = np.linspace(0.0, 1.0, 2001)
        probe = OracleCounter()
        g = np.array([
            solve_prox_subproblem(obj, a * y + (1 - a) * z, 1e-12, probe).envelope_value
            for a in grid
        ])
        i = min(max(int(round(res.alpha * 2000)), 1), 1999)
        g_prime = (g[i + 1] - g[i - 1]) / (2 * 5e-4)
        assert res.alpha * g_prime <= search.epsilon_tilde(0.0) + 5e-3  # grid slack

    def test_an_improving_midpoint_halves_toward_z(self, example1, counter, monkeypatch):
        # A scripted envelope along x = alpha y + (1 - alpha) z = [alpha]: the
        # slope at y is positive, h(z) > h1 + delta, and at alpha = 1/2 the value
        # is below h1 - delta while alpha hhat_alpha exceeds the termination
        # slack, so the search sets hi = 1/2 and stops at alpha = 1/4.
        y, z, c, delta = np.array([1.0]), np.array([0.0]), 1.0, 1e-10
        script = {1.0: (0.0, 1.0), 0.0: (1.0, 0.0), 0.5: (-1.0, 10.0), 0.25: (-1.0, 0.0)}

        def scripted(obj, x, consts, counter, at_x=None):
            h, slope = script[float(x[0])]
            return ProxResult(x, h, np.array([slope]), 1, 0.0, h, np.array([slope]))

        monkeypatch.setattr(qopt.accel, "_solve", scripted)
        res = binary_line_search(example1, y, z, c, delta, counter)
        assert (res.alpha, res.loop_iterations, res.exit) == (0.25, 1, "bisection")
        h1, slack = script[1.0][0], _ProxConstants(example1, delta).epsilon_tilde(c)
        h_alpha, hhat_alpha = script[0.25]
        assert res.alpha * hhat_alpha <= c * (h1 - h_alpha) + slack
        # The midpoint improved by more than delta but missed the test.
        h_half, hhat_half = script[0.5]
        assert h_half < h1 - delta and 0.5 * hhat_half > c * (h1 - h_half) + slack


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
        trace = run_accelerated(quadratic, quadratic.center, 1e-2, counter)
        assert trace.final_gap <= 1e-2
        # Every envelope gradient stays within the delta-prox error bound.
        params, records = accel_iterations(quadratic, quadratic.center, 1e-2)
        bound = math.sqrt(8.0 * quadratic.smoothness_L * params.delta)
        probe = OracleCounter()
        for it in itertools.islice(records, 1, 21):
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

    def test_certificates_on_small_run(self):
        # The quadratic_box instance is the catalogue quadratic from (1, 1).
        result = linesearch_certificate("quadratic_box", 1e-2)
        # Passing includes the halving budget: max loops <= bound.
        assert result.passed
        assert result.note.startswith("max loops 0 <= bound ")

    @pytest.mark.parametrize("name,x0", [("quadratic", [1.0, 1.0]), ("example1", [5.0])])
    def test_certificate_audit_solves_once_where_x_is_y_prev(self, name, x0, monkeypatch):
        obj = make_catalogue_objective(name)
        params, records = accel_iterations(obj, x0, 1e-3)
        # The audit reads the records from t = 1: t = 0 runs no line search.
        iterates = list(records)[1:]
        # The reference audit: every one of the T iterations of the dense
        # loop, two fine solves each, whatever x_t is.
        dense = []
        dense_accelerated(obj, x0, 1e-3, OracleCounter(), dense)
        dense = dense[1:]
        assert len(dense) == params.T
        worst = max(certificate_excess(obj, params, it) for it in dense)
        L, D, delta = params.L, params.D, params.delta
        loop_bound = math.ceil(math.log2(max(8.0 * L * D * D / delta, 2.0)))
        max_loops = max(it.loop_iterations for it in dense)
        instance = {"quadratic": "quadratic_box", "example1": "example1"}[name]
        reference = CheckResult(f"linesearch_certificate:{instance}", float(worst), 0.0,
                                bool(worst <= 0.0 and max_loops <= loop_bound), params.T,
                                f"max loops {max_loops} <= bound {loop_bound}")

        solves = []
        solve = qopt.checks._solve
        monkeypatch.setattr(qopt.checks, "_solve",
                            lambda *args: solves.append(args) or solve(*args))
        assert linesearch_certificate(instance, 1e-3) == reference
        # The audit's solves are the ones at the fine delta: one per x_t the
        # loop yields and one per y_{t-1} that is not x_t itself.
        fine = delta / CERTIFICATE_ACCURACY_FACTOR
        solves = [args for args in solves if args[2].delta == fine]
        moved = sum(it.x is not it.y_prev for it in iterates)
        assert moved < len(iterates)
        if name == "example1":  # reaches the fixed-point exit, so the loop ends early
            assert len(iterates) < params.T
        assert len(solves) == len(iterates) + moved

    def test_loop_yields_one_record_per_trace_row(self, example1, counter):
        # A reader of the loop gets one record per row of the trace, t = 0
        # included, and reading them all queries no more than run_accelerated does.
        params, records = accel_iterations(example1, [5.0], 1e-2, counter)
        seen = list(records)
        trace = run_accelerated(example1, np.array([5.0]), 1e-2, OracleCounter())
        assert len(seen) == params.T + 1 == len(trace.rows)
        assert [it.t for it in seen] == trace.iteration
        assert all(isinstance(it, qopt.accel._Iteration) for it in seen)
        assert trace.final_oracle_calls == counter.calls

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
        # Every search of a run gets that iteration's c and one constants
        # object, equal to a fresh _ProxConstants at the schedule's delta.
        recorded = []
        line_search = qopt.accel._line_search

        def recording(obj, y, z, c, counter, prox_at_y, consts):
            recorded.append((c, consts))
            return line_search(obj, y, z, c, counter, prox_at_y, consts)

        monkeypatch.setattr(qopt.accel, "_line_search", recording)
        _, records = accel_iterations(example1, [5.0], 1e-2)
        coupling = [it.c for it in itertools.islice(records, 1, None)]
        recorded.clear()
        trace = run_accelerated(example1, np.array([5.0]), 1e-2, OracleCounter())
        params = trace.header["params"]
        assert len(recorded) == len(coupling) == params["T"]
        assert [c for c, _ in recorded] == coupling
        used = recorded[0][1]
        assert all(consts is used for _, consts in recorded)
        built = _ProxConstants(example1, params["delta"])
        assert ([getattr(used, k) for k in _ProxConstants.__slots__]
                == [getattr(built, k) for k in _ProxConstants.__slots__])

    def test_coupling_constant_follows_the_weights(self, example1):
        # c_t = gamma A_{t-1} / a_t with a_t = gamma^2 t / (8 L) and
        # A_t = gamma^2 t (t+1) / (16 L) is gamma (t-1) / 2 up to rounding.
        # The run freezes, so its last record is the frozen one: it repeats
        # the bytes of the last prox, with x_t = y_{t-1}.
        params, records = accel_iterations(example1, [5.0], 1e-3)
        iterates = list(records)
        gamma = params.gamma
        assert 2 < len(iterates) <= params.T
        assert iterates[-1].y_hat.tobytes() == iterates[-2].y_hat.tobytes()
        assert iterates[-1].x is iterates[-1].y_prev
        assert iterates[0].c == iterates[1].c == 0.0
        for t, it in enumerate(iterates):
            assert it.t == t
            if t:
                assert it.c == pytest.approx(gamma * (t - 1) / 2.0, rel=1e-14)

    @pytest.mark.parametrize("name,x0,eps", [
        ("example1", [5.0], 1e-2), ("quadratic", [1.0, 1.0], 1e-2), ("example1", [5.0], 1e-4),
    ], ids=["example1-x00", "quadratic-x01", "example1-x00-eps1e-4"])
    def test_no_prox_solve_repeats_the_previous_query(self, name, x0, eps):
        # No query repeats the one before it: the prox at y_t reuses the value
        # and gradient that the prox producing y_t ended with, and an inner
        # step that lands where it started reuses the answer already held.
        # On example1 the iterate underflows to exactly 0 long before T, so
        # at eps 1e-4 most of its prox solves start at a fixed point.
        base = make_catalogue_objective(name)
        queries = []

        def audited(x):
            queries.append(np.array(x, dtype=float).tobytes())
            return base.evaluator(x)

        obj = Objective(name=name, evaluator=audited, smoothness_L=base.smoothness_L,
                        quasar_gamma=base.quasar_gamma, feasible_set=base.feasible_set)
        counter = OracleCounter()
        trace = run_accelerated(obj, np.array(x0), eps, counter)
        assert trace.final_oracle_calls == counter.calls == len(queries)
        repeated = [i for i in range(1, len(queries)) if queries[i] == queries[i - 1]]
        assert repeated == []

    def test_nan_gradient_stops_the_run(self, quadratic):
        # A NaN gradient must propagate through the projection to the prox
        # step's finite test, which stops the run before the next query with
        # the rows so far. Without the test the prox would still fail, but
        # only at its iteration cap; a clamping projection would not fail at all.
        calls = []

        def evaluator(x):
            calls.append(1)
            value, grad = quadratic.evaluator(x)
            return value, grad if len(calls) < 5 else np.full_like(grad, np.nan)

        obj = dataclasses.replace(quadratic, name="nan-gradient", evaluator=evaluator)
        with pytest.raises(NumericalFailureError, match="'nan-gradient' left the finite") as info:
            run_accelerated(obj, np.array([1.0, 1.0]), 1e-2, OracleCounter())
        assert len(calls) == 5
        assert np.isfinite(info.value.last_iterate).all()
        clean = run_accelerated(quadratic, np.array([1.0, 1.0]), 1e-2, OracleCounter())
        partial = info.value.partial_trace
        # The rows written before the fifth query, the one that returned NaN.
        assert partial.rows == [row for row in clean.rows if row.oracle_calls < 5] != []
        assert partial.failure_calls == 5


def dense_accelerated(obj, x0, epsilon, counter, seen=None):
    """The reference loop: every outer iteration searches, steps FTRL and solves a prox.

    The loop of ``run_accelerated`` without its fixed-point exit, on the same
    private bodies and with the same float expressions.  A given ``seen``
    gets the :class:`qopt.accel._Iteration` record of each ``t = 0..T``.
    """
    x0 = np.asarray(x0, dtype=float)
    set_ = obj.feasible_set
    params = compute_schedule(obj.quasar_gamma, obj.smoothness_L, set_.diameter(), epsilon)
    gamma, L, D, delta = params.gamma, params.L, params.D, params.delta
    fstar = obj.optimal_value
    header = {"algorithm": "accelerated", "objective": obj.name, "set": set_.to_spec(),
              "params": dataclasses.asdict(params), "x0": x0.tolist()}
    y, z = x0.copy(), x0.copy()
    accumulated = np.zeros_like(x0)
    consts = _ProxConstants(obj, delta)
    prox_y = qopt.accel._solve(obj, y, consts, counter)
    f = prox_y.f_at_y
    rows = [(0, counter.calls, f, None if fstar is None else f - fstar, None)]
    if seen is not None:
        seen.append(qopt.accel._Iteration(0, prox_y.y, f, prox_y.grad_at_y, 0.0, 0, x0, x0, x0))
    for t in range(1, params.T + 1):
        a_t = gamma**2 * t / (8.0 * L)
        c = gamma**2 * (t - 1) * t / (16.0 * L) * gamma / a_t
        _, x_t, loops, prox_x, _ = qopt.accel._line_search(obj, y, z, c, counter, prox_y,
                                                           consts)
        y_new = prox_x.y
        accumulated += (a_t / gamma) * prox_x.envelope_gradient
        z_new = set_._project(x0 - accumulated)
        prox_y = qopt.accel._solve(obj, y_new, consts, counter,
                                   (prox_x.f_at_y, prox_x.grad_at_y))
        f = prox_y.f_at_y
        rows.append((t, counter.calls, f, None if fstar is None else f - fstar,
                     16.0 * L * D * D / (gamma * gamma * t * t)))
        if seen is not None:
            seen.append(qopt.accel._Iteration(t, prox_y.y, f, prox_y.grad_at_y, c, loops,
                                              x_t, y, z))
        y, z = y_new, z_new
    return Trace(header, *map(list, zip(*rows)), solution=prox_y.y)


def record_bytes(it):
    """An iteration record's fields, each array as its bytes."""
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in it)


def certificate_excess(obj, params, it):
    """How far iteration ``it`` exceeds the budget of ``linesearch_certificate``,
    with two public prox solves at its fine tolerance."""
    L, D, delta = params.L, params.D, params.delta
    fine = delta / CERTIFICATE_ACCURACY_FACTOR
    at_x = solve_prox_subproblem(obj, it.x, fine, OracleCounter())
    at_y = solve_prox_subproblem(obj, it.y_prev, fine, OracleCounter())
    lhs = float(np.dot(at_x.envelope_gradient, it.x - it.z_prev))
    lhs -= it.c * (at_y.envelope_value - at_x.envelope_value)
    return lhs - (math.sqrt(8.0 * L * D * D * delta) + (9.0 + 5.0 * it.c) * delta + 1e-9)


def round_trip_objective():
    """A prox from 0 that leaves and returns to exactly 0, querying 3 times on the way.

    With L = 1 on [0, 1] the first inner step from 0 clips to 1, the second
    lands just above 0 and the third clips back to 0 with a mapping norm below
    the threshold at eps 1e-2.  So every outer iteration repeats its state but
    still makes 3 oracle calls.
    """
    def evaluator(x):
        v = float(x[0])
        return v, np.array([-6.0 if v == 0.0 else 0.999999 if v == 1.0 else 1.0])

    return Objective(name="round_trip", evaluator=evaluator, smoothness_L=1.0,
                     quasar_gamma=1.0, feasible_set=Box([0.0], [1.0]))


# name: (catalogue entry, params, x0, the last iteration before the loop freezes at eps 1e-4,
# which is T for a loop that never freezes)
FIXED_POINT_RUNS = {
    "example1-from-5": ("example1", {}, [5.0], 1861),
    "example1-from-neg3.3": ("example1", {}, [-3.3], 1845),
    "quadratic-d5": ("quadratic", {"dim": 5}, [1.0, -0.0, 1.0, -0.0, 1.0], 1789),
    "quadratic-d2": ("quadratic", {"dim": 2}, [1.0, -0.0], 1132),
    "glm-from-origin": ("glm_sigmoid", {}, [0.0, 0.0], 326),
    "glm-from-corner": ("glm_sigmoid", {}, [-2.0, 2.0], 306),
}


class TestFixedPointExit:
    @pytest.mark.parametrize("name", FIXED_POINT_RUNS)
    def test_matches_the_dense_loop(self, name, monkeypatch):
        # The quadratic runs never freeze (searches == T) and carry a -0.0 in x0.
        objective, params, x0, searches = FIXED_POINT_RUNS[name]
        obj = make_catalogue_objective(objective, params)
        x0 = np.array(x0)
        expected, dense_counter = [], OracleCounter()
        reference = dense_accelerated(obj, x0, 1e-4, dense_counter, expected)

        searched = []
        line_search = qopt.accel._line_search

        def counting(*args):
            searched.append(1)
            return line_search(*args)

        monkeypatch.setattr(qopt.accel, "_line_search", counting)
        counter = OracleCounter()
        trace = run_accelerated(obj, x0, 1e-4, counter)
        T = trace.header["params"]["T"]
        assert trace_csv_lines(trace) == trace_csv_lines(reference)
        assert trace.solution.tobytes() == reference.solution.tobytes()
        assert counter.calls == dense_counter.calls == trace.final_oracle_calls
        # One search per record after t = 0, the frozen one's included.
        assert len(searched) == min(searches + 1, T)
        # The loop read to its end yields one record per outer iteration from
        # t = 0 up to the first frozen one, each equal to the dense loop's, its
        # floats and the bytes of its arrays alike.
        schedule, records = accel_iterations(obj, x0, 1e-4)
        seen = list(map(record_bytes, records))
        assert len(seen) == min(searches + 2, T + 1)
        assert seen == list(map(record_bytes, expected[:searches + 2]))
        if searches == T:
            return
        # Every later dense iteration repeats the frozen one's prox, x = y_prev
        # and z_prev bytes, with no halving, so its left side of the
        # certificate; its larger c only raises the budget (9 + 5c) delta.
        frozen, *later = expected[searches + 1:]
        assert frozen.x.tobytes() == frozen.y_prev.tobytes()
        assert all(record_bytes(it._replace(t=frozen.t, c=frozen.c)) == seen[-1] for it in later)
        assert all(a.c < b.c for a, b in zip(expected[searches + 1:], later))
        assert (certificate_excess(obj, schedule, later[-1])
                <= certificate_excess(obj, schedule, frozen))

    @pytest.mark.parametrize("name", FIXED_POINT_RUNS)
    def test_loop_records_are_the_trace_rows(self, name):
        # A second reader of the loop sees what run_accelerated records: each
        # record holds its row's f, and the frozen record, the loop's last,
        # repeats the bytes of the prox before it and adds no oracle call.
        objective, params, x0, searches = FIXED_POINT_RUNS[name]
        obj = make_catalogue_objective(objective, params)
        trace = run_accelerated(obj, np.array(x0), 1e-4, OracleCounter())
        counter = OracleCounter()
        schedule, records = accel_iterations(obj, x0, 1e-4, counter)
        records = list(records)
        assert len(records) == min(searches + 2, schedule.T + 1)
        assert len(trace.rows) == schedule.T + 1
        assert [it.t for it in records] == trace.iteration[:len(records)]
        for it in records[searches + 1:]:
            assert it.y_hat.tobytes() == records[searches].y_hat.tobytes()
            assert it.loop_iterations == 0 and it.x is it.y_prev
        f = np.array([it.f for it in records])
        assert f.tobytes() == trace.column("f_value")[:len(records)].tobytes()
        assert counter.calls == trace.final_oracle_calls

    def test_frozen_tail_makes_no_query(self, example1, monkeypatch):
        # example1 from 5 reaches the bit-exact fixed point at eps 1e-3.
        # Pulling the frozen record, the last, makes no query, and the loop
        # ends there.
        counter = OracleCounter()
        params, records = accel_iterations(example1, [5.0], 1e-3, counter)
        calls = []
        for it in records:
            calls.append(counter.calls)
        assert calls[-1] == calls[-2] == counter.calls
        assert list(records) == [] and counter.calls == calls[-1]
        assert len(calls) <= params.T
        assert it.loop_iterations == 0 and it.x is it.y_prev and it.t == len(calls) - 1
        # run_accelerated records the frozen record as its first repeated row,
        # and record_run fills the rest.
        pulled = []
        iterations = qopt.accel._iterations

        def counted(*args):
            for it in iterations(*args):
                pulled.append(it)
                yield it

        monkeypatch.setattr(qopt.accel, "_iterations", counted)
        trace = run_accelerated(example1, np.array([5.0]), 1e-3, OracleCounter())
        assert len(pulled) == len(calls) and pulled[-1].x is pulled[-1].y_prev
        assert len(trace.rows) == params.T + 1 and trace._fill == len(pulled)

    def test_the_frozen_record_runs_the_ordinary_body(self, example1, monkeypatch):
        # The frozen iteration searches, steps and solves like every other:
        # its search exits at alpha = 1 with no solve, and its prox stops at
        # its first step with no query, on a new array with the bits of the
        # candidate before it.
        searches, solves = [], []
        line_search, solve = qopt.accel._line_search, qopt.accel._solve
        monkeypatch.setattr(qopt.accel, "_line_search",
                            lambda *args: searches.append(line_search(*args)) or searches[-1])
        monkeypatch.setattr(qopt.accel, "_solve",
                            lambda *args: solves.append(solve(*args)) or solves[-1])
        counter = OracleCounter()
        params, records = accel_iterations(example1, [5.0], 1e-3, counter)
        seen = []
        for it in records:
            seen.append((it, counter.calls, len(solves)))
        (before, calls, solved), (frozen, frozen_calls, frozen_solved) = seen[-2:]
        assert len(searches) == len(seen) - 1 < params.T
        alpha, x, loops, _, exit_ = searches[-1]
        assert (alpha, loops, exit_) == (1.0, 0, "derivative_small") and x is frozen.y_prev
        assert frozen_calls == calls and frozen_solved == solved + 1
        assert frozen.y_hat is solves[-1].y and solves[-1].inner_iterations == 1
        assert frozen.y_hat is not before.y_hat
        assert frozen.y_hat.tobytes() == before.y_hat.tobytes()

    def test_no_exit_while_the_prox_at_the_fixed_point_queries(self):
        # y, z and the envelope gradient (+0.0) repeat from t = 1, but each
        # prox at y still makes 3 oracle calls, so no row may be filled.
        obj = round_trip_objective()
        reference = dense_accelerated(obj, [0.0], 1e-2, OracleCounter())
        trace = run_accelerated(obj, np.array([0.0]), 1e-2, OracleCounter())
        assert trace_csv_lines(trace) == trace_csv_lines(reference)
        calls = trace.column("oracle_calls")
        assert np.all(np.diff(calls) == 3)


@pytest.mark.parametrize("loop,name,x0", [
    ("accelerated", "example1", [5.0]),
    ("pgd", "quadratic", [1.0, 1.0]),
    ("frank_wolfe", "example1", [5.0]),
])
def test_every_solver_loop_yields_one_row_shape(loop, name, x0):
    # Every loop yields rows (t, x_t, f(x_t), grad f(x_t), ...) from t = 0,
    # which record_run turns into a trace.  example1 at eps 1e-3 freezes and
    # PGD on the quadratic lands on its minimizer, so both loops end before T.
    obj = make_catalogue_objective(name)
    x0 = np.array(x0)
    counter = OracleCounter()
    if loop == "accelerated":
        params, rows = accel_iterations(obj, x0, 1e-3, counter)
        T = params.T
    else:
        T = 20
        rows = getattr(qopt.baselines, f"_{loop}")(obj, x0, T, counter)
    seen, calls = [], []
    for row in rows:
        seen.append(row)
        calls.append(counter.calls)
    assert (len(seen) < T + 1) == (loop != "frank_wolfe")
    assert [row[0] for row in seen] == list(range(len(seen)))
    for _, x, f, grad, *_ in seen:
        value, gradient = obj.evaluator(x)
        assert (f, grad.tobytes()) == (value, np.asarray(gradient, dtype=float).tobytes())
    # Ending the loop adds no call, and a row that adds none repeats the
    # point of the row before it, as the frozen accelerated record does.
    assert counter.calls == calls[-1]
    repeated = [i for i in range(1, len(seen)) if calls[i] == calls[i - 1]]
    assert all(seen[i][1].tobytes() == seen[i - 1][1].tobytes() for i in repeated)
    assert (repeated != []) == (loop == "accelerated")
