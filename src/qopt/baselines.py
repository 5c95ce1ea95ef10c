"""Projected gradient descent and Frank-Wolfe with rate-envelope tracking.

Both solvers deliberately never read ``quasar_gamma``: they adapt to the
unknown constant automatically, and gamma enters only when the harness
attaches the theoretical bound columns to a finished trace.

Rate envelopes attached by the harness (valid for t >= 1 whenever the
objective's declared constants hold):

    PGD          gap(t) <= 20 L D^2 / ((t+1) gamma^2)
    Frank-Wolfe  gap(t) <=  6 L D^2 / ((t+1) gamma^2)

with D the feasible-set diameter (an upper bound on the level-set diameter
appearing in the PGD analysis).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError, PreconditionError
from .objectives import evaluate
from .sets import FEASIBILITY_TOL, as_point
from .trace import Trace, TraceRow


def _require_feasible(obj, x, name="x"):
    x = as_point(x, obj.dimension)
    if not obj.feasible_set.contains(x, FEASIBILITY_TOL):
        raise PreconditionError(f"{name} must be feasible")
    return x


def gradient_mapping(obj, x, eta, counter):
    """Constrained gradient surrogate ``(x - proj(x - eta grad f(x))) / eta``."""
    if not eta > 0:
        raise InvalidArgumentError("step size eta must be positive")
    x = _require_feasible(obj, x)
    _, grad = evaluate(obj, x, counter)
    return (x - obj.feasible_set.project(x - eta * grad)) / eta


def _gap_fn(obj):
    fstar = obj.optimal_value
    return (lambda v: None) if fstar is None else (lambda v: v - fstar)


def run_pgd(obj, x0, T, counter):
    """T steps of ``x <- proj(x - grad f(x) / L)``; records f at every iterate."""
    x = _require_feasible(obj, x0, "x0")
    set_ = obj.feasible_set
    eta = 1.0 / obj.smoothness_L
    gap = _gap_fn(obj)
    header = {
        "algorithm": "pgd",
        "objective": obj.name,
        "set": set_.to_spec(),
        "params": {"T": T, "eta": eta},
        "x0": x.tolist(),
    }
    rows = []
    try:
        for t in range(T):
            f, grad = evaluate(obj, x, counter)
            rows.append(TraceRow(t, counter.calls, f, gap(f), None))
            x = set_.project(x - eta * grad)
        f, _ = evaluate(obj, x, counter)
        rows.append(TraceRow(T, counter.calls, f, gap(f), None))
    except NumericalFailureError as exc:
        exc.partial_trace = Trace(header=header, rows=rows, failure=str(exc))
        raise
    return Trace(header=header, rows=rows, solution=x)


def run_frank_wolfe(obj, x0, T, counter):
    """T Frank-Wolfe steps with the open-loop schedule ``x <- t/(t+2) x + 2/(t+2) v``.

    The iterate is updated in place on a private copy of ``x0``.
    """
    x = _require_feasible(obj, x0, "x0").copy()
    set_ = obj.feasible_set
    gap = _gap_fn(obj)
    header = {
        "algorithm": "frank_wolfe",
        "objective": obj.name,
        "set": set_.to_spec(),
        "params": {"T": T},
        "x0": x.tolist(),
    }
    rows = []
    try:
        for t in range(T):
            f, grad = evaluate(obj, x, counter)
            rows.append(TraceRow(t, counter.calls, f, gap(f), None))
            set_._step_toward_vertex(x, grad, t / (t + 2), 2.0 / (t + 2))
        f, _ = evaluate(obj, x, counter)
        rows.append(TraceRow(T, counter.calls, f, gap(f), None))
    except NumericalFailureError as exc:
        exc.partial_trace = Trace(header=header, rows=rows, failure=str(exc))
        raise
    return Trace(header=header, rows=rows, solution=x)


def attach_rate_bounds(trace, L, gamma, D):
    """Fill the bound column of a baseline trace with its rate envelope.

    This is the only place gamma is consumed for the baselines; the solvers
    themselves are gamma-free.
    """
    algorithm = trace.header.get("algorithm")
    if algorithm == "pgd":
        constant = 20.0
    elif algorithm == "frank_wolfe":
        constant = 6.0
    else:
        raise InvalidArgumentError(f"no rate envelope for algorithm '{algorithm}'")
    for row in trace.rows:
        if row.iteration >= 1:
            row.bound = constant * L * D * D / ((row.iteration + 1) * gamma * gamma)
    trace.header.setdefault("params", {})["bound_constants"] = {
        "L": L, "gamma": gamma, "D": D, "constant": constant,
    }
    return trace


# -- property checks -----------------------------------------------------------


def check_mapping_inequality(obj, trials=1000, seed=0, tol=1e-10):
    """For random feasible (x, y): ``<grad f(x), x+ - y> <= <g(x), x+ - y> + tol``."""
    set_ = obj.feasible_set
    eta = 1.0 / obj.smoothness_L
    rng = np.random.default_rng(seed)
    xs = set_.sample(rng, trials)
    ys = set_.sample(rng, trials)
    worst = -np.inf
    for x, yref in zip(xs, ys):
        grad = obj.evaluator(x)[1]
        x_plus = set_.project(x - eta * grad)
        mapping = (x - x_plus) / eta
        lhs = float(np.dot(grad, x_plus - yref))
        rhs = float(np.dot(mapping, x_plus - yref))
        worst = max(worst, lhs - rhs)
    return {"max_excess": worst, "tolerance": tol, "passed": worst <= tol,
            "samples": trials}


def check_mapping_descent(obj, trials=1000, seed=0, tol=1e-10):
    """For random feasible x: ``f(x+) - f(x) <= -||g(x)||^2 / (2L) + tol``."""
    set_ = obj.feasible_set
    L = obj.smoothness_L
    eta = 1.0 / L
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for x in set_.sample(rng, trials):
        f, grad = obj.evaluator(x)
        x_plus = set_.project(x - eta * grad)
        mapping = (x - x_plus) / eta
        f_plus = obj.evaluator(x_plus)[0]
        excess = (f_plus - f) + float(np.dot(mapping, mapping)) / (2.0 * L)
        worst = max(worst, excess)
    return {"max_excess": worst, "tolerance": tol, "passed": worst <= tol,
            "samples": trials}


def check_fw_feasibility_and_weights(obj, x0, T, tol=1e-10, weight_tol=1e-12):
    """Replay Frank-Wolfe checking iterate feasibility and the weight identity.

    ``x`` takes the solver's own step, ``set_._step_toward_vertex``; the
    running-average form ``(A_{t-1} x_t + a_t v_t) / A_t`` with ``a_t = 2t + 2``
    and the dense vertex ``v_t = lmo(grad)`` must match it.
    """
    set_ = obj.feasible_set
    x = _require_feasible(obj, x0, "x0").copy()
    x_avg = x.copy()
    worst_dist = 0.0
    worst_weight = 0.0
    A_prev = 0.0
    for t in range(T):
        grad = obj.evaluator(x)[1]
        v = set_.lmo(grad)
        a_t = 2.0 * t + 2.0
        A_t = A_prev + a_t
        assert A_t == (t + 1) * (t + 2)
        set_._step_toward_vertex(x, grad, t / (t + 2), 2.0 / (t + 2))
        x_avg = (A_prev * x_avg + a_t * v) / A_t
        worst_weight = max(worst_weight, float(np.abs(x - x_avg).max()))
        worst_dist = max(worst_dist, set_.distance(x))
        A_prev = A_t
    return {
        "max_infeasibility": worst_dist,
        "max_weight_mismatch": worst_weight,
        "passed": worst_dist <= tol and worst_weight <= weight_tol,
        "iterations": T,
    }
