"""Accelerated inexact proximal-point method with a noise-tolerant line search.

The outer loop couples three sequences: approximate proximal points ``y_t``,
FTRL iterates ``z_t`` driven by the accumulated envelope gradients, and
coupling points ``x_t`` chosen on the segment between ``y_{t-1}`` and
``z_{t-1}`` by a binary search.  The search only sees envelope values and
gradients computed from delta-approximate prox solves, so its branch tests
tolerate bounded adversarial noise; its termination test certifies

    <grad M~(x_t), x_t - z_{t-1}>
        <= c (M~(y_{t-1}) - M~(x_t)) + sqrt(8 L D^2 delta) + (9 + 5c) delta,

which is exactly the inequality the outer loop needs to balance FTRL regret
against prox descent.

Schedule: ``T = ceil((4/gamma) sqrt(L D^2 / eps))`` outer iterations, inner
tolerance ``delta = L D^2 / (10 T^6)``, weights ``a_t = gamma^2 t / (8 L)``
and ``A_t = gamma^2 t (t+1) / (16 L)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError, PreconditionError
from .objectives import OracleCounter
from .prox import ProxResult, _ProxConstants, _solve, solve_prox_subproblem
from .sets import MEMBERSHIP_TOL, as_point
from .trace import Trace, TraceRow


@dataclass(frozen=True)
class AccelParams:
    """Resolved schedule for one accelerated run."""

    gamma: float
    L: float
    D: float
    epsilon: float
    lam: float
    T: int
    delta: float

    def a(self, t):
        return self.gamma**2 * t / (8.0 * self.L)

    def A(self, t):
        return self.gamma**2 * t * (t + 1) / (16.0 * self.L)

    def as_dict(self):
        return {
            "gamma": self.gamma,
            "L": self.L,
            "D": self.D,
            "epsilon": self.epsilon,
            "lam": self.lam,
            "T": self.T,
            "delta": self.delta,
        }


def compute_schedule(gamma, L, D, epsilon):
    """Resolve the outer iteration count, inner tolerance, and weights."""
    if not 0.0 < gamma <= 1.0:
        raise InvalidArgumentError("gamma must lie in (0, 1]")
    for name, v in (("L", L), ("D", D), ("epsilon", epsilon)):
        if not v > 0:
            raise InvalidArgumentError(f"{name} must be positive")
    T = math.ceil((4.0 / gamma) * math.sqrt(L * D * D / epsilon))
    T = max(T, 1)
    delta = L * D * D / (10.0 * T**6)
    return AccelParams(gamma=gamma, L=L, D=D, epsilon=epsilon,
                       lam=1.0 / (2.0 * L), T=T, delta=delta)


@dataclass(frozen=True)
class LineSearchParams:
    """Noise model and target constant for one binary-search call.

    ``delta1`` bounds the envelope value error, ``delta2`` the directional
    derivative error (the uniform bound ``sqrt(8 L delta) * D``), and the
    termination slack is ``epsilon_tilde = delta2 + (9 + 5 c) delta1``.
    """

    c: float
    delta1: float
    delta2: float
    epsilon_tilde: float
    loop_cap: int


class _LineSearchConstants:
    """The ``c``-independent part of :class:`LineSearchParams` for one ``(delta, L, D)``.

    The single source of the ``delta2``, ``epsilon_tilde`` and ``loop_cap``
    formulas; ``run_accelerated`` builds it once per run.
    """

    __slots__ = ("delta", "delta2", "loop_cap")

    def __init__(self, delta, L, D):
        self.delta = delta
        self.delta2 = math.sqrt(8.0 * L * delta) * D
        self.loop_cap = math.ceil(math.log2(max(8.0 * L * D * D / delta, 4.0))) + 2

    def params(self, c):
        return LineSearchParams(
            c=c,
            delta1=self.delta,
            delta2=self.delta2,
            epsilon_tilde=self.delta2 + (9.0 + 5.0 * c) * self.delta,
            loop_cap=self.loop_cap,
        )


def line_search_params(c, delta, L, D):
    if c < 0:
        raise InvalidArgumentError("line-search constant c must be nonnegative")
    return _LineSearchConstants(delta, L, D).params(c)


@dataclass
class LineSearchResult:
    alpha: float
    x: np.ndarray
    loop_iterations: int
    prox: ProxResult
    exit: str  # "derivative_small" (alpha=1), "no_improvement" (alpha=0), "bisection"


def binary_line_search(obj, y, z, params, counter):
    """Find ``x = alpha y + (1 - alpha) z`` certified by the termination test.

    Validates its inputs: ``y`` and ``z`` must be feasible points of the
    objective's dimension (within ``MEMBERSHIP_TOL``) and ``params.delta1``
    must be positive.  The envelope oracles ``h`` and ``h_hat`` are realized
    through fresh prox solves at tolerance ``params.delta1``; the prox result
    at the returned point is included so callers can reuse it as their next
    proximal step.
    """
    y = as_point(y, obj.dimension)
    z = as_point(z, obj.dimension)
    for name, p in (("y", y), ("z", z)):
        if not obj.feasible_set.contains(p, MEMBERSHIP_TOL):
            raise PreconditionError(f"line-search endpoint {name} must be feasible")
    if not params.delta1 > 0:
        raise InvalidArgumentError("line-search tolerance delta1 must be positive")
    consts = _ProxConstants(obj, params.delta1)
    return _line_search(obj, y, z, params, counter, _solve(obj, y, consts, counter), consts)


def _line_search(obj, y, z, params, counter, prox_at_y, consts):
    """Body of :func:`binary_line_search` for trusted endpoints and the prox at ``y``.

    ``consts`` is ``_ProxConstants(obj, params.delta1)``; every prox solve of
    the search uses it.
    """
    direction = y - z
    h1 = prox_at_y.envelope_value
    hhat1 = float(np.dot(prox_at_y.envelope_gradient, direction))
    if hhat1 <= params.epsilon_tilde:
        return LineSearchResult(1.0, y, 0, prox_at_y, "derivative_small")
    # A degenerate segment has hhat1 = 0 <= epsilon_tilde and returned above.
    assert float(np.dot(direction, direction)) > 0.0

    prox_at_z = _solve(obj, z, consts, counter)
    if h1 - prox_at_z.envelope_value >= -params.delta1:
        return LineSearchResult(0.0, z, 0, prox_at_z, "no_improvement")

    lo, hi = 0.0, 1.0
    alpha = 0.5
    iterations = 0
    while True:
        v = alpha * y + (1.0 - alpha) * z
        prox_v = _solve(obj, v, consts, counter)
        h_alpha = prox_v.envelope_value
        hhat_alpha = float(np.dot(prox_v.envelope_gradient, direction))
        if alpha * hhat_alpha <= params.c * (h1 - h_alpha) + params.epsilon_tilde:
            return LineSearchResult(alpha, v, iterations, prox_v, "bisection")
        if h_alpha >= h1 - params.delta1:
            lo = alpha
        else:
            hi = alpha
        iterations += 1
        if iterations > params.loop_cap:
            raise NumericalFailureError(
                "binary line search exceeded its halving budget; the declared "
                "(L, gamma) may not be valid for this objective",
                last_iterate=v,
                diagnostics={"lo": lo, "hi": hi, "alpha": alpha,
                             "loop_cap": params.loop_cap},
            )
        alpha = 0.5 * (lo + hi)


def ftrl_step(set_, x0, accumulated):
    """Closed form of the regularized leader step: project ``x0 - accumulated``.

    ``accumulated`` is the running sum of ``(a_t / gamma) grad M~(x_t)``,
    maintained incrementally by the caller.
    """
    x0 = as_point(x0, set_.dimension)
    accumulated = as_point(accumulated, set_.dimension)
    return set_.project(x0 - accumulated)


@dataclass
class AccelIterate:
    """Per-iteration payload kept for post-hoc certificate checks."""

    t: int
    c: float
    alpha: float
    loop_iterations: int
    x: np.ndarray
    y_prev: np.ndarray
    z_prev: np.ndarray
    y: np.ndarray
    z: np.ndarray


def run_accelerated(obj, x0, epsilon, counter, keep_iterates=False):
    """Run the accelerated method to target accuracy ``epsilon``.

    Returns a :class:`Trace` whose rows record, at every outer iteration, the
    objective value of the current candidate solution (the delta-prox of
    ``y_t``) together with the certified-gap envelope ``16 L D^2 / (gamma t)^2``.
    The trace ``solution`` is the final candidate.
    """
    if not epsilon > 0:
        raise InvalidArgumentError("epsilon must be positive")
    x0 = as_point(x0, obj.dimension)
    set_ = obj.feasible_set
    if not set_.contains(x0, MEMBERSHIP_TOL):
        raise PreconditionError("x0 must be feasible")
    params = compute_schedule(obj.quasar_gamma, obj.smoothness_L, set_.diameter(), epsilon)
    gamma, L, D, delta = params.gamma, params.L, params.D, params.delta
    fstar = obj.optimal_value

    def gap_of(value):
        return None if fstar is None else value - fstar

    header = {
        "algorithm": "accelerated",
        "objective": obj.name,
        "set": set_.to_spec(),
        "params": params.as_dict(),
        "x0": x0.tolist(),
    }
    y = x0.copy()
    z = x0.copy()
    accumulated = np.zeros_like(x0)
    rows = []
    iterates = [] if keep_iterates else None
    prox_consts = _ProxConstants(obj, delta)
    search_consts = _LineSearchConstants(delta, L, D)

    try:
        prox_y = _solve(obj, y, prox_consts, counter)
        rows.append(TraceRow(0, counter.calls, prox_y.f_at_y, gap_of(prox_y.f_at_y), None))
        for t in range(1, params.T + 1):
            c = params.A(t - 1) * gamma / params.a(t)
            result = _line_search(obj, y, z, search_consts.params(c), counter, prox_y,
                                  prox_consts)
            x_t = result.x
            prox_x = result.prox
            y_new = prox_x.y
            accumulated = accumulated + (params.a(t) / gamma) * prox_x.envelope_gradient
            z_new = ftrl_step(set_, x0, accumulated)
            # The prox at y_new instruments f(y-hat_t), is reused as the next
            # line search's endpoint oracle, and at t = T is the returned solution.
            prox_y_new = _solve(obj, y_new, prox_consts, counter)
            bound = 16.0 * L * D * D / (gamma * gamma * t * t)
            rows.append(TraceRow(t, counter.calls, prox_y_new.f_at_y,
                                 gap_of(prox_y_new.f_at_y), bound))
            if keep_iterates:
                iterates.append(AccelIterate(t=t, c=c, alpha=result.alpha,
                                             loop_iterations=result.loop_iterations,
                                             x=x_t, y_prev=y, z_prev=z,
                                             y=y_new, z=z_new))
            y, z, prox_y = y_new, z_new, prox_y_new
    except NumericalFailureError as exc:
        exc.partial_trace = Trace(header=header, rows=rows, failure=str(exc))
        raise

    return Trace(header=header, rows=rows, solution=prox_y.y, iterates=iterates)


def check_linesearch_certificates(obj, trace, accuracy_factor=1e4):
    """Post-hoc audit of every line-search call of an accelerated run.

    Re-evaluates the envelope at ``x_t`` and ``y_{t-1}`` with a prox
    ``accuracy_factor`` times tighter than the run's delta and verifies

        <grad M~(x_t), x_t - z_{t-1}> - c (M~(y_{t-1}) - M~(x_t))
            <= sqrt(8 L D^2 delta) + (9 + 5 c) delta + 1e-9,

    along with the halving budget ``ceil(log2(8 L D^2 / delta))``.
    Requires a trace produced with ``keep_iterates=True``.
    """
    if trace.iterates is None:
        raise InvalidArgumentError("trace was not recorded with keep_iterates=True")
    params = trace.header["params"]
    L, D, delta = params["L"], params["D"], params["delta"]
    fine = delta / accuracy_factor
    counter = OracleCounter()
    base_budget = math.sqrt(8.0 * L * D * D * delta)
    loop_bound = math.ceil(math.log2(max(8.0 * L * D * D / delta, 2.0)))
    worst_excess = -np.inf
    max_loops = 0
    for it in trace.iterates:
        at_x = solve_prox_subproblem(obj, it.x, fine, counter)
        at_y = solve_prox_subproblem(obj, it.y_prev, fine, counter)
        lhs = float(np.dot(at_x.envelope_gradient, it.x - it.z_prev))
        lhs -= it.c * (at_y.envelope_value - at_x.envelope_value)
        budget = base_budget + (9.0 + 5.0 * it.c) * delta + 1e-9
        worst_excess = max(worst_excess, lhs - budget)
        max_loops = max(max_loops, it.loop_iterations)
    return {
        "max_excess": float(worst_excess),
        "max_loops": max_loops,
        "loop_bound": loop_bound,
        "calls": len(trace.iterates),
        "passed": bool(worst_excess <= 0.0 and max_loops <= loop_bound),
    }
