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
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, InvalidArgumentError, NumericalFailureError, PreconditionError
from .objectives import OracleCounter
from .prox import ProxResult, _ProxConstants, _solve, solve_prox_subproblem
from .sets import MEMBERSHIP_TOL, as_point
from .trace import Trace, TraceRow

#: The most iterations an epsilon-derived schedule may ask for, accelerated or
#: baseline; the catalogue's longest schedule has about 1.1e4.
MAX_ITERATIONS = 10**7


@dataclass(frozen=True)
class AccelParams:
    """Resolved schedule for one accelerated run; the trace header records its fields."""

    gamma: float
    L: float
    D: float
    epsilon: float
    lam: float
    T: int
    delta: float


def iteration_count(estimate, epsilon):
    """``max(1, ceil(estimate))`` for an iteration count derived from ``epsilon``.

    Raises ``ConfigError("epsilon", ...)`` when the estimate exceeds
    ``MAX_ITERATIONS`` or is not a number, before any oracle call is made.
    """
    if not estimate <= MAX_ITERATIONS:
        raise ConfigError("epsilon", f"{epsilon!r} is too small: it schedules {estimate:.3g} "
                                     f"iterations, more than {MAX_ITERATIONS}")
    return max(1, math.ceil(estimate))


def compute_schedule(gamma, L, D, epsilon):
    """Resolve the outer iteration count, inner tolerance, and weights."""
    if not 0.0 < gamma <= 1.0:
        raise InvalidArgumentError("gamma must lie in (0, 1]")
    for name, v in (("L", L), ("D", D), ("epsilon", epsilon)):
        if not v > 0:
            raise InvalidArgumentError(f"{name} must be positive")
    T = iteration_count((4.0 / gamma) * math.sqrt(L * D * D / epsilon), epsilon)
    delta = L * D * D / (10.0 * T**6)
    if not delta > 0.0:
        raise ConfigError("epsilon", f"{epsilon!r} is too small: its inner tolerance "
                                     f"L D^2 / (10 T^6) with T = {T} underflows to 0")
    return AccelParams(gamma=gamma, L=L, D=D, epsilon=epsilon,
                       lam=1.0 / (2.0 * L), T=T, delta=delta)


class _LineSearchConstants:
    """Noise model and halving budget of the line search for one ``(delta, L, D)``.

    ``delta`` bounds the envelope value error and ``delta2`` the directional
    derivative error (the uniform bound ``sqrt(8 L delta) * D``); the
    termination slack is ``epsilon_tilde(c) = delta2 + (9 + 5 c) delta``.  The
    single source of these formulas and of ``loop_cap``; ``run_accelerated``
    builds it once per run.
    """

    __slots__ = ("delta", "delta2", "loop_cap")

    def __init__(self, delta, L, D):
        self.delta = delta
        self.delta2 = math.sqrt(8.0 * L * delta) * D
        self.loop_cap = math.ceil(math.log2(max(8.0 * L * D * D / delta, 4.0))) + 2

    def epsilon_tilde(self, c):
        return self.delta2 + (9.0 + 5.0 * c) * self.delta


@dataclass
class LineSearchResult:
    alpha: float
    x: np.ndarray
    loop_iterations: int
    prox: ProxResult
    exit: str  # "derivative_small" (alpha=1), "no_improvement" (alpha=0), "bisection"


def binary_line_search(obj, y, z, c, delta, counter):
    """Find ``x = alpha y + (1 - alpha) z`` certified by the termination test.

    Validates its inputs before any oracle call: ``y`` and ``z`` must be
    feasible points of the objective's dimension (within ``MEMBERSHIP_TOL``),
    ``c`` nonnegative and ``delta`` positive.  The termination slack
    ``epsilon_tilde(c)`` and the halving budget come from
    ``_LineSearchConstants(delta, L, D)``.  The envelope oracles ``h`` and
    ``h_hat`` are realized through fresh prox solves at tolerance ``delta``;
    the prox result at the returned point is included so callers can reuse it
    as their next proximal step.
    """
    y = as_point(y, obj.dimension)
    z = as_point(z, obj.dimension)
    for name, p in (("y", y), ("z", z)):
        if not obj.feasible_set.contains(p, MEMBERSHIP_TOL):
            raise PreconditionError(f"line-search endpoint {name} must be feasible")
    if not c >= 0:
        raise InvalidArgumentError("line-search constant c must be nonnegative")
    if not delta > 0:
        raise InvalidArgumentError("line-search tolerance delta must be positive")
    search = _LineSearchConstants(delta, obj.smoothness_L, obj.feasible_set.diameter())
    consts = _ProxConstants(obj, delta)
    return LineSearchResult(*_line_search(
        obj, y, z, c, search.epsilon_tilde(c), search.loop_cap, counter,
        _solve(obj, y, consts, counter), consts))


def _line_search(obj, y, z, c, epsilon_tilde, loop_cap, counter, prox_at_y, consts):
    """Body of :func:`binary_line_search` for trusted endpoints and the prox at ``y``.

    ``epsilon_tilde`` and ``loop_cap`` come from the
    :class:`_LineSearchConstants` of ``consts.delta``, and ``consts`` is
    ``_ProxConstants(obj, delta)``; every prox solve of the search uses it.
    Returns the fields of a :class:`LineSearchResult` as a plain tuple.
    """
    delta1 = consts.delta
    direction = y - z
    h1 = prox_at_y.envelope_value
    hhat1 = float(prox_at_y.envelope_gradient.dot(direction))
    if hhat1 <= epsilon_tilde:
        return 1.0, y, 0, prox_at_y, "derivative_small"
    # A degenerate segment has hhat1 = 0 <= epsilon_tilde and returned above.
    assert float(direction.dot(direction)) > 0.0

    prox_at_z = _solve(obj, z, consts, counter)
    if h1 - prox_at_z.envelope_value >= -delta1:
        return 0.0, z, 0, prox_at_z, "no_improvement"

    lo, hi = 0.0, 1.0
    alpha = 0.5
    iterations = 0
    while True:
        v = alpha * y + (1.0 - alpha) * z
        prox_v = _solve(obj, v, consts, counter)
        h_alpha = prox_v.envelope_value
        hhat_alpha = float(prox_v.envelope_gradient.dot(direction))
        if alpha * hhat_alpha <= c * (h1 - h_alpha) + epsilon_tilde:
            return alpha, v, iterations, prox_v, "bisection"
        if h_alpha >= h1 - delta1:
            lo = alpha
        else:
            hi = alpha
        iterations += 1
        if iterations > loop_cap:
            raise NumericalFailureError(
                "binary line search exceeded its halving budget; the declared "
                "(L, gamma) may not be valid for this objective",
                last_iterate=v,
                diagnostics={"lo": lo, "hi": hi, "alpha": alpha,
                             "loop_cap": loop_cap},
            )
        alpha = 0.5 * (lo + hi)


def ftrl_step(set_, x0, accumulated):
    """Closed form of the regularized leader step: project ``x0 - accumulated``.

    ``accumulated`` is the running sum of ``(a_t / gamma) grad M~(x_t)``,
    maintained incrementally by the caller.
    """
    x0 = as_point(x0, set_.dimension)
    accumulated = as_point(accumulated, set_.dimension)
    return set_._project(x0 - accumulated)


@dataclass
class AccelIterate:
    """One outer iteration's line-search inputs and outcome, handed to an observer."""

    c: float
    loop_iterations: int
    x: np.ndarray
    y_prev: np.ndarray
    z_prev: np.ndarray


def run_accelerated(obj, x0, epsilon, counter, observer=None):
    """Run the accelerated method to target accuracy ``epsilon``.

    Returns a :class:`Trace` whose rows record, at every outer iteration, the
    objective value of the current candidate solution (the delta-prox of
    ``y_t``) together with the certified-gap envelope ``16 L D^2 / (gamma t)^2``.
    The trace ``solution`` is the final candidate.  A given ``observer`` is
    called once per outer iteration with that iteration's :class:`AccelIterate`.

    Once a prox lands bit for bit where it started, with no oracle query, every
    later iteration repeats it exactly.  The loop then stops querying and
    solving: each remaining row repeats that row's ``f``, ``gap`` and
    ``oracle_calls`` with its own bound, and the observer still gets one
    ``AccelIterate(c_t, 0, y, y, z)`` per remaining ``t``, all sharing the
    frozen ``y`` and ``z`` arrays.
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
    header = {
        "algorithm": "accelerated",
        "objective": obj.name,
        "set": set_.to_spec(),
        "params": asdict(params),
        "x0": x0.tolist(),
    }
    y = x0.copy()
    z = x0.copy()
    accumulated = np.zeros_like(x0)
    rows = []
    prox_consts = _ProxConstants(obj, delta)
    search_consts = _LineSearchConstants(delta, L, D)
    loop_cap = search_consts.loop_cap
    project = set_._project
    # The weights a_t = gamma^2 t / (8 L) and A_{t-1} = gamma^2 (t-1) t / (16 L),
    # the coupling c_t = gamma A_{t-1} / a_t and the bound 16 L D^2 / (gamma t)^2
    # have their one source below; changing the order of an operation changes
    # the bits of every trace.
    gamma_sq, a_denom, A_denom = gamma**2, 8.0 * L, 16.0 * L
    bound_num, gamma_gamma = 16.0 * L * D * D, gamma * gamma

    try:
        prox_y = _solve(obj, y, prox_consts, counter)
        f = prox_y.f_at_y
        gap = None if fstar is None else f - fstar
        rows.append(TraceRow(0, counter.calls, f, gap, None))
        frozen = False
        for t in range(1, params.T + 1):
            a_t = gamma_sq * t / a_denom
            c = gamma_sq * (t - 1) * t / A_denom * gamma / a_t
            if frozen:
                # y_new, z_new are y, z and the line search would return y.
                loops, x_t = 0, y
            else:
                _, x_t, loops, prox_x, _ = _line_search(
                    obj, y, z, c, search_consts.epsilon_tilde(c), loop_cap, counter, prox_y,
                    prox_consts)
                y_new = prox_x.y
                accumulated += (a_t / gamma) * prox_x.envelope_gradient
                # The FTRL step (ftrl_step) on trusted arrays.
                z_new = project(x0 - accumulated)
                # The prox at y_new instruments f(y-hat_t), is reused as the next
                # line search's endpoint oracle, and at t = T is the returned
                # solution.  y_new is prox_x.y, so prox_x already holds the
                # oracle's answer there.
                prox_y = _solve(obj, y_new, prox_consts, counter,
                                (prox_x.f_at_y, prox_x.grad_at_y))
                f = prox_y.f_at_y
                gap = None if fstar is None else f - fstar
                # A prox whose first step lands bit for bit on its centre y_new
                # made no query, and its envelope gradient is exactly +0.0.
                # Every later iteration then repeats: the line search exits at
                # alpha = 1 (hhat1 = 0), accumulated and so z_new keep their
                # bits, and the next prox is this one again, from the same
                # point and the same oracle answer.  Only t, c and the bound
                # change, so the loop stops querying, projecting and solving.
                frozen = prox_y.inner_iterations == 1 and prox_y.y.tobytes() == y_new.tobytes()
            rows.append(TraceRow(t, counter.calls, f, gap, bound_num / (gamma_gamma * t * t)))
            if observer is not None:
                observer(AccelIterate(c, loops, x_t, y, z))
            y, z = y_new, z_new
    except NumericalFailureError as exc:
        exc.partial_trace = Trace(header=header, rows=rows, failure=str(exc))
        raise

    return Trace(header=header, rows=rows, solution=prox_y.y)


#: How many times tighter than the run's delta the certificate audit solves each prox.
CERTIFICATE_ACCURACY_FACTOR = 1e4


def check_linesearch_certificates(obj, x0, epsilon):
    """Audit every line-search call of the accelerated run from ``x0`` at ``epsilon``.

    Observes the run and re-evaluates the envelope at each ``x_t`` and
    ``y_{t-1}`` with a prox ``CERTIFICATE_ACCURACY_FACTOR`` times tighter than
    the run's delta, verifying

        <grad M~(x_t), x_t - z_{t-1}> - c (M~(y_{t-1}) - M~(x_t))
            <= sqrt(8 L D^2 delta) + (9 + 5 c) delta + 1e-9,

    along with the halving budget ``ceil(log2(8 L D^2 / delta))``.
    """
    iterates = []
    trace = run_accelerated(obj, x0, epsilon, OracleCounter(), observer=iterates.append)
    params = trace.header["params"]
    L, D, delta = params["L"], params["D"], params["delta"]
    fine = delta / CERTIFICATE_ACCURACY_FACTOR
    counter = OracleCounter()
    base_budget = math.sqrt(8.0 * L * D * D * delta)
    loop_bound = math.ceil(math.log2(max(8.0 * L * D * D / delta, 2.0)))
    worst_excess = -np.inf
    max_loops = 0
    for it in iterates:
        at_x = solve_prox_subproblem(obj, it.x, fine, counter)
        # A derivative_small exit, and every filled iterate, hands x_t = y_{t-1}
        # itself; the solve is pure, so one serves both endpoints.
        at_y = at_x if it.x is it.y_prev else solve_prox_subproblem(obj, it.y_prev, fine, counter)
        lhs = float(np.dot(at_x.envelope_gradient, it.x - it.z_prev))
        lhs -= it.c * (at_y.envelope_value - at_x.envelope_value)
        budget = base_budget + (9.0 + 5.0 * it.c) * delta + 1e-9
        worst_excess = max(worst_excess, lhs - budget)
        max_loops = max(max_loops, it.loop_iterations)
    return {
        "max_excess": float(worst_excess),
        "max_loops": max_loops,
        "loop_bound": loop_bound,
        "calls": len(iterates),
        "passed": bool(worst_excess <= 0.0 and max_loops <= loop_bound),
    }
