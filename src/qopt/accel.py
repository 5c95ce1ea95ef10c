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
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidArgumentError, NumericalFailureError
# perfbench/tracing.py wraps solve_prox_subproblem under this module's name too.
from .prox import ProxResult, _ProxConstants, _solve, solve_prox_subproblem  # noqa: F401
from .sets import _dot, _real, as_point, is_positive_finite, is_quasar_gamma
from .trace import record_run

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


def _check_constants(gamma, multiple, **positive):
    """Raise :class:`InvalidArgumentError` naming the first argument that fails
    its gate: ``gamma`` :func:`is_quasar_gamma`, each of ``positive``, which
    holds ``L`` and ``D``, :func:`is_positive_finite` (an infinite ``D`` aside);
    then its source, the diameter ``D`` or ``L``, when ``multiple L D^2``, the
    largest multiple the caller forms, overflows."""
    if not is_quasar_gamma(gamma):
        raise InvalidArgumentError("gamma must be a real number in (0, 1]")
    L, d = positive["L"], _real(positive["D"])  # an integer too large for a float is inf
    for name, v in positive.items():
        if not (is_positive_finite(v) or name == "D" and d == math.inf):
            raise InvalidArgumentError(f"{name} must be a positive finite number")
    if not math.isfinite(multiple * L * d * d):
        source = "the diameter D" if not math.isfinite(multiple * d * d) else "L"
        raise InvalidArgumentError(f"{multiple:g} L D^2 overflows float range through "
                                   f"{source} (L = {L!r}, diameter D = {d!r}); "
                                   "rescale the problem")


def compute_schedule(gamma, L, D, epsilon):
    """Resolve the outer iteration count, inner tolerance, and weights."""
    # 16 L D^2 is the bound column's numerator.
    _check_constants(gamma, 16.0, L=L, D=D, epsilon=epsilon)
    T = iteration_count((4.0 / gamma) * math.sqrt(L * D * D / epsilon), epsilon)
    delta = L * D * D / (10.0 * T**6)
    if not delta > 0.0:
        raise ConfigError("epsilon", f"{epsilon!r} is too small: its inner tolerance "
                                     f"L D^2 / (10 T^6) with T = {T} underflows to 0")
    return AccelParams(gamma=gamma, L=L, D=D, epsilon=epsilon,
                       lam=1.0 / (2.0 * L), T=T, delta=delta)


@dataclass
class LineSearchResult:
    alpha: float
    x: np.ndarray
    loop_iterations: int
    prox: ProxResult
    exit: str  # "derivative_small" (alpha=1), "no_improvement" (alpha=0), "bisection"


def binary_line_search(obj, y, z, c, delta, counter):
    """Find ``x = alpha y + (1 - alpha) z`` certified by the termination test.

    Validates its inputs before any oracle call: ``y`` and ``z`` pass
    :meth:`FeasibleSet.checked_point`, ``c`` must be a real number, not a
    bool, in ``[0, inf)``, and ``_ProxConstants(obj, delta)`` checks
    ``delta``.  The termination slack ``epsilon_tilde(c)``, which must be
    finite, and the halving budget come from those constants.  The envelope
    oracles ``h`` and ``h_hat`` are realized through fresh prox solves at
    tolerance ``delta``; the prox result at the returned point is included so
    callers can reuse it as their next proximal step.
    """
    y = obj.feasible_set.checked_point(y, "line-search endpoint y")
    z = obj.feasible_set.checked_point(z, "line-search endpoint z")
    if not 0.0 <= _real(c) < math.inf:
        raise InvalidArgumentError("line-search constant c must be a finite number >= 0")
    consts = _ProxConstants(obj, delta)
    if not consts.epsilon_tilde(c) < math.inf:
        raise InvalidArgumentError(f"line-search constant c {c!r} overflows the slack "
                                   "(9 + 5 c) delta")
    return LineSearchResult(*_line_search(
        obj, y, z, c, counter, _solve(obj, y, consts, counter), consts))


def _line_search(obj, y, z, c, counter, prox_at_y, consts):
    """Body of :func:`binary_line_search` for trusted endpoints and the prox at ``y``.

    ``consts`` is ``_ProxConstants(obj, delta)``: it gives the termination
    slack ``epsilon_tilde(c)`` and the halving budget, and every prox solve of
    the search uses it.  Returns the fields of a :class:`LineSearchResult` as
    a plain tuple.
    """
    delta1 = consts.delta
    epsilon_tilde = consts.epsilon_tilde(c)
    direction = y - z
    h1 = prox_at_y.envelope_value
    hhat1 = float(_dot(prox_at_y.envelope_gradient, direction))
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
        hhat_alpha = float(_dot(prox_v.envelope_gradient, direction))
        if alpha * hhat_alpha <= c * (h1 - h_alpha) + epsilon_tilde:
            return alpha, v, iterations, prox_v, "bisection"
        if h_alpha >= h1 - delta1:
            lo = alpha
        else:
            hi = alpha
        iterations += 1
        if iterations > consts.loop_cap:
            raise NumericalFailureError(
                "binary line search exceeded its halving budget; the declared "
                "(L, gamma) may not be valid for this objective",
                last_iterate=v,
                diagnostics={"lo": lo, "hi": hi, "alpha": alpha,
                             "loop_cap": consts.loop_cap},
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


class _Iteration(NamedTuple):
    """Outer iteration ``t``: the candidate ``y_hat_t`` (the prox at ``y_t``),
    ``f`` and ``grad f`` there, then the line search's ``c_t``, halvings,
    ``x_t`` and endpoints ``y_{t-1}``, ``z_{t-1}``.  Row 0 holds the prox at
    ``x0``, with ``c`` and the halvings 0 and every point ``x0``."""

    t: int
    y_hat: np.ndarray
    f: float
    grad: np.ndarray
    c: float
    loop_iterations: int
    x: np.ndarray
    y_prev: np.ndarray
    z_prev: np.ndarray


def _iterations(obj, x0, params, counter):
    """Yield the outer iterations ``t = 0..T`` as :class:`_Iteration` records,
    from the trusted ``x0`` with schedule ``params`` and every solve on the
    ``_ProxConstants`` of ``(obj, params.delta)``, built here.  No record's
    array is written again.

    Once a prox lands bit for bit where it started, with no oracle query, the
    next iteration is frozen: it makes no query, and every later one repeats
    it but for ``t`` and ``c``.  The loop yields it and returns.
    """
    gamma, L, T = params.gamma, params.L, params.T
    consts = _ProxConstants(obj, params.delta)
    y, z = x0.copy(), x0.copy()
    accumulated = np.zeros_like(x0)
    project = obj.feasible_set._project
    # The weights a_t = gamma^2 t / (8 L) and A_{t-1} = gamma^2 (t-1) t / (16 L)
    # and the coupling c_t = gamma A_{t-1} / a_t have their one source here;
    # changing the order of an operation changes the bits of every trace.
    gamma_sq, a_denom, A_denom = gamma**2, 8.0 * L, 16.0 * L
    prox_y = _solve(obj, x0, consts, counter)
    yield _Iteration(0, prox_y.y, prox_y.f_at_y, prox_y.grad_at_y, 0.0, 0, x0, x0, x0)
    frozen = False
    for t in range(1, T + 1):
        a_t = gamma_sq * t / a_denom
        c = gamma_sq * (t - 1) * t / A_denom * gamma / a_t
        _, x_t, loops, prox_x, _ = _line_search(obj, y, z, c, counter, prox_y, consts)
        y_new = prox_x.y
        accumulated += (a_t / gamma) * prox_x.envelope_gradient
        # The FTRL step (ftrl_step) on trusted arrays.
        z_new = project(x0 - accumulated)
        # The prox at y_new instruments f(y-hat_t), is reused as the next
        # line search's endpoint oracle, and at t = T is the returned
        # solution.  y_new is prox_x.y, so prox_x already holds the
        # oracle's answer there.
        prox_y = _solve(obj, y_new, consts, counter, (prox_x.f_at_y, prox_x.grad_at_y))
        yield _Iteration(t, prox_y.y, prox_y.f_at_y, prox_y.grad_at_y, c, loops, x_t, y, z)
        if frozen:
            return
        y, z = y_new, z_new
        # A prox whose first step lands bit for bit on its centre made no
        # query, and its envelope gradient is +0.0.  The next search then
        # exits at alpha = 1 with no solve, the FTRL step adds +0.0 to a sum
        # that never holds -0.0, so z keeps its bits, and the prox repeats:
        # the loop returns after that iteration.
        frozen = prox_y.inner_iterations == 1 and prox_y.y.tobytes() == y.tobytes()


def run_accelerated(obj, x0, epsilon, counter):
    """Run the accelerated method to target accuracy ``epsilon``.

    Returns a :class:`Trace` whose rows record, at every outer iteration, the
    objective value of the current candidate solution (the delta-prox of
    ``y_t``) together with the certified-gap envelope ``16 L D^2 / (gamma t)^2``.
    The trace ``solution`` is the final candidate.  After the first frozen
    iteration (:func:`_iterations`) the run ends, and :func:`record_run`
    appends the remaining rows: each repeats the frozen row's ``f``, ``gap``
    and ``oracle_calls`` with its own bound.
    """
    set_ = obj.feasible_set
    x0 = set_.checked_point(x0, "x0")
    params = compute_schedule(obj.quasar_gamma, obj.smoothness_L, set_.diameter(), epsilon)
    bound_num, gamma_gamma = 16.0 * params.L * params.D * params.D, params.gamma * params.gamma

    def bounds(t):
        """The bound of each iteration in the float array ``t``.  The array
        operations are the scalar ones in the same order, and an integer below
        2^53 converts to float exactly, so every bit matches a per-row bound."""
        return bound_num / (gamma_gamma * t * t)

    return record_run("accelerated", obj, asdict(params), x0, counter,
                      _iterations(obj, x0, params, counter), bounds)
