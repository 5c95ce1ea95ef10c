"""Approximate proximal operator and Moreau envelope for constrained objectives.

For an ``L``-smooth objective and ``lam = 1/(2L)``, the subproblem

    F(y) = f(y) + ||y - x||^2 / (2 * lam)   over the feasible set

is ``L``-strongly convex and ``3L``-smooth, so projected gradient descent with
step ``1/(3L)`` solves it to accuracy ``delta`` in O(log(L D^2 / delta))
iterations.  The stopping rule uses the projected-gradient mapping of F (the
constrained analogue of the gradient): once the mapping norm at step
``1/(3L)`` drops below ``sqrt(2 L delta) / 3``, strong convexity certifies
that the post-step point is a ``delta``-minimizer via
``F(y+) - min F <= (9 / (2L)) * ||mapping||^2``.  A plain gradient-norm rule
would only be sufficient at interior solutions.

The envelope value ``f(y) + ||y - x||^2/(2 lam)`` computed at the returned
point overestimates the true envelope by at most ``delta``, and the envelope
gradient ``(x - y)/lam`` is within ``sqrt(8 L delta)`` of the true one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError, PreconditionError
from .objectives import OracleCounter, evaluate, sample_feasible, sample_pairs
from .sets import MEMBERSHIP_TOL, as_point


@dataclass
class ProxResult:
    """A delta-approximate proximal point and the envelope data derived from it."""

    y: np.ndarray
    envelope_value: float
    envelope_gradient: np.ndarray
    inner_iterations: int
    certified_delta: float
    f_at_y: float
    grad_at_y: np.ndarray


def default_lambda(obj):
    """The only supported regularization weight, ``1 / (2 L)``."""
    return 1.0 / (2.0 * obj.smoothness_L)


def iteration_cap(L, D, delta):
    """Hard inner-iteration budget; exceeding it is an error, never silent."""
    return 100 * math.ceil(math.log2(max(L * D * D / delta, 4.0))) + 100


class _ProxConstants:
    """The parts of a prox solve that depend only on ``(obj, delta)``.

    Built once per accelerated run, or once per public call, and shared by
    every :func:`_solve` at that tolerance.
    """

    __slots__ = ("delta", "lam", "step", "threshold", "cap")

    def __init__(self, obj, delta):
        L = obj.smoothness_L
        self.delta = delta
        self.lam = default_lambda(obj)
        self.step = 1.0 / (3.0 * L)
        self.threshold = math.sqrt(2.0 * L * delta) / 3.0
        self.cap = iteration_cap(L, obj.feasible_set.diameter(), delta)


def solve_prox_subproblem(obj, x, delta, counter):
    """Minimize ``f(y) + ||y - x||^2/(2 lam)`` over the feasible set to accuracy delta.

    ``lam`` is fixed at ``1/(2L)`` (:func:`default_lambda`).  Validates its
    inputs: ``x`` must be a feasible point of the objective's dimension
    (within ``MEMBERSHIP_TOL``) and ``delta`` must be positive.  Warm starts
    at ``x`` itself (feasible, within the set diameter of the solution).
    Raises :class:`NumericalFailureError` carrying the last iterate if the
    iteration cap is exhausted.
    """
    x = as_point(x, obj.dimension)
    if not delta > 0:
        raise InvalidArgumentError("prox tolerance delta must be positive")
    if not obj.feasible_set.contains(x, MEMBERSHIP_TOL):
        raise PreconditionError("prox query point must be feasible")
    return _solve(obj, x, _ProxConstants(obj, delta), counter)


def _solve(obj, x, consts, counter, at_x=None):
    """Body of :func:`solve_prox_subproblem` for a trusted feasible ``x``.

    ``consts`` holds the step, threshold, ``lam`` and iteration cap, built by
    ``_ProxConstants(obj, delta)`` for a ``delta > 0``.  A given ``at_x`` must
    be the oracle's ``(value, gradient)`` at exactly ``x``; the solve uses it
    instead of querying the oracle at ``x`` again.
    """
    project = obj.feasible_set._project
    lam, step, threshold = consts.lam, consts.step, consts.threshold

    # ``y`` is never written in place, so it starts as ``x`` itself.  While it
    # is, ``(y - x) / lam`` is exactly +0.0 (``x`` is finite), so the first
    # iteration, where most warm-started solves stop, adds the scalar instead.
    y = x
    f_y, grad_f = evaluate(obj, x, counter) if at_x is None else at_x
    for k in range(consts.cap):
        grad_subproblem = grad_f + ((y - x) / lam if k else 0.0)
        y_next = project(y - step * grad_subproblem)
        d = y - y_next
        # numpy's own formula for the 2-norm of a 1-D vector, without its wrapper.
        sq = d.dot(d)
        # A step that lands bit for bit where it started has the oracle's
        # answer already: keep it, and the zero mapping norm ends the solve.
        # Comparing bytes keeps a +-0.0 flip or an underflowed ``sq`` on the
        # query path; a NaN ``sq`` reaches ``evaluate``'s finite-point check.
        if sq != 0.0 or y_next.tobytes() != y.tobytes():
            # Every other iterate is queried once: its gradient drives the next
            # step or, at exit, is handed back as ``grad_at_y`` for reuse.
            f_y, grad_f = evaluate(obj, y_next, counter)
        mapping_norm = math.sqrt(sq) / step
        if mapping_norm <= threshold:
            # The envelope needs x - y_next (negating it changes no bit of its
            # squared norm); at k = 0, y is x, so d already is it.
            if k:
                d = x - y_next
                sq = d.dot(d)
            # Fields in order: y, envelope_value, envelope_gradient,
            # inner_iterations, certified_delta, f_at_y, grad_at_y.
            return ProxResult(
                y_next, f_y + float(sq) / (2.0 * lam), d / lam,
                k + 1, (9.0 / (2.0 * obj.smoothness_L)) * mapping_norm**2, f_y, grad_f)
        y = y_next
    raise NumericalFailureError(
        f"prox subproblem did not reach tolerance {consts.delta:g} "
        f"within {consts.cap} iterations",
        last_iterate=y,
        diagnostics={"cap": consts.cap, "delta": consts.delta, "threshold": threshold},
    )


# -- property checks -----------------------------------------------------------


def check_prox_conditioning(obj, samples):
    """Verify the strong-convexity/smoothness bracket of the prox subproblem.

    For feasible secant pairs (u, v), the subproblem gradient satisfies
    ``L ||u-v||^2 <= <grad F(u) - grad F(v), u - v> <= 3 L ||u-v||^2``
    whenever the declared L really bounds the objective's curvature.  The
    bracket is independent of the prox center, which cancels in differences.
    Each end gets relative slack ``rtol``; the report's ``tolerance`` is the
    absolute slack at the upper end, ``3 L rtol``.
    """
    L = obj.smoothness_L
    lam = default_lambda(obj)
    lo, hi = np.inf, -np.inf
    count = 0
    for u, v in zip(*sample_pairs(obj.feasible_set, samples)):
        sep2 = float(np.dot(u - v, u - v))
        if sep2 < 1e-18:
            continue
        gu = obj.evaluator(u)[1] + u / lam
        gv = obj.evaluator(v)[1] + v / lam
        ratio = float(np.dot(gu - gv, u - v)) / sep2
        lo, hi = min(lo, ratio), max(hi, ratio)
        count += 1
    rtol = 1e-8
    passed = lo >= L * (1.0 - rtol) and hi <= 3.0 * L * (1.0 + rtol)
    return {
        "min_ratio": lo,
        "max_ratio": hi,
        "lower": L,
        "upper": 3.0 * L,
        "tolerance": 3.0 * L * rtol,
        "passed": bool(passed),
        "samples": count,
    }


def check_moreau_quasar(obj, grid):
    """Measure the worst quasar-convexity violation of the (near-exact) envelope.

    Runs the prox at high accuracy as a stand-in for the exact envelope and
    evaluates ``M(x) + (1/gamma) <grad M(x), x* - x> - M(x*)`` over sampled
    feasible points.
    """
    if obj.center is None:
        raise PreconditionError("check_moreau_quasar requires a known center")
    delta = 1e-12
    counter = OracleCounter()
    m_star = solve_prox_subproblem(obj, obj.center, delta, counter).envelope_value
    pts = sample_feasible(obj.feasible_set, grid)
    worst = -np.inf
    for x in pts:
        res = solve_prox_subproblem(obj, x, delta, counter)
        violation = (
            res.envelope_value
            + float(np.dot(res.envelope_gradient, obj.center - x)) / obj.quasar_gamma
            - m_star
        )
        worst = max(worst, violation)
    return {"max_violation": float(worst), "samples": len(pts), "delta": delta,
            "oracle_calls": counter.calls}


def check_descent_lemma(obj, x):
    """Check the approximate-descent inequality of one inexact prox step.

    With y the delta-prox of x, the envelope must satisfy
    ``M~(y) - M~(x) <= -||grad M~(x)||^2 / (8 L) + delta``.
    """
    delta = 1e-8
    counter = OracleCounter()
    at_x = solve_prox_subproblem(obj, x, delta, counter)
    at_y = solve_prox_subproblem(obj, at_x.y, delta, counter)
    lhs = at_y.envelope_value - at_x.envelope_value
    rhs = -float(np.dot(at_x.envelope_gradient, at_x.envelope_gradient)) / (
        8.0 * obj.smoothness_L
    ) + delta
    return {"lhs": lhs, "rhs": rhs, "slack": lhs - rhs, "passed": bool(lhs <= rhs)}


def check_envelope_smoothness(obj, samples):
    """Measure secant ratios of the near-exact envelope gradient.

    The envelope of the ``1/(2L)`` prox is ``2L``-smooth; ratios must stay
    below ``2 L (1 + rtol)``, and the report's ``tolerance`` is that absolute
    slack, ``2 L rtol``.
    """
    delta = 1e-12
    min_sep = 0.02 * obj.feasible_set.diameter()
    counter = OracleCounter()
    worst = 0.0
    count = 0
    for u, v in zip(*sample_pairs(obj.feasible_set, samples)):
        sep = float(np.linalg.norm(u - v))
        if sep < min_sep:
            continue
        gu = solve_prox_subproblem(obj, u, delta, counter).envelope_gradient
        gv = solve_prox_subproblem(obj, v, delta, counter).envelope_gradient
        worst = max(worst, float(np.linalg.norm(gu - gv)) / sep)
        count += 1
    rtol = 1e-6
    limit = 2.0 * obj.smoothness_L * (1.0 + rtol)
    return {"max_secant_ratio": worst, "limit": limit, "tolerance": 2.0 * obj.smoothness_L * rtol,
            "passed": worst <= limit, "samples": count}


def check_stopping_soundness(obj, samples):
    """Empirical certificate of delta-optimality of the stopping rule.

    Re-solving each subproblem at ``delta/100`` must change the achieved
    subproblem value by at most ``delta``.
    """
    delta = 1e-6
    counter = OracleCounter()
    pts = sample_feasible(obj.feasible_set, samples)
    worst = 0.0
    for x in pts:
        coarse = solve_prox_subproblem(obj, x, delta, counter)
        fine = solve_prox_subproblem(obj, x, delta / 100.0, counter)
        worst = max(worst, abs(coarse.envelope_value - fine.envelope_value))
    return {"max_value_shift": worst, "delta": delta, "passed": worst <= delta,
            "samples": len(pts)}


def check_gradient_error_bound(obj, samples):
    """Check ``||grad M~_delta(x) - grad M~_ref(x)|| <= sqrt(8 L delta)``.

    The reference gradient uses a near-exact prox (``delta = 1e-14``).
    """
    delta = 1e-6
    counter = OracleCounter()
    bound = math.sqrt(8.0 * obj.smoothness_L * delta)
    pts = sample_feasible(obj.feasible_set, samples)
    worst = 0.0
    for x in pts:
        coarse = solve_prox_subproblem(obj, x, delta, counter).envelope_gradient
        ref = solve_prox_subproblem(obj, x, 1e-14, counter).envelope_gradient
        worst = max(worst, float(np.linalg.norm(coarse - ref)))
    return {"max_gradient_error": worst, "bound": bound, "passed": worst <= bound,
            "samples": len(pts)}


def fit_iteration_constant(obj, samples):
    """Report the observed constant C in ``inner_iterations <= C log2(L D^2 / delta)``."""
    deltas = (1e-4, 1e-8, 1e-12)
    D = obj.feasible_set.diameter()
    L = obj.smoothness_L
    counter = OracleCounter()
    worst = 0.0
    for delta in deltas:
        denom = math.log2(max(L * D * D / delta, 4.0))
        for x in sample_feasible(obj.feasible_set, samples):
            res = solve_prox_subproblem(obj, x, delta, counter)
            worst = max(worst, res.inner_iterations / denom)
    return {"fitted_constant": worst, "samples": samples, "deltas": list(deltas)}
