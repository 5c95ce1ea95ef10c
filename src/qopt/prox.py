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
from .objectives import OracleCounter, _query, evaluate, sample_feasible, sample_pairs
from .sets import MEMBERSHIP_TOL, _dot, _norm, as_point


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
    """Everything the prox solve and the line search derive from ``(obj, delta)``.

    The solve's step, stopping threshold and iteration cap; and the line
    search's noise model: a delta-prox envelope value is off by at most
    ``delta``, its directional derivative along a feasible segment by at most
    ``delta2 = sqrt(8 L delta) * D``, so the termination slack is
    ``epsilon_tilde(c)``, and ``loop_cap`` is the halving budget.  Built once
    per accelerated run, or once per public call.  Rejects a ``delta`` that is
    not positive and finite, or so small that ``8 L D^2 / delta`` overflows.
    """

    __slots__ = ("delta", "lam", "step", "threshold", "cap", "delta2", "loop_cap")

    def __init__(self, obj, delta):
        L = obj.smoothness_L
        D = obj.feasible_set.diameter()
        if not 0.0 < delta < math.inf:
            raise InvalidArgumentError("tolerance delta must be positive and finite, "
                                       f"got {delta!r}")
        ratio = 8.0 * L * D * D / delta
        if not ratio < math.inf:
            raise InvalidArgumentError(f"8 L D^2 / delta overflows for delta {delta!r}, "
                                       f"L {L!r} and diameter D {D!r}")
        self.delta = delta
        self.lam = default_lambda(obj)
        self.step = 1.0 / (3.0 * L)
        self.threshold = math.sqrt(2.0 * L * delta) / 3.0
        self.cap = iteration_cap(L, D, delta)
        self.delta2 = math.sqrt(8.0 * L * delta) * D
        self.loop_cap = math.ceil(math.log2(max(ratio, 4.0))) + 2

    def epsilon_tilde(self, c):
        return self.delta2 + (9.0 + 5.0 * c) * self.delta


def solve_prox_subproblem(obj, x, delta, counter):
    """Minimize ``f(y) + ||y - x||^2/(2 lam)`` over the feasible set to accuracy delta.

    ``lam`` is fixed at ``1/(2L)`` (:func:`default_lambda`).  Validates its
    inputs: ``x`` must be a feasible point of the objective's dimension
    (within ``MEMBERSHIP_TOL``), and :class:`_ProxConstants` checks ``delta``.
    Warm starts at ``x`` itself (feasible, within the set diameter of the
    solution).  Raises :class:`NumericalFailureError` carrying the last
    iterate if the iteration cap is exhausted.
    """
    x, consts = _checked(obj, x, delta)
    return _solve(obj, x, consts, counter)


def _checked(obj, x, delta):
    """The public prox inputs validated: ``x`` as a feasible 1-D float64 point,
    and the :class:`_ProxConstants` of ``(obj, delta)``."""
    x = as_point(x, obj.dimension)
    consts = _ProxConstants(obj, delta)
    if not obj.feasible_set.contains(x, MEMBERSHIP_TOL):
        raise PreconditionError("prox query point must be feasible")
    return x, consts


def _solve(obj, x, consts, counter, at_x=None):
    """Body of :func:`solve_prox_subproblem` for a trusted feasible ``x``.

    ``consts`` is the :class:`_ProxConstants` of ``(obj, delta)``; the solve
    reads its step, threshold, ``lam`` and iteration cap.  A given ``at_x`` must
    be the oracle's ``(value, gradient)`` at exactly ``x``; the solve uses it
    instead of querying the oracle at ``x`` again.  Only ``x`` goes through
    :func:`evaluate`; the solve's own iterates go to ``_query``, and a step to
    a non-finite point raises :class:`NumericalFailureError`.
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
        # The squared step norm, summed in an order fixed by the dimension alone.
        sq = _dot(d, d)
        # A step that lands bit for bit where it started has the oracle's
        # answer already: keep it, and the zero mapping norm ends the solve.
        # Comparing bytes keeps a +-0.0 flip or an underflowed ``sq`` on the
        # query path; a NaN ``sq`` differs from 0.0 and reaches the finite test.
        if sq != 0.0 or y_next.tobytes() != y.tobytes():
            # ``y`` is finite, so a finite ``sq`` proves ``y_next`` finite; only
            # a NaN, an infinity or an overflowing square is scanned.
            if not (sq < math.inf or np.isfinite(y_next).all()):
                raise NumericalFailureError(
                    f"prox step on objective '{obj.name}' left the finite points "
                    f"(is its gradient finite?)", last_iterate=y)
            # Every other iterate is queried once: its gradient drives the next
            # step or, at exit, is handed back as ``grad_at_y`` for reuse.
            f_y, grad_f = _query(obj, y_next, counter)
        mapping_norm = math.sqrt(sq) / step
        if mapping_norm <= threshold:
            # The envelope needs x - y_next (negating it changes no bit of its
            # squared norm); at k = 0, y is x, so d already is it.
            if k:
                d = x - y_next
                sq = _dot(d, d)
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
    absolute slack at the upper end, ``3 L rtol``.  A NaN ratio is reported at
    both ends and fails the check.
    """
    L = obj.smoothness_L
    lam = default_lambda(obj)
    evaluator = obj.evaluator
    lo, hi = np.inf, -np.inf
    count = 0
    for u, v in zip(*sample_pairs(obj.feasible_set, samples)):
        d = u - v
        sep2 = float(np.dot(d, d))
        if sep2 < 1e-18:
            continue
        gu = evaluator(u)[1] + u / lam
        gv = evaluator(v)[1] + v / lam
        ratio = float(np.dot(gu - gv, d)) / sep2
        if ratio < lo or ratio != ratio:
            lo = ratio
        if ratio > hi or ratio != ratio:
            hi = ratio
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


# The envelope checks below solve at the points the sets sample, or at a
# solve's own output, so they build the constants of each delta once and call
# the trusted _solve; the public entry points keep validating.


def check_moreau_quasar(obj, grid):
    """Measure the worst quasar-convexity violation of the (near-exact) envelope.

    Runs the prox at high accuracy as a stand-in for the exact envelope and
    evaluates ``M(x) + (1/gamma) <grad M(x), x* - x> - M(x*)`` over sampled
    feasible points.  A NaN violation is reported as the worst.
    """
    if obj.center is None:
        raise PreconditionError("check_moreau_quasar requires a known center")
    delta = 1e-12
    consts = _ProxConstants(obj, delta)
    counter = OracleCounter()
    center, gamma = obj.center, obj.quasar_gamma
    m_star = _solve(obj, center, consts, counter).envelope_value
    pts = sample_feasible(obj.feasible_set, grid)
    worst = -np.inf
    for x in pts:
        res = _solve(obj, x, consts, counter)
        violation = (
            res.envelope_value
            + float(np.dot(res.envelope_gradient, center - x)) / gamma
            - m_star
        )
        if violation > worst or violation != violation:
            worst = violation
    return {"max_violation": float(worst), "samples": len(pts), "delta": delta,
            "oracle_calls": counter.calls}


def check_descent_lemma(obj, x):
    """Check the approximate-descent inequality of one inexact prox step.

    With y the delta-prox of x, the envelope must satisfy
    ``M~(y) - M~(x) <= -||grad M~(x)||^2 / (8 L) + delta``.
    """
    delta = 1e-8
    x, consts = _checked(obj, x, delta)
    counter = OracleCounter()
    at_x = _solve(obj, x, consts, counter)
    # The solve at x ended on the oracle's answer at y.
    at_y = _solve(obj, at_x.y, consts, counter, (at_x.f_at_y, at_x.grad_at_y))
    lhs = at_y.envelope_value - at_x.envelope_value
    rhs = -float(np.dot(at_x.envelope_gradient, at_x.envelope_gradient)) / (
        8.0 * obj.smoothness_L
    ) + delta
    return {"lhs": lhs, "rhs": rhs, "slack": lhs - rhs, "passed": bool(lhs <= rhs)}


def check_envelope_smoothness(obj, samples):
    """Measure secant ratios of the near-exact envelope gradient.

    The envelope of the ``1/(2L)`` prox is ``2L``-smooth; ratios must stay
    below ``2 L (1 + rtol)``, and the report's ``tolerance`` is that absolute
    slack, ``2 L rtol``.  A NaN ratio is reported as the worst.
    """
    consts = _ProxConstants(obj, 1e-12)
    min_sep = 0.02 * obj.feasible_set.diameter()
    counter = OracleCounter()
    worst = 0.0
    count = 0
    for u, v in zip(*sample_pairs(obj.feasible_set, samples)):
        sep = _norm(u - v)
        if sep < min_sep:
            continue
        gu = _solve(obj, u, consts, counter).envelope_gradient
        gv = _solve(obj, v, consts, counter).envelope_gradient
        ratio = _norm(gu - gv) / sep
        if ratio > worst or ratio != ratio:
            worst = ratio
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
    coarse_consts = _ProxConstants(obj, delta)
    fine_consts = _ProxConstants(obj, delta / 100.0)
    counter = OracleCounter()
    pts = sample_feasible(obj.feasible_set, samples)
    worst = 0.0
    for x in pts:
        coarse = _solve(obj, x, coarse_consts, counter)
        fine = _solve(obj, x, fine_consts, counter)
        worst = max(worst, abs(coarse.envelope_value - fine.envelope_value))
    return {"max_value_shift": worst, "delta": delta, "passed": worst <= delta,
            "samples": len(pts)}


def check_gradient_error_bound(obj, samples):
    """Check ``||grad M~_delta(x) - grad M~_ref(x)|| <= sqrt(8 L delta)``.

    The reference gradient uses a near-exact prox (``delta = 1e-14``).
    """
    delta = 1e-6
    coarse_consts = _ProxConstants(obj, delta)
    ref_consts = _ProxConstants(obj, 1e-14)
    counter = OracleCounter()
    bound = math.sqrt(8.0 * obj.smoothness_L * delta)
    pts = sample_feasible(obj.feasible_set, samples)
    worst = 0.0
    for x in pts:
        coarse = _solve(obj, x, coarse_consts, counter).envelope_gradient
        ref = _solve(obj, x, ref_consts, counter).envelope_gradient
        worst = max(worst, _norm(coarse - ref))
    return {"max_gradient_error": worst, "bound": bound, "passed": worst <= bound,
            "samples": len(pts)}


def fit_iteration_constant(obj, samples):
    """Report the observed constant C in ``inner_iterations <= C log2(L D^2 / delta)``."""
    deltas = (1e-4, 1e-8, 1e-12)
    D = obj.feasible_set.diameter()
    L = obj.smoothness_L
    counter = OracleCounter()
    pts = sample_feasible(obj.feasible_set, samples)
    worst = 0.0
    for delta in deltas:
        consts = _ProxConstants(obj, delta)
        denom = math.log2(max(L * D * D / delta, 4.0))
        for x in pts:
            res = _solve(obj, x, consts, counter)
            worst = max(worst, res.inner_iterations / denom)
    return {"fitted_constant": worst, "samples": samples, "deltas": list(deltas)}
