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

Every public entry that takes ``delta`` checks it with
:func:`qopt.sets.is_positive_finite`, in :class:`_ProxConstants`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .objectives import _query, evaluate
# perfbench/tracing.py counts as_point calls under this module's name too.
from .sets import _dot, as_point, is_positive_finite  # noqa: F401


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
    not a positive finite number, or so small that ``8 L D^2 / delta`` overflows.
    """

    __slots__ = ("delta", "lam", "step", "threshold", "cap", "delta2", "loop_cap")

    def __init__(self, obj, delta):
        if not is_positive_finite(delta):
            raise InvalidArgumentError("tolerance delta must be a positive finite number")
        L = obj.smoothness_L
        D = obj.feasible_set.diameter()
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
    inputs before any oracle call: ``x`` passes
    :meth:`FeasibleSet.checked_point`, and :class:`_ProxConstants` checks
    ``delta``.  Warm starts at ``x`` itself (feasible, within the set diameter
    of the solution).  Raises :class:`NumericalFailureError` carrying the last
    iterate if the iteration cap is exhausted.
    """
    x = obj.feasible_set.checked_point(x, "prox query point")
    return _solve(obj, x, _ProxConstants(obj, delta), counter)


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
