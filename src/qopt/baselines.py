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

from .accel import MAX_ITERATIONS
from .errors import InvalidArgumentError, NumericalFailureError
from .objectives import _query, evaluate
# perfbench/tracing.py counts as_point calls under this module's name too.
from .sets import _is_finite_point, as_point, is_int, is_positive_finite  # noqa: F401
from .trace import TraceRecorder

#: The rate-envelope constant of each baseline (see the module docstring).
RATE_CONSTANTS = {"pgd": 20.0, "frank_wolfe": 6.0}


def _checked_start(obj, x0, T):
    """``x0`` as :meth:`FeasibleSet.checked_point` returns it, once ``T`` is shown an
    integer from 0 to ``MAX_ITERATIONS``: a baseline's gate, before any oracle call."""
    if not (is_int(T) and 0 <= T <= MAX_ITERATIONS):
        raise InvalidArgumentError(f"T must be an integer from 0 to {MAX_ITERATIONS}, got {T!r}")
    return obj.feasible_set.checked_point(x0, "x0")


def gradient_mapping(obj, x, eta, counter):
    """Constrained gradient surrogate ``(x - proj(x - eta grad f(x))) / eta``."""
    if not is_positive_finite(eta):
        raise InvalidArgumentError("step size eta must be a positive finite number")
    x = obj.feasible_set.checked_point(x, "x")
    _, grad = evaluate(obj, x, counter)
    return (x - obj.feasible_set.project(x - eta * grad)) / eta


def run_pgd(obj, x0, T, counter):
    """T steps of ``x <- proj(x - grad f(x) / L)``; records f at every iterate.

    A step that lands bit for bit where it started would repeat forever: the
    oracle and the projection are pure.  The run then stops querying and
    fills rows ``t+1 .. T`` with that row's values and call count.

    Only ``x0`` goes through :func:`evaluate`; later iterates go to ``_query``
    once shown finite.  A box clip or a ball projection can turn a NaN step
    into a NaN point, which raises :class:`NumericalFailureError`.
    """
    x = _checked_start(obj, x0, T)
    set_ = obj.feasible_set
    eta = 1.0 / obj.smoothness_L
    with TraceRecorder("pgd", obj, {"T": T, "eta": eta}, x, counter) as rec:
        f, grad = evaluate(obj, x, counter)
        for t in range(T):
            rec.record(f)
            # x - eta * grad is a fresh float64 array of the set's dimension.
            x_next = set_._project(x - eta * grad)
            # Bits, not ==: a sign flip of a zero or a sub-ulp move still queries.
            if np.array_equal(x_next.view(np.int64), x.view(np.int64)):
                rec.fill(T)
                return rec.trace(x_next)
            if not _is_finite_point(x_next):
                raise NumericalFailureError(
                    f"PGD step on objective '{obj.name}' left the finite points "
                    f"(is its gradient finite?)", last_iterate=x)
            x = x_next
            f, grad = _query(obj, x, counter)
        rec.record(f)
    # With no step taken, x is still the caller's x0: the solution is a copy.
    return rec.trace(x if T > 0 else x.copy())


def run_frank_wolfe(obj, x0, T, counter, observer=None):
    """T Frank-Wolfe steps with the open-loop schedule ``x <- t/(t+2) x + 2/(t+2) v``.

    Each step builds the next iterate as a new array, and no array handed to
    the oracle or returned by it is written again.  A given ``observer`` is
    called as ``observer(t, x, grad)`` right after the oracle query of each
    trace row, t = 0..T, and may keep ``x`` and ``grad`` without copying them;
    it must not write them.  ``grad`` may be ``x`` itself (the zero-shift
    ``quadratic`` returns its query point), and ``x`` at t = 0 may be the
    caller's ``x0``.

    Only ``x0`` is validated, and only its query goes through
    :func:`evaluate`.  Each step mixes the iterate with a vertex, and every
    vertex is finite: a simplex or box vertex always is, and the ball LMO
    raises :class:`NumericalFailureError` on a non-finite gradient.  So the
    loop queries its later iterates through the trusted ``_query``.
    """
    x = _checked_start(obj, x0, T)
    set_ = obj.feasible_set
    with TraceRecorder("frank_wolfe", obj, {"T": T}, x, counter) as rec:
        f, grad = evaluate(obj, x, counter)
        for t in range(T + 1):
            rec.record(f)
            if observer is not None:
                observer(t, x, grad)
            if t < T:
                x = set_._step_toward_vertex(x, grad, t / (t + 2), 2.0 / (t + 2))
                f, grad = _query(obj, x, counter)
    # With no step taken, x is still the caller's x0: the solution is a copy.
    return rec.trace(x if T > 0 else x.copy())


def attach_rate_bounds(trace, L, gamma, D):
    """Fill the bound column of a baseline trace with its rate envelope.

    This is the only place gamma is consumed for the baselines; the solvers
    themselves are gamma-free.
    """
    algorithm = trace.header.get("algorithm")
    if algorithm not in RATE_CONSTANTS:
        raise InvalidArgumentError(f"no rate envelope for algorithm '{algorithm}'")
    constant = RATE_CONSTANTS[algorithm]
    iteration = np.asarray(trace.iteration, dtype=np.int64)
    # One array expression, in the scalar form's order: every bit matches.
    bound = (constant * L * D * D / ((iteration + 1) * gamma * gamma)).tolist()
    for i in np.flatnonzero(iteration < 1).tolist():
        bound[i] = trace.bound[i]
    trace.bound = bound
    trace.header.setdefault("params", {})["bound_constants"] = {
        "L": L, "gamma": gamma, "D": D, "constant": constant,
    }
    return trace
