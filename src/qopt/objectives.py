"""First-order oracles, oracle-call accounting, and the test-problem catalogue.

An :class:`Objective` bundles a pure ``x -> (value, gradient)`` evaluator with
its declared smoothness constant ``L``, quasar-convexity constant ``gamma``,
feasible set, and (when known) the constrained minimizer and optimal value.
The registered checks of :mod:`qopt.checks` certify the declared constants by
sampling.

``CATALOGUE`` maps each test-problem name to its :class:`CatalogueEntry`; the
docstring of each builder defines its objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .sets import (Box, FeasibleSet, _dot, _is_finite_point, as_point, is_int, is_positive_finite,
                   is_quasar_gamma, set_from_spec)


class OracleCounter:
    """Counts first-order oracle queries; one counter per solver run."""

    __slots__ = ("calls",)

    def __init__(self):
        self.calls = 0

    def __repr__(self):
        return f"OracleCounter(calls={self.calls})"


@dataclass(eq=False)
class Objective:
    """First-order oracle tagged with its declared constants.

    ``smoothness_L`` and ``quasar_gamma`` are declarations to be certified by
    sampling, not guarantees.  ``center`` is a known constrained minimizer
    (when available) and ``optimal_value`` its objective value.
    """

    name: str
    evaluator: Callable[[np.ndarray], tuple]
    smoothness_L: float
    quasar_gamma: float
    feasible_set: FeasibleSet
    center: Optional[np.ndarray] = None
    optimal_value: Optional[float] = None

    def __post_init__(self):
        if not is_positive_finite(self.smoothness_L):
            raise InvalidArgumentError("smoothness_L must be a positive finite number")
        if not is_quasar_gamma(self.quasar_gamma):
            raise InvalidArgumentError("quasar_gamma must be a real number in (0, 1]")
        if self.center is not None:
            self.center = as_point(self.center, self.feasible_set.dimension)
            if not self.feasible_set.contains(self.center):
                raise InvalidArgumentError("declared center is not in the feasible set")

    @property
    def dimension(self):
        return self.feasible_set.dimension


def evaluate(obj, x, counter):
    """Query the oracle: return ``(f(x), grad f(x))`` and count one call.

    ``x`` must be a finite point of the objective's dimension.  A non-finite
    value is a :class:`NumericalFailureError` naming the objective; the
    gradient is not scanned, so the check costs one scalar test.  A gradient
    that is not a vector of the objective's dimension is an
    :class:`InvalidArgumentError`.  The solvers send their first query here
    and later ones to the unchecked ``_query``.

    The gradient may be ``x`` itself, as the zero-shift ``quadratic`` returns
    it: a caller that writes to ``x`` afterwards must copy the gradient first.
    No solver or check in this package writes a queried point or a returned
    gradient.
    """
    x = as_point(x, obj.dimension)
    if not _is_finite_point(x):
        raise InvalidArgumentError("oracle query point must be finite")
    value, grad = _query(obj, x, counter)
    if grad.shape != (obj.dimension,):
        raise InvalidArgumentError(
            f"gradient of objective '{obj.name}' has shape {grad.shape}, "
            f"expected ({obj.dimension},)")
    return value, grad


def _query(obj, x, counter):
    """Body of :func:`evaluate` for a trusted point: a finite 1-D float64
    array of the objective's dimension."""
    value, grad = obj.evaluator(x)
    counter.calls += 1
    value = float(value)
    if not math.isfinite(value):
        raise NumericalFailureError(
            f"oracle of objective '{obj.name}' returned the non-finite value {value}")
    return value, np.asarray(grad, dtype=float)


def finite_diff_gradient(obj, x, h):
    """Central-difference gradient, the independent oracle for gradient checks.

    Uses value queries only and does not touch any counter.
    """
    if not is_positive_finite(h):
        raise InvalidArgumentError("finite-difference step h must be a positive finite number")
    x = as_point(x, obj.dimension)
    out = np.empty(obj.dimension)
    for i in range(obj.dimension):
        e = np.zeros(obj.dimension)
        e[i] = h
        out[i] = (obj.evaluator(x + e)[0] - obj.evaluator(x - e)[0]) / (2.0 * h)
    return out


# -- catalogue ---------------------------------------------------------------

# Declared constants for the nonquadratic entries, frozen from dense scans of
# the exact second derivatives (scan maxima 1.88562, 1.90562, 0.45514).
EXAMPLE1_L = 1.8857
FIG1_L = 1.9057
GLM_L = 0.46
# Interior global minimizer of ``fig1_counterexample`` (-0x1.2b7f416b5bf58p-3),
# frozen from ``scipy.optimize.brentq(slope, -0.5, 0.0, xtol=1e-14)``, where
# ``slope(v)`` is the entry's derivative at ``v``; it changes sign once on
# [-0.5, 0].  The tests re-derive the root when scipy is installed.
FIG1_CENTER = -0.14623881443867037
# Measured over a 161x161 grid of the box: the worst sampled quasar ratio is
# about 0.638; 0.55 leaves margin for off-grid points.
GLM_GAMMA = 0.55

GLM_DATA_X = np.array([[1.0, 0.5], [-0.5, 1.0], [1.0, -1.0], [0.5, 0.0]])
GLM_TRUE_W = np.array([1.0, -0.5])


def _sixth_root_value_grad(v):
    u = v * v + 0.125
    return u ** (1.0 / 6.0), (v / 3.0) * u ** (-5.0 / 6.0)


#: ``fig1_counterexample``'s regularizer ``(x - FIG1_X0)^2 / (2 FIG1_LAMBDA)``: its centre
#: makes the sum stationary at x = -2, where ``example1`` is concave enough for a local maximum.
FIG1_LAMBDA = 50.0
FIG1_X0 = -2.0 + FIG1_LAMBDA * _sixth_root_value_grad(-2.0)[1]


def _example1_evaluator(x):
    value, grad = _sixth_root_value_grad(float(x[0]))
    return value, np.array([grad])


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _resolve_set(name, params):
    """The set of an entry with ``dim`` and ``set`` params: the given set, or
    the box ``[-1, 1]^dim``.  A ``dim`` that contradicts the given set is an error."""
    dim = params.get("dim", 2)
    if not is_int(dim):
        raise InvalidArgumentError(f"objective '{name}' param dim must be an integer, got {dim!r}")
    spec = params.get("set")
    if spec is None:
        return Box([-1.0] * dim, [1.0] * dim)
    set_ = spec if isinstance(spec, FeasibleSet) else set_from_spec(spec)
    if "dim" in params and dim != set_.dimension:
        raise InvalidArgumentError(f"objective '{name}' param dim {dim} contradicts the "
                                   f"dimension {set_.dimension} of its set")
    return set_


def _quadratic(name, params):
    """Isotropic quadratic ``0.5 * ||x - shift||^2``; with a zero shift the
    gradient is the query array itself."""
    set_ = _resolve_set(name, params)
    dim = set_.dimension
    shift = as_point(params.get("shift", np.zeros(dim)), dim)
    if shift.view(np.int64).any():
        def evaluator(x, _b=shift):
            d = x - _b
            return 0.5 * float(_dot(d, d)), d
    else:
        # Every shift entry has the bits of +0.0, and x - (+0.0) has the
        # bits of x, -0.0 included (a -0.0 shift entry keeps the
        # subtraction: -0.0 - (-0.0) is +0.0).  So the gradient is the
        # query point itself, which no solver writes.  It is not a
        # read-only view: numpy's argmin copies a non-writeable array.
        def evaluator(x):
            return 0.5 * float(_dot(x, x)), x

    center = set_.project(shift)
    return Objective(name, evaluator, smoothness_L=1.0, quasar_gamma=1.0, feasible_set=set_,
                     center=center, optimal_value=evaluator(center)[0])


def _affine_plus_quadratic(name, params):
    """``<a, x> + 0.5 * q * ||x||^2`` (``q = 0`` gives an affine objective)."""
    set_ = _resolve_set(name, params)
    dim = set_.dimension
    a = as_point(params.get("a", np.ones(dim)), dim)
    q = float(params.get("q", 1.0))
    if q < 0:
        raise InvalidArgumentError("quadratic coefficient q must be nonnegative")

    def evaluator(x, _a=a, _q=q):
        return float(_dot(_a, x)) + 0.5 * _q * float(_dot(x, x)), _a + _q * x

    # The constrained minimizer is the projection of the unconstrained one
    # when q > 0; for a pure affine objective it is an LMO vertex.
    center = set_.project(-a / q) if q > 0 else set_.lmo(a)
    return Objective(name, evaluator, smoothness_L=q if q > 0 else 1.0, quasar_gamma=1.0,
                     feasible_set=set_, center=center, optimal_value=evaluator(center)[0])


def _example1(name, params):
    """The 1-D sixth-root objective ``(x^2 + 1/8)^(1/6)`` on [-5, 5]; quasar
    convex with ``gamma = 1/2`` around 0 but not convex."""
    return Objective(name, _example1_evaluator, smoothness_L=EXAMPLE1_L, quasar_gamma=0.5,
                     feasible_set=Box([-5.0], [5.0]), center=np.array([0.0]),
                     optimal_value=0.125 ** (1.0 / 6.0))


def _fig1_counterexample(name, params):
    """``example1`` plus ``(x - x0)^2 / (2 * 50)`` with ``x0 = FIG1_X0`` chosen
    so the derivative vanishes at ``x = -2``.  The sum has an interior local
    maximum, so it is not quasar convex on [-5, 5] for any gamma:
    certification checks on this entry must report a positive violation."""

    def evaluator(x, _x0=FIG1_X0, _lam=FIG1_LAMBDA):
        v = float(x[0])
        value, grad = _sixth_root_value_grad(v)
        value += (v - _x0) ** 2 / (2.0 * _lam)
        grad += (v - _x0) / _lam
        return value, np.array([grad])

    center = np.array([FIG1_CENTER])
    return Objective(name, evaluator, smoothness_L=FIG1_L,
                     quasar_gamma=0.5,  # nominal; this entry must fail certification
                     feasible_set=Box([-5.0], [5.0]), center=center,
                     optimal_value=evaluator(center)[0])


def _glm_sigmoid(name, params):
    """Sum of squared sigmoid residuals on a tiny realizable synthetic dataset;
    empirically quasar convex, with gamma measured (not derived)."""
    targets = _sigmoid(GLM_DATA_X @ GLM_TRUE_W)

    def evaluator(w, _X=GLM_DATA_X, _y=targets):
        s = _sigmoid(_X @ w)
        r = s - _y
        return float(np.dot(r, r)), (2.0 * r * s * (1.0 - s)) @ _X

    return Objective(name, evaluator, smoothness_L=GLM_L, quasar_gamma=GLM_GAMMA,
                     feasible_set=Box([-2.0, -2.0], [2.0, 2.0]), center=GLM_TRUE_W.copy(),
                     optimal_value=0.0)


class CatalogueEntry(NamedTuple):
    """One catalogue objective: ``build(name, params)`` returns it, ``params``
    names the params it accepts, ``checks`` maps each family of
    :func:`qopt.checks._check_table` it joins to its rows' extra arguments, and
    ``instances`` maps each solver run the checks audit to ``(params, x0, checks)``."""

    build: Callable
    params: tuple
    checks: dict
    instances: dict = {}


#: The catalogue in report order.  Adding an instance is adding its entry:
#: its name, its param checks and its rows in ``qopt verify`` derive from it.
CATALOGUE = {
    "quadratic": CatalogueEntry(
        _quadratic, ("dim", "set", "shift"),
        {"quasar_certificate": (), "smoothness": (), "prox": (), "moreau_quasar": (1e-8,),
         "prox_descent": (), "pgd_mapping": ()},
        {"quadratic_box": ({}, [1.0, 1.0],
                           {"linesearch_certificate": (), "accelerated_gap": (1e-3,)}),
         "quadratic_simplex": ({"set": {"kind": "simplex", "dimension": 3}}, "vertex",
                               {"rate_envelope": ()})}),
    "affine_plus_quadratic": CatalogueEntry(
        _affine_plus_quadratic, ("dim", "set", "a", "q"),
        {"quasar_certificate": (), "smoothness": (), "prox_descent": ()}),
    "example1": CatalogueEntry(
        _example1, (),
        {"quasar_certificate": (), "smoothness": (), "prox": (), "moreau_quasar": (1e-6,),
         "prox_descent": (), "pgd_mapping": ()},
        {"example1": ({}, [5.0], {"linesearch_certificate": (), "rate_envelope": (),
                                  "accelerated_gap": (1e-4,)})}),
    "fig1_counterexample": CatalogueEntry(
        _fig1_counterexample, (),
        {"quasar_counterexample": (), "smoothness": (), "prox_descent": ()}),
    "glm_sigmoid": CatalogueEntry(
        _glm_sigmoid, (),
        {"quasar_certificate": (), "smoothness": (), "prox_descent": (), "pgd_mapping": ()}),
}
CATALOGUE_NAMES = tuple(CATALOGUE)


def _has_non_finite(value):
    """Whether a numeric param holds a NaN or an infinity; a value that is no
    number or array of numbers is left to the entry's builder."""
    try:
        return not np.isfinite(np.asarray(value, dtype=float)).all()
    except (TypeError, ValueError, OverflowError):
        return False


def make_catalogue_objective(name, params=None):
    """Build a fully populated catalogue objective by name."""
    entry = CATALOGUE.get(name) if isinstance(name, str) else None
    if entry is None:
        raise InvalidArgumentError(
            f"unknown catalogue objective '{name}'; expected one of {CATALOGUE_NAMES}")
    params = dict(params or {})
    extra = set(params) - set(entry.params)
    if extra:
        raise InvalidArgumentError(f"objective '{name}' got unknown params {sorted(extra)}")
    for key, value in params.items():
        if _has_non_finite(value):
            raise InvalidArgumentError(f"objective '{name}' param {key} must be finite")
    return entry.build(name, params)
