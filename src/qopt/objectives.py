"""First-order oracles, oracle-call accounting, and the test-problem catalogue.

An :class:`Objective` bundles a pure ``x -> (value, gradient)`` evaluator with
its declared smoothness constant ``L``, quasar-convexity constant ``gamma``,
feasible set, and (when known) the constrained minimizer and optimal value.
Numerical certification routines (`check_quasar_convexity`,
`check_smoothness`) validate the declared constants by sampling.

Catalogue entries
-----------------
``quadratic``                isotropic quadratic ``0.5 * ||x - shift||^2``.
``affine_plus_quadratic``    ``<a, x> + 0.5 * q * ||x||^2`` (``q = 0`` gives an
                             affine objective).
``example1``                 the 1-D sixth-root objective
                             ``(x^2 + 1/8)^(1/6)`` on [-5, 5]; quasar convex
                             with ``gamma = 1/2`` around 0 but not convex.
``fig1_counterexample``      ``example1`` plus the quadratic
                             ``(x - x0)^2 / (2 * 50)`` with ``x0`` chosen so the
                             derivative vanishes at ``x = -2``.  The sum has an
                             interior local maximum, so it is not quasar convex
                             on [-5, 5] for any gamma: certification checks on
                             this entry must report a positive violation.
``glm_sigmoid``              sum of squared sigmoid residuals on a tiny
                             realizable synthetic dataset; empirically quasar
                             convex, with gamma measured (not derived).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .errors import InvalidArgumentError, PreconditionError
from .sets import MEMBERSHIP_TOL, Box, FeasibleSet, as_point, set_from_spec


class OracleCounter:
    """Counts first-order oracle queries; one counter per solver run."""

    __slots__ = ("calls",)

    def __init__(self):
        self.calls = 0

    def increment(self, n=1):
        self.calls += n

    def reset(self):
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
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.smoothness_L > 0:
            raise InvalidArgumentError("smoothness_L must be positive")
        if not 0.0 < self.quasar_gamma <= 1.0:
            raise InvalidArgumentError("quasar_gamma must lie in (0, 1]")
        if self.center is not None:
            self.center = as_point(self.center, self.feasible_set.dimension)
            if not self.feasible_set.contains(self.center, MEMBERSHIP_TOL):
                raise InvalidArgumentError("declared center is not in the feasible set")

    @property
    def dimension(self):
        return self.feasible_set.dimension


def evaluate(obj, x, counter):
    """Query the oracle: return ``(f(x), grad f(x))`` and count one call."""
    x = as_point(x, obj.dimension)
    if not np.isfinite(x).all():
        raise InvalidArgumentError("oracle query point must be finite")
    value, grad = obj.evaluator(x)
    counter.increment()
    return float(value), np.asarray(grad, dtype=float)


def finite_diff_gradient(obj, x, h):
    """Central-difference gradient, the independent oracle for gradient checks.

    Uses value queries only and does not touch any counter.
    """
    if not h > 0:
        raise InvalidArgumentError("finite-difference step h must be positive")
    x = as_point(x, obj.dimension)
    out = np.empty(obj.dimension)
    for i in range(obj.dimension):
        e = np.zeros(obj.dimension)
        e[i] = h
        out[i] = (obj.evaluator(x + e)[0] - obj.evaluator(x - e)[0]) / (2.0 * h)
    return out


def sample_feasible(set_, n, seed=0):
    """Sample check points: a deterministic grid in 1-D boxes, seeded uniform draws otherwise."""
    if isinstance(set_, Box) and set_.dimension == 1:
        return set_.grid(n)
    rng = np.random.default_rng(seed)
    return set_.sample(rng, n)


def check_quasar_convexity(obj, samples, gamma=None, seed=0):
    """Measure the worst quasar-convexity violation on sampled feasible points.

    The violation at ``x`` is ``f(x) + (1/gamma) * <grad f(x), x* - x> - f(x*)``;
    nonpositive values certify the inequality on the sample.
    """
    if obj.center is None:
        raise PreconditionError("check_quasar_convexity requires a known center")
    gamma = obj.quasar_gamma if gamma is None else gamma
    fstar = obj.evaluator(obj.center)[0]
    pts = sample_feasible(obj.feasible_set, samples, seed)
    worst = -np.inf
    argmax = pts[0]
    for x in pts:
        fx, gx = obj.evaluator(x)
        violation = fx + float(np.dot(gx, obj.center - x)) / gamma - fstar
        if violation > worst:
            worst, argmax = violation, x
    return {"max_violation": float(worst), "argmax": np.asarray(argmax), "samples": len(pts)}


def check_smoothness(obj, samples, seed=0):
    """Measure the largest gradient secant ratio over sampled feasible pairs.

    The ratio must not exceed ``obj.smoothness_L * (1 + 1e-6)`` for the
    declared constant to be considered valid.
    """
    if samples < 2:
        raise InvalidArgumentError("check_smoothness needs at least two samples")
    set_ = obj.feasible_set
    if isinstance(set_, Box) and set_.dimension == 1:
        pts = set_.grid(samples)
        pairs = zip(pts[:-1], pts[1:])
    else:
        rng = np.random.default_rng(seed)
        pairs = zip(set_.sample(rng, samples), set_.sample(rng, samples))
    worst = 0.0
    count = 0
    for u, v in pairs:
        sep = float(np.linalg.norm(u - v))
        if sep < 1e-12:
            continue
        gu = obj.evaluator(u)[1]
        gv = obj.evaluator(v)[1]
        worst = max(worst, float(np.linalg.norm(gu - gv)) / sep)
        count += 1
    limit = obj.smoothness_L * (1.0 + 1e-6)
    return {"max_secant_ratio": worst, "limit": limit, "passed": worst <= limit, "samples": count}


# -- catalogue ---------------------------------------------------------------

CATALOGUE_NAMES = (
    "quadratic",
    "affine_plus_quadratic",
    "example1",
    "fig1_counterexample",
    "glm_sigmoid",
)

# Declared constants for the nonquadratic entries, frozen from dense scans of
# the exact second derivatives (scan maxima 1.88562, 1.90562, 0.45514).
EXAMPLE1_L = 1.8857
FIG1_L = 1.9057
GLM_L = 0.46
# Measured over a 161x161 grid of the box: the worst sampled quasar ratio is
# about 0.638; 0.55 leaves margin for off-grid points.
GLM_GAMMA = 0.55

GLM_DATA_X = np.array([[1.0, 0.5], [-0.5, 1.0], [1.0, -1.0], [0.5, 0.0]])
GLM_TRUE_W = np.array([1.0, -0.5])


def _sixth_root_value_grad(v):
    u = v * v + 0.125
    return u ** (1.0 / 6.0), (v / 3.0) * u ** (-5.0 / 6.0)


def _example1_evaluator(x):
    value, grad = _sixth_root_value_grad(float(x[0]))
    return value, np.array([grad])


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _resolve_set(params, default):
    spec = params.get("set")
    if spec is None:
        return default
    if isinstance(spec, FeasibleSet):
        return spec
    return set_from_spec(spec)


def _check_param_keys(name, params, allowed):
    extra = set(params) - set(allowed)
    if extra:
        raise InvalidArgumentError(f"objective '{name}' got unknown params {sorted(extra)}")


def make_catalogue_objective(name, params=None):
    """Build a fully populated catalogue objective by name."""
    params = dict(params or {})

    if name == "quadratic":
        _check_param_keys(name, params, ("dim", "set", "shift"))
        dim = int(params.get("dim", 2))
        set_ = _resolve_set(params, Box([-1.0] * dim, [1.0] * dim))
        dim = set_.dimension
        shift = as_point(params.get("shift", np.zeros(dim)), dim)

        def evaluator(x, _b=shift):
            d = x - _b
            return 0.5 * float(np.dot(d, d)), d

        center = set_.project(shift)
        return Objective(
            name="quadratic",
            evaluator=evaluator,
            smoothness_L=1.0,
            quasar_gamma=1.0,
            feasible_set=set_,
            center=center,
            optimal_value=evaluator(center)[0],
            params={"dim": dim, "shift": shift.tolist()},
        )

    if name == "affine_plus_quadratic":
        _check_param_keys(name, params, ("dim", "set", "a", "q"))
        dim = int(params.get("dim", 2))
        set_ = _resolve_set(params, Box([-1.0] * dim, [1.0] * dim))
        dim = set_.dimension
        a = as_point(params.get("a", np.ones(dim)), dim)
        q = float(params.get("q", 1.0))
        if q < 0:
            raise InvalidArgumentError("quadratic coefficient q must be nonnegative")

        def evaluator(x, _a=a, _q=q):
            return float(np.dot(_a, x)) + 0.5 * _q * float(np.dot(x, x)), _a + _q * x

        # The constrained minimizer is the projection of the unconstrained one
        # when q > 0; for a pure affine objective it is an LMO vertex.
        center = set_.project(-a / q) if q > 0 else set_.lmo(a)
        return Objective(
            name="affine_plus_quadratic",
            evaluator=evaluator,
            smoothness_L=q if q > 0 else 1.0,
            quasar_gamma=1.0,
            feasible_set=set_,
            center=center,
            optimal_value=evaluator(center)[0],
            params={"dim": dim, "a": a.tolist(), "q": q},
        )

    if name == "example1":
        _check_param_keys(name, params, ())
        set_ = Box([-5.0], [5.0])
        return Objective(
            name="example1",
            evaluator=_example1_evaluator,
            smoothness_L=EXAMPLE1_L,
            quasar_gamma=0.5,
            feasible_set=set_,
            center=np.array([0.0]),
            optimal_value=0.125 ** (1.0 / 6.0),
            params={},
        )

    if name == "fig1_counterexample":
        _check_param_keys(name, params, ())
        set_ = Box([-5.0], [5.0])
        reg_lambda = 50.0
        # Shift chosen so the regularized objective is stationary at x = -2,
        # where the base objective is concave enough to create a local maximum.
        slope_at_minus2 = _sixth_root_value_grad(-2.0)[1]
        x0_reg = -2.0 + reg_lambda * slope_at_minus2

        def evaluator(x, _x0=x0_reg, _lam=reg_lambda):
            v = float(x[0])
            value, grad = _sixth_root_value_grad(v)
            value += (v - _x0) ** 2 / (2.0 * _lam)
            grad += (v - _x0) / _lam
            return value, np.array([grad])

        def slope(v):
            return evaluator(np.array([v]))[1][0]

        # Interior global minimizer; the bracket is fixed by the known sign
        # change of the derivative on [-0.5, 0].
        center = np.array([brentq(slope, -0.5, 0.0, xtol=1e-14)])
        return Objective(
            name="fig1_counterexample",
            evaluator=evaluator,
            smoothness_L=FIG1_L,
            quasar_gamma=0.5,  # nominal; this entry must fail certification
            feasible_set=set_,
            center=center,
            optimal_value=evaluator(center)[0],
            params={"reg_lambda": reg_lambda, "x0": float(x0_reg)},
        )

    if name == "glm_sigmoid":
        _check_param_keys(name, params, ())
        set_ = Box([-2.0, -2.0], [2.0, 2.0])
        targets = _sigmoid(GLM_DATA_X @ GLM_TRUE_W)

        def evaluator(w, _X=GLM_DATA_X, _y=targets):
            s = _sigmoid(_X @ w)
            r = s - _y
            return float(np.dot(r, r)), (2.0 * r * s * (1.0 - s)) @ _X

        return Objective(
            name="glm_sigmoid",
            evaluator=evaluator,
            smoothness_L=GLM_L,
            quasar_gamma=GLM_GAMMA,
            feasible_set=set_,
            center=GLM_TRUE_W.copy(),
            optimal_value=0.0,
            params={"n_points": len(GLM_DATA_X)},
        )

    raise InvalidArgumentError(
        f"unknown catalogue objective '{name}'; expected one of {CATALOGUE_NAMES}"
    )
