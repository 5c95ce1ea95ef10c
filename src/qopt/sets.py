"""Compact convex feasible sets and the two oracles every solver needs.

Each set supports Euclidean projection, linear minimization (LMO), exact
diameter, membership testing, and in-set sampling.  Instances are immutable
after construction and safe to share across concurrent runs; all operations
are pure.

:func:`is_positive_finite` is the one test of every positive scalar a caller
passes the package, here a ball's radius and a simplex's scale, and
:func:`is_quasar_gamma` the one test of a gamma in ``(0, 1]``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError, PreconditionError

#: The one membership tolerance: :meth:`FeasibleSet.contains` holds every
#: caller's point a public entry takes (:meth:`FeasibleSet.checked_point`)
#: and every objective center to it, and a simplex projection's sum must
#: meet ``scale`` within ``MEMBERSHIP_TOL * scale``.
MEMBERSHIP_TOL = 1e-10
#: Longest vector :func:`_dot` hands to one BLAS call.  The OpenBLAS bundled
#: with numpy splits a dot product across threads above 10,000 entries, and
#: the split changes the summation order with the thread count.
DOT_CHUNK = 10_000
#: numpy's C ``vdot``: for 1-D float64 arrays with nonnegative strides,
#: ``u.dot(v)`` bit for bit.  The C implementation does not check the FP
#: status flags, so the overflow of a finite sum of squares gives ``inf``
#: without a RuntimeWarning; ``__wrapped__`` only skips the overhead of the
#: ``np.vdot`` dispatch wrapper.  Both are numpy internals, not API:
#: ``TestDot`` in ``tests/test_sets.py`` fails on a numpy that changes either.
_vdot = np.vdot.__wrapped__


def is_int(value):
    """True for a Python or numpy integer; a bool or an integral float is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(value):
    """``float(value)`` for a real number that is not a bool, else NaN; an
    integer too large for a float is an infinity of its sign."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def is_positive_finite(value):
    """True for a real number, not a bool, in ``(0, inf)`` as a float; an integer
    too large for a float is not finite.  It only tests: the caller keeps ``value``."""
    return 0.0 < _real(value) < math.inf


def is_quasar_gamma(value):
    """True for a real number, not a bool, in ``(0, 1]`` as a float: a
    quasar-convexity constant gamma.  It only tests, as :func:`is_positive_finite`."""
    return 0.0 < _real(value) <= 1.0


def _dot(u, v):
    """``u.dot(v)`` for 1-D float64 arrays, in an order fixed by the length alone.

    Up to ``DOT_CHUNK`` entries this is one dot, bit for bit ``u.dot(v)``
    for arrays with nonnegative strides (every array qopt builds); a reversed
    view may differ in the last bits.  Above that it sums the dots of
    consecutive ``DOT_CHUNK``-entry chunks in order, as Python floats, so the
    result does not depend on the BLAS thread count.  An overflow gives
    ``inf`` and no warning.
    """
    n = u.shape[0]
    if n <= DOT_CHUNK:
        return _vdot(u, v)
    total = float(_vdot(u[:DOT_CHUNK], v[:DOT_CHUNK]))
    for i in range(DOT_CHUNK, n, DOT_CHUNK):
        total += float(_vdot(u[i:i + DOT_CHUNK], v[i:i + DOT_CHUNK]))
    return total


def _is_finite_point(x):
    """True when every entry of the 1-D float64 array ``x`` is finite.

    A finite sum of squares proves every entry finite, so only a NaN, an
    infinity or an overflowing square sends the test to the entrywise scan.
    """
    return _dot(x, x) < math.inf or bool(np.isfinite(x).all())


def _norm(v):
    """2-norm of a 1-D float64 array: ``np.linalg.norm(v)`` bit for bit up to
    ``DOT_CHUNK`` entries, and independent of the BLAS thread count above."""
    return math.sqrt(_dot(v, v))


def _scaled_norm(v):
    """``(m, u, ||u||)`` with ``v = m u`` and ``||v|| = m ||u||``.

    This is ``(1.0, v, _norm(v))`` unless the sum of squares overflows while
    every entry is finite; then ``m = max|v|``, and ``||u|| <= sqrt(d)`` is
    finite.  A NaN or infinite entry leaves ``(1.0, v, nan or inf)``.
    """
    norm = _norm(v)
    if norm == math.inf and np.isfinite(v).all():
        m = float(np.abs(v).max())
        u = v / m
        return m, u, _norm(u)
    return 1.0, v, norm


def as_point(x, dim=None):
    """Coerce ``x`` to a 1-D float64 array, optionally checking its dimension."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise InvalidArgumentError(f"expected a 1-D point, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise InvalidArgumentError(f"dimension mismatch: expected {dim}, got {p.shape[0]}")
    return p


class FeasibleSet:
    """Base class for the supported compact convex sets."""

    kind = "abstract"

    def __init__(self, dimension):
        if not (is_int(dimension) and dimension >= 1):
            raise InvalidArgumentError(
                f"set dimension must be a positive integer, got {dimension!r}")
        self.dimension = int(dimension)

    # -- oracles -----------------------------------------------------------
    def project(self, x):
        """Euclidean projection of ``x`` onto the set, as a new array."""
        return self._project(as_point(x, self.dimension))

    def _project(self, x):
        """Body of :meth:`project` for a trusted 1-D float64 array of the set's dimension."""
        raise NotImplementedError

    def lmo(self, g):
        """A vertex minimizing ``<g, v>`` over the set, as a new array."""
        return self._lmo(as_point(g, self.dimension))

    def _lmo(self, g):
        """Body of :meth:`lmo` for a trusted 1-D float64 array of the set's dimension."""
        raise NotImplementedError

    def _step_toward_vertex(self, x, g, keep, weight):
        """Frank-Wolfe step on trusted arrays: ``keep x + weight lmo(g)`` as a new array.

        ``x`` and ``g`` are only read, so ``g`` may be ``x`` itself, as the
        zero-shift ``quadratic`` hands back.
        """
        return keep * x + weight * self._lmo(g)

    def diameter(self):
        raise NotImplementedError

    def distance(self, x):
        """Euclidean distance from ``x`` to the set: NaN when an entry of ``x``
        is NaN, otherwise infinite when one is infinite."""
        return self._distance(as_point(x, self.dimension))

    def _distance(self, x):
        """Body of :meth:`distance` for a trusted 1-D float64 array of the set's dimension."""
        try:
            scale, _, norm = _scaled_norm(self.project(x) - x)
            return scale * norm
        except NumericalFailureError:
            # Only a point with a NaN or infinite entry fails to project.
            return math.nan if np.isnan(x).any() else math.inf

    def contains(self, x):
        """True when ``x`` is finite and within ``MEMBERSHIP_TOL`` of the set."""
        x = as_point(x, self.dimension)
        return _is_finite_point(x) and self._distance(x) <= MEMBERSHIP_TOL

    def checked_point(self, x, name):
        """``x`` as a 1-D float64 array, once shown a finite point of the set.

        The one gate of the public entry points that take a caller's point:
        a point farther than ``MEMBERSHIP_TOL`` from the set, or not finite,
        is a :class:`PreconditionError` naming ``name``.
        """
        x = as_point(x, self.dimension)
        if not self.contains(x):
            raise PreconditionError(f"{name} must be a finite feasible point")
        return x

    # -- helpers used by the harness ----------------------------------------
    def canonical_vertex(self):
        """Deterministic starting point: the LMO output for a zero objective."""
        return self.lmo(np.zeros(self.dimension))

    def center_point(self):
        raise NotImplementedError

    def sample(self, rng, n=1):
        """Draw ``n`` points from the set using generator ``rng``; shape (n, d)."""
        raise NotImplementedError

    def to_spec(self):
        """JSON-serializable description, matching the experiment-config format."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_spec()})"


class Box(FeasibleSet):
    """Axis-aligned box ``{x : lower <= x <= upper}``."""

    kind = "box"

    def __init__(self, lower, upper):
        lower = as_point(lower)
        upper = as_point(upper, lower.shape[0])
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise InvalidArgumentError("box bounds must be finite")
        if not np.all(lower < upper):
            raise InvalidArgumentError("box requires lower[i] < upper[i] for every i")
        super().__init__(lower.shape[0])
        self.lower = lower
        self.upper = upper

    def _project(self, x):
        # The same bits as np.clip (NaN propagates), without its Python wrapper.
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def _lmo(self, g):
        # Per-coordinate: negative gradient picks the upper face, otherwise the
        # lower face; zero entries therefore fall back to the lower corner,
        # which makes lmo(0) the canonical first vertex.
        return np.where(g < 0, self.upper, self.lower)

    def diameter(self):
        with np.errstate(over="ignore"):  # bounds near the float limit give inf
            return _norm(self.upper - self.lower)

    def center_point(self):
        # Halved first: the sum of bounds of one sign can overflow.
        return 0.5 * self.lower + 0.5 * self.upper

    def sample(self, rng, n=1):
        with np.errstate(over="ignore"):
            if np.isfinite(self.upper - self.lower).all():
                return rng.uniform(self.lower, self.upper, size=(n, self.dimension))
        # A width above the float range: draw in the box halved, then double,
        # which is exact for normal floats.
        return 2.0 * rng.uniform(0.5 * self.lower, 0.5 * self.upper, size=(n, self.dimension))

    def grid(self, n):
        """Uniform 1-D grid including both endpoints; only defined for d = 1."""
        if self.dimension != 1:
            raise InvalidArgumentError("grid sampling is only defined for 1-D boxes")
        return np.linspace(self.lower[0], self.upper[0], n).reshape(-1, 1)

    def to_spec(self):
        return {"kind": "box", "lower": self.lower.tolist(), "upper": self.upper.tolist()}


class Ball(FeasibleSet):
    """Euclidean ball ``{x : ||x - center|| <= radius}``."""

    kind = "ball"

    def __init__(self, center, radius):
        center = as_point(center)
        if not np.isfinite(center).all():
            raise InvalidArgumentError("ball center must be finite")
        if not is_positive_finite(radius):
            raise InvalidArgumentError("ball radius must be a positive finite number")
        super().__init__(center.shape[0])
        self.center = center
        self.radius = float(radius)
        # Every point, and so every LMO vertex, must have finite coordinates.
        if not float(np.abs(center).max()) + self.radius < math.inf:
            raise InvalidArgumentError(
                "ball coordinates overflow: max|center| + radius is not finite")

    def _project(self, x):
        """An ``x - center`` that is not finite is a :class:`NumericalFailureError`."""
        scale, delta, norm = _scaled_norm(x - self.center)
        if scale * norm <= self.radius:
            return x.copy()
        if not norm < math.inf:
            raise NumericalFailureError(
                "ball projection of a point that is not finite, or too far from the center")
        return self.center + (self.radius / norm) * delta

    def _lmo(self, g):
        """``center - radius g / ||g||``; a NaN or infinite entry in ``g`` is a
        :class:`NumericalFailureError`, since the vertex would be NaN."""
        _, g, norm = _scaled_norm(g)
        if norm == 0.0:
            out = self.center.copy()
            out[0] += self.radius
            return out
        if not norm < math.inf:
            raise NumericalFailureError("ball LMO direction is not finite")
        return self.center - (self.radius / norm) * g

    def diameter(self):
        return 2.0 * self.radius

    def _distance(self, x):
        scale, _, norm = _scaled_norm(x - self.center)
        # max keeps its first argument unless the second is larger, so a NaN
        # distance stays NaN.
        return max(scale * norm - self.radius, 0.0)

    def center_point(self):
        return self.center.copy()

    def sample(self, rng, n=1):
        d = self.dimension
        dirs = rng.standard_normal((n, d))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        radii = self.radius * rng.random((n, 1)) ** (1.0 / d)
        return self.center + radii * dirs / norms

    def to_spec(self):
        return {"kind": "ball", "center": self.center.tolist(), "radius": self.radius}


def _simplex_projection(v, scale, idx):
    """``max(v - tau, 0)`` with the sort-based threshold ``tau`` of
    ``{x >= 0 : sum(x) = scale}``: the projection of ``v`` exactly when it
    sums to ``scale``.

    One sort and one scan; the descending cumsum fixes tau's bits.  ``idx``
    is the float ``1..d``.
    """
    u = np.sort(v)[::-1]
    # An infinite entry makes inf - inf here, and a large one can overflow
    # the cumsum, tau or v - tau.  The result's sum shows any of them, so
    # numpy's warnings about them are noise.
    with np.errstate(invalid="ignore", over="ignore"):
        css = np.cumsum(u)
        rho = len(v) - int((u - (css - scale) / idx > 0)[::-1].argmax())
        tau = (css[rho - 1] - scale) / rho
        return np.maximum(v - tau, 0.0)


class Simplex(FeasibleSet):
    """Scaled probability simplex ``{x >= 0 : sum(x) = scale}``."""

    kind = "simplex"

    def __init__(self, dimension, scale=1.0):
        super().__init__(dimension)
        if not is_positive_finite(scale):
            raise InvalidArgumentError("simplex scale must be a positive finite number")
        self.scale = float(scale)
        self._idx = np.arange(1.0, self.dimension + 1.0)

    def _project(self, v):
        out = _simplex_projection(v, self.scale, self._idx)
        # max(v - tau, 0) is the projection exactly when it sums to scale
        # (Duchi et al., 2008), so that sum is the one trust test.  Rounding
        # beside entries far above scale, an overflow or a NaN spoils it.
        with np.errstate(over="ignore"):
            if abs(out.sum() - self.scale) <= MEMBERSHIP_TOL * self.scale:
                return out
        top = v.max()
        if not math.isfinite(top):
            raise NumericalFailureError(
                "simplex projection found no finite threshold; the point is not finite")
        # The projection of v - top 1 is that of v, and divided by ``scale``
        # it is the projection onto the unit simplex, scaled down.  There an
        # entry below -1 projects to 0, so raising one below -2 to -2 keeps
        # the projection; with every entry in [-2, 0] and the largest at 0,
        # the cumsum stays finite and the first coordinate is active.
        with np.errstate(over="ignore"):
            w = np.maximum((v - top) / self.scale, -2.0)
        return self.scale * _simplex_projection(w, 1.0, self._idx)

    def _lmo(self, g):
        out = np.zeros(self.dimension)
        # np.argmin returns the first occurrence: ties break to the lowest index.
        out[int(np.argmin(g))] = self.scale
        return out

    def _step_toward_vertex(self, x, g, keep, weight):
        """Frank-Wolfe step on trusted arrays: ``keep x + weight scale e_i`` as a
        new array, with ``i = argmin(g)``.

        ``x`` and ``g`` are only read, so ``g`` may be ``x`` itself.  The vertex
        ``scale e_i`` has one nonzero entry; adding ``weight * 0.0`` elsewhere
        would not change a bit (apart from the sign of a zero).
        """
        y = x * keep
        y[g.argmin()] += weight * self.scale
        return y

    def diameter(self):
        # Largest pairwise distance between vertices scale * e_i.
        return self.scale * math.sqrt(2.0)

    def center_point(self):
        return np.full(self.dimension, self.scale / self.dimension)

    def sample(self, rng, n=1):
        e = rng.standard_exponential((n, self.dimension))
        return self.scale * e / e.sum(axis=1, keepdims=True)

    def to_spec(self):
        return {"kind": "simplex", "dimension": self.dimension, "scale": self.scale}


def set_from_spec(spec):
    """Build a set from its JSON description (see ``FeasibleSet.to_spec``)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidArgumentError("set spec must be a mapping with a 'kind' key")
    kind = spec["kind"]
    try:
        if kind == "box":
            return Box(spec["lower"], spec["upper"])
        if kind == "ball":
            return Ball(spec["center"], spec["radius"])
        if kind == "simplex":
            return Simplex(spec["dimension"], spec.get("scale", 1.0))
    except KeyError as exc:
        raise InvalidArgumentError(f"set spec for kind '{kind}' is missing {exc}") from exc
    raise InvalidArgumentError(f"unknown set kind '{kind}'")
