"""Compact convex feasible sets and the two oracles every solver needs.

Each set supports Euclidean projection, linear minimization (LMO), exact
diameter, membership testing, and in-set sampling.  Instances are immutable
after construction and safe to share across concurrent runs; all operations
are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

#: Default tolerance of :meth:`FeasibleSet.contains`; the prox, the line
#: search, ``run_accelerated`` and objective centers are checked against it.
MEMBERSHIP_TOL = 1e-10
#: Tolerance for the start points of the baselines and explicit config ``x0``.
FEASIBILITY_TOL = 1e-9


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
        self.dimension = int(dimension)
        if self.dimension < 1:
            raise InvalidArgumentError("set dimension must be a positive integer")

    # -- oracles -----------------------------------------------------------
    def project(self, x):
        raise NotImplementedError

    def lmo(self, g):
        raise NotImplementedError

    def diameter(self):
        raise NotImplementedError

    def distance(self, x):
        """Euclidean distance from ``x`` to the set."""
        x = as_point(x, self.dimension)
        return float(np.linalg.norm(self.project(x) - x))

    def contains(self, x, tol=MEMBERSHIP_TOL):
        if tol < 0:
            raise InvalidArgumentError("membership tolerance must be nonnegative")
        return self.distance(x) <= tol

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
        if not np.all(lower < upper):
            raise InvalidArgumentError("box requires lower[i] < upper[i] for every i")
        super().__init__(lower.shape[0])
        self.lower = lower
        self.upper = upper

    def project(self, x):
        x = as_point(x, self.dimension)
        # The same bits as np.clip (NaN propagates), without its Python wrapper.
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def lmo(self, g):
        # Per-coordinate: negative gradient picks the upper face, otherwise the
        # lower face; zero entries therefore fall back to the lower corner,
        # which makes lmo(0) the canonical first vertex.
        g = as_point(g, self.dimension)
        return np.where(g < 0, self.upper, self.lower).astype(float)

    def diameter(self):
        return float(np.linalg.norm(self.upper - self.lower))

    def center_point(self):
        return 0.5 * (self.lower + self.upper)

    def sample(self, rng, n=1):
        return rng.uniform(self.lower, self.upper, size=(n, self.dimension))

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
        if not radius > 0:
            raise InvalidArgumentError("ball radius must be positive")
        super().__init__(center.shape[0])
        self.center = center
        self.radius = float(radius)

    def project(self, x):
        x = as_point(x, self.dimension)
        delta = x - self.center
        norm = np.linalg.norm(delta)
        if norm <= self.radius:
            return x.copy()
        return self.center + (self.radius / norm) * delta

    def lmo(self, g):
        g = as_point(g, self.dimension)
        norm = np.linalg.norm(g)
        if norm == 0.0:
            out = self.center.copy()
            out[0] += self.radius
            return out
        return self.center - (self.radius / norm) * g

    def diameter(self):
        return 2.0 * self.radius

    def distance(self, x):
        x = as_point(x, self.dimension)
        return max(0.0, float(np.linalg.norm(x - self.center)) - self.radius)

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


class Simplex(FeasibleSet):
    """Scaled probability simplex ``{x >= 0 : sum(x) = scale}``."""

    kind = "simplex"

    def __init__(self, dimension, scale=1.0):
        super().__init__(dimension)
        if not scale > 0:
            raise InvalidArgumentError("simplex scale must be positive")
        self.scale = float(scale)

    def project(self, x):
        # Sort-based projection; terminates exactly after one sort and one scan.
        v = as_point(x, self.dimension)
        u = np.sort(v)[::-1]
        css = np.cumsum(u)
        idx = np.arange(1, self.dimension + 1)
        rho = idx[u - (css - self.scale) / idx > 0][-1]
        tau = (css[rho - 1] - self.scale) / rho
        return np.maximum(v - tau, 0.0)

    def lmo(self, g):
        g = as_point(g, self.dimension)
        out = np.zeros(self.dimension)
        # np.argmin returns the first occurrence: ties break to the lowest index.
        out[int(np.argmin(g))] = self.scale
        return out

    def diameter(self):
        # Largest pairwise distance between vertices scale * e_i.
        return self.scale * np.sqrt(2.0)

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
