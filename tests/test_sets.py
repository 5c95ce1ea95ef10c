import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qopt import Ball, Box, InvalidArgumentError, NumericalFailureError, Simplex, set_from_spec
from qopt.sets import DOT_CHUNK, MEMBERSHIP_TOL, _dot, _is_finite_point, as_point


def barycentric_grid(dim, scale, steps):
    """All grid points of the simplex with coordinates k * scale / steps."""
    pts = []
    for combo in itertools.product(range(steps + 1), repeat=dim - 1):
        if sum(combo) <= steps:
            rest = steps - sum(combo)
            pts.append(np.array(list(combo) + [rest]) * scale / steps)
    return np.array(pts)


def sort_projection_reference(v, scale):
    """The sort/cumsum/``idx[mask][-1]`` simplex projection whose bits are kept."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.shape[0] + 1)
    rho = idx[u - (css - scale) / idx > 0][-1]
    tau = (css[rho - 1] - scale) / rho
    return np.maximum(v - tau, 0.0)


class TestDot:
    @pytest.mark.parametrize("n", [1, 2, 5, 1000, DOT_CHUNK])
    def test_one_chunk_is_the_plain_dot(self, n, rng):
        for scale in (1e-150, 1.0, 1e150):
            u, v = rng.normal(size=(2, 3 * n)) * scale
            assert float(_dot(u[:n], v[:n])).hex() == float(u[:n].dot(v[:n])).hex()
            assert float(_dot(u[::3], v[::3])).hex() == float(u[::3].dot(v[::3])).hex()

    def test_chunks_are_summed_in_order(self, rng):
        u, v = rng.normal(size=(2, 3 * DOT_CHUNK + 7))
        expected = 0.0
        for i in range(0, len(u), DOT_CHUNK):
            expected += float(u[i:i + DOT_CHUNK].dot(v[i:i + DOT_CHUNK]))
        assert float(_dot(u, v)).hex() == expected.hex()

    @pytest.mark.parametrize("n", [2, 3 * DOT_CHUNK])
    def test_an_overflowing_sum_of_squares_is_inf_without_a_warning(self, n):
        # Tier-1 turns a RuntimeWarning into an error.
        x = np.full(n, 1e155)
        assert _dot(x, x) == np.inf
        assert _is_finite_point(x)
        x[-1] = np.nan
        assert not _is_finite_point(x)


class TestProjection:
    def test_box_clamp(self):
        box = Box([-1, -1], [1, 1])
        np.testing.assert_allclose(box.project([2.0, 0.5]), [1.0, 0.5])

    def test_interior_point_unchanged(self):
        box = Box([-1, -1], [1, 1])
        x = np.array([0.3, -0.7])
        np.testing.assert_array_equal(box.project(x), x)
        ball = Ball([0, 0], 2.0)
        np.testing.assert_array_equal(ball.project(x), x)

    def test_simplex_uniform_shift_case(self):
        # All coordinates stay positive, so the optimality conditions give a
        # uniform shift of (1 - sum)/3 = 1/15; values from the spec round to
        # (0.5667, 0.2667, 0.1667) at 4 decimals.
        simplex = Simplex(3)
        got = simplex.project([0.5, 0.2, 0.1])
        expected = np.array([0.5, 0.2, 0.1]) + (1.0 - 0.8) / 3.0
        np.testing.assert_allclose(got, expected, atol=1e-15)
        np.testing.assert_allclose(np.round(got, 4), [0.5667, 0.2667, 0.1667])

    def test_simplex_against_grid_search(self):
        # Independent oracle: brute-force nearest point on a fine simplex grid.
        simplex = Simplex(3)
        grid = barycentric_grid(3, 1.0, 240)
        rng = np.random.default_rng(0)
        for _ in range(25):
            x = rng.uniform(-1.0, 1.5, 3)
            proj = simplex.project(x)
            best = grid[np.argmin(np.sum((grid - x) ** 2, axis=1))]
            # The grid argmin can be off by at most the grid resolution.
            assert np.linalg.norm(proj - best) <= 2.0 / 240 * np.sqrt(2.0)

    def test_simplex_projection_feasible_and_exact_on_feasible(self):
        simplex = Simplex(5, scale=2.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            y = simplex.project(rng.normal(size=5))
            assert abs(y.sum() - 2.0) < 1e-12 and y.min() >= 0.0
        inside = simplex.sample(np.random.default_rng(2), 10)
        for x in inside:
            np.testing.assert_allclose(simplex.project(x), x, atol=1e-12)

    def test_ball_projection(self):
        ball = Ball([1.0, 0.0], 1.0)
        np.testing.assert_allclose(ball.project([3.0, 0.0]), [2.0, 0.0])

    def test_ball_projection_when_the_squared_norm_overflows(self):
        # ||x - c||^2 overflows, with no warning, while x - c is finite; the
        # direction is kept.
        np.testing.assert_allclose(Ball([0.0, 0.0], 1.0).project([1e200, 1e200]),
                                   [np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-15)
        np.testing.assert_allclose(Ball([1.0, 2.0], 2.0).project([1.5e308, 2.0]), [3.0, 2.0],
                                   rtol=1e-15)

    @pytest.mark.parametrize("dim", [1, 5, 30_000])
    def test_box_matches_clip_on_random_points(self, dim, rng):
        lower = rng.uniform(-2.0, 0.0, dim)
        box = Box(lower, lower + rng.uniform(0.5, 2.0, dim))
        for _ in range(20):
            x = rng.uniform(-4.0, 4.0, dim)
            assert box.project(x).tobytes() == np.clip(x, box.lower, box.upper).tobytes()

    def test_box_matches_clip_on_edge_values(self):
        # Bounds of +0.0 and -0.0 on both sides, points on a face, signed
        # zeros, infinities and NaN; np.clip is the reference bit pattern.
        box = Box([-0.0, 0.0, -1.0, -1.0], [1.0, 1.0, 0.0, -0.0])
        values = [0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan]
        for x in itertools.product(values, repeat=4):
            x = np.array(x)
            expected = np.clip(x, box.lower, box.upper)
            assert box.project(x).tobytes() == expected.tobytes()
            np.testing.assert_array_equal(np.isnan(box.project(x)), np.isnan(x))

    @pytest.mark.parametrize("dim", [1, 3, 50, 30_000])
    @pytest.mark.parametrize("scale", [1.0, 0.3, 7.0])
    def test_simplex_matches_sort_reference(self, dim, scale, rng):
        simplex = Simplex(dim, scale)
        points = [np.zeros(dim), 1e3 * rng.normal(size=dim)]
        for _ in range(3):
            points.append(rng.normal(size=dim))
            points.append(np.round(rng.normal(size=dim), 1))  # many ties
        for v in points:
            expected = sort_projection_reference(v, scale)
            assert simplex.project(v).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [1, 3, 50, 1000, 30_000])
    def test_simplex_projection_sums_to_the_scale(self, dim, rng):
        # Beside a constant shift far above the scale, rounding spoils the
        # first pass's threshold; whichever pass answers, the result is on
        # the simplex within the membership tolerance.
        for scale in (1e-6, 0.3, 1.0, 7.0, 1e6):
            simplex = Simplex(dim, scale)
            for k in range(14):
                noise = rng.normal(size=dim) * scale
                for v in (noise + 10.0 ** k, noise - 10.0 ** k, np.full(dim, 10.0 ** k)):
                    x = simplex.project(v)
                    assert x.min() >= 0.0
                    assert abs(x.sum() - scale) <= MEMBERSHIP_TOL * scale, (scale, k)

    def test_simplex_non_finite_input_is_a_numerical_failure(self):
        simplex = Simplex(3)
        for v in ([np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [np.inf, -np.inf, 0.0]):
            with pytest.raises(NumericalFailureError, match="simplex projection"):
                simplex.project(np.array(v))
        np.testing.assert_array_equal(simplex.project(np.array([-np.inf, 0.0, 0.0])),
                                      [0.0, 0.5, 0.5])

    @pytest.mark.parametrize("v,expected", [
        ([1e16, 1e16], [0.5, 0.5]),
        ([1e300, 1e300], [0.5, 0.5]),
        ([1e16, 1.0], [1.0, 0.0]),
        ([1e308, -1e308], [1.0, 0.0]),
        # The descending cumsum overflows to -inf.
        ([-9e307, -9e307, 5.0], [0.0, 0.0, 1.0]),
        ([-1e308, -1e308], [0.5, 0.5]),
        # The first pass sums to 2 here, and to 0.9765625 beside 1000 entries of 1e12.
        ([1.3000000000000002e16], [1.0]),
        ([1e12] * 1000, [1e-3] * 1000),
    ])
    def test_simplex_projects_a_far_finite_point(self, v, expected):
        # Rounding loses the scale beside entries this large, or the cumsum
        # overflows, and the first pass misses the sum; the projection then
        # retries with the largest entry shifted to 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(Simplex(len(v)).project(np.array(v)), expected)

    def test_simplex_projects_a_far_point_where_2_d_scale_overflows(self):
        # The retry's cumsum would overflow again at this scale: it projects
        # onto the unit simplex and scales the result back.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simplex = Simplex(3, 1e308)
            np.testing.assert_array_equal(simplex.project(np.array([0.0, -1e308, -1e308])),
                                          [1e308, 0.0, 0.0])
            # The cumsum overflows to +inf at the second coordinate, which
            # must not then look inactive.
            np.testing.assert_array_equal(Simplex(2, 1e300).project(np.array([1e308, 1e308])),
                                          [5e299, 5e299])
            np.testing.assert_array_equal(simplex.project(np.array([1e308, 1e308, -1e308])),
                                          [5e307, 5e307, 0.0])

    def test_ball_non_finite_input_is_a_numerical_failure(self):
        ball = Ball([0.0, 0.0], 1.0)
        for v in ([np.nan, 0.0], [-np.inf, 0.0], [np.inf, np.inf], [0.5, np.nan]):
            with pytest.raises(NumericalFailureError, match="ball projection"):
                ball.project(np.array(v))
        # x - center overflows although x is finite.
        with np.errstate(over="ignore"), pytest.raises(NumericalFailureError,
                                                       match="ball projection"):
            Ball([-1e308, 0.0], 1.0).project(np.array([1e308, 0.0]))

    def test_simplex_projection_leaks_no_numpy_warning(self):
        simplex = Simplex(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in ([np.inf, 0.0, 0.0], [np.nan, 1e308, 0.0]):
                with pytest.raises(NumericalFailureError, match="simplex projection"):
                    simplex.project(np.array(v))
            np.testing.assert_array_equal(simplex.project(np.array([-np.inf, 0.0, 0.0])),
                                          [0.0, 0.5, 0.5])
            np.testing.assert_array_equal(simplex.project(np.array([1e308, 1e308, 0.0])),
                                          [0.5, 0.5, 0.0])
            # v - tau overflows for the second entry, which projects to 0.
            top, scale = np.finfo(float).max, 2.0 ** 996
            np.testing.assert_array_equal(Simplex(2, scale).project(np.array([top, -2.0 ** 1023])),
                                          [scale, 0.0])
            # The first pass's two entries of 1.295e308 overflow its sum.
            np.testing.assert_array_equal(
                Simplex(4).project(np.array([8.9e307, 8.9e307, -1.7e308, -1.7e308])),
                [0.5, 0.5, 0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            Box([-1, -1], [1, 1]).project([1.0, 2.0, 3.0])
        with pytest.raises(InvalidArgumentError):
            Simplex(3).lmo([1.0])


class TestLMO:
    def test_simplex_min_coordinate(self):
        np.testing.assert_array_equal(Simplex(3).lmo([3.0, 1.0, 2.0]), [0, 1, 0])

    def test_box_sign_pattern(self):
        np.testing.assert_array_equal(Box([-1, -1], [1, 1]).lmo([1.0, -2.0]), [-1, 1])

    def test_ball_closed_form_and_angular_grid(self):
        ball = Ball([0.0, 0.0], 2.0)
        g = np.array([3.0, 4.0])
        v = ball.lmo(g)
        np.testing.assert_allclose(v, [-1.2, -1.6], atol=1e-14)
        # Cross-check optimality against a dense angular grid of the boundary.
        theta = np.linspace(0, 2 * np.pi, 100_000)
        boundary_values = 2.0 * (g[0] * np.cos(theta) + g[1] * np.sin(theta))
        assert float(g @ v) <= boundary_values.min() + 1e-8

    def test_ball_when_the_squared_norm_overflows(self):
        ball = Ball([0.0, 0.0], 1.0)
        for g in ([1e200, 1e200], [1.5e308, 1.5e308]):
            np.testing.assert_allclose(ball.lmo(g), [-np.sqrt(0.5), -np.sqrt(0.5)], rtol=1e-15)
        np.testing.assert_allclose(Ball([1.0, -1.0], 2.0).lmo([0.0, -1e300]), [1.0, 1.0],
                                   rtol=1e-15)

    def test_ball_keeps_the_unscaled_bits(self, rng):
        # Rescaling happens only on overflow: every other vertex and
        # projection is the plain formula, bit for bit.
        ball = Ball([0.5, -1.0, 2.0], 1.5)
        for g in rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-150, 150, size=(50, 1)):
            assert ball.lmo(g).tobytes() == (ball.center - (1.5 / np.linalg.norm(g)) * g).tobytes()
            delta = g - ball.center
            expected = ball.center + (1.5 / np.linalg.norm(delta)) * delta
            assert ball.project(g).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("g", [[np.nan, 0.0], [np.inf, 0.0], [1.0, -np.inf]])
    def test_ball_non_finite_direction_is_a_numerical_failure(self, g):
        # The vertex center - r g / ||g|| would be NaN.
        with pytest.raises(NumericalFailureError, match="ball LMO direction is not finite"):
            Ball([0.0, 0.0], 1.0).lmo(g)

    def test_tie_break_lowest_index(self):
        v = Simplex(4).lmo([1.0, 0.0, 0.0, 2.0])
        np.testing.assert_array_equal(v, [0, 1, 0, 0])

    def test_zero_gradient_canonical_points(self):
        np.testing.assert_array_equal(Box([-1, -2], [1, 2]).lmo([0.0, 0.0]), [-1, -2])
        np.testing.assert_array_equal(Simplex(3, 2.0).lmo([0.0, 0.0, 0.0]), [2, 0, 0])
        np.testing.assert_allclose(Ball([1.0, 1.0], 0.5).lmo([0.0, 0.0]), [1.5, 1.0])

    @pytest.mark.parametrize("dim", [2, 3, 6, 10])
    def test_vertex_optimality_brute_force(self, dim, rng):
        box = Box(-np.ones(dim), np.arange(1.0, dim + 1.0))
        simplex = Simplex(dim, scale=1.5)
        box_vertices = np.array([
            [box.lower[i] if bit else box.upper[i] for i, bit in enumerate(bits)]
            for bits in itertools.product([0, 1], repeat=dim)
        ])
        simplex_vertices = 1.5 * np.eye(dim)
        for _ in range(50):
            g = rng.normal(size=dim)
            assert g @ box.lmo(g) <= (box_vertices @ g).min() + 1e-12
            assert g @ simplex.lmo(g) <= (simplex_vertices @ g).min() + 1e-12


class TestStepTowardVertex:
    @pytest.mark.parametrize("set_", [
        Box([-1.0, -2.0, 0.0], [1.0, 0.5, 3.0]),
        Ball([0.5, -1.0, 2.0], 1.5),
        Simplex(3, 2.0),
        Simplex(50),
    ], ids=["box", "ball", "simplex3", "simplex50"])
    def test_matches_dense_vertex_combination(self, set_, rng):
        d = set_.dimension
        gradients = [np.zeros(d), np.ones(d), np.round(rng.normal(size=d), 0)]
        gradients += [rng.normal(size=d) for _ in range(5)]
        for x in set_.sample(rng, 4):
            # The last gradient is x itself, as the zero-shift quadratic returns.
            for g in gradients + [x]:
                for t in range(4):
                    keep, weight = t / (t + 2), 2.0 / (t + 2)
                    expected = keep * x + weight * set_.lmo(g)
                    x_bytes, g_bytes = x.tobytes(), g.tobytes()
                    stepped = set_._step_toward_vertex(x, g, keep, weight)
                    assert stepped.tobytes() == expected.tobytes()
                    assert not np.shares_memory(stepped, x)
                    assert (x.tobytes(), g.tobytes()) == (x_bytes, g_bytes)


class TestDiameter:
    def test_exact_values(self):
        assert Box([-1, -1], [1, 1]).diameter() == pytest.approx(2 * np.sqrt(2), abs=1e-15)
        assert Ball([3.0], 0.25).diameter() == 0.5
        assert Simplex(3).diameter() == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_simplex_matches_vertex_pair_oracle(self):
        for dim, scale in [(2, 1.0), (4, 3.0)]:
            vertices = scale * np.eye(dim)
            best = max(
                np.linalg.norm(u - v) for u in vertices for v in vertices
            )
            assert Simplex(dim, scale).diameter() == pytest.approx(best, rel=1e-15)

    @pytest.mark.parametrize("set_", [Box([-1, -1], [1, 1]), Ball([3.0], 0.25),
                                      Simplex(3, 5e153)], ids=["box", "ball", "simplex"])
    def test_is_a_python_float(self, set_):
        # Schedule constants built from D then overflow to inf in plain float
        # arithmetic, without a numpy warning.
        assert type(set_.diameter()) is float


class TestBoxNearTheFloatLimit:
    def test_center_of_bounds_of_one_sign_is_the_rounded_midpoint(self):
        # lower + upper overflows, but the midpoint is a float.  Tier-1 turns
        # numpy's overflow warning into an error.
        lower, upper = [1e308, -1.7e308, 5.0], [1.7e308, -1e308, 7.0]
        midpoints = [float((Fraction(a) + Fraction(b)) / 2) for a, b in zip(lower, upper)]
        assert Box(lower, upper).center_point().tolist() == midpoints

    def test_center_has_the_bits_of_the_half_sum(self, rng):
        lower = rng.normal(scale=1e3, size=1000)
        upper = lower + rng.exponential(scale=1e3, size=1000)
        assert Box(lower, upper).center_point().tobytes() == (0.5 * (lower + upper)).tobytes()

    def test_sample_of_a_box_wider_than_the_float_range(self, rng):
        box = Box([-1.7e308, 0.0], [1.7e308, 1.0])
        points = box.sample(rng, 1000)
        assert np.isfinite(points).all()
        assert ((box.lower <= points) & (points <= box.upper)).all()
        assert (points[:, 0] < -1e307).any() and (points[:, 0] > 1e307).any()

    def test_sample_of_a_finite_width_is_the_uniform_draw(self):
        # The same bits and the same random stream as before the overflow rule.
        box = Box([-8e307, -3.0], [8e307, 2.0])
        rng, reference = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(2):
            assert (box.sample(rng, 50).tobytes()
                    == reference.uniform(box.lower, box.upper, size=(50, 2)).tobytes())


class TestContains:
    def test_examples(self):
        box = Box([-1, -1], [1, 1])
        assert box.distance([0.0, 0.0]) == 0.0
        assert not box.distance([1 + 1e-6, 0.0]) <= 1e-9
        assert Simplex(3).distance([1 / 3, 1 / 3, 1 / 3]) <= 1e-12

    def test_consistent_with_projection(self, rng):
        for set_ in (Box([-1, -1], [1, 1]), Ball([0.5, 0.5], 1.2), Simplex(3)):
            for _ in range(100):
                x = rng.normal(scale=2.0, size=2 if set_.kind != "simplex" else 3)
                assert set_.contains(set_.project(x))

    def test_ball_distance_when_the_squared_norm_overflows(self):
        ball = Ball([0.0, 0.0], 1.0)
        assert ball.distance([1e200, 1e200]) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
        assert not ball.contains([1e200, 1e200])
        # Past the largest float the distance itself overflows.
        assert ball.distance([1.5e308, 1.5e308]) == np.inf

    @pytest.mark.parametrize("value", [1e16, 1e200, math.nan, math.inf])
    @pytest.mark.parametrize("set_", [Box([-1.0, -1.0], [1.0, 1.0]), Ball([0.0, 0.0], 1.0),
                                      Simplex(2)], ids=["box", "ball", "simplex"])
    def test_far_and_non_finite_points(self, set_, value):
        # Every set answers the same way: no member, and the distance is the
        # sqrt(2) value (up to the set's own offset), inf or NaN.
        x = [value, value]
        assert not set_.contains(x)
        if math.isnan(value):
            assert math.isnan(set_.distance(x))
        else:
            assert set_.distance(x) == pytest.approx(math.sqrt(2.0) * value, rel=1e-15)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_ball_distance_is_the_radial_excess(self, dim, rng):
        # A ball measures distance through its projection, as every set does;
        # that agrees with max(||x - c|| - r, 0), and so does membership,
        # inside, within 1e-9 of the sphere, outside and at 1e200.
        eps = np.finfo(float).eps
        for _ in range(50):
            center = rng.normal(scale=3.0, size=dim)
            radius = rng.uniform(0.5, 3.0)
            ball = Ball(center, radius)
            u = rng.normal(size=dim)
            u /= np.linalg.norm(u)
            for length in (radius * rng.uniform(0.0, 0.999),
                           radius + rng.uniform(-1e-9, 1e-9),
                           radius * (1.0 + rng.uniform(0.01, 10.0)),
                           1e200):
                x = center + length * u
                reference = max(math.hypot(*(x - center)) - radius, 0.0)
                tol = 4 * eps * (math.hypot(*x) + math.hypot(*center) + radius)
                assert abs(ball.distance(x) - reference) <= tol, (x, center, radius)
                if abs(reference - MEMBERSHIP_TOL) > tol:
                    assert ball.contains(x) == (reference <= MEMBERSHIP_TOL)
                for bad, expected in ((math.nan, math.nan), (math.inf, math.inf),
                                      (-math.inf, math.inf)):
                    y = x.copy()
                    y[-1] = bad
                    distance = ball.distance(y)
                    assert distance == expected or math.isnan(expected) and math.isnan(distance)
                    assert not ball.contains(y)

    def test_nan_point_is_not_in_a_ball(self):
        ball = Ball([0.0, 0.0], 1.0)
        for x in ([np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan]):
            assert np.isnan(ball.distance(x))
            assert not ball.contains(x)
            assert not ball.distance(x) <= 1e300


class TestProjectionProperties:
    SETS = [
        Box([-1.0, -0.5, 0.0], [1.0, 2.0, 0.5]),
        Ball([0.2, -0.3, 0.1], 1.5),
        Simplex(3, scale=2.0),
    ]

    @pytest.mark.parametrize("set_", SETS, ids=lambda s: s.kind)
    def test_idempotence(self, set_, rng):
        for _ in range(1000):
            x = rng.normal(scale=3.0, size=3)
            p = set_.project(x)
            assert np.linalg.norm(set_.project(p) - p) <= 1e-12

    @pytest.mark.parametrize("set_", SETS, ids=lambda s: s.kind)
    def test_nonexpansiveness(self, set_, rng):
        for _ in range(500):
            x, y = rng.normal(scale=3.0, size=(2, 3))
            assert (
                np.linalg.norm(set_.project(x) - set_.project(y))
                <= np.linalg.norm(x - y) + 1e-12
            )

    @pytest.mark.parametrize("set_", SETS, ids=lambda s: s.kind)
    def test_variational_characterization(self, set_, rng):
        for _ in range(300):
            x = rng.normal(scale=3.0, size=3)
            p = set_.project(x)
            v = set_.sample(rng, 1)[0]
            lhs = float((x - p) @ (v - p))
            assert lhs <= 1e-10 * np.linalg.norm(x - p) * np.linalg.norm(v - p) + 1e-14

    @pytest.mark.parametrize("set_", SETS, ids=lambda s: s.kind)
    def test_samples_are_feasible(self, set_, rng):
        for x in set_.sample(rng, 500):
            assert set_.distance(x) <= 1e-9


class TestConstructionAndSpec:
    def test_invalid_sets_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Box([0.0, 0.0], [1.0, 0.0])  # empty interior in coordinate 2
        with pytest.raises(InvalidArgumentError):
            Ball([0.0], 0.0)
        with pytest.raises(InvalidArgumentError):
            Simplex(3, scale=-1.0)
        with pytest.raises(InvalidArgumentError):
            Simplex(0)

    @pytest.mark.parametrize("build", [
        lambda: Box([-np.inf, 0.0], [1.0, 1.0]),
        lambda: Box([0.0, 0.0], [1.0, np.inf]),
        lambda: Box([np.nan, 0.0], [1.0, 1.0]),
        lambda: Ball([np.nan, 0.0], 1.0),
        lambda: Ball([0.0, np.inf], 1.0),
        lambda: Ball([0.0, 0.0], np.inf),
        lambda: Ball([0.0, 0.0], np.nan),
        lambda: Simplex(3, np.inf),
        lambda: Simplex(3, np.nan),
        # Finite parameters, but the point center + radius e_1 is not.
        lambda: Ball([1e308, 0.0], 1e308),
    ], ids=["box_lower_inf", "box_upper_inf", "box_nan", "ball_center_nan", "ball_center_inf",
            "ball_radius_inf", "ball_radius_nan", "simplex_scale_inf", "simplex_scale_nan",
            "ball_coordinates_overflow"])
    def test_non_finite_parameters_rejected(self, build):
        with pytest.raises(InvalidArgumentError):
            build()

    @pytest.mark.parametrize("dimension", [2.5, 3.0, True, np.bool_(True), "3", None],
                             ids=["fraction", "integral_float", "bool", "numpy_bool", "string",
                                  "none"])
    def test_non_integer_dimension_rejected(self, dimension):
        with pytest.raises(InvalidArgumentError):
            Simplex(dimension)
        with pytest.raises(InvalidArgumentError):
            set_from_spec({"kind": "simplex", "dimension": dimension})

    def test_numpy_integer_dimension_accepted(self):
        simplex = Simplex(np.int64(3))
        assert simplex.dimension == 3 and type(simplex.dimension) is int

    def test_spec_round_trip(self):
        for set_ in (Box([-1, 0], [1, 2]), Ball([1.0, 2.0], 3.0), Simplex(4, 2.0)):
            clone = set_from_spec(set_.to_spec())
            assert clone.kind == set_.kind
            assert clone.dimension == set_.dimension
            assert clone.diameter() == set_.diameter()

    def test_bad_specs(self):
        with pytest.raises(InvalidArgumentError):
            set_from_spec({"kind": "polytope"})
        with pytest.raises(InvalidArgumentError):
            set_from_spec({"kind": "box", "lower": [0]})
        with pytest.raises(InvalidArgumentError):
            set_from_spec("box")

    def test_as_point_validation(self):
        with pytest.raises(InvalidArgumentError):
            as_point([[1.0, 2.0]])
        with pytest.raises(InvalidArgumentError):
            as_point([1.0], dim=2)

    @pytest.mark.parametrize("x", [
        ["1", "0"], [1.0, True], [np.True_, 0.0], (0.5, "0.5"), [np.str_("1")], [b"1"],
        np.array([True, False]), np.array(["1", "0"]), np.array([b"1"]),
        np.array([1.0, "1"], dtype=object),
    ], ids=["strings", "bool_beside_float", "numpy_bool", "tuple_string", "numpy_str",
            "bytes", "bool_dtype", "str_dtype", "bytes_dtype", "object_array_string"])
    def test_as_point_rejects_bool_and_string_entries(self, x):
        with pytest.raises(InvalidArgumentError, match="entries must be numbers"):
            as_point(x)

    @pytest.mark.parametrize("x", [
        [math.nan, math.inf], [-math.inf, 0], [np.float64(0.5), Fraction(1, 2), np.int8(3)],
        np.array([1, 2], dtype=np.uint8), np.array([0.5, math.nan], dtype=object),
    ], ids=["non_finite", "int_beside_inf", "numpy_and_fraction", "uint8_dtype", "object_array"])
    def test_as_point_keeps_numbers(self, x):
        p = as_point(x)
        assert p.dtype == np.float64
        assert p.tobytes() == np.array([float(v) for v in x]).tobytes()
