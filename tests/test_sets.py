import itertools

import numpy as np
import pytest

from qopt import Ball, Box, InvalidArgumentError, Simplex, set_from_spec
from qopt.sets import as_point


def barycentric_grid(dim, scale, steps):
    """All grid points of the simplex with coordinates k * scale / steps."""
    pts = []
    for combo in itertools.product(range(steps + 1), repeat=dim - 1):
        if sum(combo) <= steps:
            rest = steps - sum(combo)
            pts.append(np.array(list(combo) + [rest]) * scale / steps)
    return np.array(pts)


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


class TestContains:
    def test_examples(self):
        box = Box([-1, -1], [1, 1])
        assert box.contains([0.0, 0.0], tol=0.0)
        assert not box.contains([1 + 1e-6, 0.0], tol=1e-9)
        assert Simplex(3).contains([1 / 3, 1 / 3, 1 / 3], tol=1e-12)

    def test_consistent_with_projection(self, rng):
        for set_ in (Box([-1, -1], [1, 1]), Ball([0.5, 0.5], 1.2), Simplex(3)):
            for _ in range(100):
                x = rng.normal(scale=2.0, size=2 if set_.kind != "simplex" else 3)
                assert set_.contains(set_.project(x))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Box([-1], [1]).contains([0.0], tol=-1e-3)


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
            assert set_.contains(x, tol=1e-9)


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
